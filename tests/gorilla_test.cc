#include "encoding/gorilla.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/random.h"
#include "reference_codec.h"
#include "test_util.h"

namespace tsviz {
namespace {

void ExpectRoundTrip(const std::vector<Value>& values) {
  std::string buf;
  ASSERT_OK(EncodeGorilla(values, &buf));
  std::vector<Value> decoded;
  ASSERT_OK(DecodeGorilla(buf, values.size(), &decoded));
  ASSERT_EQ(decoded.size(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    if (std::isnan(values[i])) {
      EXPECT_TRUE(std::isnan(decoded[i])) << "index " << i;
    } else {
      EXPECT_EQ(decoded[i], values[i]) << "index " << i;
    }
  }
}

TEST(GorillaTest, EmptyAndSingle) {
  ExpectRoundTrip({});
  ExpectRoundTrip({3.14159});
  ExpectRoundTrip({0.0});
}

TEST(GorillaTest, ConstantSeriesIsOneBitPerPoint) {
  std::vector<Value> values(10000, 42.5);
  std::string buf;
  ASSERT_OK(EncodeGorilla(values, &buf));
  // 8 bytes header + ~1 bit per repeat.
  EXPECT_LT(buf.size(), 8u + 10000 / 8 + 2);
  ExpectRoundTrip(values);
}

TEST(GorillaTest, SlowlyVaryingSeries) {
  std::vector<Value> values;
  double v = 100.0;
  for (int i = 0; i < 5000; ++i) {
    v += 0.01;
    values.push_back(v);
  }
  ExpectRoundTrip(values);
}

TEST(GorillaTest, SpecialValues) {
  ExpectRoundTrip({0.0, -0.0, 1.0, -1.0,
                   std::numeric_limits<double>::infinity(),
                   -std::numeric_limits<double>::infinity(),
                   std::numeric_limits<double>::quiet_NaN(),
                   std::numeric_limits<double>::denorm_min(),
                   std::numeric_limits<double>::max(),
                   std::numeric_limits<double>::lowest(), 0.0});
}

TEST(GorillaTest, AlternatingExtremes) {
  std::vector<Value> values;
  for (int i = 0; i < 1000; ++i) {
    values.push_back(i % 2 == 0 ? 1e300 : -1e-300);
  }
  ExpectRoundTrip(values);
}

TEST(GorillaTest, RandomRoundTrip) {
  Rng rng(11);
  for (int round = 0; round < 10; ++round) {
    std::vector<Value> values;
    size_t n = static_cast<size_t>(rng.Uniform(1, 3000));
    for (size_t i = 0; i < n; ++i) {
      switch (rng.Uniform(0, 3)) {
        case 0:
          values.push_back(rng.Gaussian(0, 1e6));
          break;
        case 1:
          values.push_back(static_cast<double>(rng.Uniform(-100, 100)));
          break;
        case 2:
          values.push_back(values.empty() ? 0.0 : values.back());
          break;
        default:
          values.push_back(rng.UniformReal(-1.0, 1.0));
      }
    }
    ExpectRoundTrip(values);
  }
}

TEST(GorillaTest, TruncatedStreamIsCorruption) {
  std::vector<Value> values = {1.0, 2.0, 3.0, 4.5, 5.25};
  std::string buf;
  ASSERT_OK(EncodeGorilla(values, &buf));
  std::vector<Value> decoded;
  EXPECT_EQ(
      DecodeGorilla(std::string_view(buf).substr(0, 9), 5, &decoded).code(),
      StatusCode::kCorruption);
}

TEST(GorillaTest, DecodingMoreThanEncodedFails) {
  std::vector<Value> values = {1.0};
  std::string buf;
  ASSERT_OK(EncodeGorilla(values, &buf));
  std::vector<Value> decoded;
  // Asking for 100 values walks off the end of the bit stream.
  EXPECT_FALSE(DecodeGorilla(buf, 100, &decoded).ok());
}

// Cuts an encoded block at every byte length and asks for every count up to
// the full one: the decoder must fail exactly where the per-bit reference
// fails — including a payload cut inside the last value — and otherwise
// return the same values.
TEST(GorillaTest, EveryTruncationMatchesReference) {
  Rng rng(5);
  std::vector<Value> values = {1.0, 1.0, 2.0, -3.5, 1e300, 0.0, 0.0, 7.25};
  for (int i = 0; i < 24; ++i) values.push_back(rng.UniformReal(-10, 10));
  std::string buf;
  ASSERT_OK(EncodeGorilla(values, &buf));
  for (size_t keep = 0; keep <= buf.size(); ++keep) {
    const std::string_view block = std::string_view(buf).substr(0, keep);
    for (size_t count = 0; count <= values.size(); ++count) {
      std::vector<Value> got;
      std::vector<Value> want;
      Status got_status = DecodeGorilla(block, count, &got);
      Status want_status = reference::DecodeGorilla(block, count, &want);
      ASSERT_EQ(got_status.ok(), want_status.ok())
          << "keep " << keep << " count " << count;
      if (got_status.ok()) {
        ASSERT_EQ(got, want) << "keep " << keep << " count " << count;
      } else {
        EXPECT_EQ(got_status.code(), StatusCode::kCorruption);
      }
    }
  }
}

}  // namespace
}  // namespace tsviz
