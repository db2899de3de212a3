#include "encoding/ts2diff.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/random.h"
#include "encoding/varint.h"
#include "reference_codec.h"
#include "test_util.h"

namespace tsviz {
namespace {

void ExpectRoundTrip(const std::vector<Timestamp>& ts) {
  std::string buf;
  ASSERT_OK(EncodeTs2Diff(ts, &buf));
  std::string_view view = buf;
  std::vector<Timestamp> decoded;
  ASSERT_OK(DecodeTs2Diff(&view, ts.size(), &decoded));
  EXPECT_EQ(decoded, ts);
  EXPECT_TRUE(view.empty());
}

TEST(Ts2DiffTest, EmptyAndSingle) {
  ExpectRoundTrip({});
  ExpectRoundTrip({1234567890});
  ExpectRoundTrip({-5});  // negative timestamps are legal
}

TEST(Ts2DiffTest, RegularCadenceCompressesToOneByteishPerPoint) {
  std::vector<Timestamp> ts;
  for (int i = 0; i < 10000; ++i) ts.push_back(1600000000000LL + i * 9000LL);
  std::string buf;
  ASSERT_OK(EncodeTs2Diff(ts, &buf));
  // first ts (8 bytes) + first delta (2 bytes) + 9998 zero deltas (1 byte).
  EXPECT_LT(buf.size(), 10100u);
  std::string_view view = buf;
  std::vector<Timestamp> decoded;
  ASSERT_OK(DecodeTs2Diff(&view, ts.size(), &decoded));
  EXPECT_EQ(decoded, ts);
}

TEST(Ts2DiffTest, IrregularWithGaps) {
  std::vector<Timestamp> ts = {0, 10, 20, 1000000, 1000010, 1000021, 5000000};
  ExpectRoundTrip(ts);
}

TEST(Ts2DiffTest, RandomIncreasingRoundTrip) {
  Rng rng(7);
  for (int round = 0; round < 20; ++round) {
    std::vector<Timestamp> ts;
    Timestamp t = rng.Uniform(-1000000, 1000000);
    size_t n = static_cast<size_t>(rng.Uniform(1, 2000));
    for (size_t i = 0; i < n; ++i) {
      ts.push_back(t);
      t += rng.Uniform(1, 100000);
    }
    ExpectRoundTrip(ts);
  }
}

TEST(Ts2DiffTest, RejectsNonIncreasing) {
  std::string buf;
  EXPECT_EQ(EncodeTs2Diff({10, 10}, &buf).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(EncodeTs2Diff({10, 5}, &buf).code(),
            StatusCode::kInvalidArgument);
}

TEST(Ts2DiffTest, TruncatedStreamIsCorruption) {
  std::vector<Timestamp> ts = {0, 100, 200, 300};
  std::string buf;
  ASSERT_OK(EncodeTs2Diff(ts, &buf));
  std::string truncated = buf.substr(0, buf.size() - 1);
  std::string_view view = truncated;
  std::vector<Timestamp> decoded;
  EXPECT_EQ(DecodeTs2Diff(&view, ts.size(), &decoded).code(),
            StatusCode::kCorruption);
}

TEST(Ts2DiffTest, CorruptDeltaDetected) {
  // Hand-build a stream whose second delta drives the cadence negative.
  std::string buf;
  ASSERT_OK(EncodeTs2Diff({0, 10, 20}, &buf));
  // Append a bogus decoded count: claim 4 points so the decoder reads into
  // garbage. The remaining bytes are empty -> corruption.
  std::string_view view = buf;
  std::vector<Timestamp> decoded;
  EXPECT_EQ(DecodeTs2Diff(&view, 4, &decoded).code(),
            StatusCode::kCorruption);
}

TEST(Ts2DiffTest, ZeroOrNegativeDeltaIsCorruption) {
  for (int64_t second_dd : {int64_t{-5}, int64_t{-6}}) {
    // t0 = 10, first delta 5, then a delta of 0 (dd -5) or -1 (dd -6).
    std::string buf;
    PutFixed64(&buf, 10);
    PutSignedVarint64(&buf, 5);
    PutSignedVarint64(&buf, second_dd);
    std::string_view view = buf;
    std::vector<Timestamp> decoded;
    EXPECT_EQ(DecodeTs2Diff(&view, 3, &decoded).code(),
              StatusCode::kCorruption)
        << second_dd;
  }
}

TEST(Ts2DiffTest, EveryTruncationMatchesReference) {
  std::vector<Timestamp> ts = {-1000, 0, 1, 3, 300, 100000, 100001};
  Rng rng(9);
  for (int i = 0; i < 16; ++i) {
    ts.push_back(ts.back() + rng.Uniform(1, int64_t{1} << 40));
  }
  std::string buf;
  ASSERT_OK(EncodeTs2Diff(ts, &buf));
  for (size_t keep = 0; keep <= buf.size(); ++keep) {
    const std::string_view block = std::string_view(buf).substr(0, keep);
    for (size_t count = 0; count <= ts.size(); ++count) {
      std::string_view view = block;
      std::vector<Timestamp> got;
      std::vector<Timestamp> want;
      Status got_status = DecodeTs2Diff(&view, count, &got);
      Status want_status = reference::DecodeTs2Diff(block, count, &want);
      ASSERT_EQ(got_status.ok(), want_status.ok())
          << "keep " << keep << " count " << count;
      if (got_status.ok()) {
        ASSERT_EQ(got, want);
      }
    }
  }
}

}  // namespace
}  // namespace tsviz
