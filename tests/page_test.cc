#include "encoding/page.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "encoding/crc32c.h"
#include "encoding/varint.h"
#include "reference_codec.h"
#include "test_util.h"
#include "workload/generator.h"

namespace tsviz {
namespace {

std::vector<Point> SamplePoints(size_t n) {
  std::vector<Point> points;
  for (size_t i = 0; i < n; ++i) {
    points.push_back(Point{static_cast<Timestamp>(1000 + i * 7),
                           static_cast<Value>(i) * 0.5 - 3.0});
  }
  return points;
}

class PageCodecMatrix
    : public ::testing::TestWithParam<std::tuple<TsCodec, ValueCodec>> {};

TEST_P(PageCodecMatrix, RoundTripsAllCodecCombinations) {
  auto [ts_codec, value_codec] = GetParam();
  std::vector<Point> points = SamplePoints(500);
  std::string blob;
  PageInfo info;
  ASSERT_OK(EncodePage(points.data(), points.size(), ts_codec, value_codec,
                       &blob, &info));
  EXPECT_EQ(info.count, 500u);
  EXPECT_EQ(info.min_t, points.front().t);
  EXPECT_EQ(info.max_t, points.back().t);
  EXPECT_EQ(info.offset, 0u);
  EXPECT_EQ(info.length, blob.size());

  std::vector<Point> decoded;
  ASSERT_OK(DecodePage(blob, &decoded));
  EXPECT_EQ(decoded, points);
}

INSTANTIATE_TEST_SUITE_P(
    AllCodecs, PageCodecMatrix,
    ::testing::Combine(::testing::Values(TsCodec::kPlain, TsCodec::kTs2Diff),
                       ::testing::Values(ValueCodec::kPlain,
                                         ValueCodec::kGorilla)));

TEST(PageTest, EmptyPageRejected) {
  std::string blob;
  EXPECT_EQ(EncodePage(nullptr, 0, TsCodec::kTs2Diff, ValueCodec::kGorilla,
                       &blob, nullptr)
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(PageTest, AppendsAfterExistingBytes) {
  std::vector<Point> points = SamplePoints(10);
  std::string blob = "prefix";
  PageInfo info;
  ASSERT_OK(EncodePage(points.data(), points.size(), TsCodec::kTs2Diff,
                       ValueCodec::kGorilla, &blob, &info));
  EXPECT_EQ(info.offset, 6u);
  std::vector<Point> decoded;
  ASSERT_OK(DecodePage(std::string_view(blob).substr(info.offset,
                                                     info.length),
                       &decoded));
  EXPECT_EQ(decoded, points);
}

TEST(PageTest, ChecksumDetectsEveryByteFlip) {
  std::vector<Point> points = SamplePoints(50);
  std::string blob;
  ASSERT_OK(EncodePage(points.data(), points.size(), TsCodec::kTs2Diff,
                       ValueCodec::kGorilla, &blob, nullptr));
  Rng rng(3);
  for (int trial = 0; trial < 64; ++trial) {
    std::string corrupt = blob;
    size_t pos = static_cast<size_t>(
        rng.Uniform(0, static_cast<int64_t>(blob.size()) - 1));
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x40);
    std::vector<Point> decoded;
    EXPECT_FALSE(DecodePage(corrupt, &decoded).ok())
        << "flip at byte " << pos << " undetected";
  }
}

TEST(PageTest, TruncationDetected) {
  std::vector<Point> points = SamplePoints(50);
  std::string blob;
  ASSERT_OK(EncodePage(points.data(), points.size(), TsCodec::kTs2Diff,
                       ValueCodec::kGorilla, &blob, nullptr));
  for (size_t keep : {size_t{0}, size_t{4}, blob.size() / 2,
                      blob.size() - 1}) {
    std::vector<Point> decoded;
    EXPECT_FALSE(
        DecodePage(std::string_view(blob).substr(0, keep), &decoded).ok());
  }
}

TEST(PageTest, SinglePointPage) {
  Point p{42, 3.5};
  std::string blob;
  PageInfo info;
  ASSERT_OK(EncodePage(&p, 1, TsCodec::kTs2Diff, ValueCodec::kGorilla, &blob,
                       &info));
  EXPECT_EQ(info.min_t, 42);
  EXPECT_EQ(info.max_t, 42);
  std::vector<Point> decoded;
  ASSERT_OK(DecodePage(blob, &decoded));
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0], p);
}

TEST(PageTest, DecodeAppendsToExistingOutput) {
  std::vector<Point> points = SamplePoints(5);
  std::string blob;
  ASSERT_OK(EncodePage(points.data(), points.size(), TsCodec::kPlain,
                       ValueCodec::kPlain, &blob, nullptr));
  std::vector<Point> out = {Point{-1, -1.0}};
  ASSERT_OK(DecodePage(blob, &out));
  ASSERT_EQ(out.size(), 6u);
  EXPECT_EQ(out[0], (Point{-1, -1.0}));
  EXPECT_EQ(out[1], points[0]);
}

// Seals `body` into a page with a valid checksum, as a writer that encoded
// the bytes on purpose would: the checksum then proves nothing about them.
std::string Restamp(std::string_view body) {
  std::string page(body);
  PutFixed64(&page, Crc32c(body));
  return page;
}

// The same page sealed the v01 way, with FNV-1a 64.
std::string RestampFnv(std::string_view page) {
  std::string_view body = page.substr(0, page.size() - 8);
  std::string out(body);
  PutFixed64(&out, Fnv1a64(body));
  return out;
}

TEST(PageTest, ChecksumIsZeroExtendedCrc32c) {
  std::vector<Point> points = SamplePoints(50);
  std::string blob;
  ASSERT_OK(EncodePage(points.data(), points.size(), TsCodec::kTs2Diff,
                       ValueCodec::kGorilla, &blob, nullptr));
  const std::string_view body(blob.data(), blob.size() - 8);
  EXPECT_EQ(DecodeFixed64(blob.data() + body.size()),
            uint64_t{reference::Crc32c(body)});
  // A stored value whose low half matches but whose high half does not is
  // a mismatch: all 64 bits are compared.
  for (size_t byte = 4; byte < 8; ++byte) {
    std::string corrupt = blob;
    corrupt[body.size() + byte] = '\x01';
    std::vector<Point> decoded;
    EXPECT_EQ(DecodePage(corrupt, &decoded).code(), StatusCode::kCorruption)
        << "upper byte " << byte;
    EXPECT_TRUE(decoded.empty());
  }
}

TEST(PageTest, FnvPagesDecodeOnlyAsFnv) {
  std::vector<Point> points = SamplePoints(50);
  std::string blob;
  ASSERT_OK(EncodePage(points.data(), points.size(), TsCodec::kTs2Diff,
                       ValueCodec::kGorilla, &blob, nullptr));
  const std::string v01 = RestampFnv(blob);
  std::vector<Point> decoded;
  ASSERT_OK(DecodePage(v01, &decoded, PageChecksum::kFnv1a64));
  EXPECT_EQ(decoded, points);
  decoded.clear();
  EXPECT_EQ(DecodePage(v01, &decoded).code(), StatusCode::kCorruption);
  EXPECT_EQ(DecodePage(blob, &decoded, PageChecksum::kFnv1a64).code(),
            StatusCode::kCorruption);
  EXPECT_TRUE(decoded.empty());
}

// Every byte of a page from each generator, under both checksums, replaced
// by each of the 255 other values: the checksum rejects every one.
TEST(PageTest, EverySingleByteCorruptionIsRejected) {
  size_t mutations = 0;
  for (DatasetKind kind : AllDatasetKinds()) {
    DatasetSpec spec;
    spec.kind = kind;
    spec.num_points = 50;
    std::vector<Point> points = GenerateDataset(spec);
    std::string crc_page;
    ASSERT_OK(EncodePage(points.data(), points.size(), TsCodec::kTs2Diff,
                         ValueCodec::kGorilla, &crc_page, nullptr));
    const std::pair<std::string, PageChecksum> sealed[] = {
        {crc_page, PageChecksum::kCrc32c},
        {RestampFnv(crc_page), PageChecksum::kFnv1a64}};
    for (const auto& [page, checksum] : sealed) {
      std::string corrupt = page;
      std::vector<Point> decoded;
      for (size_t pos = 0; pos < page.size(); ++pos) {
        for (int mask = 1; mask < 256; ++mask) {
          corrupt[pos] = static_cast<char>(page[pos] ^ mask);
          ASSERT_EQ(DecodePage(corrupt, &decoded, checksum).code(),
                    StatusCode::kCorruption)
              << DatasetName(kind) << " byte " << pos << " mask " << mask;
          ++mutations;
        }
        corrupt[pos] = page[pos];
      }
      EXPECT_TRUE(decoded.empty());
    }
  }
  EXPECT_GT(mutations, 50000u);
}

// Replaces the page's count varint with `count` and restamps it.
std::string WithCount(std::string_view page, uint64_t count) {
  std::string_view body = page.substr(0, page.size() - 8);
  EXPECT_TRUE(GetVarint64(&body).ok());
  std::string out;
  PutVarint64(&out, count);
  out.append(body);
  return Restamp(out);
}

TEST(PageTest, AbsurdCountIsCorruptionNotAnAllocation) {
  std::vector<Point> points = SamplePoints(2);
  for (TsCodec ts_codec : {TsCodec::kTs2Diff, TsCodec::kPlain}) {
    for (ValueCodec value_codec :
         {ValueCodec::kGorilla, ValueCodec::kPlain, ValueCodec::kRle}) {
      std::string blob;
      ASSERT_OK(EncodePage(points.data(), points.size(), ts_codec,
                           value_codec, &blob, nullptr));
      for (uint64_t count : {uint64_t{1} << 40, uint64_t{1} << 62,
                             ~uint64_t{0}, uint64_t{3}}) {
        std::vector<Point> decoded = {Point{7, 7.0}};
        Status status = DecodePage(WithCount(blob, count), &decoded);
        EXPECT_EQ(status.code(), StatusCode::kCorruption) << count;
        EXPECT_EQ(decoded, (std::vector<Point>{Point{7, 7.0}}));
      }
    }
  }
}

// One seeded mutation of a page's body (the checksum is restamped after).
std::string Mutate(std::string_view page, Rng& rng) {
  std::string body(page.substr(0, page.size() - 8));
  auto pick = [&](size_t n) {
    return static_cast<size_t>(rng.Uniform(0, static_cast<int64_t>(n) - 1));
  };
  switch (rng.Uniform(0, 6)) {
    case 0: {  // flip one bit
      const size_t bit = pick(body.size() * 8);
      body[bit / 8] = static_cast<char>(body[bit / 8] ^ (1 << (bit % 8)));
      break;
    }
    case 1:  // overwrite one byte
      body[pick(body.size())] = static_cast<char>(rng.Uniform(0, 255));
      break;
    case 2: {  // overwrite a run of bytes
      const size_t at = pick(body.size());
      const size_t len = std::min<size_t>(body.size() - at, 1 + pick(8));
      for (size_t i = 0; i < len; ++i) {
        body[at + i] = static_cast<char>(rng.Uniform(0, 255));
      }
      break;
    }
    case 3:  // truncate
      body.resize(pick(body.size()));
      break;
    case 4: {  // another count
      const uint64_t count = page.size();  // comfortably above the real one
      const uint64_t choices[] = {0, 1, 2, count / 4, count / 2, count,
                                  uint64_t{1} << 40, ~uint64_t{0}};
      return WithCount(page, choices[pick(std::size(choices))]);
    }
    case 5: {  // another codec byte (the header follows the count varint)
      std::string_view rest = body;
      EXPECT_TRUE(GetVarint64(&rest).ok());
      const size_t header = body.size() - rest.size();
      body[header + pick(2)] = static_cast<char>(rng.Uniform(0, 3));
      break;
    }
    default:  // trailing garbage
      for (size_t i = 1 + pick(16); i > 0; --i) {
        body.push_back(static_cast<char>(rng.Uniform(0, 255)));
      }
      break;
  }
  return Restamp(body);
}

// Pages cut from each of the four generators, in every codec combination,
// are mutated and restamped; the decoder must accept exactly the pages the
// per-bit reference decoder accepts, produce the same points, and leave
// the output untouched on every rejection.
TEST(PageTest, MutatedPagesMatchReferenceDecoder) {
  const std::pair<TsCodec, ValueCodec> codecs[] = {
      {TsCodec::kTs2Diff, ValueCodec::kGorilla},
      {TsCodec::kTs2Diff, ValueCodec::kPlain},
      {TsCodec::kTs2Diff, ValueCodec::kRle},
      {TsCodec::kPlain, ValueCodec::kGorilla},
      {TsCodec::kPlain, ValueCodec::kPlain},
      {TsCodec::kPlain, ValueCodec::kRle}};
  Rng rng(2024);
  size_t accepted = 0;
  size_t rejected = 0;
  for (DatasetKind kind : AllDatasetKinds()) {
    DatasetSpec spec;
    spec.kind = kind;
    spec.num_points = 4800;
    std::vector<Point> points = GenerateDataset(spec);
    for (size_t begin = 0; begin + 200 <= points.size(); begin += 200) {
      const auto [ts_codec, value_codec] =
          begin / 200 % 4 == 0 ? codecs[begin / 800 % std::size(codecs)]
                               : codecs[0];
      std::string page;
      ASSERT_OK(EncodePage(points.data() + begin, 200, ts_codec, value_codec,
                           &page, nullptr));
      std::vector<Point> clean;
      ASSERT_OK(DecodePage(page, &clean));
      ASSERT_EQ(clean, std::vector<Point>(points.begin() + begin,
                                          points.begin() + begin + 200));
      for (int trial = 0; trial < 60; ++trial) {
        const std::string mutated = Mutate(page, rng);
        std::vector<Point> want;
        Status want_status = reference::DecodePage(mutated, &want);
        std::vector<Point> got = {Point{-1, -1.0}};
        Status got_status = DecodePage(mutated, &got);
        ASSERT_EQ(got_status.ok(), want_status.ok())
            << DatasetName(kind) << " page " << begin / 200 << " trial "
            << trial << ": got " << got_status.ToString() << ", reference "
            << want_status.ToString();
        ASSERT_EQ(got.front(), (Point{-1, -1.0}));
        got.erase(got.begin());
        if (got_status.ok()) {
          ++accepted;
          ASSERT_EQ(got, want);
        } else {
          ++rejected;
          EXPECT_EQ(got_status.code(), StatusCode::kCorruption);
          EXPECT_TRUE(got.empty());
        }
      }
    }
  }
  // Both verdicts must actually occur for the comparison to mean anything.
  EXPECT_GT(accepted, 100u);
  EXPECT_GT(rejected, 1000u);
}

}  // namespace
}  // namespace tsviz
