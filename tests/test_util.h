#ifndef TSVIZ_TESTS_TEST_UTIL_H_
#define TSVIZ_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "common/types.h"
#include "encoding/varint.h"
#include "read/lazy_chunk.h"
#include "storage/file_format.h"
#include "storage/file_reader.h"
#include "storage/store.h"

namespace tsviz {

#define ASSERT_OK(expr)                                        \
  do {                                                         \
    const auto& _assert_ok = (expr);                           \
    ASSERT_TRUE(_assert_ok.ok()) << _assert_ok.ToString();     \
  } while (false)

#define EXPECT_OK(expr)                                        \
  do {                                                         \
    const auto& _expect_ok = (expr);                           \
    EXPECT_TRUE(_expect_ok.ok()) << _expect_ok.ToString();     \
  } while (false)

#define ASSERT_OK_AND_ASSIGN(lhs, expr)                        \
  ASSERT_OK_AND_ASSIGN_IMPL_(                                  \
      TSVIZ_STATUS_CONCAT_(_assign_result_, __LINE__), lhs, expr)

#define ASSERT_OK_AND_ASSIGN_IMPL_(tmp, lhs, expr)             \
  auto tmp = (expr);                                           \
  ASSERT_TRUE(tmp.ok()) << tmp.status().ToString();            \
  lhs = std::move(tmp).value()

// Self-deleting temporary directory.
class TempDir {
 public:
  TempDir() {
    std::string tmpl = std::filesystem::temp_directory_path() /
                       "tsviz_test_XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    char* made = ::mkdtemp(buf.data());
    EXPECT_NE(made, nullptr);
    path_ = made != nullptr ? made : "/tmp/tsviz_test_fallback";
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// Regular series: n points, cadence `delta`, values v(i) = value_fn(i).
template <typename ValueFn>
std::vector<Point> MakeSeries(size_t n, Timestamp start, int64_t delta,
                              ValueFn value_fn) {
  std::vector<Point> points;
  points.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    points.push_back(Point{start + static_cast<Timestamp>(i) * delta,
                           static_cast<Value>(value_fn(i))});
  }
  return points;
}

inline std::vector<Point> MakeLinearSeries(size_t n, Timestamp start = 0,
                                           int64_t delta = 10) {
  return MakeSeries(n, start, delta, [](size_t i) { return double(i); });
}

// Reads every point of every chunk in the store (pre-merge contents),
// returning (version, points) pairs; used to drive the reference merge.
inline std::vector<std::pair<Version, std::vector<Point>>> DumpChunks(
    const TsStore& store) {
  std::vector<std::pair<Version, std::vector<Point>>> out;
  for (const ChunkHandle& handle : store.chunks()) {
    LazyChunk chunk(handle, nullptr);
    auto points = chunk.ReadAllPoints();
    EXPECT_TRUE(points.ok()) << points.status().ToString();
    out.emplace_back(handle.meta->version, std::move(points).value());
  }
  return out;
}

inline std::vector<std::pair<Version, TimeRange>> DumpDeletes(
    const TsStore& store) {
  std::vector<std::pair<Version, TimeRange>> out;
  for (const DeleteRecord& del : store.deletes()) {
    out.emplace_back(del.version, del.range);
  }
  return out;
}

// Rewrites the finished data file at `path` as a v01 build wrote it:
// every page sealed with FNV-1a 64 and both magics TSVZFL01. Page lengths
// and the footer stay as they are.
inline void RewriteAsV01(const std::string& path) {
  std::vector<ChunkMetadata> chunks;
  {
    auto reader = FileReader::Open(path);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    chunks = (*reader)->chunks();
  }
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  for (const ChunkMetadata& meta : chunks) {
    for (const PageInfo& page : meta.pages) {
      const size_t body_at = meta.data_offset + page.offset;
      const size_t body_len = page.length - 8;
      std::string sealed;
      PutFixed64(&sealed,
                 Fnv1a64(std::string_view(bytes).substr(body_at, body_len)));
      bytes.replace(body_at + body_len, 8, sealed);
    }
  }
  bytes.replace(0, kFileMagicV1.size(), kFileMagicV1);
  bytes.replace(bytes.size() - kFileMagicV1.size(), kFileMagicV1.size(),
                kFileMagicV1);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

}  // namespace tsviz

#endif  // TSVIZ_TESTS_TEST_UTIL_H_
