#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>

#include "common/random.h"
#include "m4/m4_lsm.h"
#include "m4/m4_udf.h"
#include "read/series_reader.h"
#include "test_util.h"
#include "workload/generator.h"
#include "workload/ooo.h"

namespace tsviz {
namespace {

StoreConfig TestConfig(const std::string& dir) {
  StoreConfig config;
  config.data_dir = dir;
  config.points_per_chunk = 50;
  config.memtable_flush_threshold = 50;
  config.encoding.page_size_points = 16;
  return config;
}

TEST(CompactionTest, EmptyStoreIsNoop) {
  TempDir dir;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<TsStore> store,
                       TsStore::Open(TestConfig(dir.path())));
  ASSERT_OK(store->Compact());
  EXPECT_TRUE(store->chunks().empty());
}

TEST(CompactionTest, MergesOverwritesAndAppliesDeletes) {
  TempDir dir;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<TsStore> store,
                       TsStore::Open(TestConfig(dir.path())));
  for (int i = 0; i < 100; ++i) ASSERT_OK(store->Write(i, 1.0));  // 2 chunks
  for (int i = 0; i < 50; ++i) ASSERT_OK(store->Write(i * 2, 2.0));
  ASSERT_OK(store->Flush());
  ASSERT_OK(store->DeleteRange(TimeRange(90, 99)));
  ASSERT_GT(store->OverlapFraction(), 0.0);

  ASSERT_OK_AND_ASSIGN(
      std::vector<Point> before,
      ReadMergedSeries(*store, TimeRange(0, 200), nullptr));
  ASSERT_OK(store->Compact());

  // Post-conditions: no tombstones, disjoint chunks, one data file, and the
  // merged view is unchanged.
  EXPECT_TRUE(store->deletes().empty());
  EXPECT_EQ(store->OverlapFraction(), 0.0);
  EXPECT_EQ(store->TotalStoredPoints(), before.size());
  ASSERT_OK_AND_ASSIGN(
      std::vector<Point> after,
      ReadMergedSeries(*store, TimeRange(0, 200), nullptr));
  EXPECT_EQ(after, before);
  for (const Point& p : after) {
    EXPECT_EQ(p.v, p.t % 2 == 0 ? 2.0 : 1.0) << "t=" << p.t;
    EXPECT_LT(p.t, 90);
  }
}

TEST(CompactionTest, EverythingDeletedLeavesEmptyStore) {
  TempDir dir;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<TsStore> store,
                       TsStore::Open(TestConfig(dir.path())));
  for (int i = 0; i < 50; ++i) ASSERT_OK(store->Write(i, 1.0));
  ASSERT_OK(store->DeleteRange(TimeRange(kMinTimestamp, kMaxTimestamp)));
  ASSERT_OK(store->Compact());
  EXPECT_TRUE(store->chunks().empty());
  EXPECT_EQ(store->TotalStoredPoints(), 0u);
}

TEST(CompactionTest, SurvivesReopen) {
  TempDir dir;
  std::vector<Point> before;
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<TsStore> store,
                         TsStore::Open(TestConfig(dir.path())));
    for (int i = 0; i < 200; ++i) ASSERT_OK(store->Write(i * 3, i * 0.5));
    ASSERT_OK(store->Flush());
    ASSERT_OK(store->DeleteRange(TimeRange(30, 60)));
    ASSERT_OK(store->Compact());
    ASSERT_OK_AND_ASSIGN(
        before, ReadMergedSeries(*store, TimeRange(0, 1000), nullptr));
  }
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<TsStore> store,
                       TsStore::Open(TestConfig(dir.path())));
  EXPECT_TRUE(store->deletes().empty());
  ASSERT_OK_AND_ASSIGN(
      std::vector<Point> after,
      ReadMergedSeries(*store, TimeRange(0, 1000), nullptr));
  EXPECT_EQ(after, before);
}

TEST(CompactionTest, WritesContinueAfterCompaction) {
  TempDir dir;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<TsStore> store,
                       TsStore::Open(TestConfig(dir.path())));
  for (int i = 0; i < 50; ++i) ASSERT_OK(store->Write(i, 1.0));
  ASSERT_OK(store->Compact());
  // Overwrite compacted data: the new chunk has a higher version.
  for (int i = 0; i < 50; ++i) ASSERT_OK(store->Write(i, 9.0));
  ASSERT_OK(store->Flush());
  ASSERT_OK_AND_ASSIGN(
      std::vector<Point> merged,
      ReadMergedSeries(*store, TimeRange(0, 100), nullptr));
  ASSERT_EQ(merged.size(), 50u);
  for (const Point& p : merged) EXPECT_EQ(p.v, 9.0);
}

// Property: M4 results are invariant under compaction.
class CompactionProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CompactionProperty, M4ResultsUnchanged) {
  Rng rng(GetParam());
  TempDir dir;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<TsStore> store,
                       TsStore::Open(TestConfig(dir.path())));
  const Timestamp domain = 3000;
  int n_rounds = static_cast<int>(rng.Uniform(2, 6));
  for (int round = 0; round < n_rounds; ++round) {
    if (round > 0 && rng.Bernoulli(0.5)) {
      Timestamp start = rng.Uniform(0, domain);
      ASSERT_OK(store->DeleteRange(
          TimeRange(start, start + rng.Uniform(1, domain / 4))));
    }
    int n = static_cast<int>(rng.Uniform(20, 150));
    Timestamp base = rng.Uniform(0, domain / 2);
    for (int i = 0; i < n; ++i) {
      ASSERT_OK(store->Write(base + rng.Uniform(0, domain / 2),
                             std::round(rng.Gaussian(0, 30))));
    }
    ASSERT_OK(store->Flush());
  }

  M4Query query{0, domain, rng.Uniform(1, 60)};
  ASSERT_OK_AND_ASSIGN(M4Result before_lsm, RunM4Lsm(*store, query, nullptr));
  ASSERT_OK(store->Compact());
  ASSERT_OK_AND_ASSIGN(M4Result after_lsm, RunM4Lsm(*store, query, nullptr));
  ASSERT_OK_AND_ASSIGN(M4Result after_udf, RunM4Udf(*store, query, nullptr));
  EXPECT_TRUE(ResultsEquivalent(before_lsm, after_lsm))
      << "seed " << GetParam() << ": "
      << FirstMismatch(before_lsm, after_lsm);
  EXPECT_TRUE(ResultsEquivalent(after_lsm, after_udf))
      << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompactionProperty,
                         ::testing::Range(uint64_t{1}, uint64_t{21}));

std::vector<std::string> DataFiles(const std::string& dir) {
  std::vector<std::string> paths;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.path().extension() == ".tsdat") {
      paths.push_back(entry.path().string());
    }
  }
  return paths;
}

std::vector<std::string> Rows(const M4Result& result) {
  std::vector<std::string> rows;
  for (const M4Row& row : result) rows.push_back(row.ToString());
  return rows;
}

// Files written before CRC32C page checksums (magic TSVZFL01, FNV-1a pages)
// answer exactly as they did, and compaction rewrites them as v02.
TEST(CompactionTest, V01FilesReadThenCompactToV02) {
  TempDir dir;
  const std::vector<M4Query> queries = {
      {0, 3000, 7}, {100, 2200, 40}, {1500, 1600, 3}};
  std::vector<std::vector<std::string>> lsm_rows;
  std::vector<std::vector<std::string>> udf_rows;
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<TsStore> store,
                         TsStore::Open(TestConfig(dir.path())));
    Rng rng(16);
    for (int round = 0; round < 4; ++round) {
      for (int i = 0; i < 120; ++i) {
        ASSERT_OK(store->Write(rng.Uniform(0, 3000),
                               std::round(rng.Gaussian(0, 30))));
      }
      ASSERT_OK(store->Flush());
      if (round == 1) ASSERT_OK(store->DeleteRange(TimeRange(700, 900)));
    }
    ASSERT_GT(store->OverlapFraction(), 0.0);
    for (const M4Query& query : queries) {
      ASSERT_OK_AND_ASSIGN(M4Result lsm, RunM4Lsm(*store, query, nullptr));
      ASSERT_OK_AND_ASSIGN(M4Result udf, RunM4Udf(*store, query, nullptr));
      lsm_rows.push_back(Rows(lsm));
      udf_rows.push_back(Rows(udf));
    }
  }
  const std::vector<std::string> v01_files = DataFiles(dir.path());
  ASSERT_GT(v01_files.size(), 1u);
  for (const std::string& path : v01_files) RewriteAsV01(path);

  ASSERT_OK_AND_ASSIGN(std::unique_ptr<TsStore> store,
                       TsStore::Open(TestConfig(dir.path())));
  ASSERT_EQ(store->files().size(), v01_files.size());
  for (const auto& file : store->files()) {
    EXPECT_EQ(file->page_checksum(), PageChecksum::kFnv1a64) << file->path();
  }
  for (size_t q = 0; q < queries.size(); ++q) {
    ASSERT_OK_AND_ASSIGN(M4Result lsm,
                         RunM4Lsm(*store, queries[q], nullptr));
    ASSERT_OK_AND_ASSIGN(M4Result udf,
                         RunM4Udf(*store, queries[q], nullptr));
    EXPECT_EQ(Rows(lsm), lsm_rows[q]) << "query " << q;
    EXPECT_EQ(Rows(udf), udf_rows[q]) << "query " << q;
  }

  ASSERT_OK(store->Compact());
  ASSERT_FALSE(store->files().empty());
  for (const auto& file : store->files()) {
    EXPECT_EQ(file->page_checksum(), PageChecksum::kCrc32c) << file->path();
    EXPECT_EQ(file->ReadRange(0, kFileMagic.size()).value(), kFileMagic);
  }
  for (const std::string& path : DataFiles(dir.path())) {
    EXPECT_EQ(std::find(v01_files.begin(), v01_files.end(), path),
              v01_files.end())
        << path << " survived compaction";
  }
  for (size_t q = 0; q < queries.size(); ++q) {
    ASSERT_OK_AND_ASSIGN(M4Result lsm,
                         RunM4Lsm(*store, queries[q], nullptr));
    ASSERT_OK_AND_ASSIGN(M4Result udf,
                         RunM4Udf(*store, queries[q], nullptr));
    EXPECT_EQ(Rows(udf), udf_rows[q]) << "query " << q;
    EXPECT_TRUE(ResultsEquivalent(lsm, udf)) << FirstMismatch(lsm, udf);
  }
}

}  // namespace
}  // namespace tsviz
