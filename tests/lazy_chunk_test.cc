#include "read/lazy_chunk.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "obs/trace.h"
#include "test_util.h"

namespace tsviz {
namespace {

class LazyChunkTest : public ::testing::Test {
 protected:
  void SetUp() override {
    StoreConfig config;
    config.data_dir = dir_.path();
    config.points_per_chunk = 1000;
    config.memtable_flush_threshold = 1000;
    config.encoding.page_size_points = 100;
    auto store = TsStore::Open(config);
    ASSERT_TRUE(store.ok());
    store_ = std::move(store).value();
    points_ = MakeLinearSeries(1000, 0, 10);
    ASSERT_OK(store_->WriteAll(points_));
    ASSERT_OK(store_->Flush());
    ASSERT_EQ(store_->chunks().size(), 1u);
  }

  TempDir dir_;
  std::unique_ptr<TsStore> store_;
  std::vector<Point> points_;
};

TEST_F(LazyChunkTest, ConstructionTouchesNoData) {
  QueryStats stats;
  LazyChunk chunk(store_->chunks()[0], &stats);
  EXPECT_EQ(stats.bytes_read, 0u);
  EXPECT_EQ(stats.pages_decoded, 0u);
  EXPECT_EQ(stats.chunks_loaded, 0u);
  EXPECT_FALSE(chunk.loaded());
  EXPECT_EQ(chunk.num_points(), 1000u);
  EXPECT_EQ(chunk.pages().size(), 10u);
}

TEST_F(LazyChunkTest, SinglePageReadCostsOnePage) {
  QueryStats stats;
  LazyChunk chunk(store_->chunks()[0], &stats);
  ASSERT_OK_AND_ASSIGN(const std::vector<Point>* page, chunk.GetPage(3));
  ASSERT_EQ(page->size(), 100u);
  EXPECT_EQ(page->front(), points_[300]);
  EXPECT_EQ(stats.pages_decoded, 1u);
  EXPECT_EQ(stats.chunks_loaded, 1u);
  EXPECT_EQ(stats.bytes_read, chunk.pages()[3].length);
  // Far less I/O than the whole chunk.
  EXPECT_LT(stats.bytes_read, store_->chunks()[0].meta->data_length);
}

TEST_F(LazyChunkTest, PagesAreCached) {
  QueryStats stats;
  LazyChunk chunk(store_->chunks()[0], &stats);
  ASSERT_OK_AND_ASSIGN(const std::vector<Point>* first, chunk.GetPage(5));
  ASSERT_OK_AND_ASSIGN(const std::vector<Point>* second, chunk.GetPage(5));
  EXPECT_EQ(first, second);  // same cached vector
  EXPECT_EQ(stats.pages_decoded, 1u);
  EXPECT_EQ(stats.chunks_loaded, 1u);
}

TEST_F(LazyChunkTest, ReadAllPointsRoundTrips) {
  QueryStats stats;
  LazyChunk chunk(store_->chunks()[0], &stats);
  ASSERT_OK_AND_ASSIGN(std::vector<Point> all, chunk.ReadAllPoints());
  EXPECT_EQ(all, points_);
  EXPECT_EQ(stats.pages_decoded, 10u);
  EXPECT_EQ(stats.chunks_loaded, 1u);  // counted once despite 10 pages
  EXPECT_EQ(stats.bytes_read, store_->chunks()[0].meta->data_length);
}

// The number of positional reads a traced load made.
uint64_t Reads(const QueryStats& stats) {
  return stats.trace->root().Child("page_load")->calls;
}

// Pages [2, 7) loaded one GetPage at a time and then, on a cold cache,
// with one EnsurePages: the work counters agree, and the back-to-back
// pages cost one read instead of five.
TEST_F(LazyChunkTest, EnsurePagesChargesLikeGetPageInOneRead) {
  const ChunkHandle handle = store_->chunks()[0];
  SharedPageCache& cache = SharedPageCache::Instance();
  cache.EvictFile(handle.file->cache_id());
  QueryStats per_page;
  per_page.trace = std::make_shared<obs::Trace>("query");
  {
    LazyChunk chunk(handle, &per_page);
    for (size_t i = 2; i < 7; ++i) ASSERT_OK(chunk.GetPage(i).status());
  }
  cache.EvictFile(handle.file->cache_id());
  QueryStats ranged;
  ranged.trace = std::make_shared<obs::Trace>("query");
  LazyChunk chunk(handle, &ranged);
  ASSERT_OK(chunk.EnsurePages(2, 7));
  EXPECT_EQ(ranged.pages_decoded, 5u);
  EXPECT_EQ(ranged.pages_decoded, per_page.pages_decoded);
  EXPECT_EQ(ranged.bytes_read, per_page.bytes_read);
  EXPECT_EQ(ranged.chunks_loaded, per_page.chunks_loaded);
  EXPECT_EQ(Reads(per_page), 5u);
  EXPECT_EQ(Reads(ranged), 1u);
  for (size_t i = 2; i < 7; ++i) {
    ASSERT_OK_AND_ASSIGN(const std::vector<Point>* page, chunk.GetPage(i));
    EXPECT_EQ(page->front(), points_[i * 100]);
  }
  EXPECT_EQ(ranged.pages_decoded, 5u);  // pinned: no second decode
  EXPECT_EQ(Reads(ranged), 1u);
}

// A cached page splits the cold range into two reads; only cold pages are
// charged as decoded.
TEST_F(LazyChunkTest, EnsurePagesReadsAroundCachedPages) {
  const ChunkHandle handle = store_->chunks()[0];
  SharedPageCache::Instance().EvictFile(handle.file->cache_id());
  {
    LazyChunk warm(handle, nullptr);
    ASSERT_OK(warm.GetPage(4).status());
  }
  QueryStats stats;
  stats.trace = std::make_shared<obs::Trace>("query");
  LazyChunk chunk(handle, &stats);
  ASSERT_OK(chunk.EnsurePages(2, 7));
  EXPECT_EQ(stats.pages_decoded, 4u);
  EXPECT_EQ(stats.chunks_loaded, 1u);
  EXPECT_EQ(Reads(stats), 2u);
  ASSERT_OK_AND_ASSIGN(std::vector<Point> all, chunk.ReadAllPoints());
  EXPECT_EQ(all, points_);
  EXPECT_EQ(stats.pages_decoded, 9u);
  EXPECT_EQ(stats.bytes_read, handle.meta->data_length -
                                  handle.meta->pages[4].length);
}

// Pinned pages are skipped without a probe; the rest of the range loads.
TEST_F(LazyChunkTest, EnsurePagesLoadsOnlyWhatIsNotPinned) {
  const ChunkHandle handle = store_->chunks()[0];
  SharedPageCache::Instance().EvictFile(handle.file->cache_id());
  QueryStats stats;
  stats.trace = std::make_shared<obs::Trace>("query");
  LazyChunk chunk(handle, &stats);
  ASSERT_OK(chunk.GetPage(2).status());
  ASSERT_OK(chunk.GetPage(3).status());
  ASSERT_OK(chunk.EnsurePages(2, 5));
  EXPECT_EQ(stats.pages_decoded, 3u);
  EXPECT_EQ(Reads(stats), 3u);
  const uint64_t probes = stats.trace->root().Child("cache_probe")->calls;
  ASSERT_OK(chunk.EnsurePages(2, 5));
  EXPECT_EQ(stats.pages_decoded, 3u);
  EXPECT_EQ(Reads(stats), 3u);
  EXPECT_EQ(stats.trace->root().Child("cache_probe")->calls, probes);
}

TEST_F(LazyChunkTest, EnsurePagesRejectsBadRanges) {
  QueryStats stats;
  LazyChunk chunk(store_->chunks()[0], &stats);
  EXPECT_EQ(chunk.EnsurePages(3, 11).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(chunk.EnsurePages(5, 4).code(), StatusCode::kOutOfRange);
  ASSERT_OK(chunk.EnsurePages(4, 4));
  EXPECT_FALSE(chunk.loaded());
  EXPECT_EQ(stats.pages_decoded, 0u);
}

TEST_F(LazyChunkTest, OutOfRangePageRejected) {
  LazyChunk chunk(store_->chunks()[0], nullptr);
  EXPECT_EQ(chunk.GetPage(10).status().code(), StatusCode::kOutOfRange);
}

TEST_F(LazyChunkTest, NullStatsIsSupported) {
  LazyChunk chunk(store_->chunks()[0], nullptr);
  ASSERT_OK_AND_ASSIGN(std::vector<Point> all, chunk.ReadAllPoints());
  EXPECT_EQ(all.size(), 1000u);
}

}  // namespace
}  // namespace tsviz
