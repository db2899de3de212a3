#ifndef TSVIZ_READ_LAZY_CHUNK_H_
#define TSVIZ_READ_LAZY_CHUNK_H_

#include <vector>

#include "common/stats.h"
#include "common/status.h"
#include "common/types.h"
#include "index/page_provider.h"
#include "storage/page_cache.h"
#include "storage/store.h"

namespace tsviz {

// Page-granular view of an on-disk chunk. Construction touches no data;
// each page is fetched with one positional read and decoded on first access.
// This is the mechanism behind both lazy chunk loading and the partial scans
// of Section 3.4: a candidate probe that touches one page pays for one page.
//
// Decoded pages live in the process-wide SharedPageCache; this object only
// pins the pages it has touched, so concurrent queries over the same file
// decode each page at most once and repeated queries skip the disk entirely.
class LazyChunk : public PageProvider {
 public:
  // `stats` (optional) accrues bytes_read / pages_decoded / chunks_loaded.
  // chunks_loaded counts chunks whose data was touched (cache hit or disk);
  // pages_decoded and bytes_read count only genuine disk reads.
  LazyChunk(ChunkHandle handle, QueryStats* stats);

  const std::vector<PageInfo>& pages() const override {
    return handle_.meta->pages;
  }
  Result<const std::vector<Point>*> GetPage(size_t i) override;
  uint64_t num_points() const override { return handle_.meta->count; }

  const ChunkMetadata& meta() const { return *handle_.meta; }
  Version version() const { return handle_.meta->version; }

  // Pins pages [first, last), coalescing runs of adjacent cold pages into
  // a single positional read each. Use when the caller is about to read
  // every page of the range anyway (M4-LSM exact loads). Charges the same
  // stats as GetPage on each page.
  Status EnsurePages(size_t first, size_t last);

  // EnsurePages over the whole chunk (ReadAllPoints, M4-UDF full scans).
  Status EnsureAllPages() { return EnsurePages(0, pins_.size()); }

  // Decodes every page and returns all points in time order.
  Result<std::vector<Point>> ReadAllPoints();

  // Whether any page of this chunk has been touched (cache or disk).
  bool loaded() const { return loaded_; }

 private:
  SharedPageCache::PageKey KeyFor(size_t i) const;
  // Charges stats->chunks_loaded on the first page touched.
  void ChargeChunkTouched();
  // Charges one disk page against stats and the process counters.
  void ChargePageDecoded(uint64_t bytes);
  // Decodes `raw` as page `i`, validates it against the page directory,
  // publishes it to the shared cache, and pins it.
  Status DecodeAndPin(size_t i, std::string_view raw);
  // Under read_tolerance=degrade, records this chunk in the process
  // quarantine when `status` indicates bad data; always returns `status`.
  Status MaybeQuarantine(const Status& status);

  ChunkHandle handle_;
  QueryStats* stats_;
  std::vector<SharedPageCache::PagePtr> pins_;
  bool loaded_ = false;
};

}  // namespace tsviz

#endif  // TSVIZ_READ_LAZY_CHUNK_H_
