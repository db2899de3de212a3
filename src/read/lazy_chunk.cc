#include "read/lazy_chunk.h"

#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/quarantine.h"

namespace tsviz {

LazyChunk::LazyChunk(ChunkHandle handle, QueryStats* stats)
    : handle_(std::move(handle)), stats_(stats) {
  pins_.resize(handle_.meta->pages.size());
}

SharedPageCache::PageKey LazyChunk::KeyFor(size_t i) const {
  return SharedPageCache::PageKey{handle_.file->cache_id(),
                                  handle_.meta->data_offset,
                                  static_cast<uint32_t>(i)};
}

void LazyChunk::ChargeChunkTouched() {
  if (loaded_) return;
  loaded_ = true;
  static obs::Counter& chunks_total = obs::GetCounter(
      "read_chunks_loaded_total", "Chunks whose data was touched");
  chunks_total.Inc();
  if (stats_ != nullptr) ++stats_->chunks_loaded;
}

void LazyChunk::ChargePageDecoded(uint64_t bytes) {
  static obs::Counter& pages_total = obs::GetCounter(
      "read_pages_decoded_total", "Pages read from disk and decoded");
  static obs::Counter& bytes_total = obs::GetCounter(
      "read_bytes_total", "Raw chunk-data bytes read from disk");
  pages_total.Inc();
  bytes_total.Inc(bytes);
  if (stats_ != nullptr) {
    stats_->bytes_read += bytes;
    ++stats_->pages_decoded;
  }
}

Status LazyChunk::MaybeQuarantine(const Status& status) {
  if (!status.ok()) {
    MaybeQuarantineChunk(handle_.file->cache_id(), handle_.meta->data_offset,
                         handle_.file->path(), status);
  }
  return status;
}

Status LazyChunk::DecodeAndPin(size_t i, std::string_view raw) {
  const PageInfo& page = handle_.meta->pages[i];
  std::vector<Point> points;
  TSVIZ_RETURN_IF_ERROR(
      DecodePage(raw, &points, handle_.file->page_checksum()));
  if (points.size() != page.count) {
    // A concurrent loader may have published the same bad page; make sure
    // the poisoned entry can never be served again.
    SharedPageCache::Instance().Erase(KeyFor(i));
    return Status::Corruption("page count mismatch with directory");
  }
  ChargePageDecoded(page.length);
  ChargeChunkTouched();
  auto ptr = std::make_shared<const std::vector<Point>>(std::move(points));
  SharedPageCache::Instance().Insert(KeyFor(i), ptr);
  pins_[i] = std::move(ptr);
  return Status::OK();
}

Result<const std::vector<Point>*> LazyChunk::GetPage(size_t i) {
  if (i >= pins_.size()) {
    return Status::OutOfRange("page index past end of chunk");
  }
  if (pins_[i] != nullptr) return pins_[i].get();
  obs::Trace* trace = stats_ != nullptr ? stats_->trace.get() : nullptr;
  const PageInfo& page = handle_.meta->pages[i];
  SharedPageCache& cache = SharedPageCache::Instance();
  const SharedPageCache::PageKey key = KeyFor(i);
  SharedPageCache::PagePtr cached;
  {
    obs::TraceSpan probe(trace, "cache_probe");
    cached = cache.Lookup(key);
  }
  if (cached != nullptr) {
    if (cached->size() == page.count) {
      ChargeChunkTouched();
      pins_[i] = std::move(cached);
      return pins_[i].get();
    }
    // The cached copy no longer matches the page directory: evict it and
    // fall through to a fresh disk read.
    cache.Erase(key);
  }
  obs::TraceSpan span(trace, "page_load");
  auto raw = handle_.file->ReadRange(handle_.meta->data_offset + page.offset,
                                     page.length);
  if (!raw.ok()) return MaybeQuarantine(raw.status());
  TSVIZ_RETURN_IF_ERROR(MaybeQuarantine(DecodeAndPin(i, *raw)));
  return pins_[i].get();
}

Status LazyChunk::EnsurePages(size_t first, size_t last) {
  if (first > last || last > pins_.size()) {
    return Status::OutOfRange("page range past end of chunk");
  }
  // Pages an earlier call pinned need no probe, as in GetPage.
  while (first < last && pins_[first] != nullptr) ++first;
  if (first == last) return Status::OK();
  obs::Trace* trace = stats_ != nullptr ? stats_->trace.get() : nullptr;
  const std::vector<PageInfo>& pages = handle_.meta->pages;
  SharedPageCache& cache = SharedPageCache::Instance();
  // Pass 1: satisfy what we can from the shared cache.
  {
    obs::TraceSpan probe(trace, "cache_probe");
    for (size_t i = first; i < last; ++i) {
      if (pins_[i] != nullptr) continue;
      const SharedPageCache::PageKey key = KeyFor(i);
      SharedPageCache::PagePtr cached = cache.Lookup(key);
      if (cached == nullptr) continue;
      if (cached->size() != pages[i].count) {
        cache.Erase(key);
        continue;
      }
      ChargeChunkTouched();
      pins_[i] = std::move(cached);
    }
  }
  // Pass 2: group the remaining cold pages into runs that are adjacent on
  // disk and fetch each run with a single positional read.
  size_t i = first;
  while (i < last) {
    if (pins_[i] != nullptr) {
      ++i;
      continue;
    }
    size_t end = i + 1;
    while (end < last && pins_[end] == nullptr &&
           pages[end].offset == pages[end - 1].offset + pages[end - 1].length) {
      ++end;
    }
    obs::TraceSpan span(trace, "page_load");
    const uint64_t run_offset = pages[i].offset;
    const uint64_t run_length =
        pages[end - 1].offset + pages[end - 1].length - run_offset;
    auto raw = handle_.file->ReadRange(handle_.meta->data_offset + run_offset,
                                       run_length);
    if (!raw.ok()) return MaybeQuarantine(raw.status());
    for (size_t k = i; k < end; ++k) {
      std::string_view slice(raw->data() + (pages[k].offset - run_offset),
                             pages[k].length);
      TSVIZ_RETURN_IF_ERROR(MaybeQuarantine(DecodeAndPin(k, slice)));
    }
    i = end;
  }
  return Status::OK();
}

Result<std::vector<Point>> LazyChunk::ReadAllPoints() {
  TSVIZ_RETURN_IF_ERROR(EnsureAllPages());
  std::vector<Point> out;
  out.reserve(num_points());
  for (const SharedPageCache::PagePtr& page : pins_) {
    out.insert(out.end(), page->begin(), page->end());
  }
  return out;
}

}  // namespace tsviz
