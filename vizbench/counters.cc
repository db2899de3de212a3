#include "counters.h"

#include <algorithm>
#include <cmath>

#include "common/env.h"

namespace tsviz::vizbench {
namespace {

// The registry cannot be enumerated, so the counters the per-layer report
// reads are named here. GetCounter/GetHistogram register a name that has
// not been touched yet, which reads as zero.
constexpr const char* kCounters[] = {
    "batch_net_accumulated_total",
    "bg_jobs_completed_total",
    "m4_result_cache_hits_total",
    "m4_result_cache_misses_total",
    "net_epoll_wakeups_total",
    "page_cache_evictions_total",
    "page_cache_hits_total",
    "page_cache_misses_total",
    "read_bytes_total",
    "read_metadata_reads_total",
    "read_pages_decoded_total",
    "repl_log_bytes_total",
    "server_queries_total",
    "storage_compaction_bytes_rewritten_total",
    "storage_flushes_total",
    "store_write_lock_acquisitions_total",
    "wal_bytes_total",
    "wal_physical_writes_total",
};

constexpr const char* kHistograms[] = {
    "bg_compact_millis",        "catalog_lock_wait_millis",
    "net_queue_wait_millis",    "repl_apply_millis",
    "server_query_millis",      "storage_compaction_millis",
    "storage_flush_millis",
};

}  // namespace

uint64_t HistogramCounts::count() const {
  uint64_t total = 0;
  for (uint64_t b : buckets) total += b;
  return total;
}

double HistogramCounts::Quantile(double q) const {
  const uint64_t total = count();
  if (total == 0) return 0.0;
  uint64_t rank = static_cast<uint64_t>(std::ceil(q * total));
  if (rank == 0) rank = 1;
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    if (seen + buckets[i] >= rank) {
      const double lo = i == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(i) - 1);
      double hi = i + 1 >= buckets.size() ? max
                                          : std::ldexp(1.0, static_cast<int>(i));
      hi = std::max(hi, lo);
      const double frac =
          static_cast<double>(rank - seen) / static_cast<double>(buckets[i]);
      return std::min(lo + (hi - lo) * frac, max);
    }
    seen += buckets[i];
  }
  return max;
}

CounterSnapshot CounterSnapshot::Take() {
  CounterSnapshot snap;
  for (const char* name : kCounters) {
    snap.counters[name] = obs::GetCounter(name).value();
  }
  snap.counters["fsync_total"] = EnvFsyncCount() + EnvDirSyncCount();
  for (const char* name : kHistograms) {
    const obs::Histogram& h = obs::GetHistogram(name);
    HistogramCounts& counts = snap.histograms[name];
    for (size_t i = 0; i < counts.buckets.size(); ++i) {
      counts.buckets[i] = h.BucketCount(i);
    }
    counts.sum = h.sum();
    counts.max = h.max();
  }
  return snap;
}

CounterSnapshot CounterSnapshot::Minus(const CounterSnapshot& before) const {
  CounterSnapshot delta = *this;
  for (auto& [name, value] : delta.counters) value -= before.Counter(name);
  for (auto& [name, counts] : delta.histograms) {
    const HistogramCounts& old = before.Histogram(name);
    for (size_t i = 0; i < counts.buckets.size(); ++i) {
      counts.buckets[i] -= old.buckets[i];
    }
    counts.sum -= old.sum;
  }
  return delta;
}

uint64_t CounterSnapshot::Counter(const std::string& name) const {
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

const HistogramCounts& CounterSnapshot::Histogram(
    const std::string& name) const {
  static const HistogramCounts kEmpty;
  auto it = histograms.find(name);
  return it == histograms.end() ? kEmpty : it->second;
}

}  // namespace tsviz::vizbench
