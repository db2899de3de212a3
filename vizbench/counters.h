// Snapshots of the engine's MetricsRegistry, so a timed window's per-layer
// counts are the difference of two snapshots.
#ifndef TSVIZ_VIZBENCH_COUNTERS_H_
#define TSVIZ_VIZBENCH_COUNTERS_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>

#include "obs/metrics.h"

namespace tsviz::vizbench {

// Bucket counts of one log-bucketed histogram; quantiles interpolate inside
// a bucket exactly as obs::Histogram::Quantile does.
struct HistogramCounts {
  std::array<uint64_t, obs::Histogram::kNumBuckets> buckets{};
  double sum = 0;
  double max = 0;  // the histogram's lifetime max, an upper bound

  uint64_t count() const;
  double Quantile(double q) const;
};

struct CounterSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, HistogramCounts> histograms;

  static CounterSnapshot Take();
  // this - before, per counter and per bucket.
  CounterSnapshot Minus(const CounterSnapshot& before) const;
  uint64_t Counter(const std::string& name) const;
  const HistogramCounts& Histogram(const std::string& name) const;
};

}  // namespace tsviz::vizbench

#endif  // TSVIZ_VIZBENCH_COUNTERS_H_
