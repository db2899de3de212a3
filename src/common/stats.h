#ifndef TSVIZ_COMMON_STATS_H_
#define TSVIZ_COMMON_STATS_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace tsviz {

namespace obs {
class Trace;  // defined in obs/trace.h; common only carries the pointer
}  // namespace obs

// The single source of truth for QueryStats' counters. operator+=,
// ToString, CsvHeader/ToCsvRow and FieldNames/FieldValues are all generated
// from this list, so a counter added here is automatically aggregated,
// printed, and serialized everywhere (benches, EXPLAIN ANALYZE, tests) —
// it cannot be forgotten in one of them.
#define TSVIZ_QUERY_STATS_FIELDS(X) \
  X(chunks_total)                   \
  X(chunks_loaded)                  \
  X(pages_decoded)                  \
  X(points_scanned)                 \
  X(bytes_read)                     \
  X(metadata_reads)                 \
  X(candidate_rounds)               \
  X(index_lookups)                  \
  X(partitions_scanned)             \
  X(partitions_pruned)              \
  X(chunks_quarantined)             \
  X(exact_loads)                    \
  X(value_orders)

// Cost counters accumulated while serving one query (or one experiment run).
// The benches report these alongside wall-clock latency so that the
// M4-UDF-vs-M4-LSM asymmetry (chunks loaded, bytes decoded, points scanned)
// is visible independently of machine speed.
struct QueryStats {
  uint64_t chunks_total = 0;       // chunks overlapping the query range
  uint64_t chunks_loaded = 0;      // chunks whose data was read from disk
  uint64_t pages_decoded = 0;      // pages actually decompressed
  uint64_t points_scanned = 0;     // decoded points examined
  uint64_t bytes_read = 0;         // raw bytes read from chunk data regions
  uint64_t metadata_reads = 0;     // chunk metadata entries consulted
  uint64_t candidate_rounds = 0;   // candidate generate/verify iterations
  uint64_t index_lookups = 0;      // step-regression index probes
  uint64_t partitions_scanned = 0;  // partitions whose metadata was consulted
  uint64_t partitions_pruned = 0;   // partitions ruled out by interval alone
  uint64_t chunks_quarantined = 0;  // corrupt chunks skipped by selection
  uint64_t exact_loads = 0;   // M4-LSM span views rebuilt from decoded points
  uint64_t value_orders = 0;  // exact views whose points were sorted by value

  // True when any data the query wanted was skipped as corrupt
  // (read_tolerance=degrade): the result covers the surviving chunks only.
  // ORed (not summed) by operator+=; surfaced by EXPLAIN ANALYZE.
  bool degraded = false;

  // Optional per-query phase timing tree (see obs/trace.h). Engine code
  // opens obs::TraceSpan on it when set; null (the default) costs one
  // pointer check. Not a counter: operator+= and the serializers ignore it.
  std::shared_ptr<obs::Trace> trace;

  void Reset() { *this = QueryStats(); }
  QueryStats& operator+=(const QueryStats& other);
  std::string ToString() const;

  // Counter names/values in TSVIZ_QUERY_STATS_FIELDS order.
  static const std::vector<std::string>& FieldNames();
  std::vector<uint64_t> FieldValues() const;

  // One shared CSV serialization for benches and EXPLAIN ANALYZE.
  static std::string CsvHeader();
  std::string ToCsvRow() const;
};

// Simple wall-clock stopwatch.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}
  void Reset() { start_ = Clock::now(); }
  double ElapsedMillis() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - start_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace tsviz

#endif  // TSVIZ_COMMON_STATS_H_
