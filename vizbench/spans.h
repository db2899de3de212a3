// Benchmark-owned tracing: spans recorded around the benchmark's calls into
// the engine's public functions (the engine itself is not instrumented
// here). Spans stay in memory and are written once, at exit, as Chrome
// trace JSON in the format DUMP TRACE emits.
#ifndef TSVIZ_VIZBENCH_SPANS_H_
#define TSVIZ_VIZBENCH_SPANS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/trace.h"
#include "util.h"

namespace tsviz::vizbench {

struct SpanRecord {
  std::string name;  // "<layer>.<operation>"
  double start_us = 0;
  double end_us = 0;
  uint64_t id = 0;
  uint64_t parent = 0;   // 0: a root span
  uint64_t request = 0;  // shared by every span of one statement
  uint32_t tid = 0;      // the benchmark thread that recorded it
  bool aggregated = false;  // laid out from an engine trace tree
};

// Process-wide span store. Each thread appends to a private buffer through
// SpanScope; buffers are handed over when a recording thread finishes.
class SpanLog {
 public:
  static SpanLog& Instance();

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }
  double NowMicros() const;
  uint64_t NextId();

  void Add(std::vector<SpanRecord> spans);
  // Lays an engine trace tree (QueryStats::trace) out under `parent` the
  // way DUMP TRACE does: children placed one after another from the parent's
  // start, each named "<layer>.<phase>".
  void AddEngineTree(const obs::TraceNode& node, const SpanRecord& parent,
                     std::vector<SpanRecord>* out);

  // Self time per layer in ms: each span's duration minus the part of it
  // its children cover, summed by the name's layer prefix.
  std::map<std::string, double> LayerSelfMillis() const;
  size_t size() const;
  Status WriteChromeTrace(const std::string& path) const;

 private:
  SpanLog();
  bool enabled_ = false;
  Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
  std::atomic<uint64_t> next_id_{1};
};

// The layer an engine phase belongs to, for the names of grafted spans.
std::string EngineLayer(const std::string& phase);

// RAII span around one call; records nothing while the log is disabled or
// `out` is null.
class SpanScope {
 public:
  SpanScope(std::vector<SpanRecord>* out, const std::string& name,
            uint64_t parent, uint64_t request, uint32_t tid);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  uint64_t id() const { return record_.id; }
  // Closes the span now and returns it (the destructor then does nothing).
  const SpanRecord& Finish();

 private:
  std::vector<SpanRecord>* out_;
  SpanRecord record_;
  bool done_ = false;
};

}  // namespace tsviz::vizbench

#endif  // TSVIZ_VIZBENCH_SPANS_H_
