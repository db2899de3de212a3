#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <unordered_map>

namespace tsviz::vizbench {

SpanLog::SpanLog() : epoch_(Clock::now()) {}

SpanLog& SpanLog::Instance() {
  static SpanLog* log = new SpanLog();  // never destroyed
  return *log;
}

double SpanLog::NowMicros() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
      .count();
}

uint64_t SpanLog::NextId() {
  return next_id_.fetch_add(1, std::memory_order_relaxed);
}

void SpanLog::Add(std::vector<SpanRecord> spans) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.insert(spans_.end(), std::make_move_iterator(spans.begin()),
                std::make_move_iterator(spans.end()));
}

std::string EngineLayer(const std::string& phase) {
  if (phase == "metadata_read" || phase == "page_load" ||
      phase == "lazy_chunk_load" || phase == "merge_scan") {
    return "read";
  }
  if (phase == "index_probe") return "index";
  return "m4";  // solve_*, cache_probe, pool_wait, block
}

void SpanLog::AddEngineTree(const obs::TraceNode& node,
                            const SpanRecord& parent,
                            std::vector<SpanRecord>* out) {
  double start = parent.start_us;
  for (const auto& child : node.children) {
    SpanRecord span;
    span.name = EngineLayer(child->name) + "." + child->name;
    span.start_us = start;
    span.end_us = std::min(parent.end_us, start + child->millis * 1000.0);
    span.id = NextId();
    span.parent = parent.id;
    span.request = parent.request;
    span.tid = parent.tid;
    span.aggregated = true;
    out->push_back(span);
    AddEngineTree(*child, span, out);
    start = span.end_us;
  }
}

std::map<std::string, double> SpanLog::LayerSelfMillis() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::unordered_map<uint64_t, std::vector<const SpanRecord*>> children;
  for (const SpanRecord& span : spans_) {
    if (span.parent != 0) children[span.parent].push_back(&span);
  }
  std::map<std::string, double> self;
  for (const SpanRecord& span : spans_) {
    double covered = 0;
    auto it = children.find(span.id);
    if (it != children.end()) {
      std::vector<std::pair<double, double>> intervals;
      for (const SpanRecord* c : it->second) {
        const double lo = std::max(c->start_us, span.start_us);
        const double hi = std::min(c->end_us, span.end_us);
        if (hi > lo) intervals.emplace_back(lo, hi);
      }
      std::sort(intervals.begin(), intervals.end());
      double reach = span.start_us;
      for (auto [lo, hi] : intervals) {
        lo = std::max(lo, reach);
        if (hi > lo) covered += hi - lo;
        reach = std::max(reach, hi);
      }
    }
    const std::string layer = span.name.substr(0, span.name.find('.'));
    self[layer] += (span.end_us - span.start_us - covered) / 1000.0;
  }
  return self;
}

size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

Status SpanLog::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream os(path, std::ios::trunc);
  if (!os) return Status::IoError("cannot write " + path);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  char buf[512];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    const std::string layer = s.name.substr(0, s.name.find('.'));
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                  "\"dur\":%.3f,\"pid\":1,\"tid\":%u,\"args\":{\"id\":%llu,"
                  "\"parent\":%llu,\"request\":%llu,\"aggregated\":%s}}",
                  i == 0 ? "" : ",\n", s.name.c_str(), layer.c_str(),
                  s.start_us, s.end_us - s.start_us, s.tid,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.request),
                  s.aggregated ? "true" : "false");
    os << buf;
  }
  os << "\n]}\n";
  return os ? Status::OK() : Status::IoError("short write to " + path);
}

SpanScope::SpanScope(std::vector<SpanRecord>* out, const std::string& name,
                     uint64_t parent, uint64_t request, uint32_t tid)
    : out_(SpanLog::Instance().enabled() ? out : nullptr) {
  if (out_ == nullptr) return;
  record_.name = name;
  record_.id = SpanLog::Instance().NextId();
  record_.parent = parent;
  record_.request = request;
  record_.tid = tid;
  record_.start_us = SpanLog::Instance().NowMicros();
}

SpanScope::~SpanScope() {
  if (!done_) Finish();
}

const SpanRecord& SpanScope::Finish() {
  if (!done_ && out_ != nullptr) {
    record_.end_us = SpanLog::Instance().NowMicros();
    out_->push_back(record_);
  }
  done_ = true;
  return record_;
}

}  // namespace tsviz::vizbench
