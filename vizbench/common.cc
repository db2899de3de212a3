#include <algorithm>
#include <chrono>
#include <filesystem>
#include <thread>
#include <variant>

#include "client.h"
#include "m4/m4_udf.h"
#include "model.h"
#include "m4/parallel.h"
#include "obs/trace.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "storage/page_cache.h"
#include "workloads.h"

namespace tsviz::vizbench {

void RunReport::Fail(const std::string& message) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++failures_;
  if (errors_.size() < 20) errors_.push_back(message);
}

void RunReport::NoteOwnData(size_t bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  own_data_mb = std::max(own_data_mb, static_cast<double>(bytes) / (1 << 20));
}

uint64_t RunReport::failures() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return failures_;
}

std::vector<std::string> RunReport::errors() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return errors_;
}

Result<std::unique_ptr<Instance>> Instance::Start(std::string dir,
                                                  DatabaseConfig config) {
  config.root_dir = dir;
  std::unique_ptr<Instance> instance(
      new Instance(std::move(dir), std::move(config)));
  TSVIZ_RETURN_IF_ERROR(instance->Open());
  return instance;
}

Status Instance::Open() {
  TSVIZ_ASSIGN_OR_RETURN(db_, Database::Open(config_));
  server_ = std::make_unique<SqlServer>(db_.get());
  return server_->Start(0);
}

void Instance::Stop() {
  if (server_) server_->Stop();
  server_.reset();
  db_.reset();
}

Status Instance::Restart() {
  Stop();
  return Open();
}

void Instance::Destroy() {
  Stop();
  std::error_code ec;
  std::filesystem::remove_all(dir_, ec);
}

Result<std::string> RunStatement(int port, const std::string& statement) {
  Client client;
  TSVIZ_RETURN_IF_ERROR(client.Connect(port));
  TSVIZ_RETURN_IF_ERROR(client.Send(statement + "\n"));
  std::string body;
  TSVIZ_RETURN_IF_ERROR(client.ReadReply(&body));
  if (IsErrorReply(body)) return Status::Internal(statement + ": " + body);
  return body;
}

Status WaitForFollower(Database* primary, Database* follower,
                       double timeout_s) {
  const auto start = Clock::now();
  const uint64_t target = primary->replication_status().last_seq;
  while (follower->replication_status().last_seq < target) {
    if (Seconds(start, Clock::now()) > timeout_s) {
      const ReplicationStatus status = follower->replication_status();
      return Status::Internal(
          "follower did not catch up: applied " +
          std::to_string(status.last_seq) + " of " + std::to_string(target) +
          " (state " + status.state + ", primary_seq " +
          std::to_string(status.primary_seq) + ", divergences " +
          std::to_string(status.divergences) + ", reconnects " +
          std::to_string(status.reconnects) + ")");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return Status::OK();
}

Sampler::Sampler(int period_ms, std::function<void()> fn) {
  thread_ = std::thread([this, period_ms, fn = std::move(fn)] {
    while (!stop_.load()) {
      fn();
      std::this_thread::sleep_for(std::chrono::milliseconds(period_ms));
    }
  });
}

void Sampler::Stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

void StatementLog::AddSelect(const std::string& sql, const std::string& series,
                             const M4Query& query) {
  if (selects.size() >= kCap) return;
  selects.push_back(sql);
  queries.emplace_back(series, query);
}

void StatementLog::AddInsert(const std::string& sql) {
  if (inserts.size() < kCap) inserts.push_back(sql);
}

void StatementLog::Merge(const StatementLog& other) {
  selects.insert(selects.end(), other.selects.begin(), other.selects.end());
  queries.insert(queries.end(), other.queries.begin(), other.queries.end());
  inserts.insert(inserts.end(), other.inserts.begin(), other.inserts.end());
}

void ClientTrace::Flush() {
  if (!spans.empty()) SpanLog::Instance().Add(std::move(spans));
  spans.clear();
}

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

void AddWindowMetrics(const WindowStats& w, RunReport* report) {
  const CounterSnapshot& d = w.delta;
  auto& L = report->layer;
  const HistogramCounts& queue = d.Histogram("net_queue_wait_millis");
  const HistogramCounts& exec = d.Histogram("server_query_millis");
  // The histograms' first power-of-two bucket holds every sample of 1 ms or
  // less, and most queue waits and single-row INSERTs are that short, so an
  // interpolated p50/p99 would read about q whatever the program does. The
  // exact sums and counts give exact means instead.
  L["net.queue_wait_mean_ms"] = Ratio(queue.sum, queue.count());
  L["server.exec_mean_ms"] = Ratio(exec.sum, exec.count());
  L["net.overhead_mean_ms"] = w.client_mean_ms - L["server.exec_mean_ms"];
  L["net.wakeups_per_stmt"] =
      Ratio(d.Counter("net_epoll_wakeups_total"), w.statements);
  L["net.batched_ratio"] =
      Ratio(d.Counter("batch_net_accumulated_total"), w.single_row_inserts);
  // Uncontended acquisitions record 0, and no workload contends the
  // catalog, so the sum reads exactly 0 on every run: printed, not a
  // result-line metric.
  report->report_only["db.catalog_lock_wait_ms"] =
      d.Histogram("catalog_lock_wait_millis").sum;
  L["db.store_lock_per_stmt"] =
      Ratio(d.Counter("store_write_lock_acquisitions_total"),
            w.write_statements);
  const double cache_hits = d.Counter("m4_result_cache_hits_total");
  const double cache_lookups =
      cache_hits + d.Counter("m4_result_cache_misses_total");
  L["m4.result_cache_hit_ratio"] = Ratio(cache_hits, cache_lookups);
  const double page_hits = d.Counter("page_cache_hits_total");
  const double page_lookups = page_hits + d.Counter("page_cache_misses_total");
  L["page_cache.hit_ratio"] = Ratio(page_hits, page_lookups);
  L["page_cache.evictions"] = d.Counter("page_cache_evictions_total");
  const double user_bytes = 16.0 * w.points;
  L["wal.bytes_per_user_byte"] = Ratio(d.Counter("wal_bytes_total"), user_bytes);
  L["wal.writes_per_stmt"] =
      Ratio(d.Counter("wal_physical_writes_total"), w.write_statements);
  L["storage.fsyncs_per_kpt"] =
      Ratio(d.Counter("fsync_total"), w.points / 1000.0);
  L["storage.flush_p99_ms"] =
      w.run_delta.Histogram("storage_flush_millis").Quantile(0.99);
  L["storage.compaction_bytes_per_user_byte"] =
      Ratio(w.run_delta.Counter("storage_compaction_bytes_rewritten_total"),
            16.0 * w.run_points);
  L["bg.jobs_completed"] = d.Counter("bg_jobs_completed_total");
  L["bg.queue_depth_max"] = w.bg_queue_depth_max;
  L["repl.log_bytes_per_user_byte"] =
      Ratio(d.Counter("repl_log_bytes_total"), user_bytes);
  report->report_only["bg.compact_ms_sum"] =
      w.run_delta.Histogram("bg_compact_millis").sum;
  report->notes.push_back(
      "window bases: statements=" + std::to_string(w.statements) +
      " selects=" + std::to_string(w.selects) +
      " write_statements=" + std::to_string(w.write_statements) +
      " single_row_inserts=" + std::to_string(w.single_row_inserts) +
      " points=" + std::to_string(w.points) +
      " result_cache_lookups=" + std::to_string(uint64_t(cache_lookups)) +
      " page_cache_lookups=" + std::to_string(uint64_t(page_lookups)) +
      " queue_wait_samples=" + std::to_string(queue.count()) +
      " server_samples=" + std::to_string(exec.count()) +
      " run_points=" + std::to_string(w.run_points));
}

void AddTraceOverhead(const std::vector<double>& traced,
                      const std::vector<double>& untraced, RunReport* report) {
  const double base = Median(untraced);
  report->layer["trace.overhead_ratio"] =
      base > 0 ? Median(traced) / base - 1.0 : 0.0;
  report->notes.push_back("tracing overhead base: " +
                          std::to_string(traced.size()) + " traced vs " +
                          std::to_string(untraced.size()) +
                          " untraced statements");
}

namespace {

std::string ReplaySeries(const std::string& series) {
  return "replay_" + series;
}

// Renames the target series of an INSERT so a replay does not touch the
// data the workload measured.
std::string ReplayInsert(const std::string& sql) {
  static const std::string kPrefix = "INSERT INTO ";
  return kPrefix + "replay_" + sql.substr(kPrefix.size());
}

struct Phase {
  explicit Phase(double budget_s)
      : deadline(Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(budget_s))) {}
  bool over() const { return Clock::now() >= deadline; }
  Clock::time_point deadline;
};

}  // namespace

void AnalyzeLayers(Database* db, const StatementLog& log, double budget_s,
                   RunReport* report) {
  SpanLog& spans = SpanLog::Instance();
  std::vector<SpanRecord> out;
  auto& L = report->layer;
  constexpr uint32_t kTid = 100;  // the analysis runs on one thread

  // 1. sql: parse, execute and format, statement by statement.
  std::vector<double> parse_select_us, parse_insert_us, exec_select_ms,
      exec_insert_ms, format_us;
  {
    Phase phase(budget_s * 0.35);
    const size_t n = std::max(log.selects.size(), log.inserts.size());
    for (size_t i = 0; i < n && !phase.over(); ++i) {
      for (int kind = 0; kind < 2; ++kind) {
        const bool select = kind == 0;
        const auto& texts = select ? log.selects : log.inserts;
        if (i >= texts.size()) continue;
        const std::string text = select ? texts[i] : ReplayInsert(texts[i]);
        SpanScope root(&out, "replay.statement", 0, 0, kTid);
        const uint64_t request = root.id();
        Result<sql::Statement> parsed = Status::Internal("not run");
        {
          SpanScope span(&out, "sql.parse", request, request, kTid);
          const auto t0 = Clock::now();
          parsed = sql::ParseStatement(text);
          (select ? parse_select_us : parse_insert_us)
              .push_back(Millis(t0, Clock::now()) * 1000.0);
        }
        if (!parsed.ok()) {
          report->Fail("replay parse: " + parsed.status().ToString());
          continue;
        }
        QueryStats stats;
        if (select) stats.trace = std::make_shared<obs::Trace>("execute");
        Result<sql::ResultSet> result = Status::Internal("not run");
        {
          SpanScope span(&out, "sql.execute", request, request, kTid);
          const auto t0 = Clock::now();
          result = sql::ExecuteStatement(db, *parsed, &stats);
          (select ? exec_select_ms : exec_insert_ms)
              .push_back(Millis(t0, Clock::now()));
          const SpanRecord& closed = span.Finish();
          if (stats.trace != nullptr && spans.enabled()) {
            spans.AddEngineTree(stats.trace->root(), closed, &out);
          }
        }
        if (!result.ok()) {
          report->Fail("replay execute: " + result.status().ToString());
          continue;
        }
        if (select) {
          SpanScope span(&out, "sql.format", request, request, kTid);
          const auto t0 = Clock::now();
          const std::string csv = result->ToCsv();
          format_us.push_back(Millis(t0, Clock::now()) * 1000.0);
          if (csv.empty()) report->Fail("replay produced an empty reply");
        }
      }
    }
  }
  L["sql.parse_select_us"] = Median(parse_select_us);
  L["sql.parse_insert_us"] = Median(parse_insert_us);
  L["sql.execute_p50_ms"] = Median(exec_select_ms);
  L["sql.format_us"] = Median(format_us);
  report->report_only["sql.execute_insert_p50_ms"] = Median(exec_insert_ms);
  report->notes.push_back(
      "sql replay bases: selects=" + std::to_string(exec_select_ms.size()) +
      " inserts=" + std::to_string(exec_insert_ms.size()));

  // 2. db: the INSERT points straight into Database::WriteBatch.
  std::vector<double> batch_us;
  {
    Phase phase(budget_s * 0.15);
    for (size_t i = 0; i < log.inserts.size() && !phase.over(); ++i) {
      auto parsed = sql::ParseStatement(log.inserts[i]);
      const auto* insert =
          parsed.ok() ? std::get_if<sql::InsertStatement>(&*parsed) : nullptr;
      if (insert == nullptr) continue;
      std::vector<Point> points;
      points.reserve(insert->points.size());
      for (const auto& [t, v] : insert->points) points.push_back(Point{t, v});
      SpanScope span(&out, "db.write_batch", 0, 0, kTid);
      const auto t0 = Clock::now();
      Status status = db->WriteBatch(ReplaySeries(insert->series), points);
      batch_us.push_back(Millis(t0, Clock::now()) * 1000.0);
      if (!status.ok()) report->Fail("replay write: " + status.ToString());
    }
  }
  L["db.write_batch_p50_us"] = Quantile(batch_us, 0.5);
  L["db.write_batch_p99_us"] = Quantile(batch_us, 0.99);
  report->notes.push_back("db.write_batch base: " +
                          std::to_string(batch_us.size()) + " batches");

  // 3. m4/read/index/encoding: probe the logged windows.
  constexpr size_t kMaxProbes = 64;
  std::vector<size_t> picks;
  const size_t total = log.queries.size();
  for (size_t k = 0; k < std::min(total, kMaxProbes); ++k) {
    picks.push_back(k * total / std::min(total, kMaxProbes));
  }
  auto run_probe = [&](const std::string& name, size_t pick, bool cold,
                       const std::function<Result<M4Result>(QueryStats*)>& fn,
                       QueryStats* stats) -> Result<M4Result> {
    if (cold) SharedPageCache::Instance().Clear();
    stats->trace = spans.enabled() ? std::make_shared<obs::Trace>(name)
                                   : nullptr;
    SpanScope span(&out, name, 0, 0, kTid);
    Result<M4Result> result = fn(stats);
    const SpanRecord& closed = span.Finish();
    if (stats->trace != nullptr) {
      spans.AddEngineTree(stats->trace->root(), closed, &out);
    }
    if (!result.ok()) {
      report->Fail(name + " on probe " + std::to_string(pick) + ": " +
                   result.status().ToString());
    }
    return result;
  };
  auto timed = [](const std::function<void()>& fn) {
    const auto t0 = Clock::now();
    fn();
    return Millis(t0, Clock::now());
  };
  std::vector<double> lsm_ms, lsm_cold_ms, udf_ms, k1_ms, k4_ms;
  QueryStats warm_total;
  uint64_t udf_points = 0;
  double udf_seconds = 0;
  size_t warm_probes = 0;
  {
    // As run: the page cache as the timed window left it.
    Phase phase(budget_s * 0.15);
    for (size_t pick : picks) {
      if (phase.over()) break;
      const auto& [series, query] = log.queries[pick];
      QueryStats stats;
      lsm_ms.push_back(timed([&] {
        run_probe("m4.query_m4", pick, false,
                  [&](QueryStats* s) { return db->QueryM4(series, query, s); },
                  &stats);
      }));
      stats.trace.reset();
      warm_total += stats;
      ++warm_probes;
    }
  }
  {
    Phase phase(budget_s * 0.35);
    for (size_t pick : picks) {
      if (phase.over()) break;
      const auto& [series, query] = log.queries[pick];
      auto store = db->GetSeriesShared(series);
      if (!store.ok()) {
        report->Fail("probe series: " + store.status().ToString());
        continue;
      }
      const StoreView view = (*store)->CurrentView();
      QueryStats s_lsm, s_udf, s_k1, s_k4;
      Result<M4Result> lsm = Status::Internal("not run"), udf = Status::Internal("not run");
      lsm_cold_ms.push_back(timed([&] {
        lsm = run_probe(
            "m4.query_m4_cold", pick, true,
            [&](QueryStats* s) { return RunM4Lsm(view, query, s); }, &s_lsm);
      }));
      const double udf_millis = timed([&] {
        udf = run_probe(
            "m4.udf_cold", pick, true,
            [&](QueryStats* s) { return RunM4Udf(view, query, s); }, &s_udf);
      });
      udf_ms.push_back(udf_millis);
      udf_points += s_udf.points_scanned;
      udf_seconds += udf_millis / 1000.0;
      k1_ms.push_back(timed([&] {
        run_probe("m4.parallel_1_cold", pick, true,
                  [&](QueryStats* s) {
                    return RunM4LsmParallel(view, query, 1, s);
                  },
                  &s_k1);
      }));
      k4_ms.push_back(timed([&] {
        run_probe("m4.parallel_4_cold", pick, true,
                  [&](QueryStats* s) {
                    return RunM4LsmParallel(view, query, 4, s);
                  },
                  &s_k4);
      }));
      ++report->checks;
      if (lsm.ok() && udf.ok() && !ResultsEquivalent(*lsm, *udf)) {
        report->Fail("M4-LSM and M4-UDF disagree on " + M4Sql(series, query) +
                     ": " + FirstMismatch(*lsm, *udf));
      }
    }
  }
  const double n = static_cast<double>(std::max<size_t>(warm_probes, 1));
  L["m4.lsm_p50_ms"] = Quantile(lsm_ms, 0.5);
  L["m4.lsm_p99_ms"] = Quantile(lsm_ms, 0.99);
  L["m4.lsm_cold_p50_ms"] = Quantile(lsm_cold_ms, 0.5);
  L["m4.lsm_cold_p99_ms"] = Quantile(lsm_cold_ms, 0.99);
  L["m4.udf_p50_ms"] = Quantile(udf_ms, 0.5);
  L["m4.lsm_over_udf"] = Ratio(Median(lsm_cold_ms), Median(udf_ms));
  L["m4.pool_speedup_4"] = Ratio(Median(k1_ms), Median(k4_ms));
  L["m4.chunks_loaded_ratio"] =
      Ratio(warm_total.chunks_loaded, warm_total.chunks_total);
  L["m4.candidate_rounds_per_query"] = warm_total.candidate_rounds / n;
  L["index.lookups_per_query"] = warm_total.index_lookups / n;
  L["read.metadata_reads_per_query"] = warm_total.metadata_reads / n;
  L["read.pages_decoded_per_query"] = warm_total.pages_decoded / n;
  L["read.bytes_read_per_query"] = warm_total.bytes_read / n;
  L["encoding.decode_mpts_per_s"] = Ratio(udf_points / 1e6, udf_seconds);
  report->notes.push_back(
      "m4 probe bases: as_run=" + std::to_string(lsm_ms.size()) +
      " cold=" + std::to_string(lsm_cold_ms.size()) +
      " chunks_total=" + std::to_string(warm_total.chunks_total) +
      " udf_points_scanned=" + std::to_string(udf_points));
  spans.Add(std::move(out));
}

}  // namespace tsviz::vizbench
