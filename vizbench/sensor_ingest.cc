// sensor_ingest: four connections write to 64 series with a mild skew,
// mostly as pipelined bursts of single-row INSERTs and partly as multi-row
// INSERTs, with product defaults on (WAL, auto-flush and compaction) except
// durable_fsync, which is off. Afterwards the database is flushed,
// compacted, closed and reopened, and every acknowledged point is read back
// through M4 SELECTs one time unit per span, which is also the run's read
// sample.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <thread>
#include <variant>

#include "client.h"
#include "common/random.h"
#include "model.h"
#include "sql/parser.h"
#include "workloads.h"

namespace tsviz::vizbench {
namespace {

constexpr int kSeries = 64;
constexpr int kConnections = 4;
constexpr int64_t kHistorySlots = 4000;  // pre-loaded points per series
// Pre-loaded points go in as one batch per series: the memtable then
// flushes each series' history into one file of four chunks. Batches of
// 1000 flushed a file per batch, and the set-up time followed the shared
// disk's file-creation speed (spread 0.36 over 10 runs).
constexpr size_t kLoadBatch = kHistorySlots;
constexpr double kZipfSkew = 0.5;        // mild: the top series gets ~8x
constexpr int kBurst = 16;               // pipelined single-row INSERTs
constexpr double kMultiRowShare = 0.2;   // of statements sent
constexpr int kMultiRowPoints = 64;
constexpr double kLateProbability = 0.05;
constexpr int64_t kReadSpan = 1000;      // time units per verification read
// Read-back connections: two clients and the two server workers answering
// them fit the host's four cores, so the read latency is the engine's and
// not the run queue's.
constexpr int kReadConnections = 2;
constexpr Timestamp kBase = 1700000000000;

std::string SeriesName(int s) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "sensor_%02d", s);
  return buf;
}

// The value written at a slot, as the text sent.
std::string ValueText(uint64_t seed, int series, int64_t slot) {
  const uint64_t h = (seed * 0x9E3779B97F4A7C15ull) ^
                     (static_cast<uint64_t>(series) << 40) ^
                     static_cast<uint64_t>(slot) * 0xC2B2AE3D27D4EB4Full;
  const double noise = static_cast<double>(h % 1000) / 1000.0;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f",
                50.0 * std::sin(0.01 * static_cast<double>(slot) + series) +
                    noise);
  return buf;
}

// The point stored at a slot: its time and the double the server parses
// from the value text.
Point SlotPoint(uint64_t seed, int series, int64_t slot) {
  return Point{kBase + slot,
               std::strtod(ValueText(seed, series, slot).c_str(), nullptr)};
}

// One connection's point stream per series: slots kHistorySlots + 4k + conn,
// so connections never collide, with ~5% of points held back for 2-20 of
// the series' later points (late, but within the current chunk).
class StreamGen {
 public:
  StreamGen(uint64_t seed, int conn)
      : rng_(seed * 7919 + conn), seed_(seed), conn_(conn),
        next_(kSeries, 0), held_(kSeries) {}

  int PickSeries() { return static_cast<int>(rng_.Zipf(kSeries, kZipfSkew)); }
  bool MultiRow() { return rng_.Bernoulli(kMultiRowShare); }

  // Appends "(t, v)" for the series' next point and returns its slot.
  int64_t Next(int s, std::string* out) {
    auto& held = held_[static_cast<size_t>(s)];
    int64_t slot = -1;
    for (auto it = held.begin(); it != held.end(); ++it) {
      if (--it->second <= 0 && slot < 0) {
        slot = it->first;
        held.erase(it);
        break;
      }
    }
    if (slot < 0) {
      slot = Take(s);
      if (rng_.Bernoulli(kLateProbability)) {
        held.emplace_back(slot, rng_.Uniform(2, 20));
        slot = Take(s);
      }
    }
    *out += "(" + std::to_string(kBase + slot) + ", " +
            ValueText(seed_, s, slot) + ")";
    return slot;
  }

 private:
  int64_t Take(int s) {
    return kHistorySlots + 4 * next_[static_cast<size_t>(s)]++ + conn_;
  }

  Rng rng_;
  uint64_t seed_;
  int conn_;
  std::vector<int64_t> next_;
  std::vector<std::vector<std::pair<int64_t, int64_t>>> held_;
};

struct Sent {
  int series;
  int64_t slot;
};

// Which of one connection's slots were acknowledged, per series: bit k
// stands for slot kHistorySlots + kConnections * k + conn. Values follow
// from the slot, so a bit is all the benchmark keeps of an acknowledged
// point.
using AckedBits = std::vector<std::vector<bool>>;

void MarkAcked(int conn, const Sent& sent, AckedBits* acked) {
  std::vector<bool>& bits = (*acked)[static_cast<size_t>(sent.series)];
  const auto k =
      static_cast<size_t>((sent.slot - kHistorySlots - conn) / kConnections);
  if (bits.size() <= k) bits.resize(k + 1);
  bits[k] = true;
}

bool IsAcked(const std::vector<AckedBits>& acked, int series, int64_t slot) {
  if (slot < kHistorySlots) return true;
  const auto conn = static_cast<size_t>((slot - kHistorySlots) % kConnections);
  const auto k = static_cast<size_t>((slot - kHistorySlots) / kConnections);
  const std::vector<bool>& bits = acked[conn][static_cast<size_t>(series)];
  return k < bits.size() && bits[k];
}

Result<std::unique_ptr<Instance>> SetUp(const Options& options, int copy,
                                        RunReport* report) {
  const auto t_start = Clock::now();
  std::vector<std::vector<Point>> history(kSeries);
  for (int s = 0; s < kSeries; ++s) {
    for (int64_t slot = 0; slot < kHistorySlots; ++slot) {
      history[s].push_back(SlotPoint(options.seed, s, slot));
    }
  }
  const auto t_generated = Clock::now();
  report->NoteOwnData(kSeries * kHistorySlots * sizeof(Point));
  // Product defaults except durable_fsync: WAL on, 1000-point chunks,
  // maintenance (auto-flush, compaction at 8 files) running. With
  // durable_fsync 1 every WAL append waits for an fsync, and the points
  // per second followed the shared virtual disk, which swung 3x between
  // runs; WAL records still reach the OS on every write.
  DatabaseConfig config;
  config.series_defaults.durable_fsync = false;
  TSVIZ_ASSIGN_OR_RETURN(
      auto instance,
      Instance::Start(options.work_dir + "/sensor_ingest-" +
                          std::to_string(copy),
                      config));
  for (int s = 0; s < kSeries; ++s) {
    for (size_t i = 0; i < history[s].size(); i += kLoadBatch) {
      const size_t n = std::min(kLoadBatch, history[s].size() - i);
      TSVIZ_RETURN_IF_ERROR(instance->db()->WriteBatch(
          SeriesName(s),
          std::vector<Point>(history[s].begin() + i,
                             history[s].begin() + i + n)));
    }
  }
  const auto t_loaded = Clock::now();
  TSVIZ_RETURN_IF_ERROR(RunStatement(instance->port(), "FLUSH").status());
  const auto t_flushed = Clock::now();
  report->generate_s = Seconds(t_start, t_generated);
  report->load_s = Seconds(t_generated, t_loaded);
  report->flush_s = Seconds(t_loaded, t_flushed);
  report->setup_seconds.push_back(Seconds(t_start, t_flushed));
  return instance;
}

// The replication layer, in the traced run. The timed window runs
// standalone, the product default, so a fresh primary with a follower
// attached takes the window's logged INSERTs through Database::WriteBatch
// afterwards; the figures are printed with the traced report. (Making the
// ingested database itself a primary logs its whole history as 4096-point
// baseline records, and a follower of ~1.3M such points never caught up.)
Status ProbeReplication(const Options& options, const StatementLog& log,
                        RunReport* report) {
  DatabaseConfig config;
  config.series_defaults.durable_fsync = false;
  const std::string dir = options.work_dir + "/sensor_ingest-repl";
  TSVIZ_ASSIGN_OR_RETURN(auto primary,
                         Instance::Start(dir + "-primary", config));
  TSVIZ_ASSIGN_OR_RETURN(auto follower,
                         Instance::Start(dir + "-follower", config));
  TSVIZ_RETURN_IF_ERROR(primary->db()->EnablePrimary(0));
  TSVIZ_RETURN_IF_ERROR(follower->db()->EnableReplica(
      "127.0.0.1", primary->db()->repl_port()));
  const CounterSnapshot before = CounterSnapshot::Take();
  std::set<std::string> written;
  uint64_t points = 0;
  for (const std::string& text : log.inserts) {
    auto parsed = sql::ParseStatement(text);
    const auto* insert =
        parsed.ok() ? std::get_if<sql::InsertStatement>(&*parsed) : nullptr;
    if (insert == nullptr) continue;
    std::vector<Point> batch;
    for (const auto& [t, v] : insert->points) batch.push_back(Point{t, v});
    TSVIZ_RETURN_IF_ERROR(primary->db()->WriteBatch(insert->series, batch));
    written.insert(insert->series);
    points += batch.size();
  }
  const auto written_at = Clock::now();
  TSVIZ_RETURN_IF_ERROR(
      WaitForFollower(primary->db(), follower->db(), 60.0));
  const CounterSnapshot delta = CounterSnapshot::Take().Minus(before);
  const HistogramCounts& apply = delta.Histogram("repl_apply_millis");
  report->report_only["repl.probe_catchup_s"] =
      Seconds(written_at, Clock::now());
  report->report_only["repl.probe_log_bytes_per_user_byte"] =
      delta.Counter("repl_log_bytes_total") /
      (16.0 * static_cast<double>(std::max<uint64_t>(points, 1)));
  report->report_only["repl.probe_apply_mean_ms"] =
      apply.count() > 0 ? apply.sum / static_cast<double>(apply.count()) : 0.0;
  report->notes.push_back("repl probe base: " + std::to_string(points) +
                          " points in " + std::to_string(log.inserts.size()) +
                          " INSERTs to " + std::to_string(written.size()) +
                          " series");
  // The follower must hold what the primary holds.
  TSVIZ_RETURN_IF_ERROR(primary->db()->FlushAll());
  TSVIZ_RETURN_IF_ERROR(follower->db()->FlushAll());
  const M4Query query{kBase, kBase + (int64_t{1} << 40), 1000};
  for (const std::string& series : written) {
    QueryStats stats;
    auto on_primary = primary->db()->QueryM4(series, query, &stats);
    auto on_follower = follower->db()->QueryM4(series, query, &stats);
    ++report->checks;
    if (!on_primary.ok() || !on_follower.ok()) {
      report->Fail("replicated M4 on " + series + ": " +
                   (on_primary.ok() ? on_follower.status()
                                    : on_primary.status())
                       .ToString());
    } else if (!ResultsEquivalent(*on_follower, *on_primary)) {
      report->Fail("follower differs from the primary on " + series + ": " +
                   FirstMismatch(*on_follower, *on_primary));
    }
  }
  follower->Destroy();
  primary->Destroy();
  return Status::OK();
}

}  // namespace

Status RunSensorIngest(const Options& options, RunReport* report) {
  const CounterSnapshot run_start = CounterSnapshot::Take();
  std::unique_ptr<Instance> instance;
  for (int copy = 0; copy < SetupsBefore(options); ++copy) {
    if (instance) instance->Destroy();
    TSVIZ_ASSIGN_OR_RETURN(instance, SetUp(options, copy, report));
  }
  SyncFileSystem(options.work_dir);
  report->notes.push_back(
      "sensor_ingest: 64 series (zipf 0.5), " +
      std::to_string(kHistorySlots) +
      " pre-loaded points each; 4 closed-loop connections sending bursts of " +
      std::to_string(kBurst) + " pipelined single-row INSERTs or (20%) " +
      std::to_string(kMultiRowPoints) +
      "-row INSERTs, 5% late points; WAL on, durable_fsync 0, 1000-point "
      "memtable, autoflush 4 MiB, compaction at 8 files; then FLUSH, COMPACT, "
      "reopen and a full read-back");

  double bg_depth_max = 0;
  std::mutex sample_mutex;
  const CounterSnapshot before = CounterSnapshot::Take();
  std::vector<OpLog> logs(kConnections);
  std::vector<AckedBits> acked(kConnections, AckedBits(kSeries));
  std::vector<StatementLog> conn_logs(kConnections);
  std::vector<ClientTrace> traces(kConnections);
  const int port = instance->port();
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(options.seconds));
  const Slicer slicer{start, options.seconds};
  {
    Sampler sampler(20, [&] {
      std::lock_guard<std::mutex> lock(sample_mutex);
      bg_depth_max =
          std::max(bg_depth_max, obs::GetGauge("bg_queue_depth").value());
    });
    std::vector<std::thread> threads;
    for (int c = 0; c < kConnections; ++c) {
      threads.emplace_back([&, c] {
        ClientTrace& trace = traces[c];
        trace.enabled = options.trace;
        trace.tid = static_cast<uint32_t>(c + 1);
        OpLog& log = logs[c];
        StreamGen gen(options.seed, c);
        Client client;
        if (Status st = client.Connect(port); !st.ok()) {
          report->Fail("connect: " + st.ToString());
          return;
        }
        std::string wire, body;
        std::vector<std::vector<Sent>> pending;
        while (Clock::now() < deadline) {
          wire.clear();
          pending.clear();
          if (gen.MultiRow()) {
            const int s = gen.PickSeries();
            std::string sql = "INSERT INTO " + SeriesName(s) + " VALUES ";
            std::vector<Sent> points;
            for (int i = 0; i < kMultiRowPoints; ++i) {
              if (i > 0) sql += ", ";
              points.push_back(Sent{s, gen.Next(s, &sql)});
            }
            if (options.trace) conn_logs[c].AddInsert(sql);
            wire = sql + "\n";
            pending.push_back(std::move(points));
          } else {
            for (int b = 0; b < kBurst; ++b) {
              const int s = gen.PickSeries();
              std::string sql = "INSERT INTO " + SeriesName(s) + " VALUES ";
              const int64_t slot = gen.Next(s, &sql);
              if (options.trace) conn_logs[c].AddInsert(sql);
              wire += sql + "\n";
              pending.push_back({Sent{s, slot}});
            }
          }
          const bool traced = trace.TraceNext();
          SpanScope span(traced ? &trace.spans : nullptr,
                         pending.size() > 1 ? "net.insert_burst"
                                            : "net.insert_multirow",
                         0, 0, trace.tid);
          log.attempted += pending.size();
          const auto t0 = Clock::now();
          Status st = client.Send(wire);
          for (auto& points : pending) {
            if (st.ok()) st = client.ReadReply(&body);
            const auto t1 = Clock::now();
            if (!st.ok() || IsErrorReply(body)) {
              report->Fail("insert: " + (st.ok() ? body : st.ToString()));
              continue;
            }
            if (traced) {
              trace.traced_millis.push_back(Millis(t0, t1));
              log.points += points.size();
            } else {
              log.Add(Millis(t0, t1), slicer.Of(t1), points.size());
            }
            if (points.size() == 1) ++log.single_row;
            for (const Sent& sent : points) MarkAcked(c, sent, &acked[c]);
          }
          span.Finish();
          if (!st.ok()) return;
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  const CounterSnapshot after = CounterSnapshot::Take();
  report->write_slice_seconds = slicer.SliceSeconds();
  StatementLog log;
  std::vector<double> traced;
  for (int c = 0; c < kConnections; ++c) {
    report->writes.Merge(logs[c]);
    log.Merge(conn_logs[c]);
    traced.insert(traced.end(), traces[c].traced_millis.begin(),
                  traces[c].traced_millis.end());
    traces[c].Flush();
  }

  // FLUSH + COMPACT, space per user byte, then close and reopen.
  TSVIZ_RETURN_IF_ERROR(RunStatement(port, "FLUSH").status());
  TSVIZ_RETURN_IF_ERROR(RunStatement(port, "COMPACT").status());
  const uint64_t points = kSeries * kHistorySlots + report->writes.points;
  report->space_amp = static_cast<double>(DirectoryBytes(instance->dir())) /
                      (16.0 * static_cast<double>(points));
  TSVIZ_RETURN_IF_ERROR(instance->Restart());
  // The window and the compaction left hundreds of megabytes dirty; write
  // them back now, or the kernel does it during the read-back.
  SyncFileSystem(options.work_dir);
  const CounterSnapshot final_steps = CounterSnapshot::Take();

  // Every acknowledged point must be back: M4 with one time unit per span
  // returns each point as its own FP/LP/BP/TP. Each read's expected points
  // are rebuilt from the acknowledged bits just before it is sent.
  std::vector<int64_t> max_slot(kSeries, kHistorySlots - 1);
  for (int c = 0; c < kConnections; ++c) {
    for (int s = 0; s < kSeries; ++s) {
      const size_t n = acked[c][s].size();
      if (n > 0) {
        max_slot[s] = std::max<int64_t>(
            max_slot[s],
            kHistorySlots + kConnections * static_cast<int64_t>(n - 1) + c);
      }
    }
  }
  auto window_model = [&](int s, int64_t j) {
    std::vector<Point> points;
    for (int64_t slot = j * kReadSpan;
         slot < (j + 1) * kReadSpan && slot <= max_slot[s]; ++slot) {
      if (IsAcked(acked, s, slot)) {
        points.push_back(SlotPoint(options.seed, s, slot));
      }
    }
    return SeriesModel(std::move(points));
  };
  std::vector<std::pair<int, int64_t>> reads;  // (series, window index)
  for (int s = 0; s < kSeries; ++s) {
    for (int64_t j = 0; j * kReadSpan <= max_slot[s]; ++j) reads.emplace_back(s, j);
  }
  Rng(options.seed).Shuffle(&reads);
  std::atomic<size_t> next_read{0};
  std::vector<OpLog> read_logs(kReadConnections);
  // (completion time, latency) per read; sliced once the phase's length
  // is known.
  std::vector<std::vector<std::pair<Clock::time_point, double>>> read_samples(
      kReadConnections);
  const int read_port = instance->port();
  const auto read_start = Clock::now();
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < kReadConnections; ++c) {
      threads.emplace_back([&, c] {
        Client client;
        if (Status st = client.Connect(read_port); !st.ok()) {
          report->Fail("connect: " + st.ToString());
          return;
        }
        std::string body;
        for (size_t i = next_read++; i < reads.size(); i = next_read++) {
          const auto [s, j] = reads[i];
          const M4Query query{kBase + j * kReadSpan,
                              kBase + (j + 1) * kReadSpan, kReadSpan};
          const std::string sql = M4Sql(SeriesName(s), query);
          const SeriesModel model = window_model(s, j);
          ++read_logs[c].attempted;
          const auto t0 = Clock::now();
          Status st = client.Send(sql + "\n");
          if (st.ok()) st = client.ReadReply(&body);
          const auto t1 = Clock::now();
          if (!st.ok()) {
            report->Fail("read-back: " + st.ToString());
            return;
          }
          const std::string mismatch =
              CheckM4Reply(body, query, model, model.size());
          if (!mismatch.empty()) {
            report->Fail("acknowledged data lost or wrong after reopen: " +
                         sql + ": " + mismatch);
            continue;
          }
          read_samples[c].emplace_back(t1, Millis(t0, t1));
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  const Slicer read_slicer{read_start, Seconds(read_start, Clock::now())};
  report->read_slice_seconds = read_slicer.SliceSeconds();
  for (int c = 0; c < kReadConnections; ++c) {
    for (const auto& [done, ms] : read_samples[c]) {
      read_logs[c].Add(ms, read_slicer.Of(done), 0);
    }
    report->reads.Merge(read_logs[c]);
  }
  for (size_t i = 0; i < reads.size() && i < StatementLog::kCap; i += 4) {
    const auto [s, j] = reads[i];
    const M4Query query{kBase + j * kReadSpan, kBase + (j + 1) * kReadSpan,
                        kReadSpan};
    log.AddSelect(M4Sql(SeriesName(s), query), SeriesName(s), query);
  }
  report->notes.push_back("sensor_ingest: " + std::to_string(points) +
                          " points acknowledged in total, read back in " +
                          std::to_string(reads.size()) + " windows");

  if (options.trace) {
    WindowStats window;
    window.delta = after.Minus(before);
    window.run_delta = final_steps.Minus(run_start);
    window.client_mean_ms = Mean(report->writes.millis);
    window.statements = report->writes.attempted;
    window.write_statements = report->writes.attempted;
    window.single_row_inserts = report->writes.single_row;
    window.points = report->writes.points;
    window.run_points = points;
    window.bg_queue_depth_max = bg_depth_max;
    AddWindowMetrics(window, report);
    AddTraceOverhead(traced, report->writes.millis, report);
    AnalyzeLayers(instance->db(), log, options.seconds, report);
    TSVIZ_RETURN_IF_ERROR(ProbeReplication(options, log, report));
  }
  instance->Destroy();
  for (int copy = SetupsBefore(options); copy < SetupsTotal(options);
       ++copy) {
    TSVIZ_ASSIGN_OR_RETURN(instance, SetUp(options, copy, report));
    instance->Destroy();
  }
  return Status::OK();
}

}  // namespace tsviz::vizbench
