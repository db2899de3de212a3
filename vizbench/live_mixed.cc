// live_mixed: a primary with a follower attached. Two writer connections
// send single-row INSERTs open loop at a fixed rate, each into its own 8
// series with strictly increasing timestamps; two closed-loop readers send
// live-tail M4 SELECTs to the primary over windows that end at each
// series' acknowledged watermark. Every write invalidates the result cache
// and the tail windows fit in the page cache, and the writes are logged
// twice (replication log and WAL).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "client.h"
#include "common/random.h"
#include "model.h"
#include "workloads.h"

namespace tsviz::vizbench {
namespace {

constexpr int kWriters = 2;
constexpr int kSeriesPerWriter = 8;
constexpr int kSeries = kWriters * kSeriesPerWriter;
constexpr int kReaders = 2;
// Points per second per writer: well under sensor_ingest's capacity.
constexpr double kWriteRate = 1000.0;
// A writer's sensors report together once per tick, like a gateway
// forwarding what it buffered: one pipelined burst of one kPointsPerTick-row
// INSERT per series. With single-row INSERTs, one per millisecond, the
// latency measures how fast the host wakes the threads each statement
// passes through more than the work it does.
constexpr int kPointsPerTick = 5;
constexpr std::chrono::duration<double> kTick(kSeriesPerWriter *
                                              kPointsPerTick / kWriteRate);
// How long before a tick its writer stops sleeping.
constexpr auto kSpin = std::chrono::microseconds(200);
constexpr int64_t kHistoryPoints = 20000;  // per series, before timing
constexpr int64_t kStep = 10;              // ms between a series' points
constexpr size_t kLoadBatch = 1000;
// A reader waits this long after each reply before its next SELECT, like a
// dashboard between refreshes. Without it the two readers kept two of the
// host's four cores busy on their own, and the writers' latency measured
// the scheduler's run queue.
constexpr auto kReaderThink = std::chrono::milliseconds(5);
constexpr int64_t kTailPoints[] = {2000, 5000, 20000};
constexpr int64_t kWidths[] = {200, 1000, 2000};
constexpr Timestamp kBase = 1700000000000;

// SELECT reads flushed chunks only: a memtable's points become visible
// when it flushes (inline every memtable_flush_threshold points, or early
// when a compaction flushes first). A series' points arrive in time order
// and a flush drains the whole memtable, so what a tail window ending at
// the acknowledged watermark can show is a prefix of the acknowledged
// points. The reply's last LP names that prefix; it must not pass the
// acknowledged watermark nor fall behind a prefix that a reply received
// before this query was sent already showed. Returns the prefix length,
// or the model size + 1 when the reply's LP is not a written point.
size_t VisiblePrefix(const std::string& body, const M4Query& query,
                     const SeriesModel& model) {
  const auto& points = model.points();
  Timestamp last_lp = kMinTimestamp;
  bool any = false;
  size_t pos = body.find('\n');
  while (pos != std::string::npos && pos + 1 < body.size()) {
    const size_t end = body.find('\n', pos + 1);
    const std::string row = body.substr(pos + 1, end - pos - 1);
    // span_start,FIRST_TIME,FIRST_VALUE,LAST_TIME,...
    size_t c1 = row.find(','), c2 = row.find(',', c1 + 1);
    size_t c3 = row.find(',', c2 + 1), c4 = row.find(',', c3 + 1);
    if (c4 != std::string::npos && row.compare(c3 + 1, 4, "null") != 0) {
      last_lp = std::strtoll(row.c_str() + c3 + 1, nullptr, 10);
      any = true;
    }
    pos = end;
  }
  if (!any) {
    return static_cast<size_t>(
        std::lower_bound(points.begin(), points.end(), query.tqs,
                         [](const Point& p, Timestamp t) { return p.t < t; }) -
        points.begin());
  }
  const Point* p = model.Find(last_lp, points.size());
  return p == nullptr ? points.size() + 1
                      : static_cast<size_t>(p - points.data()) + 1;
}

std::string SeriesName(int s) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "live_%02d", s);
  return buf;
}

struct Setup {
  std::unique_ptr<Instance> primary;
  std::unique_ptr<Instance> follower;
  // History + the whole live stream. Values have three decimals, so
  // "%.3f" of a model value is the text that was parsed into it.
  std::vector<SeriesModel> models;
};

Result<Setup> SetUp(const Options& options, int copy, RunReport* report) {
  Setup setup;
  const auto t_start = Clock::now();
  // The live stream is part of the model from the start; readers only ever
  // look at the acknowledged prefix of it.
  const int64_t live_points = static_cast<int64_t>(
      kWriteRate / kSeriesPerWriter * (options.seconds + 2)) + 16;
  Rng rng(options.seed * 104729 + 3);
  for (int s = 0; s < kSeries; ++s) {
    std::vector<Point> points;
    double v = rng.UniformReal(-50, 50);
    char buf[32];
    for (int64_t i = 0; i < kHistoryPoints + live_points; ++i) {
      v += rng.Gaussian(0, 1);
      std::snprintf(buf, sizeof(buf), "%.3f", v);
      points.push_back(Point{kBase + i * kStep, std::strtod(buf, nullptr)});
    }
    setup.models.emplace_back(std::move(points));
  }
  const auto t_generated = Clock::now();
  size_t own_bytes = 0;
  for (int s = 0; s < kSeries; ++s) {
    own_bytes += setup.models[s].MemoryBytes();
  }
  report->NoteOwnData(own_bytes);
  const std::string dir = options.work_dir + "/live_mixed-" +
                          std::to_string(copy);
  // Product defaults except durable_fsync: with it on, a primary fsyncs its
  // replication log on every write, and the workload measured the shared
  // disk's fsync latency, which swung 2-5x from run to run. sensor_ingest
  // keeps the fsync path measured.
  DatabaseConfig config;
  config.series_defaults.durable_fsync = false;
  TSVIZ_ASSIGN_OR_RETURN(setup.primary,
                         Instance::Start(dir + "-primary", config));
  TSVIZ_ASSIGN_OR_RETURN(setup.follower,
                         Instance::Start(dir + "-follower", config));
  Database* primary = setup.primary->db();
  TSVIZ_RETURN_IF_ERROR(primary->EnablePrimary(0));
  TSVIZ_RETURN_IF_ERROR(
      setup.follower->db()->EnableReplica("127.0.0.1", primary->repl_port()));
  for (int s = 0; s < kSeries; ++s) {
    const auto& points = setup.models[s].points();
    for (int64_t i = 0; i < kHistoryPoints; i += kLoadBatch) {
      TSVIZ_RETURN_IF_ERROR(primary->WriteBatch(
          SeriesName(s),
          std::vector<Point>(points.begin() + i,
                             points.begin() + i + kLoadBatch)));
    }
  }
  const auto t_loaded = Clock::now();
  TSVIZ_RETURN_IF_ERROR(
      RunStatement(setup.primary->port(), "FLUSH").status());
  TSVIZ_RETURN_IF_ERROR(
      WaitForFollower(primary, setup.follower->db(), 60.0));
  // The load left ~20 files per series, past the compaction threshold;
  // compact both copies now so background compaction of the history does
  // not land in the timed window.
  TSVIZ_RETURN_IF_ERROR(primary->CompactAll());
  TSVIZ_RETURN_IF_ERROR(setup.follower->db()->CompactAll());
  const auto t_flushed = Clock::now();
  report->generate_s = Seconds(t_start, t_generated);
  report->load_s = Seconds(t_generated, t_loaded);
  report->flush_s = Seconds(t_loaded, t_flushed);
  report->setup_seconds.push_back(Seconds(t_start, t_flushed));
  return setup;
}

}  // namespace

Status RunLiveMixed(const Options& options, RunReport* report) {
  const CounterSnapshot run_start = CounterSnapshot::Take();
  Setup setup;
  for (int copy = 0; copy < SetupsBefore(options); ++copy) {
    if (setup.follower) setup.follower->Destroy();
    if (setup.primary) setup.primary->Destroy();
    setup = Setup{};  // one copy of the models at a time
    TSVIZ_ASSIGN_OR_RETURN(setup, SetUp(options, copy, report));
  }
  SyncFileSystem(options.work_dir);
  Database* primary = setup.primary->db();
  Database* follower = setup.follower->db();
  const int port = setup.primary->port();
  report->notes.push_back(
      "live_mixed: 16 series x " + std::to_string(kHistoryPoints) +
      " pre-loaded points; 2 open-loop writers at " +
      std::to_string(static_cast<int>(kWriteRate)) +
      " points/s each (8 series each, strictly increasing time), sent "
      "as one pipelined burst of one " + std::to_string(kPointsPerTick) +
      "-row INSERT per series every " + FormatValue(kTick.count() * 1000) +
      " ms; 2 closed-loop live-tail readers on the primary, " +
      std::to_string(kReaderThink.count()) +
      " ms between a reply and the next SELECT; follower attached; "
      "history compacted in set-up; "
      "WAL on, durable_fsync 0, product maintenance defaults; registry "
      "counters combine primary and follower (same process)");

  // Per series: points acknowledged, and the longest prefix a reply has
  // shown (every history point was flushed in set-up).
  std::vector<std::atomic<size_t>> acked(kSeries), visible(kSeries);
  for (auto& a : acked) a.store(kHistoryPoints);
  for (auto& v : visible) v.store(kHistoryPoints);
  const size_t per_writer =
      static_cast<size_t>(kWriteRate / kPointsPerTick * options.seconds) +
      kSeriesPerWriter;
  std::vector<double> lag_samples, late_ms;
  double bg_depth_max = 0;
  std::mutex sample_mutex;
  std::vector<OpLog> write_logs(kWriters), read_logs(kReaders);
  std::vector<StatementLog> logs(kWriters + kReaders);
  std::vector<ClientTrace> traces(kWriters + kReaders);
  std::vector<std::vector<double>> late(kWriters);
  const CounterSnapshot before = CounterSnapshot::Take();
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
      lag_samples.push_back(
          static_cast<double>(follower->replication_status().lag_ms));
    });
    std::vector<std::thread> threads;
    for (int wi = 0; wi < kWriters; ++wi) {
      threads.emplace_back([&, wi] {
        ClientTrace& trace = traces[wi];
        trace.enabled = options.trace;
        trace.tid = static_cast<uint32_t>(wi + 1);
        OpLog& log = write_logs[wi];
        Client client;
        if (Status st = client.Connect(port); !st.ok()) {
          report->Fail("connect: " + st.ToString());
          return;
        }
        // Statement j is due at its tick, whether or not earlier replies
        // are back; a receiver thread times each reply from its due time.
        std::vector<Clock::time_point> due(per_writer);
        std::vector<char> traced(per_writer, 0);
        std::atomic<size_t> sent{0};
        std::atomic<bool> sender_done{false};
        std::thread receiver([&] {
          std::string body;
          for (size_t j = 0;; ++j) {
            // Blocks in recv, so a reply is timed when it arrives; the
            // sender's half-close ends the stream after the last reply.
            Status st = client.ReadReply(&body);
            const auto now = Clock::now();
            if (!st.ok()) {
              if (!sender_done.load(std::memory_order_acquire) ||
                  j < sent.load(std::memory_order_acquire)) {
                report->Fail("live insert: " + st.ToString());
              }
              return;
            }
            // Statement j was published before it was sent.
            while (sent.load(std::memory_order_acquire) <= j) {
              std::this_thread::yield();
            }
            if (IsErrorReply(body)) {
              report->Fail("live insert: " + body);
              continue;
            }
            const double ms = Millis(due[j], now);
            if (traced[j]) {
              trace.traced_millis.push_back(ms);
              log.points += kPointsPerTick;
            } else {
              log.Add(ms, slicer.Of(now), kPointsPerTick);
            }
            const int s =
                wi * kSeriesPerWriter + static_cast<int>(j % kSeriesPerWriter);
            acked[s].fetch_add(kPointsPerTick, std::memory_order_release);
          }
        });
        for (size_t j = 0; j + kSeriesPerWriter <= per_writer;
             j += kSeriesPerWriter) {
          const size_t tick_index = j / kSeriesPerWriter;
          // The writers take turns, half a tick apart, so neither burst
          // queues behind the other's.
          const Clock::time_point tick =
              start + std::chrono::duration_cast<Clock::duration>(
                          kTick * (static_cast<double>(tick_index) +
                                   static_cast<double>(wi) / kWriters));
          if (tick >= deadline) break;
          // Sleep to just before the tick and spin the rest: a sleeping
          // thread can wake late on a busy virtual machine, and the
          // generator's lateness counts as write latency.
          std::this_thread::sleep_until(tick - kSpin);
          while (Clock::now() < tick) {
          }
          late[wi].push_back(Millis(tick, Clock::now()));
          std::string wire;
          bool any_traced = false;
          for (size_t b = 0; b < kSeriesPerWriter; ++b) {
            const int s = wi * kSeriesPerWriter + static_cast<int>(b);
            std::string sql = "INSERT INTO " + SeriesName(s) + " VALUES ";
            for (int k = 0; k < kPointsPerTick; ++k) {
              const Point& point = setup.models[s].points()
                  [kHistoryPoints + tick_index * kPointsPerTick + k];
              char value[32];
              std::snprintf(value, sizeof(value), "%.3f", point.v);
              sql += (k ? ", (" : "(") + std::to_string(point.t) + ", " +
                     value + ")";
            }
            logs[wi].AddInsert(sql);
            wire += sql + "\n";
            due[j + b] = tick;
            traced[j + b] = trace.TraceNext();
            any_traced = any_traced || traced[j + b];
            ++log.attempted;
          }
          sent.store(j + kSeriesPerWriter, std::memory_order_release);
          Status st;
          {
            SpanScope span(any_traced ? &trace.spans : nullptr,
                           "net.insert_burst", 0, 0, trace.tid);
            st = client.Send(wire);
          }
          if (!st.ok()) {
            report->Fail("live send: " + st.ToString());
            break;
          }
        }
        sender_done.store(true, std::memory_order_release);
        client.ShutdownWrite();
        receiver.join();
      });
    }
    for (int ri = 0; ri < kReaders; ++ri) {
      threads.emplace_back([&, ri] {
        ClientTrace& trace = traces[kWriters + ri];
        trace.enabled = options.trace;
        trace.tid = static_cast<uint32_t>(kWriters + ri + 1);
        OpLog& log = read_logs[ri];
        Rng rng(options.seed * 7727 + ri);
        Client client;
        if (Status st = client.Connect(port); !st.ok()) {
          report->Fail("connect: " + st.ToString());
          return;
        }
        std::string body;
        while (Clock::now() < deadline) {
          std::this_thread::sleep_for(kReaderThink);
          const int s = static_cast<int>(rng.Uniform(0, kSeries - 1));
          const SeriesModel& model = setup.models[s];
          const size_t floor = visible[s].load(std::memory_order_acquire);
          const size_t limit = acked[s].load(std::memory_order_acquire);
          const int64_t tail = kTailPoints[rng.Uniform(0, 2)];
          M4Query query;
          query.tqe = model.points()[limit - 1].t + 1;
          query.tqs = std::max(model.points()[0].t, query.tqe - tail * kStep);
          query.w = kWidths[rng.Uniform(0, 2)];
          const std::string sql = M4Sql(SeriesName(s), query);
          logs[kWriters + ri].AddSelect(sql, SeriesName(s), query);
          const bool traced = trace.TraceNext();
          ++log.attempted;
          SpanScope span(traced ? &trace.spans : nullptr, "net.m4_select", 0,
                         0, trace.tid);
          const auto t0 = Clock::now();
          Status st = client.Send(sql + "\n");
          if (st.ok()) st = client.ReadReply(&body);
          const auto t1 = Clock::now();
          span.Finish();
          if (!st.ok()) {
            report->Fail("tail select: " + st.ToString());
            return;
          }
          const size_t prefix = VisiblePrefix(body, query, model);
          std::string mismatch;
          if (prefix > limit || prefix < floor) {
            mismatch = "visible prefix " + std::to_string(prefix) +
                       " outside [" + std::to_string(floor) + ", " +
                       std::to_string(limit) + "] acknowledged";
          } else {
            mismatch = CheckM4Reply(body, query, model, prefix);
          }
          if (mismatch.empty()) {
            size_t seen = visible[s].load();
            while (seen < prefix &&
                   !visible[s].compare_exchange_weak(seen, prefix)) {
            }
          }
          if (!mismatch.empty()) {
            report->Fail(sql + ": " + mismatch);
            continue;
          }
          if (traced) {
            trace.traced_millis.push_back(Millis(t0, t1));
          } else {
            log.Add(Millis(t0, t1), slicer.Of(t1), 0);
          }
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  const CounterSnapshot after = CounterSnapshot::Take();
  report->read_slice_seconds = report->write_slice_seconds =
      slicer.SliceSeconds();
  StatementLog log;
  std::vector<double> traced_reads, traced_writes;
  for (int wi = 0; wi < kWriters; ++wi) {
    report->writes.Merge(write_logs[wi]);
    late_ms.insert(late_ms.end(), late[wi].begin(), late[wi].end());
    traced_writes.insert(traced_writes.end(), traces[wi].traced_millis.begin(),
                         traces[wi].traced_millis.end());
  }
  for (int ri = 0; ri < kReaders; ++ri) {
    report->reads.Merge(read_logs[ri]);
    traced_reads.insert(traced_reads.end(),
                        traces[kWriters + ri].traced_millis.begin(),
                        traces[kWriters + ri].traced_millis.end());
  }
  for (auto& trace : traces) trace.Flush();
  for (const auto& l : logs) log.Merge(l);

  // Follower freshness, then follower == primary == model on every series.
  const auto catchup_start = Clock::now();
  TSVIZ_RETURN_IF_ERROR(WaitForFollower(primary, follower, 60.0));
  const double catchup_s = Seconds(catchup_start, Clock::now());
  TSVIZ_RETURN_IF_ERROR(RunStatement(port, "FLUSH").status());
  TSVIZ_RETURN_IF_ERROR(follower->FlushAll());
  for (int s = 0; s < kSeries; ++s) {
    const SeriesModel& model = setup.models[s];
    const size_t limit = acked[s].load();
    const M4Query query{model.points()[0].t, model.points()[limit - 1].t + 1,
                        1000};
    QueryStats stats;
    auto on_primary = primary->QueryM4(SeriesName(s), query, &stats);
    auto on_follower = follower->QueryM4(SeriesName(s), query, &stats);
    ++report->checks;
    if (!on_primary.ok() || !on_follower.ok()) {
      report->Fail("full-range M4 on " + SeriesName(s) + ": " +
                   (on_primary.ok() ? on_follower.status()
                                    : on_primary.status())
                       .ToString());
      continue;
    }
    const M4Result want = model.ExpectedM4(query, limit);
    if (!ResultsEquivalent(*on_primary, want)) {
      report->Fail("primary differs from the model on " + SeriesName(s) +
                   ": " + FirstMismatch(*on_primary, want));
    }
    if (!ResultsEquivalent(*on_follower, *on_primary)) {
      report->Fail("follower differs from the primary on " + SeriesName(s) +
                   ": " + FirstMismatch(*on_follower, *on_primary));
    }
  }

  uint64_t points = kSeries * kHistoryPoints + report->writes.points;
  if (options.trace) {
    WindowStats window;
    window.delta = after.Minus(before);
    window.run_delta = CounterSnapshot::Take().Minus(run_start);
    std::vector<double> all = report->reads.millis;
    all.insert(all.end(), report->writes.millis.begin(),
               report->writes.millis.end());
    window.client_mean_ms = Mean(all);
    window.statements = report->reads.attempted + report->writes.attempted;
    window.selects = report->reads.attempted;
    window.write_statements = report->writes.attempted;
    window.single_row_inserts = report->writes.single_row;
    window.points = report->writes.points;
    window.run_points = points;
    window.bg_queue_depth_max = bg_depth_max;
    AddWindowMetrics(window, report);
    AddTraceOverhead(traced_reads, report->reads.millis, report);
    // Mean, not p99: most applies take under a millisecond, which the
    // histogram's first bucket cannot resolve.
    const HistogramCounts& apply = window.delta.Histogram("repl_apply_millis");
    report->report_only["repl.apply_mean_ms"] =
        apply.count() > 0 ? apply.sum / static_cast<double>(apply.count())
                          : 0.0;
    report->report_only["repl.lag_p99_ms"] = Quantile(lag_samples, 0.99);
    report->report_only["repl.catchup_s"] = catchup_s;
    report->report_only["loadgen.late_p99_ms"] = Quantile(late_ms, 0.99);
    report->report_only["trace.overhead_ratio_writes"] =
        Median(report->writes.millis) > 0
            ? Median(traced_writes) / Median(report->writes.millis) - 1.0
            : 0.0;
    AnalyzeLayers(primary, log, options.seconds, report);
  } else {
    TSVIZ_RETURN_IF_ERROR(RunStatement(port, "COMPACT").status());
    report->space_amp =
        static_cast<double>(DirectoryBytes(setup.primary->dir())) /
        (16.0 * static_cast<double>(points));
  }
  report->notes.push_back(
      "live_mixed: loadgen late p99 " + FormatValue(Quantile(late_ms, 0.99)) +
      " ms over " + std::to_string(late_ms.size()) +
      " ticks, " + std::to_string(report->writes.points) +
      " acknowledged; follower caught up in " + FormatValue(catchup_s) +
      " s");
  setup.follower->Destroy();
  setup.primary->Destroy();
  setup = Setup{};
  for (int copy = SetupsBefore(options); copy < SetupsTotal(options);
       ++copy) {
    TSVIZ_ASSIGN_OR_RETURN(setup, SetUp(options, copy, report));
    setup.follower->Destroy();
    setup.primary->Destroy();
    setup = Setup{};
  }
  return Status::OK();
}

}  // namespace tsviz::vizbench
