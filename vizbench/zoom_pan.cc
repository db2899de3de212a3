// zoom_pan: four dashboard sessions zooming and panning over four static
// series, one per paper dataset generator, through M4 SELECTs only. Each
// session shows one panel per series and takes its panels in turn. The
// working set is larger than the page cache, and nothing is written while
// the clock runs, so WAL, memtable, background jobs and replication sit out.
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <thread>

#include "client.h"
#include "common/random.h"
#include "m4/reference.h"
#include "model.h"
#include "workload/generator.h"
#include "workload/ooo.h"
#include "workloads.h"

namespace tsviz::vizbench {
namespace {

constexpr size_t kPointsPerSeries = 250000;
constexpr size_t kChunkPoints = 1000;   // the paper's points per chunk
// One flush writes one file of 10 chunks. Flushing every chunk would make
// the load a file-creation benchmark whose speed swings with the host's
// file system; ten chunks per file keeps the read layout multi-file.
constexpr size_t kFlushPoints = 10000;
// Share of flush batches that arrive out of order in overlapping pairs;
// the resulting share of overlapping chunks is measured and reported.
constexpr double kOverlapFraction = 0.4;
constexpr size_t kDeleteRangePoints = 100;  // each delete covers 100 points
constexpr size_t kPointsPerDelete = 10000;  // one delete per 10k points: ~1%
constexpr size_t kPageCacheBytes = 2u << 20;
constexpr int kSessions = 4;
constexpr double kRepeatProbability = 0.2;  // a dashboard refresh
constexpr int64_t kMinZoomDivisor = 1000;
constexpr int64_t kWidths[] = {200, 1000, 2000};

struct Dataset {
  std::string name;
  DatasetKind kind;
};
const Dataset kDatasets[] = {{"ballspeed", DatasetKind::kBallSpeed},
                             {"mf03", DatasetKind::kMf03},
                             {"kob", DatasetKind::kKob},
                             {"rcvtime", DatasetKind::kRcvTime}};

// One loaded copy of the data plus the benchmark's model of it.
struct Loaded {
  std::unique_ptr<Instance> instance;
  std::vector<SeriesModel> models;
  std::vector<TimeRange> ranges;  // generated interval of each series
  uint64_t live_points = 0;
};

DatabaseConfig ZoomConfig() {
  DatabaseConfig config;
  config.series_defaults.points_per_chunk = kChunkPoints;
  config.series_defaults.memtable_flush_threshold = kFlushPoints;
  // Static data: durability is sensor_ingest's subject. Compaction stays
  // off so the overlapping chunks the paper's M4-LSM is built for remain.
  config.series_defaults.durable_fsync = false;
  config.maintenance.compaction_files = 0;
  config.page_cache_bytes = kPageCacheBytes;
  return config;
}

std::string InsertSql(const std::string& series, const Point* points,
                      size_t n) {
  std::string sql = "INSERT INTO " + series + " VALUES ";
  sql.reserve(sql.size() + n * 48);
  char buf[64];
  for (size_t i = 0; i < n; ++i) {
    if (i > 0) sql += ", ";
    sql += '(';
    sql.append(buf, std::to_chars(buf, buf + sizeof(buf), points[i].t).ptr);
    sql += ", ";
    // Shortest text that parses back to the same double.
    sql.append(buf, std::to_chars(buf, buf + sizeof(buf), points[i].v).ptr);
    sql += ')';
  }
  return sql;
}

// Generates, loads over TCP and flushes one copy. The load is closed loop,
// one connection per series sending multi-row INSERTs of one chunk each in
// out-of-order arrival order; their latencies are the run's write samples.
Result<Loaded> SetUp(const Options& options, int copy, RunReport* report,
                     StatementLog* log) {
  Loaded loaded;
  const auto t_start = Clock::now();
  // Arrival order per series; each INSERT's text is built just before it
  // is sent, so the benchmark never holds the whole load as SQL.
  std::vector<std::vector<Point>> arrivals(std::size(kDatasets));
  std::vector<std::vector<TimeRange>> deletes(std::size(kDatasets));
  for (size_t k = 0; k < std::size(kDatasets); ++k) {
    DatasetSpec spec;
    spec.kind = kDatasets[k].kind;
    spec.num_points = kPointsPerSeries;
    spec.seed = options.seed * 16 + k + 1;
    std::vector<Point> sorted = GenerateDataset(spec);
    Rng rng(options.seed * 31 + k + 7);
    arrivals[k] =
        MakeOverlappingOrder(sorted, kFlushPoints, kOverlapFraction, &rng);
    std::vector<bool> deleted(sorted.size(), false);
    for (size_t d = 0; d < sorted.size() / kPointsPerDelete; ++d) {
      const size_t j = static_cast<size_t>(rng.Uniform(
          0, static_cast<int64_t>(sorted.size() - kDeleteRangePoints)));
      deletes[k].emplace_back(sorted[j].t,
                              sorted[j + kDeleteRangePoints - 1].t);
      std::fill(deleted.begin() + static_cast<std::ptrdiff_t>(j),
                deleted.begin() + static_cast<std::ptrdiff_t>(
                                      j + kDeleteRangePoints),
                true);
    }
    loaded.ranges.emplace_back(sorted.front().t, sorted.back().t);
    std::vector<Point> live;
    live.reserve(sorted.size());
    for (size_t i = 0; i < sorted.size(); ++i) {
      if (!deleted[i]) live.push_back(sorted[i]);
    }
    loaded.live_points += live.size();
    loaded.models.emplace_back(std::move(live));
  }
  const auto t_generated = Clock::now();
  size_t own_bytes = 0;
  for (size_t k = 0; k < std::size(kDatasets); ++k) {
    own_bytes += arrivals[k].capacity() * sizeof(Point) +
                 loaded.models[k].MemoryBytes();
  }
  report->NoteOwnData(own_bytes);

  const std::string dir =
      options.work_dir + "/zoom_pan-" + std::to_string(copy);
  TSVIZ_ASSIGN_OR_RETURN(loaded.instance, Instance::Start(dir, ZoomConfig()));
  const int port = loaded.instance->port();
  std::vector<OpLog> logs(std::size(kDatasets));
  std::vector<std::vector<std::string>> logged(std::size(kDatasets));
  std::vector<std::thread> threads;
  for (size_t k = 0; k < std::size(kDatasets); ++k) {
    threads.emplace_back([&, k] {
      Client client;
      Status status = client.Connect(port);
      std::string body;
      const std::vector<Point>& points = arrivals[k];
      for (size_t i = 0; i < points.size(); i += kChunkPoints) {
        const std::string sql =
            InsertSql(kDatasets[k].name, points.data() + i,
                      std::min(kChunkPoints, points.size() - i));
        // A traced run replays every 16th INSERT in-process.
        if (options.trace && (i / kChunkPoints) % 16 == 0) {
          logged[k].push_back(sql);
        }
        ++logs[k].attempted;
        const auto t0 = Clock::now();
        if (status.ok()) status = client.Send(sql + "\n");
        if (status.ok()) status = client.ReadReply(&body);
        const auto t1 = Clock::now();
        if (!status.ok() || IsErrorReply(body)) {
          report->Fail("load " + kDatasets[k].name + ": " +
                       (status.ok() ? body : status.ToString()));
          continue;
        }
        logs[k].Add(Millis(t0, t1), static_cast<size_t>(copy), kChunkPoints);
      }
    });
  }
  for (auto& t : threads) t.join();
  for (size_t k = 0; k < std::size(kDatasets); ++k) {
    report->writes.Merge(logs[k]);
    for (const std::string& sql : logged[k]) log->AddInsert(sql);
    // No DELETE statement exists in the SQL dialect; tombstones go in
    // through the engine API.
    for (const TimeRange& range : deletes[k]) {
      TSVIZ_RETURN_IF_ERROR(
          loaded.instance->db()->DeleteRange(kDatasets[k].name, range));
    }
  }
  const auto t_loaded = Clock::now();
  report->write_slice_seconds.push_back(Seconds(t_generated, t_loaded));
  TSVIZ_RETURN_IF_ERROR(RunStatement(port, "FLUSH").status());
  const auto t_flushed = Clock::now();

  report->generate_s = Seconds(t_start, t_generated);
  report->load_s = Seconds(t_generated, t_loaded);
  report->flush_s = Seconds(t_loaded, t_flushed);
  report->setup_seconds.push_back(Seconds(t_start, t_flushed));
  return loaded;
}

// A dashboard session's view: which series, which window, how many pixels.
struct View {
  size_t series = 0;
  M4Query query;
};

class Walk {
 public:
  Walk(uint64_t seed, size_t series, const std::vector<TimeRange>& ranges)
      : rng_(seed), ranges_(ranges) {
    Reset(series);
    view_.query.w = kWidths[rng_.Uniform(0, 2)];
  }

  // The next view: a refresh of the current one, a zoom by 2-10x around
  // its centre, or a pan by half a window.
  const View& Next(bool* repeat) {
    *repeat = started_ && rng_.Bernoulli(kRepeatProbability);
    started_ = true;
    if (*repeat) return view_;
    if (rng_.Bernoulli(0.5)) {
      Zoom();
    } else {
      Pan();
    }
    if (rng_.Bernoulli(0.1)) view_.query.w = kWidths[rng_.Uniform(0, 2)];
    return view_;
  }

 private:
  int64_t Full() const {
    const TimeRange& r = ranges_[view_.series];
    return r.end + 1 - r.start;
  }
  int64_t MinLen() const {
    return std::max<int64_t>(Full() / kMinZoomDivisor, 2000);
  }
  void Reset(size_t series) {
    view_.series = series;
    view_.query.tqs = ranges_[series].start;
    view_.query.tqe = ranges_[series].end + 1;
  }
  void Place(int64_t lo, int64_t len) {
    const TimeRange& r = ranges_[view_.series];
    lo = std::clamp<int64_t>(lo, r.start, r.end + 1 - len);
    view_.query.tqs = lo;
    view_.query.tqe = lo + len;
  }
  void Zoom() {
    const int64_t len = view_.query.tqe - view_.query.tqs;
    const double factor = rng_.UniformReal(2.0, 10.0);
    bool zoom_in = rng_.Bernoulli(0.5);
    if (len <= MinLen()) zoom_in = false;
    if (len >= Full()) zoom_in = true;
    const int64_t next =
        zoom_in ? std::max(MinLen(), static_cast<int64_t>(len / factor))
                : std::min(Full(), static_cast<int64_t>(len * factor));
    Place(view_.query.tqs + len / 2 - next / 2, next);
  }
  void Pan() {
    const int64_t len = view_.query.tqe - view_.query.tqs;
    const int64_t step = rng_.Bernoulli(0.5) ? len / 2 : -len / 2;
    Place(view_.query.tqs + step, len);
  }

  Rng rng_;
  const std::vector<TimeRange>& ranges_;
  View view_;
  bool started_ = false;
};

}  // namespace

Status RunZoomPan(const Options& options, RunReport* report) {
  const CounterSnapshot run_start = CounterSnapshot::Take();
  StatementLog log;
  Loaded loaded;
  for (int copy = 0; copy < SetupsBefore(options); ++copy) {
    // Release the previous copy, models included, before the next set-up,
    // so peak RSS holds one copy of the benchmark's data, not two.
    if (loaded.instance) loaded.instance->Destroy();
    loaded = Loaded{};
    TSVIZ_ASSIGN_OR_RETURN(loaded, SetUp(options, copy, report, &log));
  }
  SyncFileSystem(options.work_dir);
  const int port = loaded.instance->port();
  double overlap = 0;
  for (const Dataset& d : kDatasets) {
    auto store = loaded.instance->db()->GetSeries(d.name);
    if (store.ok()) overlap += (*store)->OverlapFraction() / std::size(kDatasets);
  }
  report->notes.push_back(
      "zoom_pan: 4 series x " + std::to_string(kPointsPerSeries) +
      " points (" + std::to_string(loaded.live_points) +
      " live after deletes, " + FormatValue(overlap * 100) +
      "% of chunks overlapping), decoded " +
      std::to_string(loaded.live_points * 16 >> 20) +
      " MiB vs page_cache_bytes " + std::to_string(kPageCacheBytes >> 20) +
      " MiB; WAL on, durable_fsync 0, 1000-point chunks, 10 chunks per "
      "flush, compaction off; load over 4 connections of 1000-row INSERTs; "
      "4 closed-loop sessions");

  double bg_depth_max = 0;
  std::mutex sample_mutex;
  const CounterSnapshot before = CounterSnapshot::Take();
  std::vector<OpLog> logs(kSessions);
  std::vector<StatementLog> session_logs(kSessions);
  std::vector<ClientTrace> traces(kSessions);
  std::vector<std::vector<View>> first_views(kSessions);
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
    for (int s = 0; s < kSessions; ++s) {
      threads.emplace_back([&, s] {
        ClientTrace& trace = traces[s];
        trace.enabled = options.trace;
        trace.tid = static_cast<uint32_t>(s + 1);
        // One walk per panel. Taking the four panels in turn, rather than
        // following one walk per session, gives each run four times as
        // many independent walks, so the mix of zoom levels, and with it
        // the latency, depends less on the seed.
        std::vector<Walk> panels;
        for (size_t k = 0; k < std::size(kDatasets); ++k) {
          panels.emplace_back(options.seed * 1000 + s * 16 + k, k,
                              loaded.ranges);
        }
        Client client;
        if (Status st = client.Connect(port); !st.ok()) {
          report->Fail("connect: " + st.ToString());
          return;
        }
        std::string body;
        for (size_t step = static_cast<size_t>(s); Clock::now() < deadline;
             ++step) {
          bool repeat = false;
          const View view = panels[step % panels.size()].Next(&repeat);
          const std::string& series = kDatasets[view.series].name;
          const std::string sql = M4Sql(series, view.query);
          if (first_views[s].size() < 8) first_views[s].push_back(view);
          session_logs[s].AddSelect(sql, series, view.query);
          const bool traced = trace.TraceNext();
          ++logs[s].attempted;
          SpanScope span(traced ? &trace.spans : nullptr, "net.m4_select", 0,
                         0, trace.tid);
          const auto t0 = Clock::now();
          Status st = client.Send(sql + "\n");
          if (st.ok()) st = client.ReadReply(&body);
          const auto t1 = Clock::now();
          const double ms = Millis(t0, t1);
          span.Finish();
          if (!st.ok()) {
            report->Fail("select: " + st.ToString());
            return;
          }
          const std::string mismatch =
              CheckM4Reply(body, view.query, loaded.models[view.series],
                           loaded.models[view.series].size());
          if (!mismatch.empty()) {
            report->Fail(sql + ": " + mismatch);
            continue;
          }
          if (traced) {
            trace.traced_millis.push_back(ms);
          } else {
            logs[s].Add(ms, slicer.Of(t1), 0);
          }
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  const CounterSnapshot after = CounterSnapshot::Take();
  report->read_slice_seconds = slicer.SliceSeconds();
  std::vector<double> traced;
  for (int s = 0; s < kSessions; ++s) {
    report->reads.Merge(logs[s]);
    log.Merge(session_logs[s]);
    traced.insert(traced.end(), traces[s].traced_millis.begin(),
                  traces[s].traced_millis.end());
    traces[s].Flush();
  }

  // The fast checker against the literal M4 definition, on real windows.
  for (int s = 0; s < kSessions; ++s) {
    for (const View& view : first_views[s]) {
      const SeriesModel& model = loaded.models[view.series];
      ++report->checks;
      const M4Result want = ReferenceM4(
          model.Slice(view.query.tqs, view.query.tqe, model.size()),
          view.query);
      const M4Result fast = model.ExpectedM4(view.query);
      if (!ResultsEquivalent(want, fast)) {
        report->Fail("model M4 differs from ReferenceM4: " +
                     FirstMismatch(want, fast));
      }
    }
  }

  if (options.trace) {
    WindowStats window;
    window.delta = after.Minus(before);
    window.run_delta = after.Minus(run_start);
    window.client_mean_ms = Mean(report->reads.millis);
    window.statements = report->reads.attempted;
    window.selects = report->reads.attempted;
    window.run_points = report->writes.points;
    window.bg_queue_depth_max = bg_depth_max;
    AddWindowMetrics(window, report);
    AddTraceOverhead(traced, report->reads.millis, report);
    // The layer probes run on the layout the window read, so the final
    // compaction that space_amp needs is left out of a traced run.
    AnalyzeLayers(loaded.instance->db(), log, options.seconds, report);
  } else {
    TSVIZ_RETURN_IF_ERROR(RunStatement(port, "COMPACT").status());
    report->space_amp =
        static_cast<double>(DirectoryBytes(loaded.instance->dir())) /
        (16.0 * static_cast<double>(loaded.live_points));
  }
  loaded.instance->Destroy();
  loaded = Loaded{};
  for (int copy = SetupsBefore(options); copy < SetupsTotal(options);
       ++copy) {
    TSVIZ_ASSIGN_OR_RETURN(loaded, SetUp(options, copy, report, &log));
    loaded.instance->Destroy();
    loaded = Loaded{};
  }
  return Status::OK();
}

}  // namespace tsviz::vizbench
