// The three workloads and the machinery they share: a database behind an
// in-process SqlServer on loopback, the run report, and the traced
// per-layer analysis.
#ifndef TSVIZ_VIZBENCH_WORKLOADS_H_
#define TSVIZ_VIZBENCH_WORKLOADS_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "counters.h"
#include "db/database.h"
#include "m4/span.h"
#include "server/server.h"
#include "spans.h"
#include "util.h"

namespace tsviz::vizbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;  // databases and trace files live under here
};

// Set-ups per timed run, each on a fresh database; setup_s is their median.
// Half run before the timed window, the last of them being the database
// the window runs on, and half after it, so that the median spans the
// whole run rather than one fast or slow phase of a shared host. A traced
// run sets up once.
inline constexpr int kSetupCopies = 8;
inline int SetupsBefore(const Options& options) {
  return options.trace ? 1 : kSetupCopies / 2;
}
inline int SetupsTotal(const Options& options) {
  return options.trace ? 1 : kSetupCopies;
}

// Everything one run measured. Clients fill their own OpLogs and merge
// them here after joining; `Fail` may be called from any thread.
struct RunReport {
  OpLog reads;   // M4 SELECTs
  OpLog writes;  // INSERT statements
  std::vector<double> read_slice_seconds;   // length of each read slice
  std::vector<double> write_slice_seconds;  // length of each write slice
  std::vector<double> setup_seconds;  // one per set-up
  double generate_s = 0, load_s = 0, flush_s = 0;  // of the last set-up
  double space_amp = 0;
  uint64_t checks = 0;  // answer/durability checks outside the statements
  // The most the benchmark's own data (models, generated points, statement
  // text) held at once, so peak_rss_mb can be read as mostly the engine's.
  double own_data_mb = 0;
  void NoteOwnData(size_t bytes);
  std::map<std::string, double> layer;  // per-layer metrics (traced run)
  // Per-layer figures that exist on some workloads only (replication,
  // open-loop lateness, background compaction time): printed in the traced
  // report, not in the result line, which must carry the same names on
  // every workload.
  std::map<std::string, double> report_only;
  std::vector<std::string> notes;       // sizes and settings, for the record

  void Fail(const std::string& message);
  uint64_t failures() const;
  std::vector<std::string> errors() const;

 private:
  mutable std::mutex mutex_;
  std::vector<std::string> errors_;
  uint64_t failures_ = 0;
};

// A database served over loopback TCP.
class Instance {
 public:
  static Result<std::unique_ptr<Instance>> Start(std::string dir,
                                                 DatabaseConfig config);
  ~Instance() { Stop(); }
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  Database* db() { return db_.get(); }
  int port() const { return server_ ? server_->port() : 0; }
  const std::string& dir() const { return dir_; }
  // Stops the server and closes the database, keeping the files.
  void Stop();
  // Stop, then reopen the same directory with the same config and serve.
  Status Restart();
  // Stop and delete the directory.
  void Destroy();

 private:
  Instance(std::string dir, DatabaseConfig config)
      : dir_(std::move(dir)), config_(std::move(config)) {}
  Status Open();

  std::string dir_;
  DatabaseConfig config_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<SqlServer> server_;
};

// Sends one statement on a fresh connection and returns the reply body.
Result<std::string> RunStatement(int port, const std::string& statement);

// Waits until the follower has applied the primary's last logged record.
Status WaitForFollower(Database* primary, Database* follower,
                       double timeout_s);

// Calls `fn` every `period_ms` on a background thread until stopped.
class Sampler {
 public:
  Sampler(int period_ms, std::function<void()> fn);
  ~Sampler() { Stop(); }
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;
  void Stop();

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// Statements a traced run replays in-process, kept by the clients.
struct StatementLog {
  static constexpr size_t kCap = 4000;  // per class, per log
  std::vector<std::string> selects;
  std::vector<std::pair<std::string, M4Query>> queries;  // of `selects`
  std::vector<std::string> inserts;

  void AddSelect(const std::string& sql, const std::string& series,
                 const M4Query& query);
  void AddInsert(const std::string& sql);
  void Merge(const StatementLog& other);
};

// Per-thread span buffer of a timed TCP window: in a traced run every
// second statement records a client round-trip span, and its latency goes
// to `traced` instead of the OpLog, so the two halves give the tracing
// overhead on the same traffic.
struct ClientTrace {
  bool enabled = false;
  uint32_t tid = 0;
  uint64_t statements = 0;
  std::vector<SpanRecord> spans;
  std::vector<double> traced_millis;

  bool TraceNext() { return enabled && (statements++ % 2 == 1); }
  void Flush();
};

// The timed window's registry deltas plus the client-side view, turned
// into the net/server/db/wal/storage/bg/repl/page-cache metrics.
struct WindowStats {
  CounterSnapshot delta;        // over the timed window
  CounterSnapshot run_delta;    // over set-up, window and the final steps
  double client_mean_ms = 0;    // all untraced statements of the window
  uint64_t statements = 0;
  uint64_t selects = 0;
  uint64_t write_statements = 0;
  uint64_t single_row_inserts = 0;
  uint64_t points = 0;          // acknowledged in the window
  uint64_t run_points = 0;      // acknowledged over the whole run
  double bg_queue_depth_max = 0;
};
void AddWindowMetrics(const WindowStats& window, RunReport* report);
// trace.overhead_ratio: median traced latency over median untraced, minus 1.
void AddTraceOverhead(const std::vector<double>& traced,
                      const std::vector<double>& untraced, RunReport* report);

// The traced run's in-process analysis: replays the logged statements
// through sql::ParseStatement / ExecuteStatement / ResultSet::ToCsv and
// their INSERT points through Database::WriteBatch (into `replay_<series>`
// copies, so the measured data stays untouched), then probes the logged
// M4 windows with Database::QueryM4, RunM4Udf and RunM4LsmParallel, warm
// and cold. Spans go to the SpanLog; metrics to the report.
void AnalyzeLayers(Database* db, const StatementLog& log, double budget_s,
                   RunReport* report);

Status RunZoomPan(const Options& options, RunReport* report);
Status RunSensorIngest(const Options& options, RunReport* report);
Status RunLiveMixed(const Options& options, RunReport* report);

}  // namespace tsviz::vizbench

#endif  // TSVIZ_VIZBENCH_WORKLOADS_H_
