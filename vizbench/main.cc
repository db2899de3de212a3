// vizbench: the repository benchmark. Runs one seeded workload against an
// in-process SqlServer over loopback TCP, checks every answer against its
// own model of the data, and prints the result as one JSON line.
//
//   vizbench --workload zoom_pan|sensor_ingest|live_mixed --seed N
//            --seconds S --trace 0|1 [--work-dir DIR] [--trace-dir DIR]
//            [--git-describe DESC] [--source-digest HEX]
//
// --trace 0 prints the end-to-end metrics; --trace 1 is the separate traced
// run that prints the per-layer metrics, writes the spans as Chrome trace
// JSON and reports each layer's self time and the tracing overhead.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "workloads.h"

#ifndef VIZBENCH_BUILD_TYPE
#define VIZBENCH_BUILD_TYPE "unknown"
#endif

namespace tsviz::vizbench {
namespace {

struct Metric {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json's end_to_end list. write_p99_ms is not in it:
// on a shared 4-vCPU virtual machine a write's tail follows the file
// system's journal and the hypervisor more than the program, and its
// spread between runs of the same code was 0.3-1.5 of its median. It is
// printed in the notes.
constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},          {"read_p50_ms", "ms"},
    {"read_p99_ms", "ms"},     {"reads_per_s", "1/s"},
    {"write_p50_ms", "ms"},    {"points_per_s", "1/s"},
    {"space_amp", "ratio"},    {"peak_rss_mb", "MiB"},
};

// Must match BENCHMARK.json's per_layer list.
constexpr Metric kPerLayer[] = {
    {"net.queue_wait_mean_ms", "ms"},
    {"net.overhead_mean_ms", "ms"},
    {"net.wakeups_per_stmt", "ratio"},
    {"net.batched_ratio", "ratio"},
    {"server.exec_mean_ms", "ms"},
    {"sql.parse_select_us", "us"},
    {"sql.parse_insert_us", "us"},
    {"sql.execute_p50_ms", "ms"},
    {"sql.format_us", "us"},
    {"db.write_batch_p50_us", "us"},
    {"db.write_batch_p99_us", "us"},
    {"db.store_lock_per_stmt", "ratio"},
    {"m4.lsm_p50_ms", "ms"},
    {"m4.lsm_p99_ms", "ms"},
    {"m4.lsm_cold_p50_ms", "ms"},
    {"m4.lsm_cold_p99_ms", "ms"},
    {"m4.udf_p50_ms", "ms"},
    {"m4.lsm_over_udf", "ratio"},
    {"m4.chunks_loaded_ratio", "ratio"},
    {"m4.candidate_rounds_per_query", "count"},
    {"m4.result_cache_hit_ratio", "ratio"},
    {"m4.pool_speedup_4", "ratio"},
    {"index.lookups_per_query", "count"},
    {"read.metadata_reads_per_query", "count"},
    {"read.pages_decoded_per_query", "count"},
    {"read.bytes_read_per_query", "bytes"},
    {"page_cache.hit_ratio", "ratio"},
    {"page_cache.evictions", "count"},
    {"encoding.decode_mpts_per_s", "Mpts/s"},
    {"wal.bytes_per_user_byte", "ratio"},
    {"wal.writes_per_stmt", "ratio"},
    {"storage.fsyncs_per_kpt", "count"},
    {"storage.flush_p99_ms", "ms"},
    {"storage.compaction_bytes_per_user_byte", "ratio"},
    {"bg.jobs_completed", "count"},
    {"bg.queue_depth_max", "count"},
    {"repl.log_bytes_per_user_byte", "ratio"},
    {"setup.generate_s", "s"},
    {"setup.load_s", "s"},
    {"setup.flush_s", "s"},
    {"trace.overhead_ratio", "ratio"},
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Usage(const char* message) {
  std::fprintf(stderr,
               "vizbench: %s\nusage: vizbench --workload "
               "zoom_pan|sensor_ingest|live_mixed --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR] [--trace-dir DIR] "
               "[--git-describe DESC] [--source-digest HEX]\n",
               message);
  return 2;
}

int Main(int argc, char** argv) {
  Options options;
  std::string trace_dir = ".bench_build/vizbench-traces";
  std::string work_root = ".bench_build/vizbench-work";
  std::string git_describe = "unknown";
  std::string source_digest = "unknown";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' &&
                     options.seconds > 0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      work_root = value;
    } else if (flag == "--trace-dir") {
      trace_dir = value;
    } else if (flag == "--git-describe") {
      git_describe = value;
    } else if (flag == "--source-digest") {
      source_digest = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  Status (*run)(const Options&, RunReport*) = nullptr;
  if (options.workload == "zoom_pan") run = RunZoomPan;
  if (options.workload == "sensor_ingest") run = RunSensorIngest;
  if (options.workload == "live_mixed") run = RunLiveMixed;
  if (run == nullptr) return Usage("unknown --workload");
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds and --trace are required");
  }

  options.work_dir = work_root + "/" + options.workload + "-" +
                     std::to_string(options.seed) + "-" +
                     std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::remove_all(options.work_dir, ec);
  std::filesystem::create_directories(options.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "vizbench: cannot create %s: %s\n",
                 options.work_dir.c_str(), ec.message().c_str());
    return 1;
  }
  // Write back what earlier runs left dirty, so their writeback does not
  // land in this run's timed window.
  SyncFileSystem(options.work_dir);
  SpanLog::Instance().set_enabled(options.trace);

  RunReport report;
  const double rss_before_mb = CurrentRssMb();
  const CpuTimes cpu_before = CpuTimes::Now();
  const Status status = run(options, &report);
  const CpuTimes cpu_after = CpuTimes::Now();
  std::filesystem::remove_all(options.work_dir, ec);
  if (!status.ok()) {
    std::fprintf(stderr, "vizbench: %s failed: %s\n", options.workload.c_str(),
                 status.ToString().c_str());
    for (const std::string& e : report.errors()) {
      std::fprintf(stderr, "  %s\n", e.c_str());
    }
    return 1;
  }

  std::vector<std::pair<const Metric*, double>> metrics;
  if (!options.trace) {
    const OpLog& r = report.reads;
    const OpLog& w = report.writes;
    const double values[] = {
        Median(report.setup_seconds),
        r.SliceQuantile(0.5),
        r.SliceQuantile(0.99),
        r.Rate(report.read_slice_seconds, false),
        w.SliceQuantile(0.5),
        w.Rate(report.write_slice_seconds, true),
        report.space_amp,
        PeakRssMb(),
    };
    for (size_t i = 0; i < std::size(kEndToEnd); ++i) {
      metrics.emplace_back(&kEndToEnd[i], values[i]);
    }
    report.notes.push_back("not bounded: write_p99_ms " +
                           FormatValue(w.SliceQuantile(0.99)) + " ms");
  } else {
    report.layer["setup.generate_s"] = report.generate_s;
    report.layer["setup.load_s"] = report.load_s;
    report.layer["setup.flush_s"] = report.flush_s;
    for (const Metric& m : kPerLayer) {
      auto it = report.layer.find(m.name);
      if (it == report.layer.end()) {
        report.notes.push_back(std::string("not measured: ") + m.name);
      }
      metrics.emplace_back(&m, it == report.layer.end() ? 0.0 : it->second);
    }
  }

  // Time the hypervisor gave to other guests: a busy shared host shows
  // here, and every latency of the run is worse for it.
  report.notes.push_back("host: steal " +
                         FormatValue(100 * StealShare(cpu_before, cpu_after)) +
                         "% of all CPU time during the run");
  report.notes.push_back(
      "memory: peak_rss_mb " + FormatValue(PeakRssMb()) + " MiB = " +
      FormatValue(rss_before_mb) + " MiB resident before set-up + at most " +
      FormatValue(report.own_data_mb) +
      " MiB of the benchmark's own data; the rest is the engine (databases, "
      "caches, server buffers, threads)");

  // Provenance and sizes, for the record: stderr carries the human-readable
  // report, stdout one provenance line before the result line.
  std::string provenance =
      "{\"git_describe\":\"" + JsonEscape(git_describe) +
      "\",\"source_digest\":\"" + JsonEscape(source_digest) +
      "\",\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
      ",\"build_type\":\"" + JsonEscape(VIZBENCH_BUILD_TYPE) +
      "\",\"workload\":\"" + options.workload +
      "\",\"seed\":" + std::to_string(options.seed) +
      ",\"seconds\":" + Number(options.seconds) +
      ",\"trace\":" + (options.trace ? "1" : "0") +
      ",\"samples\":{\"reads\":" + std::to_string(report.reads.millis.size()) +
      ",\"writes\":" + std::to_string(report.writes.millis.size()) +
      ",\"setups\":" + std::to_string(report.setup_seconds.size()) +
      "},\"notes\":[";
  for (size_t i = 0; i < report.notes.size(); ++i) {
    provenance += (i ? ",\"" : "\"") + JsonEscape(report.notes[i]) + "\"";
  }
  provenance += "]}";

  std::fprintf(stderr, "vizbench %s seed=%llu seconds=%g trace=%d\n",
               options.workload.c_str(),
               static_cast<unsigned long long>(options.seed), options.seconds,
               options.trace ? 1 : 0);
  for (const std::string& note : report.notes) {
    std::fprintf(stderr, "  %s\n", note.c_str());
  }
  std::fprintf(stderr, "  samples: reads=%zu writes=%zu setups=%zu (",
               report.reads.millis.size(), report.writes.millis.size(),
               report.setup_seconds.size());
  for (double s : report.setup_seconds) std::fprintf(stderr, " %.3fs", s);
  std::fprintf(stderr, " )\n");
  for (const auto& [metric, value] : metrics) {
    std::fprintf(stderr, "  %-40s %14.6g %s\n", metric->name, value,
                 metric->unit);
  }
  if (options.trace) {
    for (const auto& [name, value] : report.report_only) {
      std::fprintf(stderr, "  %-40s %14.6g (printed only)\n",
                   name.c_str(), value);
    }
    std::fprintf(stderr, "  self time by layer (%zu spans):\n",
                 SpanLog::Instance().size());
    for (const auto& [layer, ms] : SpanLog::Instance().LayerSelfMillis()) {
      std::fprintf(stderr, "    %-12s %12.3f ms\n", layer.c_str(), ms);
    }
    std::filesystem::create_directories(trace_dir, ec);
    const std::string path = trace_dir + "/" + options.workload + "-seed" +
                             std::to_string(options.seed) + ".json";
    const Status written = SpanLog::Instance().WriteChromeTrace(path);
    std::fprintf(stderr, "  spans: %s\n",
                 written.ok() ? path.c_str() : written.ToString().c_str());
  }
  const std::vector<std::string> errors = report.errors();
  for (const std::string& e : errors) {
    std::fprintf(stderr, "  FAILED: %s\n", e.c_str());
  }

  const uint64_t failed = report.failures();
  const uint64_t attempted =
      report.reads.attempted + report.writes.attempted + report.checks;
  const bool correct = failed == 0;
  std::string result = "{\"correct\":" + std::string(correct ? "true" : "false") +
                       ",\"attempted\":" + std::to_string(attempted) +
                       ",\"failed\":" + std::to_string(failed) +
                       ",\"metrics\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    result += std::string(i ? "," : "") + "\"" + metrics[i].first->name +
              "\":{\"value\":" + Number(metrics[i].second) +
              ",\"unit\":\"" + metrics[i].first->unit + "\"}";
  }
  result += "}}";
  std::printf("# provenance %s\n%s\n", provenance.c_str(), result.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace tsviz::vizbench

int main(int argc, char** argv) { return tsviz::vizbench::Main(argc, argv); }
