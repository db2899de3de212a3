// Small helpers shared by the benchmark's workloads: clocks, percentiles,
// number formatting, and the per-statement-class latency log.
#ifndef TSVIZ_VIZBENCH_UTIL_H_
#define TSVIZ_VIZBENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace tsviz::vizbench {

using Clock = std::chrono::steady_clock;

// Seconds between two steady-clock points.
inline double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}
inline double Millis(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

// Nearest-rank-with-interpolation quantile (q in [0, 1]) of unsorted
// samples; 0 when empty.
double Quantile(std::vector<double> samples, double q);
double Median(std::vector<double> samples);
double Mean(const std::vector<double>& samples);

// The server's CSV rendering of a double (ResultSet::CellToString).
std::string FormatValue(double v);

// Latencies of one statement class, as seen by one or more clients. Each
// sample also lands in a slice (a fixed share of the timed window, or one
// set-up copy), so a metric can be reported as the median over slices and
// a stall confined to one slice does not move it.
struct OpLog {
  std::vector<double> millis;  // one entry per completed statement
  std::vector<std::vector<double>> slice_millis;  // the same, by slice
  std::vector<uint64_t> slice_points;             // acknowledged, by slice
  uint64_t attempted = 0;      // statements sent (or due, open loop)
  uint64_t points = 0;         // acknowledged points (write statements)
  uint64_t single_row = 0;     // acknowledged single-row INSERTs

  void Add(double ms, size_t slice, uint64_t acked_points);
  void Merge(const OpLog& other);
  // Median over slices of the slice's q-quantile latency.
  double SliceQuantile(double q) const;
  // Completed statements (or acknowledged points) per second over all
  // slices; slice_seconds[i] is the length of slice i. A rate is a count
  // over time and needs no median: a stall lowers it by its share of the
  // window, no more.
  double Rate(const std::vector<double>& slice_seconds,
              bool count_points) const;
};

// Maps completion times in a timed window to equal slices of it, a
// quarter second each (at least kMinSlices). A quantile is taken per slice
// and reported as the median over slices, so a stall of the shared host
// moves the few slices it falls in and not the result.
struct Slicer {
  static constexpr double kSliceSeconds = 0.25;
  static constexpr size_t kMinSlices = 5;
  Slicer(Clock::time_point start, double seconds);
  Clock::time_point start;
  double seconds;
  size_t count;
  size_t Of(Clock::time_point t) const;
  std::vector<double> SliceSeconds() const {
    return std::vector<double>(count, seconds / static_cast<double>(count));
  }
};

// Writes back every dirty page of the file system holding `dir`. Set-up
// calls it before the clock starts: the kernel would otherwise write the
// set-up's files back during the timed window, and on a shared disk the
// file system's journal then stalls the engine's writes for up to hundreds
// of milliseconds.
void SyncFileSystem(const std::string& dir);

// The whole directory tree's file bytes (0 when it does not exist).
uint64_t DirectoryBytes(const std::string& dir);

// The host's CPU time from /proc/stat, in clock ticks: all of it, and the
// part the hypervisor gave to other guests while this one wanted to run.
struct CpuTimes {
  uint64_t total = 0;
  uint64_t steal = 0;
  static CpuTimes Now();
};
// Steal over [from, to] as a share of all CPU time (0 when unreadable).
double StealShare(const CpuTimes& from, const CpuTimes& to);

// Process peak resident set size in MiB (getrusage).
double PeakRssMb();
// Process resident set size now, in MiB (/proc/self/statm).
double CurrentRssMb();

}  // namespace tsviz::vizbench

#endif  // TSVIZ_VIZBENCH_UTIL_H_
