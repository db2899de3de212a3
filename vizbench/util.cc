#include "util.h"

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <system_error>

namespace tsviz::vizbench {

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0;
  for (double s : samples) sum += s;
  return sum / static_cast<double>(samples.size());
}

std::string FormatValue(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

void OpLog::Add(double ms, size_t slice, uint64_t acked_points) {
  millis.push_back(ms);
  if (slice_millis.size() <= slice) {
    slice_millis.resize(slice + 1);
    slice_points.resize(slice + 1);
  }
  slice_millis[slice].push_back(ms);
  slice_points[slice] += acked_points;
  points += acked_points;
}

void OpLog::Merge(const OpLog& other) {
  millis.insert(millis.end(), other.millis.begin(), other.millis.end());
  if (slice_millis.size() < other.slice_millis.size()) {
    slice_millis.resize(other.slice_millis.size());
    slice_points.resize(other.slice_millis.size());
  }
  for (size_t i = 0; i < other.slice_millis.size(); ++i) {
    slice_millis[i].insert(slice_millis[i].end(),
                           other.slice_millis[i].begin(),
                           other.slice_millis[i].end());
    slice_points[i] += other.slice_points[i];
  }
  attempted += other.attempted;
  points += other.points;
  single_row += other.single_row;
}

double OpLog::SliceQuantile(double q) const {
  std::vector<double> per_slice;
  for (const auto& samples : slice_millis) {
    if (!samples.empty()) per_slice.push_back(Quantile(samples, q));
  }
  return Median(per_slice);
}

double OpLog::Rate(const std::vector<double>& slice_seconds,
                   bool count_points) const {
  double seconds = 0, n = 0;
  for (size_t i = 0; i < slice_millis.size() && i < slice_seconds.size();
       ++i) {
    seconds += slice_seconds[i];
    n += count_points ? static_cast<double>(slice_points[i])
                      : static_cast<double>(slice_millis[i].size());
  }
  return seconds > 0 ? n / seconds : 0.0;
}

Slicer::Slicer(Clock::time_point start, double seconds)
    : start(start), seconds(seconds),
      count(std::max(kMinSlices, static_cast<size_t>(
                                     std::lround(seconds / kSliceSeconds)))) {}

size_t Slicer::Of(Clock::time_point t) const {
  const double at = Seconds(start, t) / seconds;
  if (at <= 0) return 0;
  return std::min(count - 1, static_cast<size_t>(at * count));
}

void SyncFileSystem(const std::string& dir) {
  if (const int fd = ::open(dir.c_str(), O_RDONLY); fd >= 0) {
    ::syncfs(fd);
    ::close(fd);
  }
}

uint64_t DirectoryBytes(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  uint64_t total = 0;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    std::error_code size_ec;
    if (it->is_regular_file(size_ec)) {
      const uintmax_t size = it->file_size(size_ec);
      if (!size_ec) total += size;
    }
  }
  return total;
}

CpuTimes CpuTimes::Now() {
  CpuTimes times;
  FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return times;
  // cpu user nice system idle iowait irq softirq steal ...
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  if (n != 8) return times;
  for (unsigned long long x : v) times.total += x;
  times.steal = v[7];
  return times;
}

double StealShare(const CpuTimes& from, const CpuTimes& to) {
  if (to.total <= from.total) return 0.0;
  return static_cast<double>(to.steal - from.steal) /
         static_cast<double>(to.total - from.total);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double CurrentRssMb() {
  unsigned long size = 0, resident = 0;
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  const int n = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  if (n != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

}  // namespace tsviz::vizbench
