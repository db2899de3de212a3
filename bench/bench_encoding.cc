// Ablation: codec throughput and compression ratios. The decode numbers are
// what make chunk loading expensive and the merge-free design worthwhile
// (Section 2.3): every chunk M4-UDF touches pays this CPU cost.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <vector>

#include "encoding/crc32c.h"
#include "encoding/gorilla.h"
#include "encoding/page.h"
#include "encoding/plain.h"
#include "encoding/ts2diff.h"
#include "encoding/varint.h"
#include "workload/generator.h"

namespace tsviz {
namespace {

std::vector<Point> BenchPoints(size_t n) {
  DatasetSpec spec;
  spec.kind = DatasetKind::kMf03;
  spec.num_points = n;
  return GenerateDataset(spec);
}

std::vector<Timestamp> Times(const std::vector<Point>& points) {
  std::vector<Timestamp> ts;
  ts.reserve(points.size());
  for (const Point& p : points) ts.push_back(p.t);
  return ts;
}

std::vector<Value> Values(const std::vector<Point>& points) {
  std::vector<Value> vs;
  vs.reserve(points.size());
  for (const Point& p : points) vs.push_back(p.v);
  return vs;
}

void BM_Ts2DiffEncode(benchmark::State& state) {
  std::vector<Timestamp> ts = Times(BenchPoints(100000));
  size_t encoded_size = 0;
  for (auto _ : state) {
    std::string buf;
    benchmark::DoNotOptimize(EncodeTs2Diff(ts, &buf));
    encoded_size = buf.size();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(ts.size()));
  state.counters["bytes_per_point"] =
      static_cast<double>(encoded_size) / static_cast<double>(ts.size());
}
BENCHMARK(BM_Ts2DiffEncode);

void BM_Ts2DiffDecode(benchmark::State& state) {
  std::vector<Timestamp> ts = Times(BenchPoints(100000));
  std::string buf;
  benchmark::DoNotOptimize(EncodeTs2Diff(ts, &buf));
  for (auto _ : state) {
    std::string_view view = buf;
    std::vector<Timestamp> out;
    benchmark::DoNotOptimize(DecodeTs2Diff(&view, ts.size(), &out));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(ts.size()));
}
BENCHMARK(BM_Ts2DiffDecode);

void BM_GorillaEncode(benchmark::State& state) {
  std::vector<Value> values = Values(BenchPoints(100000));
  size_t encoded_size = 0;
  for (auto _ : state) {
    std::string buf;
    benchmark::DoNotOptimize(EncodeGorilla(values, &buf));
    encoded_size = buf.size();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(values.size()));
  state.counters["bytes_per_point"] =
      static_cast<double>(encoded_size) / static_cast<double>(values.size());
}
BENCHMARK(BM_GorillaEncode);

void BM_GorillaDecode(benchmark::State& state) {
  std::vector<Value> values = Values(BenchPoints(100000));
  std::string buf;
  benchmark::DoNotOptimize(EncodeGorilla(values, &buf));
  for (auto _ : state) {
    std::vector<Value> out;
    benchmark::DoNotOptimize(DecodeGorilla(buf, values.size(), &out));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(values.size()));
}
BENCHMARK(BM_GorillaDecode);

void BM_PlainDecode(benchmark::State& state) {
  std::vector<Value> values = Values(BenchPoints(100000));
  std::string buf;
  benchmark::DoNotOptimize(EncodePlainValues(values, &buf));
  for (auto _ : state) {
    std::vector<Value> out;
    benchmark::DoNotOptimize(DecodePlainValues(buf, values.size(), &out));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(values.size()));
}
BENCHMARK(BM_PlainDecode);

void BM_PageRoundTrip(benchmark::State& state) {
  std::vector<Point> points = BenchPoints(200);
  for (auto _ : state) {
    std::string blob;
    PageInfo info;
    benchmark::DoNotOptimize(EncodePage(points.data(), points.size(),
                                        TsCodec::kTs2Diff,
                                        ValueCodec::kGorilla, &blob, &info));
    std::vector<Point> out;
    benchmark::DoNotOptimize(DecodePage(blob, &out));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(points.size()));
}
BENCHMARK(BM_PageRoundTrip);

// 200-point ts2diff + Gorilla pages cut from one generator, as the stores
// write them (StoreConfig's default page size and codecs).
std::vector<std::string> GeneratorPages(DatasetKind kind, size_t num_points) {
  DatasetSpec spec;
  spec.kind = kind;
  spec.num_points = num_points;
  std::vector<Point> points = GenerateDataset(spec);
  std::vector<std::string> pages;
  for (size_t begin = 0; begin < points.size(); begin += 200) {
    std::string page;
    benchmark::DoNotOptimize(EncodePage(
        points.data() + begin, std::min<size_t>(200, points.size() - begin),
        TsCodec::kTs2Diff, ValueCodec::kGorilla, &page, nullptr));
    pages.push_back(std::move(page));
  }
  return pages;
}

// The read path's decode cost per point: checksum, timestamps and values of
// every page, each into a fresh vector as LazyChunk does. Arg: generator.
void BM_DecodePage(benchmark::State& state) {
  const DatasetKind kind = AllDatasetKinds()[state.range(0)];
  const std::vector<std::string> pages = GeneratorPages(kind, 100000);
  for (auto _ : state) {
    for (const std::string& page : pages) {
      std::vector<Point> out;
      benchmark::DoNotOptimize(DecodePage(page, &out));
      benchmark::DoNotOptimize(out.data());
    }
  }
  state.SetItemsProcessed(state.iterations() * 100000);
  state.SetLabel(DatasetName(kind));
}
BENCHMARK(BM_DecodePage)->DenseRange(0, 3);

// The page checksum alone over the same MF03 pages, per point: the v01
// FNV-1a 64 (arg 0) against the v02 CRC32C (arg 1).
void BM_PageChecksum(benchmark::State& state) {
  const bool crc = state.range(0) == 1;
  const std::vector<std::string> pages =
      GeneratorPages(DatasetKind::kMf03, 100000);
  int64_t bytes = 0;
  for (const std::string& page : pages) {
    bytes += static_cast<int64_t>(page.size());
  }
  for (auto _ : state) {
    for (const std::string& page : pages) {
      const std::string_view body(page.data(), page.size() - 8);
      benchmark::DoNotOptimize(crc ? uint64_t{Crc32c(body)} : Fnv1a64(body));
    }
  }
  state.SetItemsProcessed(state.iterations() * 100000);
  state.SetBytesProcessed(state.iterations() * bytes);
  state.SetLabel(crc ? (Crc32cUsesHardware() ? "crc32c/sse4.2" : "crc32c/table")
                     : "fnv1a64");
}
BENCHMARK(BM_PageChecksum)->DenseRange(0, 1);

// The write side of the same pages: flush and compaction pay this per point.
void BM_EncodePage(benchmark::State& state) {
  const DatasetKind kind = AllDatasetKinds()[state.range(0)];
  DatasetSpec spec;
  spec.kind = kind;
  spec.num_points = 100000;
  const std::vector<Point> points = GenerateDataset(spec);
  for (auto _ : state) {
    std::string blob;
    for (size_t begin = 0; begin < points.size(); begin += 200) {
      benchmark::DoNotOptimize(EncodePage(
          points.data() + begin, std::min<size_t>(200, points.size() - begin),
          TsCodec::kTs2Diff, ValueCodec::kGorilla, &blob, nullptr));
    }
    benchmark::DoNotOptimize(blob.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(points.size()));
  state.SetLabel(DatasetName(kind));
}
BENCHMARK(BM_EncodePage)->DenseRange(0, 3);

}  // namespace
}  // namespace tsviz

BENCHMARK_MAIN();
