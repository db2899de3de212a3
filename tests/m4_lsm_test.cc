#include "m4/m4_lsm.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "m4/m4_udf.h"
#include "m4/reference.h"
#include "obs/trace.h"
#include "test_util.h"
#include "workload/ooo.h"

namespace tsviz {
namespace {

StoreConfig TestConfig(const std::string& dir, size_t chunk = 40,
                       size_t page = 16) {
  StoreConfig config;
  config.data_dir = dir;
  config.points_per_chunk = chunk;
  config.memtable_flush_threshold = chunk;
  config.encoding.page_size_points = page;
  return config;
}

// Compares M4-LSM against the UDF baseline and the oracle, and checks
// result invariants.
void ExpectAllAgree(const TsStore& store, const M4Query& query,
                    uint64_t seed = 0) {
  QueryStats lsm_stats;
  ASSERT_OK_AND_ASSIGN(M4Result lsm, RunM4Lsm(store, query, &lsm_stats));
  ASSERT_OK_AND_ASSIGN(M4Result udf, RunM4Udf(store, query, nullptr));
  M4Result oracle = ReferenceM4(
      ReferenceMerge(DumpChunks(store), DumpDeletes(store)), query);
  EXPECT_TRUE(ResultsEquivalent(udf, oracle))
      << "seed " << seed << " UDF vs oracle: " << FirstMismatch(udf, oracle);
  EXPECT_TRUE(ResultsEquivalent(lsm, oracle))
      << "seed " << seed << " LSM vs oracle: " << FirstMismatch(lsm, oracle);
  EXPECT_EQ(ValidateResultInvariants(lsm), "") << "seed " << seed;
}

TEST(M4LsmTest, SingleChunkNoDeletes) {
  TempDir dir;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<TsStore> store,
                       TsStore::Open(TestConfig(dir.path())));
  std::vector<Point> points;
  for (int i = 0; i < 40; ++i) {
    points.push_back(Point{i * 10, std::sin(i * 0.7) * 10});
  }
  ASSERT_OK(store->WriteAll(points));
  ASSERT_OK(store->Flush());
  ExpectAllAgree(*store, M4Query{0, 400, 4});
}

TEST(M4LsmTest, DisjointChunksAreServedFromMetadataOnly) {
  TempDir dir;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<TsStore> store,
                       TsStore::Open(TestConfig(dir.path())));
  // 10 disjoint chunks of 40 points; spans aligned to whole chunks.
  ASSERT_OK(store->WriteAll(MakeSeries(400, 0, 10, [](size_t i) {
    return std::cos(static_cast<double>(i));
  })));
  ASSERT_OK(store->Flush());
  ASSERT_EQ(store->chunks().size(), 10u);

  QueryStats stats;
  // w=2: each span covers 5 whole chunks; chunk boundaries align with span
  // boundaries (2000 = 5 * 400).
  M4Query query{0, 4000, 2};
  ASSERT_OK_AND_ASSIGN(M4Result result, RunM4Lsm(*store, query, &stats));
  // Merge-free: nothing is read from disk at all.
  EXPECT_EQ(stats.chunks_loaded, 0u);
  EXPECT_EQ(stats.bytes_read, 0u);
  EXPECT_EQ(stats.pages_decoded, 0u);
  ASSERT_OK_AND_ASSIGN(M4Result udf, RunM4Udf(*store, query, nullptr));
  EXPECT_TRUE(ResultsEquivalent(result, udf)) << FirstMismatch(result, udf);
}

TEST(M4LsmTest, ChunksSplitBySpansArePartiallyLoaded) {
  TempDir dir;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<TsStore> store,
                       TsStore::Open(TestConfig(dir.path())));
  ASSERT_OK(store->WriteAll(MakeSeries(400, 0, 10, [](size_t i) {
    return std::sin(static_cast<double>(i) * 0.3);
  })));
  ASSERT_OK(store->Flush());

  QueryStats stats;
  // w=7 does not align with the 10 chunk boundaries: split chunks load.
  ASSERT_OK(RunM4Lsm(*store, M4Query{0, 4000, 7}, &stats).status());
  EXPECT_GT(stats.chunks_loaded, 0u);
  EXPECT_LT(stats.chunks_loaded, 10u);  // but never all of them
  // One version, no deletes: split chunks are loaded exactly, but nothing
  // is overwritten, so no view ever needs its value order.
  EXPECT_GT(stats.exact_loads, 0u);
  EXPECT_EQ(stats.value_orders, 0u);
  ExpectAllAgree(*store, M4Query{0, 4000, 7});
}

// One chunk over three spans, its global extremes in the outer spans, so
// span 1's BP/TP and span 0's TP come from exact loads. Those extremes each
// occur three times, with signed-zero ties: BP is the earliest minimum, TP
// the latest maximum.
TEST(M4LsmTest, ExactLoadTiesPickEarliestBottomAndLatestTop) {
  TempDir dir;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<TsStore> store,
                       TsStore::Open(TestConfig(dir.path(), 40, 4)));
  // Spans [0,100), [100,200), [200,300); pages of 4 points straddle them.
  ASSERT_OK(store->WriteAll({
      {50, -100}, {60, 0.0}, {70, -0.0}, {80, -5}, {90, -0.0},
      {100, 3}, {110, -0.0}, {120, 7}, {130, 0.0}, {140, 5},
      {150, 7}, {160, 0.0}, {170, 7}, {180, 2}, {190, 4},
      {200, 1}, {210, 1}, {220, 1}, {230, 1}, {240, 1}, {250, 100}}));
  ASSERT_OK(store->Flush());
  ASSERT_EQ(store->chunks().size(), 1u);

  M4Query query{0, 300, 3};
  QueryStats stats;
  ASSERT_OK_AND_ASSIGN(M4Result result, RunM4Lsm(*store, query, &stats));
  ASSERT_TRUE(result[0].has_data);
  ASSERT_TRUE(result[1].has_data);
  EXPECT_EQ(result[0].bottom, (Point{50, -100}));
  EXPECT_EQ(result[0].top.t, 90);  // latest of the zeros at 60, 70, 90
  EXPECT_TRUE(std::signbit(result[0].top.v));
  EXPECT_EQ(result[1].bottom.t, 110);  // earliest of the zeros at 110-160
  EXPECT_TRUE(std::signbit(result[1].bottom.v));
  EXPECT_EQ(result[1].top, (Point{170, 7}));  // latest of 120, 150, 170
  EXPECT_GT(stats.exact_loads, 0u);
  EXPECT_EQ(stats.value_orders, 0u);
  ExpectAllAgree(*store, query);
}

// A later chunk overwrites the three lowest points of a loaded view, so BP
// pops past each of them; the view's value order is built once.
TEST(M4LsmTest, OverwrittenBottomsBuildValueOrderOnce) {
  TempDir dir;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<TsStore> store,
                       TsStore::Open(TestConfig(dir.path(), 40, 4)));
  std::vector<Point> base = {{50, -100}, {60, 0}, {70, 0}, {80, 0}, {90, 0}};
  const double span1[] = {-10, -9, -8, -7, 0, 1, 2, 3, 4, 5};
  for (int i = 0; i < 10; ++i) base.push_back(Point{100 + i * 10, span1[i]});
  for (Timestamp t = 200; t < 250; t += 10) base.push_back(Point{t, 0});
  base.push_back(Point{250, 100});
  ASSERT_OK(store->WriteAll(base));
  ASSERT_OK(store->Flush());
  ASSERT_OK(store->WriteAll({{100, 20}, {110, 21}, {120, 22}}));
  ASSERT_OK(store->Flush());

  M4Query query{0, 300, 3};
  QueryStats stats;
  ASSERT_OK_AND_ASSIGN(M4Result row, RunM4LsmSpans(*store, query, 1, 2,
                                                   &stats));
  ASSERT_TRUE(row[0].has_data);
  EXPECT_EQ(row[0].bottom, (Point{130, -7}));
  EXPECT_EQ(row[0].top, (Point{120, 22}));
  EXPECT_EQ(stats.exact_loads, 1u);
  EXPECT_EQ(stats.value_orders, 1u);
  ExpectAllAgree(*store, query);
}

// Deletes older than the chunk cover nothing in it; newer ones (one nested
// in another) split its single page into three live runs. The newer-deleted
// extremes sit on the deletes' boundaries: a load that kept either would
// have to pop past it, and value_orders would count that.
TEST(M4LsmTest, ExactLoadCopiesLiveRunsBetweenNewerDeletes) {
  TempDir dir;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<TsStore> store,
                       TsStore::Open(TestConfig(dir.path(), 64, 64)));
  ASSERT_OK(store->DeleteRange(TimeRange(20, 40)));  // older than the chunk
  std::vector<Point> points = MakeSeries(32, 0, 10, [](size_t i) {
    return static_cast<double>(i % 5);
  });
  points[3].v = 90;    // t=30: inside the older delete, the live top
  points[12].v = -90;  // t=120: newer-deleted global minimum
  points[19].v = 95;   // t=190: newer-deleted global maximum
  points[25].v = -50;  // t=250: the live bottom
  ASSERT_OK(store->WriteAll(points));
  ASSERT_OK(store->Flush());
  ASSERT_EQ(store->chunks().size(), 1u);
  ASSERT_OK(store->DeleteRange(TimeRange(90, 120)));
  ASSERT_OK(store->DeleteRange(TimeRange(100, 110)));
  ASSERT_OK(store->DeleteRange(TimeRange(190, 210)));

  M4Query query{0, 320, 1};
  QueryStats stats;
  ASSERT_OK_AND_ASSIGN(M4Result result, RunM4Lsm(*store, query, &stats));
  ASSERT_TRUE(result[0].has_data);
  EXPECT_EQ(result[0].bottom, (Point{250, -50}));
  EXPECT_EQ(result[0].top, (Point{30, 90}));
  EXPECT_GT(stats.exact_loads, 0u);
  EXPECT_EQ(stats.value_orders, 0u);
  ExpectAllAgree(*store, query);
  ExpectAllAgree(*store, M4Query{0, 320, 3});
}

// Spans 0 and 1 each load ten live points of the first chunk and pop past
// two overwritten bottoms, in opposite value orders: each span must sort
// its own points, not reuse the previous span's order of equal size.
TEST(M4LsmTest, EqualSizedExactLoadsInConsecutiveSpansSortSeparately) {
  TempDir dir;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<TsStore> store,
                       TsStore::Open(TestConfig(dir.path(), 40, 4)));
  std::vector<Point> base;
  for (int i = 0; i < 10; ++i) base.push_back(Point{i * 10, i - 5.0});
  for (int i = 0; i < 10; ++i) base.push_back(Point{100 + i * 10, 4.0 - i});
  for (Timestamp t = 200; t < 280; t += 10) base.push_back(Point{t, 0});
  base.push_back(Point{280, -100});
  base.push_back(Point{290, 100});
  ASSERT_OK(store->WriteAll(base));
  ASSERT_OK(store->Flush());
  ASSERT_OK(store->WriteAll({{0, 40}, {10, 41}, {180, 42}, {190, 43}}));
  ASSERT_OK(store->Flush());

  M4Query query{0, 300, 3};
  QueryStats stats;
  ASSERT_OK_AND_ASSIGN(M4Result result, RunM4Lsm(*store, query, &stats));
  ASSERT_TRUE(result[0].has_data);
  ASSERT_TRUE(result[1].has_data);
  EXPECT_EQ(result[0].bottom, (Point{20, -3}));
  EXPECT_EQ(result[1].bottom, (Point{170, -3}));
  EXPECT_EQ(stats.value_orders, 2u);
  ExpectAllAgree(*store, query);
}

// Calls of `phase` directly inside any `parent` span under `node`.
uint64_t CallsUnder(const obs::TraceNode& node, std::string_view parent,
                    std::string_view phase) {
  uint64_t calls = 0;
  for (const auto& child : node.children) {
    if (node.name == parent && child->name == phase) calls += child->calls;
    calls += CallsUnder(*child, parent, phase);
  }
  return calls;
}

// One 400-point chunk of 16-point pages cut by three spans: each exact load
// pins its span's pages first, so its adjacent cold pages share one read
// (the boundary pages the FP/LP probes pinned are not read again).
TEST(M4LsmTest, ExactLoadReadsAdjacentColdPagesOnce) {
  TempDir dir;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<TsStore> store,
                       TsStore::Open(TestConfig(dir.path(), 400, 16)));
  ASSERT_OK(store->WriteAll(MakeSeries(400, 0, 10, [](size_t i) {
    return std::sin(static_cast<double>(i) * 0.3);
  })));
  ASSERT_OK(store->Flush());

  const M4Query query{0, 4000, 3};
  QueryStats stats;
  stats.trace = std::make_shared<obs::Trace>("query");
  ASSERT_OK(RunM4Lsm(*store, query, &stats).status());
  EXPECT_EQ(stats.exact_loads, 3u);
  EXPECT_EQ(stats.pages_decoded, 25u);
  EXPECT_LE(CallsUnder(stats.trace->root(), "lazy_chunk_load", "page_load"),
            stats.exact_loads)
      << stats.trace->ToString();
  ExpectAllAgree(*store, query);
}

// Figure 7(a): the FP candidate from chunk metadata is killed by a later
// delete; the lazy interval update lets another chunk win without loading
// the deleted-prefix chunks.
TEST(M4LsmTest, PaperExampleFpUnderDelete) {
  TempDir dir;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<TsStore> store,
                       TsStore::Open(TestConfig(dir.path(), 4)));
  // C1 (v1): points at t = 0, 10, 20, 30.
  ASSERT_OK(store->WriteAll({{0, 1}, {10, 2}, {20, 3}, {30, 4}}));
  // C2 (v2): points at t = 5, 15, 25, 35 (earliest live candidate region).
  ASSERT_OK(store->WriteAll({{5, 9}, {15, 8}, {25, 7}, {35, 6}}));
  // D3: deletes [0, 17], covering both chunks' first points.
  ASSERT_OK(store->DeleteRange(TimeRange(0, 17)));
  // C4 (v4): points at t = 2, 12, 22, 32 — written after the delete, so its
  // FP(t=2) survives and is the query answer.
  ASSERT_OK(store->WriteAll({{2, 5}, {12, 5}, {22, 5}, {32, 5}}));

  M4Query query{0, 40, 1};
  ASSERT_OK_AND_ASSIGN(M4Result result, RunM4Lsm(*store, query, nullptr));
  ASSERT_TRUE(result[0].has_data);
  EXPECT_EQ(result[0].first, (Point{2, 5.0}));
  ExpectAllAgree(*store, query);
}

// Figure 7(b): the TP candidate is overwritten by a later chunk at the same
// timestamp; the next candidate in P'_G wins without a full reload.
TEST(M4LsmTest, PaperExampleTpOverwritten) {
  TempDir dir;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<TsStore> store,
                       TsStore::Open(TestConfig(dir.path(), 4)));
  // C1 (v1): top value 50 at t=10.
  ASSERT_OK(store->WriteAll({{0, 1}, {10, 50}, {20, 2}, {30, 3}}));
  // C3 (v2): top value 50 at t=110.
  ASSERT_OK(store->WriteAll({{100, 4}, {110, 50}, {120, 5}, {130, 6}}));
  // C4 (v3): overwrites t=110 with a smaller value.
  ASSERT_OK(store->WriteAll({{105, 7}, {110, 20}, {115, 8}, {125, 9}}));

  M4Query query{0, 200, 1};
  ASSERT_OK_AND_ASSIGN(M4Result result, RunM4Lsm(*store, query, nullptr));
  ASSERT_TRUE(result[0].has_data);
  // TP(C3)=(110,50) is stale; TP(C1)=(10,50) is the surviving top.
  EXPECT_EQ(result[0].top.v, 50.0);
  EXPECT_EQ(result[0].top.t, 10);
  ExpectAllAgree(*store, query);
}

TEST(M4LsmTest, WholeChunkDeleted) {
  TempDir dir;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<TsStore> store,
                       TsStore::Open(TestConfig(dir.path(), 4)));
  ASSERT_OK(store->WriteAll({{0, 1}, {10, 2}, {20, 3}, {30, 4}}));
  ASSERT_OK(store->WriteAll({{100, 5}, {110, 6}, {120, 7}, {130, 8}}));
  ASSERT_OK(store->DeleteRange(TimeRange(0, 50)));  // kills chunk 1 entirely
  M4Query query{0, 200, 2};
  ASSERT_OK_AND_ASSIGN(M4Result result, RunM4Lsm(*store, query, nullptr));
  EXPECT_FALSE(result[0].has_data);
  ASSERT_TRUE(result[1].has_data);
  EXPECT_EQ(result[1].first, (Point{100, 5.0}));
  ExpectAllAgree(*store, query);
}

TEST(M4LsmTest, EverythingDeleted) {
  TempDir dir;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<TsStore> store,
                       TsStore::Open(TestConfig(dir.path(), 4)));
  ASSERT_OK(store->WriteAll({{0, 1}, {10, 2}, {20, 3}, {30, 4}}));
  ASSERT_OK(store->DeleteRange(TimeRange(kMinTimestamp, kMaxTimestamp)));
  ASSERT_OK_AND_ASSIGN(M4Result result,
                       RunM4Lsm(*store, M4Query{0, 100, 4}, nullptr));
  for (const M4Row& row : result) EXPECT_FALSE(row.has_data);
}

TEST(M4LsmTest, StackedDeletesOnSameRegion) {
  TempDir dir;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<TsStore> store,
                       TsStore::Open(TestConfig(dir.path(), 10)));
  ASSERT_OK(store->WriteAll(MakeLinearSeries(10, 0, 10)));   // v1: 0..90
  ASSERT_OK(store->DeleteRange(TimeRange(0, 30)));           // v2
  ASSERT_OK(store->WriteAll(MakeLinearSeries(10, 5, 10)));   // v3: 5..95
  ASSERT_OK(store->DeleteRange(TimeRange(20, 60)));          // v4
  ASSERT_OK(store->DeleteRange(TimeRange(50, 80)));          // v5
  ExpectAllAgree(*store, M4Query{0, 100, 5});
  ExpectAllAgree(*store, M4Query{0, 100, 1});
  ExpectAllAgree(*store, M4Query{0, 96, 7});
}

TEST(M4LsmTest, BothStrategiesAgree) {
  TempDir dir;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<TsStore> store,
                       TsStore::Open(TestConfig(dir.path())));
  Rng rng(5);
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 80; ++i) {
      ASSERT_OK(store->Write(rng.Uniform(0, 2000), rng.Gaussian(0, 10)));
    }
    ASSERT_OK(store->Flush());
  }
  ASSERT_OK(store->DeleteRange(TimeRange(300, 500)));
  M4Query query{0, 2000, 13};
  M4LsmOptions regression;
  M4LsmOptions binary;
  binary.locate_strategy = LocateStrategy::kBinarySearch;
  ASSERT_OK_AND_ASSIGN(M4Result a, RunM4Lsm(*store, query, nullptr,
                                            regression));
  ASSERT_OK_AND_ASSIGN(M4Result b, RunM4Lsm(*store, query, nullptr, binary));
  EXPECT_TRUE(ResultsEquivalent(a, b)) << FirstMismatch(a, b);
  ExpectAllAgree(*store, query);
}

TEST(M4LsmTest, WidePixelCountsSpanSmallerThanPoints) {
  TempDir dir;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<TsStore> store,
                       TsStore::Open(TestConfig(dir.path())));
  ASSERT_OK(store->WriteAll(MakeSeries(200, 0, 10, [](size_t i) {
    return static_cast<double>((i * 13) % 29);
  })));
  ASSERT_OK(store->Flush());
  // More spans than points: most spans empty or single-point.
  ExpectAllAgree(*store, M4Query{0, 2000, 511});
}

TEST(M4LsmTest, QueryRangeOutsideData) {
  TempDir dir;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<TsStore> store,
                       TsStore::Open(TestConfig(dir.path())));
  ASSERT_OK(store->WriteAll(MakeLinearSeries(40, 1000, 10)));
  ASSERT_OK(store->Flush());
  // Entirely before, entirely after, and straddling one edge.
  for (M4Query query : {M4Query{0, 900, 3}, M4Query{5000, 6000, 3},
                        M4Query{0, 1055, 4}}) {
    QueryStats stats;
    ASSERT_OK_AND_ASSIGN(M4Result lsm, RunM4Lsm(*store, query, &stats));
    ASSERT_OK_AND_ASSIGN(M4Result udf, RunM4Udf(*store, query, nullptr));
    EXPECT_TRUE(ResultsEquivalent(lsm, udf)) << FirstMismatch(lsm, udf);
  }
  // Fully-disjoint queries read no data at all.
  QueryStats stats;
  ASSERT_OK(RunM4Lsm(*store, M4Query{0, 900, 3}, &stats).status());
  EXPECT_EQ(stats.bytes_read, 0u);
  EXPECT_EQ(stats.chunks_total, 0u);
}

TEST(M4LsmTest, SpanWindowApiMatchesFullRun) {
  TempDir dir;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<TsStore> store,
                       TsStore::Open(TestConfig(dir.path())));
  ASSERT_OK(store->WriteAll(MakeSeries(200, 0, 10, [](size_t i) {
    return static_cast<double>((i * 31) % 17);
  })));
  ASSERT_OK(store->Flush());
  M4Query query{0, 2000, 10};
  ASSERT_OK_AND_ASSIGN(M4Result full, RunM4Lsm(*store, query, nullptr));
  ASSERT_OK_AND_ASSIGN(M4Result head,
                       RunM4LsmSpans(*store, query, 0, 4, nullptr));
  ASSERT_OK_AND_ASSIGN(M4Result tail,
                       RunM4LsmSpans(*store, query, 4, 10, nullptr));
  ASSERT_EQ(head.size(), 4u);
  ASSERT_EQ(tail.size(), 6u);
  M4Result stitched = head;
  stitched.insert(stitched.end(), tail.begin(), tail.end());
  EXPECT_TRUE(ResultsEquivalent(full, stitched))
      << FirstMismatch(full, stitched);
  // Degenerate and invalid windows.
  ASSERT_OK_AND_ASSIGN(M4Result empty,
                       RunM4LsmSpans(*store, query, 3, 3, nullptr));
  EXPECT_TRUE(empty.empty());
  EXPECT_FALSE(RunM4LsmSpans(*store, query, 5, 11, nullptr).ok());
  EXPECT_FALSE(RunM4LsmSpans(*store, query, -1, 2, nullptr).ok());
}

// The central property: on arbitrary LSM states (overlap from out-of-order
// writes, overwrites, stacked deletes) and arbitrary query geometry,
// M4-LSM == M4-UDF == oracle.
class M4LsmProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(M4LsmProperty, EquivalentToBaselineAndOracle) {
  Rng rng(GetParam());
  TempDir dir;
  size_t chunk_size = static_cast<size_t>(rng.Uniform(8, 64));
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<TsStore> store,
      TsStore::Open(TestConfig(dir.path(), chunk_size,
                               static_cast<size_t>(rng.Uniform(4, 20)))));

  const Timestamp domain = 4000;
  int n_rounds = static_cast<int>(rng.Uniform(1, 7));
  for (int round = 0; round < n_rounds; ++round) {
    if (round > 0 && rng.Bernoulli(0.5)) {
      Timestamp start = rng.Uniform(0, domain);
      ASSERT_OK(store->DeleteRange(
          TimeRange(start, start + rng.Uniform(0, domain / 4))));
    }
    Timestamp base = rng.Uniform(0, domain * 2 / 3);
    int n = static_cast<int>(rng.Uniform(5, 200));
    for (int i = 0; i < n; ++i) {
      // Integer values create plenty of BP/TP ties across chunks.
      ASSERT_OK(store->Write(base + rng.Uniform(0, domain / 3),
                             std::round(rng.Gaussian(0, 20))));
    }
    ASSERT_OK(store->Flush());
  }

  for (int q = 0; q < 4; ++q) {
    M4Query query;
    query.tqs = rng.Uniform(-50, domain);
    query.tqe = query.tqs + rng.Uniform(1, domain);
    query.w = rng.Uniform(1, 100);
    ExpectAllAgree(*store, query, GetParam());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, M4LsmProperty,
                         ::testing::Range(uint64_t{1}, uint64_t{61}));

// Cost dominance: the merge-free operator never reads more bytes or loads
// more chunks than the load-everything baseline, on any LSM state.
class M4LsmCostProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(M4LsmCostProperty, NeverCostsMoreIoThanBaseline) {
  Rng rng(GetParam() + 1000);
  TempDir dir;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<TsStore> store,
                       TsStore::Open(TestConfig(dir.path(), 50, 10)));
  const Timestamp domain = 5000;
  for (int round = 0; round < 5; ++round) {
    if (round > 0 && rng.Bernoulli(0.4)) {
      Timestamp start = rng.Uniform(0, domain);
      ASSERT_OK(store->DeleteRange(
          TimeRange(start, start + rng.Uniform(0, domain / 6))));
    }
    Timestamp base = rng.Uniform(0, domain / 2);
    int n = static_cast<int>(rng.Uniform(50, 250));
    for (int i = 0; i < n; ++i) {
      ASSERT_OK(store->Write(base + rng.Uniform(0, domain / 2),
                             rng.Gaussian(0, 15)));
    }
    ASSERT_OK(store->Flush());
  }
  for (int64_t w : {1, 8, 40, 200}) {
    M4Query query{0, domain, w};
    QueryStats udf_stats;
    QueryStats lsm_stats;
    ASSERT_OK(RunM4Udf(*store, query, &udf_stats).status());
    ASSERT_OK(RunM4Lsm(*store, query, &lsm_stats).status());
    EXPECT_LE(lsm_stats.bytes_read, udf_stats.bytes_read)
        << "seed " << GetParam() << " w=" << w;
    EXPECT_LE(lsm_stats.chunks_loaded, udf_stats.chunks_loaded)
        << "seed " << GetParam() << " w=" << w;
    EXPECT_LE(lsm_stats.pages_decoded, udf_stats.pages_decoded)
        << "seed " << GetParam() << " w=" << w;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, M4LsmCostProperty,
                         ::testing::Range(uint64_t{1}, uint64_t{16}));

}  // namespace
}  // namespace tsviz
