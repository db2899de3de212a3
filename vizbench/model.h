// The benchmark's own copy of the data it wrote, and the checks that hold
// the server's answers to it.
#ifndef TSVIZ_VIZBENCH_MODEL_H_
#define TSVIZ_VIZBENCH_MODEL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "m4/m4_types.h"
#include "m4/span.h"

namespace tsviz::vizbench {

// One series after last-write-wins: sorted, unique timestamps. Range
// minimum/maximum tables over fixed blocks make the expected M4 answer of a
// w-span query cost O(w * block) instead of a scan of the whole window, so
// every reply can be checked without slowing the client that sent it.
// `limit` arguments restrict a query to the first `limit` points, which is
// how a live-tail reader sees only the acknowledged prefix of a stream.
class SeriesModel {
 public:
  SeriesModel() = default;
  explicit SeriesModel(std::vector<Point> sorted_unique);

  const std::vector<Point>& points() const { return points_; }
  size_t size() const { return points_.size(); }
  // Heap bytes held: the points and the block tables.
  size_t MemoryBytes() const;

  // Expected M4 rows (Definition 2.3) over the first `limit` points.
  M4Result ExpectedM4(const M4Query& query, size_t limit) const;
  M4Result ExpectedM4(const M4Query& query) const {
    return ExpectedM4(query, points_.size());
  }
  // The points of the first `limit` inside [tqs, tqe), for ReferenceM4.
  std::vector<Point> Slice(Timestamp tqs, Timestamp tqe, size_t limit) const;
  // The point at timestamp t among the first `limit`, or null.
  const Point* Find(Timestamp t, size_t limit) const;

 private:
  static constexpr size_t kBlock = 32;
  // Index of the smaller/larger-valued point of two candidates.
  size_t MinOf(size_t a, size_t b) const {
    return points_[b].v < points_[a].v ? b : a;
  }
  size_t MaxOf(size_t a, size_t b) const {
    return points_[b].v > points_[a].v ? b : a;
  }
  // Indexes of a minimal and a maximal point in [lo, hi), lo < hi.
  std::pair<size_t, size_t> RangeMinMax(size_t lo, size_t hi) const;

  std::vector<Point> points_;
  // Sparse tables over blocks: level k, block b covers blocks [b, b + 2^k).
  std::vector<std::vector<uint32_t>> block_min_;
  std::vector<std::vector<uint32_t>> block_max_;
};

// Checks one `SELECT M4(v) ... GROUP BY SPANS(w)` reply body against the
// expected rows: span starts, FP/LP exactly, BP/TP values exactly, and that
// the reported BP/TP points exist in the model inside their span (Definition
// 2.1 lets any extreme point stand). Values compare in the server's CSV
// rendering. Returns an empty string on a match, else the first difference.
std::string CheckM4Reply(const std::string& body, const M4Query& query,
                         const SeriesModel& model, size_t limit);

// The statement text of an M4 query.
std::string M4Sql(const std::string& series, const M4Query& query);

}  // namespace tsviz::vizbench

#endif  // TSVIZ_VIZBENCH_MODEL_H_
