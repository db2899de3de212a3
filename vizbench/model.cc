#include "model.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstdlib>
#include <string_view>
#include <system_error>

#include "client.h"
#include "util.h"

namespace tsviz::vizbench {

SeriesModel::SeriesModel(std::vector<Point> sorted_unique)
    : points_(std::move(sorted_unique)) {
  const size_t blocks = (points_.size() + kBlock - 1) / kBlock;
  if (blocks == 0) return;
  std::vector<uint32_t> mins(blocks), maxs(blocks);
  for (size_t b = 0; b < blocks; ++b) {
    size_t lo = b * kBlock;
    size_t hi = std::min(points_.size(), lo + kBlock);
    size_t mn = lo, mx = lo;
    for (size_t i = lo + 1; i < hi; ++i) {
      mn = MinOf(mn, i);
      mx = MaxOf(mx, i);
    }
    mins[b] = static_cast<uint32_t>(mn);
    maxs[b] = static_cast<uint32_t>(mx);
  }
  block_min_.push_back(std::move(mins));
  block_max_.push_back(std::move(maxs));
  for (size_t width = 2; width <= blocks; width *= 2) {
    const auto& pmin = block_min_.back();
    const auto& pmax = block_max_.back();
    const size_t half = width / 2;
    std::vector<uint32_t> nmin(blocks - width + 1), nmax(blocks - width + 1);
    for (size_t b = 0; b + width <= blocks; ++b) {
      nmin[b] = static_cast<uint32_t>(MinOf(pmin[b], pmin[b + half]));
      nmax[b] = static_cast<uint32_t>(MaxOf(pmax[b], pmax[b + half]));
    }
    block_min_.push_back(std::move(nmin));
    block_max_.push_back(std::move(nmax));
  }
}

size_t SeriesModel::MemoryBytes() const {
  size_t bytes = points_.capacity() * sizeof(Point);
  for (const auto& level : block_min_) bytes += level.capacity() * 4;
  for (const auto& level : block_max_) bytes += level.capacity() * 4;
  return bytes;
}

std::pair<size_t, size_t> SeriesModel::RangeMinMax(size_t lo, size_t hi) const {
  size_t mn = lo, mx = lo;
  auto scan = [&](size_t from, size_t to) {
    for (size_t i = from; i < to; ++i) {
      mn = MinOf(mn, i);
      mx = MaxOf(mx, i);
    }
  };
  const size_t first_full = (lo + kBlock - 1) / kBlock;  // first whole block
  const size_t end_full = hi / kBlock;                    // past last whole
  if (first_full >= end_full) {
    scan(lo, hi);
    return {mn, mx};
  }
  scan(lo, first_full * kBlock);
  scan(end_full * kBlock, hi);
  const size_t count = end_full - first_full;
  const size_t level = static_cast<size_t>(std::bit_width(count) - 1);
  const size_t span = size_t{1} << level;
  mn = MinOf(mn, block_min_[level][first_full]);
  mn = MinOf(mn, block_min_[level][end_full - span]);
  mx = MaxOf(mx, block_max_[level][first_full]);
  mx = MaxOf(mx, block_max_[level][end_full - span]);
  return {mn, mx};
}

namespace {

size_t LowerBound(const std::vector<Point>& points, size_t limit,
                  Timestamp t) {
  auto it = std::lower_bound(
      points.begin(), points.begin() + static_cast<std::ptrdiff_t>(limit), t,
      [](const Point& p, Timestamp x) { return p.t < x; });
  return static_cast<size_t>(it - points.begin());
}

}  // namespace

M4Result SeriesModel::ExpectedM4(const M4Query& query, size_t limit) const {
  limit = std::min(limit, points_.size());
  SpanSet spans(query);
  M4Result result(static_cast<size_t>(spans.num_spans()));
  size_t lo = LowerBound(points_, limit, query.tqs);
  for (int64_t i = 0; i < spans.num_spans(); ++i) {
    const Timestamp next =
        i + 1 < spans.num_spans() ? spans.SpanStart(i + 1) : query.tqe;
    const size_t hi = LowerBound(points_, limit, next);
    if (lo < hi) {
      M4Row& row = result[static_cast<size_t>(i)];
      row.has_data = true;
      row.first = points_[lo];
      row.last = points_[hi - 1];
      auto [mn, mx] = RangeMinMax(lo, hi);
      row.bottom = points_[mn];
      row.top = points_[mx];
    }
    lo = hi;
  }
  return result;
}

std::vector<Point> SeriesModel::Slice(Timestamp tqs, Timestamp tqe,
                                      size_t limit) const {
  limit = std::min(limit, points_.size());
  const size_t lo = LowerBound(points_, limit, tqs);
  const size_t hi = LowerBound(points_, limit, tqe);
  return std::vector<Point>(points_.begin() + static_cast<std::ptrdiff_t>(lo),
                            points_.begin() + static_cast<std::ptrdiff_t>(hi));
}

const Point* SeriesModel::Find(Timestamp t, size_t limit) const {
  limit = std::min(limit, points_.size());
  const size_t i = LowerBound(points_, limit, t);
  return i < limit && points_[i].t == t ? &points_[i] : nullptr;
}

std::string M4Sql(const std::string& series, const M4Query& query) {
  return "SELECT M4(v) FROM " + series +
         " WHERE time >= " + std::to_string(query.tqs) +
         " AND time < " + std::to_string(query.tqe) + " GROUP BY SPANS(" +
         std::to_string(query.w) + ")";
}

namespace {

bool ParseInt(std::string_view field, int64_t* out) {
  const auto [end, ec] =
      std::from_chars(field.data(), field.data() + field.size(), *out);
  return ec == std::errc() && end == field.data() + field.size();
}

// Whether a reply value is `want` in the server's CSV rendering. Parsing
// the field back to `want` settles it without formatting; values with
// more digits than the rendering keeps fall back to comparing text.
bool SameValue(std::string_view field, double want) {
  double got = 0;
  const auto [end, ec] =
      std::from_chars(field.data(), field.data() + field.size(), got);
  if (ec == std::errc() && end == field.data() + field.size() && got == want) {
    return true;
  }
  return field == FormatValue(want);
}

}  // namespace

std::string CheckM4Reply(const std::string& body, const M4Query& query,
                         const SeriesModel& model, size_t limit) {
  if (IsErrorReply(body)) return "error reply: " + body.substr(0, 200);
  const M4Result expected = model.ExpectedM4(query, limit);
  SpanSet spans(query);
  size_t pos = body.find('\n');  // skip the header row
  if (pos == std::string::npos || body.rfind("span_start,", 0) != 0) {
    return "missing M4 header: " + body.substr(0, 200);
  }
  ++pos;
  const std::string_view text(body);
  std::string_view fields[9];
  for (size_t i = 0; i < expected.size(); ++i) {
    const size_t end = body.find('\n', pos);
    if (end == std::string::npos) {
      return "reply has " + std::to_string(i) + " rows, expected " +
             std::to_string(expected.size());
    }
    size_t f = 0, start = pos;
    for (size_t c = pos; c <= end && f < 9; ++c) {
      if (c == end || body[c] == ',') {
        fields[f++] = text.substr(start, c - start);
        start = c + 1;
      }
    }
    const size_t row_start = pos;
    pos = end + 1;
    // Only a mismatch pays for the message.
    auto where = [&] {
      return " in span " + std::to_string(i) + ": " +
             body.substr(row_start, end - row_start);
    };
    if (f != 9) {
      return "malformed row: " + body.substr(row_start, end - row_start);
    }
    const M4Row& want = expected[i];
    int64_t t = 0;
    if (!ParseInt(fields[0], &t) ||
        t != spans.SpanStart(static_cast<int64_t>(i))) {
      return "span_start mismatch" + where();
    }
    if (!want.has_data) {
      for (size_t k = 1; k < 9; ++k) {
        if (fields[k] != "null") return "expected an empty span" + where();
      }
      continue;
    }
    if (!ParseInt(fields[1], &t) || t != want.first.t ||
        !SameValue(fields[2], want.first.v)) {
      return "FP mismatch, expected " + std::to_string(want.first.t) + "," +
             FormatValue(want.first.v) + where();
    }
    if (!ParseInt(fields[3], &t) || t != want.last.t ||
        !SameValue(fields[4], want.last.v)) {
      return "LP mismatch, expected " + std::to_string(want.last.t) + "," +
             FormatValue(want.last.v) + where();
    }
    const TimeRange span = spans.SpanRange(static_cast<int64_t>(i));
    for (int extreme = 0; extreme < 2; ++extreme) {
      const Point& want_point = extreme == 0 ? want.bottom : want.top;
      const std::string_view time_field = fields[extreme == 0 ? 5 : 7];
      const std::string_view value_field = fields[extreme == 0 ? 6 : 8];
      const char* name = extreme == 0 ? "BP" : "TP";
      if (!SameValue(value_field, want_point.v)) {
        return std::string(name) + " value mismatch, expected " +
               FormatValue(want_point.v) + where();
      }
      const Point* p =
          ParseInt(time_field, &t) ? model.Find(t, limit) : nullptr;
      if (p == nullptr || t < span.start || t > span.end ||
          !SameValue(value_field, p->v)) {
        return std::string(name) + " is not a written point of the span" +
               where();
      }
    }
  }
  if (pos != body.size()) return "reply has extra rows";
  return "";
}

}  // namespace tsviz::vizbench
