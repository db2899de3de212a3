#include "m4/m4_lsm.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <optional>
#include <vector>

#include "index/binary_search_index.h"
#include "obs/trace.h"
#include "read/data_reader.h"
#include "read/lazy_chunk.h"
#include "read/metadata_reader.h"

namespace tsviz {

namespace {

// Safety valve on the generate/verify iteration (Algorithm 1's while-loop):
// hitting it indicates a logic bug, not a pathological input, and turns an
// infinite loop into a diagnosable error.
constexpr uint64_t kMaxRounds = 1u << 22;

// Point-vs-timestamp orders for lower_bound/upper_bound over a page.
bool TimeBefore(const Point& p, Timestamp t) { return p.t < t; }
bool TimeAfter(Timestamp t, const Point& p) { return t < p.t; }

// Query-lifetime state for one chunk: the lazily loaded pages and the index
// searcher are shared across every span the chunk intersects.
struct ChunkState {
  ChunkHandle handle;
  LazyChunk* lazy = nullptr;  // owned by the DataReader
  std::unique_ptr<ChunkSearcher> searcher;

  Version version() const { return handle.meta->version; }
};

// FP/LP candidate from one chunk: either a concrete point from metadata or
// loaded data (tight), or a lower/upper bound on the chunk's first/last live
// time produced by the lazy delete-boundary update of Section 3.3.
struct TimeEntry {
  Point p;
  bool tight = true;
};

// Per-span state of one chunk (the element of C'' in Section 3.1).
struct SpanView {
  ChunkState* chunk = nullptr;
  TimeRange interval;  // current, possibly tightened, time interval
  std::optional<TimeEntry> first;
  std::optional<TimeEntry> last;
  std::optional<Point> bottom;
  std::optional<Point> top;

  bool exact = false;            // live points materialized for this span
  std::vector<Point> live;       // live-under-deletes points inside the span
  // Indices into live sorted by (value, time) ascending. Empty until the
  // first pop past an overwritten extreme (EnsureValueOrder).
  std::vector<uint32_t> by_value;
  size_t bottom_cursor = 0;      // consumed prefix of by_value (BP pops)
  size_t top_cursor = 0;         // consumed suffix of by_value (TP pops)

  Version version() const { return chunk->version(); }
};

class M4LsmExecutor {
 public:
  M4LsmExecutor(StoreView view, const M4Query& query,
                int64_t span_begin, int64_t span_end, QueryStats* stats,
                const M4LsmOptions& options)
      : view_(std::move(view)),
        query_(query),
        spans_(query),
        span_begin_(span_begin),
        span_end_(span_end),
        stats_(stats),
        options_(options),
        data_reader_(stats) {}

  Result<M4Result> Run();

 private:
  Result<M4Row> ComputeRow(const TimeRange& span,
                           std::vector<SpanView>& views);

  // --- FP/LP (Section 3.3) -------------------------------------------------

  Result<std::optional<Point>> SolveFirst(std::vector<SpanView>& views,
                                          const TimeRange& span);
  Result<std::optional<Point>> SolveLast(std::vector<SpanView>& views,
                                         const TimeRange& span);

  // Replaces a non-tight first/last bound with the chunk's exact first/last
  // live point in the span using single-page index probes (Table 1 case b).
  Status ResolveFirst(SpanView& view, const TimeRange& span);
  Status ResolveLast(SpanView& view, const TimeRange& span);

  // --- BP/TP (Section 3.4) -------------------------------------------------

  Result<std::optional<Point>> SolveExtreme(std::vector<SpanView>& views,
                                            const TimeRange& span,
                                            bool bottom);

  // Loads the view's pages overlapping the span and recomputes its live
  // point set and statistics under deletes (Table 1 case c).
  Status LoadExact(SpanView& view, const TimeRange& span);

  // Builds an exact view's by_value order if it is not built yet. Its two
  // ends are the bottom and top that LoadExact found.
  void EnsureValueOrder(SpanView& view);

  // --- delete handling -----------------------------------------------------

  // Whether a point at `t` written at `version` is removed by a later delete
  // — real or virtual (the span-clipping deletes of Section 3.1).
  bool IsCovered(Timestamp t, Version version, const TimeRange& span) const;

  // Smallest uncovered timestamp >= t (respecting deletes later than
  // `version`), or nullopt when every time through span.end is covered.
  std::optional<Timestamp> NextUncovered(Timestamp t, Version version,
                                         const TimeRange& span) const;
  // Mirror image: largest uncovered timestamp <= t.
  std::optional<Timestamp> PrevUncovered(Timestamp t, Version version,
                                         const TimeRange& span) const;

  Status BumpRound();

  obs::Trace* trace() const {
    return stats_ != nullptr ? stats_->trace.get() : nullptr;
  }

  StoreView view_;
  const M4Query& query_;
  SpanSet spans_;
  int64_t span_begin_;
  int64_t span_end_;
  QueryStats* stats_;
  M4LsmOptions options_;
  DataReader data_reader_;
  // Real deletes in the query range, by start time, so every subset taken
  // from them is in start order too.
  std::vector<DeleteRecord> deletes_;
  std::vector<DeleteRecord> span_deletes_;  // subset overlapping current span
  // Scratch reused across calls: LoadExact's deletes newer than the chunk,
  // and SolveExtreme's tied candidates and views to load.
  std::vector<TimeRange> newer_deletes_;
  std::vector<SpanView*> ties_;
  std::vector<SpanView*> to_reload_;
  uint64_t rounds_ = 0;
};

Status M4LsmExecutor::BumpRound() {
  if (stats_ != nullptr) ++stats_->candidate_rounds;
  if (++rounds_ > kMaxRounds) {
    return Status::Internal("candidate iteration failed to converge");
  }
  return Status::OK();
}

bool M4LsmExecutor::IsCovered(Timestamp t, Version version,
                              const TimeRange& span) const {
  if (t < span.start || t > span.end) return true;  // virtual deletes
  for (const DeleteRecord& del : span_deletes_) {
    if (del.version > version && del.range.Contains(t)) return true;
  }
  return false;
}

std::optional<Timestamp> M4LsmExecutor::NextUncovered(
    Timestamp t, Version version, const TimeRange& span) const {
  if (t < span.start) t = span.start;
  bool changed = true;
  while (changed) {
    if (t > span.end) return std::nullopt;
    changed = false;
    for (const DeleteRecord& del : span_deletes_) {
      if (del.version > version && del.range.Contains(t)) {
        if (del.range.end >= span.end) return std::nullopt;
        t = del.range.end + 1;
        changed = true;
      }
    }
  }
  return t;
}

std::optional<Timestamp> M4LsmExecutor::PrevUncovered(
    Timestamp t, Version version, const TimeRange& span) const {
  if (t > span.end) t = span.end;
  bool changed = true;
  while (changed) {
    if (t < span.start) return std::nullopt;
    changed = false;
    for (const DeleteRecord& del : span_deletes_) {
      if (del.version > version && del.range.Contains(t)) {
        if (del.range.start <= span.start) return std::nullopt;
        t = del.range.start - 1;
        changed = true;
      }
    }
  }
  return t;
}

Status M4LsmExecutor::ResolveFirst(SpanView& view, const TimeRange& span) {
  Timestamp from = view.first.has_value() ? view.first->p.t : span.start;
  while (true) {
    std::optional<Timestamp> next = NextUncovered(from, view.version(), span);
    if (!next.has_value()) {
      view.first.reset();
      return Status::OK();
    }
    TSVIZ_ASSIGN_OR_RETURN(std::optional<PointPos> hit,
                           view.chunk->searcher->FirstAtOrAfter(*next));
    if (!hit.has_value() || hit->point.t > span.end) {
      view.first.reset();
      return Status::OK();
    }
    if (!IsCovered(hit->point.t, view.version(), span)) {
      view.first = TimeEntry{hit->point, /*tight=*/true};
      view.interval.start = std::max(view.interval.start, hit->point.t);
      return Status::OK();
    }
    from = hit->point.t;  // covered; NextUncovered will jump past the delete
  }
}

Status M4LsmExecutor::ResolveLast(SpanView& view, const TimeRange& span) {
  Timestamp from = view.last.has_value() ? view.last->p.t : span.end;
  while (true) {
    std::optional<Timestamp> prev = PrevUncovered(from, view.version(), span);
    if (!prev.has_value()) {
      view.last.reset();
      return Status::OK();
    }
    TSVIZ_ASSIGN_OR_RETURN(std::optional<PointPos> hit,
                           view.chunk->searcher->LastAtOrBefore(*prev));
    if (!hit.has_value() || hit->point.t < span.start) {
      view.last.reset();
      return Status::OK();
    }
    if (!IsCovered(hit->point.t, view.version(), span)) {
      view.last = TimeEntry{hit->point, /*tight=*/true};
      view.interval.end = std::min(view.interval.end, hit->point.t);
      return Status::OK();
    }
    from = hit->point.t;
  }
}

Result<std::optional<Point>> M4LsmExecutor::SolveFirst(
    std::vector<SpanView>& views, const TimeRange& span) {
  while (true) {
    TSVIZ_RETURN_IF_ERROR(BumpRound());
    // Candidate generation: P'_G = entries with minimal time.
    Timestamp best_t = kMaxTimestamp;
    bool any = false;
    for (const SpanView& view : views) {
      if (view.first.has_value()) {
        best_t = std::min(best_t, view.first->p.t);
        any = true;
      }
    }
    if (!any) return std::optional<Point>();

    // A non-tight bound at the minimum means the true first point of that
    // chunk is unknown and could be anywhere at or after the bound: load
    // (probe) that chunk now — no cheaper pruning is possible.
    SpanView* untight = nullptr;
    for (SpanView& view : views) {
      if (view.first.has_value() && view.first->p.t == best_t &&
          !view.first->tight) {
        untight = &view;
        break;
      }
    }
    if (untight != nullptr) {
      TSVIZ_RETURN_IF_ERROR(ResolveFirst(*untight, span));
      continue;
    }

    // Candidate point: largest version among the minimal-time entries.
    SpanView* cand = nullptr;
    for (SpanView& view : views) {
      if (view.first.has_value() && view.first->p.t == best_t &&
          (cand == nullptr || view.version() > cand->version())) {
        cand = &view;
      }
    }

    // Verification (Proposition 3.1): only later deletes can invalidate.
    if (!IsCovered(best_t, cand->version(), span)) {
      return std::optional<Point>(cand->first->p);
    }
    // Lazy update: tighten the interval by the delete boundary instead of
    // loading the chunk (Section 3.3).
    std::optional<Timestamp> bound =
        NextUncovered(best_t, cand->version(), span);
    if (!bound.has_value() || *bound > cand->interval.end) {
      cand->first.reset();
    } else {
      cand->first = TimeEntry{Point{*bound, 0.0}, /*tight=*/false};
      cand->interval.start = std::max(cand->interval.start, *bound);
    }
  }
}

Result<std::optional<Point>> M4LsmExecutor::SolveLast(
    std::vector<SpanView>& views, const TimeRange& span) {
  while (true) {
    TSVIZ_RETURN_IF_ERROR(BumpRound());
    Timestamp best_t = kMinTimestamp;
    bool any = false;
    for (const SpanView& view : views) {
      if (view.last.has_value()) {
        best_t = std::max(best_t, view.last->p.t);
        any = true;
      }
    }
    if (!any) return std::optional<Point>();

    SpanView* untight = nullptr;
    for (SpanView& view : views) {
      if (view.last.has_value() && view.last->p.t == best_t &&
          !view.last->tight) {
        untight = &view;
        break;
      }
    }
    if (untight != nullptr) {
      TSVIZ_RETURN_IF_ERROR(ResolveLast(*untight, span));
      continue;
    }

    SpanView* cand = nullptr;
    for (SpanView& view : views) {
      if (view.last.has_value() && view.last->p.t == best_t &&
          (cand == nullptr || view.version() > cand->version())) {
        cand = &view;
      }
    }

    if (!IsCovered(best_t, cand->version(), span)) {
      return std::optional<Point>(cand->last->p);
    }
    std::optional<Timestamp> bound =
        PrevUncovered(best_t, cand->version(), span);
    if (!bound.has_value() || *bound < cand->interval.start) {
      cand->last.reset();
    } else {
      cand->last = TimeEntry{Point{*bound, 0.0}, /*tight=*/false};
      cand->interval.end = std::min(cand->interval.end, *bound);
    }
  }
}

Status M4LsmExecutor::LoadExact(SpanView& view, const TimeRange& span) {
  obs::TraceSpan span_load(trace(), "lazy_chunk_load");
  if (stats_ != nullptr) ++stats_->exact_loads;
  view.exact = true;
  view.live.clear();
  view.by_value.clear();
  view.bottom_cursor = 0;
  view.top_cursor = 0;

  // Clipping each page to the span applies the virtual deletes; the real
  // ones that can cover this chunk are the later ones.
  newer_deletes_.clear();
  for (const DeleteRecord& del : span_deletes_) {
    if (del.version > view.version()) newer_deletes_.push_back(del.range);
  }

  // Pin the span's pages first, so adjacent cold pages share one read.
  LazyChunk* lazy = view.chunk->lazy;
  const auto& pages = lazy->pages();
  const size_t first_page = LocatePageBinary(pages, span.start);
  size_t last_page = first_page;
  while (last_page < pages.size() && pages[last_page].min_t <= span.end) {
    ++last_page;
  }
  TSVIZ_RETURN_IF_ERROR(lazy->EnsurePages(first_page, last_page));
  for (size_t pi = first_page; pi < last_page; ++pi) {
    TSVIZ_ASSIGN_OR_RETURN(const std::vector<Point>* points,
                           lazy->GetPage(pi));
    auto it = std::lower_bound(points->begin(), points->end(), span.start,
                               TimeBefore);
    const auto end = std::upper_bound(it, points->end(), span.end, TimeAfter);
    if (stats_ != nullptr) {
      stats_->points_scanned += static_cast<uint64_t>(end - it);
    }
    // Copy the runs between deletes. Taken in start order, a delete that
    // ends before the cursor finds an empty run and leaves the cursor put.
    for (const TimeRange& del : newer_deletes_) {
      if (it == end) break;
      const auto run_end = std::lower_bound(it, end, del.start, TimeBefore);
      view.live.insert(view.live.end(), it, run_end);
      it = std::upper_bound(run_end, end, del.end, TimeAfter);
    }
    view.live.insert(view.live.end(), it, end);
  }

  if (view.live.empty()) {
    view.first.reset();
    view.last.reset();
    view.bottom.reset();
    view.top.reset();
    return Status::OK();
  }

  view.interval = TimeRange(view.live.front().t, view.live.back().t);
  view.first = TimeEntry{view.live.front(), /*tight=*/true};
  view.last = TimeEntry{view.live.back(), /*tight=*/true};

  // The two ends of the (value, time) order in one pass: the earliest
  // minimum and the latest maximum. -0.0 == +0.0, so a signed-zero tie is
  // decided by time like any other.
  const Point* lowest = &view.live.front();
  const Point* highest = lowest;
  for (const Point& p : view.live) {
    if (p.v < lowest->v) lowest = &p;
    if (p.v >= highest->v) highest = &p;
  }
  view.bottom = *lowest;
  view.top = *highest;
  return Status::OK();
}

void M4LsmExecutor::EnsureValueOrder(SpanView& view) {
  if (!view.by_value.empty()) return;
  if (stats_ != nullptr) ++stats_->value_orders;
  view.by_value.resize(view.live.size());
  std::iota(view.by_value.begin(), view.by_value.end(), 0u);
  std::sort(view.by_value.begin(), view.by_value.end(),
            [&view](uint32_t a, uint32_t b) {
              if (view.live[a].v != view.live[b].v) {
                return view.live[a].v < view.live[b].v;
              }
              return view.live[a].t < view.live[b].t;
            });
}

Result<std::optional<Point>> M4LsmExecutor::SolveExtreme(
    std::vector<SpanView>& views, const TimeRange& span, bool bottom) {
  auto entry_of = [bottom](SpanView& view) -> std::optional<Point>& {
    return bottom ? view.bottom : view.top;
  };
  // `better(a, b)`: a is more extreme than b for this function.
  auto better = [bottom](Value a, Value b) {
    return bottom ? a < b : a > b;
  };

  while (true) {
    TSVIZ_RETURN_IF_ERROR(BumpRound());
    // Candidate generation: entries attaining the extreme value, by
    // descending version (the largest-version one is P_G, the rest are the
    // fallbacks of Section 3.4's lazy strategy).
    ties_.clear();
    for (SpanView& view : views) {
      std::optional<Point>& entry = entry_of(view);
      if (!entry.has_value()) continue;
      if (ties_.empty() || better(entry->v, (*entry_of(*ties_.front())).v)) {
        ties_.clear();
        ties_.push_back(&view);
      } else if (entry->v == (*entry_of(*ties_.front())).v) {
        ties_.push_back(&view);
      }
    }
    if (ties_.empty()) return std::optional<Point>();
    std::sort(ties_.begin(), ties_.end(), [](SpanView* a, SpanView* b) {
      return a->version() > b->version();
    });

    to_reload_.clear();
    bool progressed = false;
    std::optional<Point> found;
    for (SpanView* view : ties_) {
      const Point cand = *entry_of(*view);
      // Verification (Proposition 3.3), case analysis of Section 3.4.
      bool invalid = IsCovered(cand.t, view->version(), span);
      if (!invalid) {
        for (SpanView& other : views) {
          if (other.version() <= view->version()) continue;
          if (!other.interval.Contains(cand.t)) continue;
          // Partial scan: does the later chunk actually overwrite cand.t?
          TSVIZ_ASSIGN_OR_RETURN(std::optional<PointPos> hit,
                                 other.chunk->searcher->FindExact(cand.t));
          if (hit.has_value()) {
            invalid = true;
            break;
          }
        }
      }
      if (!invalid) {
        found = cand;
        break;
      }
      if (view->exact) {
        // Loaded views only die by overwrite; fall to their next extreme
        // live point.
        if (view->bottom_cursor + view->top_cursor + 1 >= view->live.size()) {
          entry_of(*view).reset();
        } else {
          EnsureValueOrder(*view);
          if (bottom) {
            ++view->bottom_cursor;
            view->bottom = view->live[view->by_value[view->bottom_cursor]];
          } else {
            ++view->top_cursor;
            view->top = view->live[view->by_value[view->by_value.size() - 1 -
                                                  view->top_cursor]];
          }
        }
        progressed = true;
      } else {
        to_reload_.push_back(view);
      }
    }
    if (found.has_value()) return found;

    // All extreme candidates are non-latest: load the affected chunks and
    // recompute their metadata under deletes and updates.
    for (SpanView* view : to_reload_) {
      TSVIZ_RETURN_IF_ERROR(LoadExact(*view, span));
      progressed = true;
    }
    if (!progressed) {
      return Status::Internal("BP/TP solver made no progress");
    }
  }
}

Result<M4Row> M4LsmExecutor::ComputeRow(const TimeRange& span,
                                        std::vector<SpanView>& views) {
  span_deletes_.clear();
  for (const DeleteRecord& del : deletes_) {
    if (del.range.Overlaps(span)) span_deletes_.push_back(del);
  }
  M4Row row;
  std::optional<Point> first;
  {
    obs::TraceSpan span_fp(trace(), "solve_first");
    TSVIZ_ASSIGN_OR_RETURN(first, SolveFirst(views, span));
  }
  if (!first.has_value()) return row;  // empty span
  std::optional<Point> last;
  std::optional<Point> bottom;
  std::optional<Point> top;
  {
    obs::TraceSpan span_lp(trace(), "solve_last");
    TSVIZ_ASSIGN_OR_RETURN(last, SolveLast(views, span));
  }
  {
    obs::TraceSpan span_bp(trace(), "solve_bottom");
    TSVIZ_ASSIGN_OR_RETURN(bottom, SolveExtreme(views, span, /*bottom=*/true));
  }
  {
    obs::TraceSpan span_tp(trace(), "solve_top");
    TSVIZ_ASSIGN_OR_RETURN(top, SolveExtreme(views, span, /*bottom=*/false));
  }
  if (!last.has_value() || !bottom.has_value() || !top.has_value()) {
    return Status::Internal("span has a first point but lacks last/bottom/top");
  }
  row.has_data = true;
  row.first = *first;
  row.last = *last;
  row.bottom = *bottom;
  row.top = *top;
  return row;
}

Result<M4Result> M4LsmExecutor::Run() {
  TSVIZ_RETURN_IF_ERROR(query_.Validate());
  if (span_begin_ < 0 || span_end_ > spans_.num_spans() ||
      span_begin_ > span_end_) {
    return Status::InvalidArgument("span window out of range");
  }
  // Only the metadata overlapping this executor's span window matters.
  const TimeRange query_range(spans_.SpanStart(span_begin_),
                              spans_.SpanStart(span_end_) - 1);

  // Algorithm 1 lines 2-3: metadata of all chunks and all deletes in range.
  std::vector<std::unique_ptr<ChunkState>> states;
  {
    obs::TraceSpan span_meta(trace(), "metadata_read");
    std::vector<ChunkHandle> handles =
        SelectOverlappingChunks(view_, query_range, stats_);
    deletes_ = SelectOverlappingDeletes(view_, query_range);
    std::sort(deletes_.begin(), deletes_.end(),
              [](const DeleteRecord& a, const DeleteRecord& b) {
                return a.range.start < b.range.start;
              });

    states.reserve(handles.size());
    for (const ChunkHandle& handle : handles) {
      auto state = std::make_unique<ChunkState>();
      state->handle = handle;
      state->lazy = data_reader_.GetChunk(handle);
      state->searcher = std::make_unique<ChunkSearcher>(
          state->lazy, &handle.meta->index, options_.locate_strategy, stats_);
      states.push_back(std::move(state));
    }
    // Sweep chunks against spans in time order.
    std::sort(states.begin(), states.end(),
              [](const std::unique_ptr<ChunkState>& a,
                 const std::unique_ptr<ChunkState>& b) {
                return a->handle.meta->stats.first.t <
                       b->handle.meta->stats.first.t;
              });
  }

  M4Result result(static_cast<size_t>(span_end_ - span_begin_));
  std::vector<ChunkState*> active;
  // Cleared per span, so each span's live points and value orders are freed
  // with it; only the vector's own storage is reused.
  std::vector<SpanView> views;
  size_t next_state = 0;
  for (int64_t i = span_begin_; i < span_end_; ++i) {
    const TimeRange span = spans_.SpanRange(i);
    while (next_state < states.size() &&
           states[next_state]->handle.meta->stats.first.t <= span.end) {
      active.push_back(states[next_state].get());
      ++next_state;
    }
    std::erase_if(active, [&span](ChunkState* state) {
      return state->handle.meta->stats.last.t < span.start;
    });

    views.clear();
    views.reserve(active.size());
    for (ChunkState* state : active) {
      if (!state->handle.meta->Interval().Overlaps(span)) continue;
      SpanView view;
      view.chunk = state;
      view.interval = state->handle.meta->Interval();
      view.first = TimeEntry{state->handle.meta->stats.first, true};
      view.last = TimeEntry{state->handle.meta->stats.last, true};
      view.bottom = state->handle.meta->stats.bottom;
      view.top = state->handle.meta->stats.top;
      views.push_back(std::move(view));
    }
    TSVIZ_ASSIGN_OR_RETURN(result[static_cast<size_t>(i - span_begin_)],
                           ComputeRow(span, views));
  }
  return result;
}

}  // namespace

Result<M4Result> RunM4Lsm(StoreView view, const M4Query& query,
                          QueryStats* stats, const M4LsmOptions& options) {
  TSVIZ_RETURN_IF_ERROR(query.Validate());
  obs::TraceSpan span(stats != nullptr ? stats->trace.get() : nullptr,
                      "m4_lsm");
  M4LsmExecutor executor(std::move(view), query, 0, query.w, stats, options);
  return executor.Run();
}

Result<M4Result> RunM4LsmSpans(StoreView view, const M4Query& query,
                               int64_t span_begin, int64_t span_end,
                               QueryStats* stats,
                               const M4LsmOptions& options) {
  TSVIZ_RETURN_IF_ERROR(query.Validate());
  obs::TraceSpan span(stats != nullptr ? stats->trace.get() : nullptr,
                      "m4_lsm");
  M4LsmExecutor executor(std::move(view), query, span_begin, span_end, stats,
                         options);
  return executor.Run();
}

}  // namespace tsviz
