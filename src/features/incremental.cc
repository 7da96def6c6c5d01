#include "features/incremental.h"

#include <algorithm>
#include <utility>

namespace exstream {

IncrementalFeatureState::IncrementalFeatureState(const EventTypeRegistry* registry,
                                                 Timestamp retention)
    : registry_(registry), retention_(retention) {
  tails_.reserve(registry_->size());
  for (EventTypeId id = 0; id < registry_->size(); ++id) {
    auto tail = std::make_unique<TypeTail>();
    tail->cols = ChunkColumns(id, &registry_->schema(id));
    tails_.push_back(std::move(tail));
  }
}

void IncrementalFeatureState::OnEvent(const Event& event) {
  if (event.type >= tails_.size()) return;
  TypeTail& tail = *tails_[event.type];
  std::lock_guard<std::mutex> lock(tail.mu);
  Ingest(&tail, event);
  EvictLocked(&tail);
}

void IncrementalFeatureState::OnEventBatch(const EventBatch& batch) {
  for (const Event& event : batch) OnEvent(event);
}

void IncrementalFeatureState::MarkExternalData() {
  external_data_.store(true, std::memory_order_relaxed);
}

void IncrementalFeatureState::Reset() {
  for (EventTypeId id = 0; id < tails_.size(); ++id) {
    TypeTail& tail = *tails_[id];
    std::lock_guard<std::mutex> lock(tail.mu);
    tail.cols = ChunkColumns(id, &registry_->schema(id));
    tail.start = 0;
    tail.has_floor = false;
    tail.floor = 0;
    tail.max_ts_seen = 0;
  }
  events_buffered_.store(0, std::memory_order_relaxed);
  external_data_.store(false, std::memory_order_relaxed);
}

void IncrementalFeatureState::Ingest(TypeTail* tail, const Event& event) {
  if (!tail->has_floor) {
    // External (checkpoint-restored) events may share this event's timestamp,
    // so coverage can only be claimed strictly above it in that case.
    tail->floor =
        external_data_.load(std::memory_order_relaxed) ? event.ts + 1 : event.ts;
    tail->has_floor = true;
    tail->max_ts_seen = event.ts;
  }
  tail->max_ts_seen = std::max(tail->max_ts_seen, event.ts);
  if (event.ts < tail->floor) return;  // below coverage: archive-only
  const bool live = tail->cols.rows() > tail->start;
  if (live && event.ts < tail->cols.ts().back()) {
    // Out-of-order inside the covered span. The archive may accept such an
    // event (a freshly sealed chunk's first append is unchecked), so the tail
    // cannot stay both sorted and complete — restart coverage above
    // everything seen so far and leave the disputed range to archive scans.
    const size_t dropped = tail->cols.rows() - tail->start;
    tail->cols = ChunkColumns(tail->cols.type(),
                              &registry_->schema(tail->cols.type()));
    tail->start = 0;
    tail->floor = tail->max_ts_seen + 1;
    events_buffered_.fetch_sub(dropped, std::memory_order_relaxed);
    disorder_resets_.fetch_add(1, std::memory_order_relaxed);
    return;  // event.ts < new floor by construction
  }
  tail->cols.AppendEvent(event);
  events_buffered_.fetch_add(1, std::memory_order_relaxed);
}

void IncrementalFeatureState::EvictLocked(TypeTail* tail) {
  if (retention_ <= 0 || tail->cols.rows() <= tail->start) return;
  const Timestamp cut = tail->cols.ts().back() - retention_;
  if (cut <= tail->floor) return;
  const std::vector<Timestamp>& ts = tail->cols.ts();
  size_t start = tail->start;
  while (start < ts.size() && ts[start] < cut) ++start;
  if (start == tail->start) {
    // No row evicted, but the floor still rises: coverage below `cut` is no
    // longer promised once retention passes it (keeps Serve semantics stable
    // whether or not rows happened to exist there).
    tail->floor = cut;
    return;
  }
  events_evicted_.fetch_add(start - tail->start, std::memory_order_relaxed);
  events_buffered_.fetch_sub(start - tail->start, std::memory_order_relaxed);
  tail->start = start;
  tail->floor = cut;
  // Compact once the dead prefix dominates; amortized O(1) per append.
  if (tail->start * 2 > tail->cols.rows()) {
    tail->cols = tail->cols.Slice(tail->start, tail->cols.rows());
    tail->start = 0;
  }
}

Result<ScanView> IncrementalFeatureState::ScanWithBackfill(
    const EventArchive& archive, EventTypeId type, const TimeInterval& interval,
    DegradationReport* degradation, const CancelToken* cancel) const {
  std::vector<DegradationReport> reports(1);
  EXSTREAM_ASSIGN_OR_RETURN(
      std::vector<ScanView> views,
      ScanIntervalsWithBackfill(archive, type, {interval}, &reports, cancel));
  if (degradation != nullptr) degradation->Merge(reports[0]);
  return std::move(views[0]);
}

Result<std::vector<ScanView>> IncrementalFeatureState::ScanIntervalsWithBackfill(
    const EventArchive& archive, EventTypeId type,
    const std::vector<TimeInterval>& intervals,
    std::vector<DegradationReport>* degradations, const CancelToken* cancel,
    DecodedChunks* decoded) const {
  const size_t n = intervals.size();
  // Per interval: the part the tail serves ([floor, upper], or all of it)
  // and the part the archive serves (the cold prefix [lower, floor-1], or
  // all of it on a miss).
  std::vector<TimeInterval> tail_part(n);
  std::vector<char> from_tail(n, 0);
  std::vector<TimeInterval> archive_parts;
  std::vector<size_t> archive_owner;  // interval of each archive part
  std::shared_ptr<const ChunkColumns> slice;
  const TypeTail* tail = type < tails_.size() ? tails_[type].get() : nullptr;
  {
    std::unique_lock<std::mutex> lock;
    if (tail != nullptr) lock = std::unique_lock<std::mutex>(tail->mu);
    size_t lo = 0, hi = 0;
    for (size_t k = 0; k < n; ++k) {
      const TimeInterval& interval = intervals[k];
      const bool covered = tail != nullptr && tail->has_floor;
      if (covered && (interval.lower >= tail->floor || interval.upper >= tail->floor)) {
        from_tail[k] = 1;
        if (interval.lower >= tail->floor) {
          // Entirely covered by the tail: no archive locks, no spill I/O.
          tail_part[k] = interval;
          full_hits_.fetch_add(1, std::memory_order_relaxed);
        } else {
          // Archive rows below the floor are strictly older than every tail
          // row, so appending the tail segment last keeps global time order.
          tail_part[k] = TimeInterval{tail->floor, interval.upper};
          archive_parts.push_back(TimeInterval{interval.lower, tail->floor - 1});
          archive_owner.push_back(k);
          partial_hits_.fetch_add(1, std::memory_order_relaxed);
        }
        const auto [klo, khi] = tail->cols.RowRange(tail_part[k]);
        if (khi > klo) {
          lo = hi > lo ? std::min(lo, klo) : klo;
          hi = std::max(hi, khi);
        }
      } else {
        archive_parts.push_back(interval);
        archive_owner.push_back(k);
        misses_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    // One deep copy of the tail rows every interval needs (the same cost
    // class as the archive's open-tail snapshot).
    if (hi > lo) slice = std::make_shared<ChunkColumns>(tail->cols.Slice(lo, hi));
  }

  std::vector<ScanView> views(n);
  if (!archive_parts.empty()) {
    std::vector<DegradationReport> reports(archive_parts.size());
    EXSTREAM_ASSIGN_OR_RETURN(
        std::vector<ScanView> cold,
        archive.ScanIntervals(type, archive_parts, &reports, cancel,
                              /*resolution=*/0, decoded));
    for (size_t j = 0; j < archive_parts.size(); ++j) {
      views[archive_owner[j]] = std::move(cold[j]);
      if (degradations != nullptr) (*degradations)[archive_owner[j]].Merge(reports[j]);
    }
  }
  if (slice != nullptr) {
    for (size_t k = 0; k < n; ++k) {
      if (!from_tail[k]) continue;
      const auto [lo, hi] = slice->RowRange(tail_part[k]);
      if (hi > lo) {
        views[k].segments.push_back(
            ScanView::Segment{slice, lo, hi, views[k].segments.size()});
      }
    }
  }
  return views;
}

IncrementalFeatureState::Stats IncrementalFeatureState::stats() const {
  Stats s;
  s.full_hits = full_hits_.load(std::memory_order_relaxed);
  s.partial_hits = partial_hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.events_buffered = events_buffered_.load(std::memory_order_relaxed);
  s.events_evicted = events_evicted_.load(std::memory_order_relaxed);
  s.disorder_resets = disorder_resets_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace exstream
