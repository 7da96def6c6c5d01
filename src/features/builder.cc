#include "features/builder.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "archive/tiers.h"
#include "common/strings.h"

namespace exstream {

namespace {

// Builds the raw (type, attribute) series from a scanned event vector.
TimeSeries RawSeries(const std::vector<Event>& events, size_t attr_index) {
  TimeSeries out;
  out.Reserve(events.size());
  for (const Event& e : events) {
    if (attr_index >= e.values.size()) continue;
    // Append drops NaN; out-of-order cannot occur because Scan returns
    // time-ordered events.
    (void)out.Append(e.ts, e.values[attr_index].AsDouble());
  }
  return out;
}

// Builds the raw (type, attribute) series straight off column spans: a walk
// over the pinned ts array and the attribute's contiguous numeric view, no
// Event materialization. Matches RawSeries bit for bit: a missing tag is the
// rows-with-fewer-values case RawSeries skips, and `nums` holds the same
// AsDouble conversion (NaN for strings, which Append drops either way).
TimeSeries RawSeriesFromView(const ScanView& view, size_t attr_index) {
  TimeSeries out;
  out.Reserve(view.rows());
  for (const ScanView::Segment& seg : view.segments) {
    const ChunkColumns& cols = *seg.columns;
    if (attr_index >= cols.num_columns()) continue;
    const AttributeColumn& col = cols.attr(attr_index);
    // Segments arrive in time order with sorted ts columns, so the whole
    // range bulk-appends; missing tags and NaN (string) values are skipped
    // inside, matching Append's per-sample drops bit for bit.
    out.AppendColumnRange(cols.ts().data() + seg.begin,
                          col.nums.data() + seg.begin,
                          col.tags.data() + seg.begin, kMissingValueTag,
                          seg.end - seg.begin);
  }
  return out;
}

// Count (frequency) features are defined over the *query interval*, not the
// series' own span: a window with no events is a real observation (count 0).
// This is what lets a fully silent sensor (the supply-chain "missing
// monitoring" anomaly) produce a maximally separating frequency feature
// instead of an empty series.
Result<TimeSeries> CountOverInterval(const TimeSeries& raw, Timestamp window,
                                     const TimeInterval& interval) {
  if (window <= 0) return Status::InvalidArgument("window must be positive");
  TimeSeries out;
  out.Reserve(static_cast<size_t>((interval.upper - interval.lower) / window) + 1);
  const auto& times = raw.times();
  size_t idx = 0;
  for (Timestamp wstart = interval.lower; wstart <= interval.upper; wstart += window) {
    const Timestamp wend = wstart + window;
    while (idx < times.size() && times[idx] < wstart) ++idx;
    size_t hi = idx;
    while (hi < times.size() && times[hi] < wend) ++hi;
    EXSTREAM_RETURN_NOT_OK(out.Append(wend, static_cast<double>(hi - idx)));
    idx = hi;
  }
  return out;
}

// One absolute-aligned aggregation window being folded from tier windows
// and/or raw rows. `count` counts numeric samples (matching what RawSeries
// keeps: NaN and missing rows are excluded everywhere).
struct WindowPartial {
  Timestamp wend = 0;
  uint64_t count = 0;
  double min = 0.0;
  double max = 0.0;
  double sum = 0.0;
  double sumsq = 0.0;
};

// Folds a tiered scan view into one spec's series: tier segments contribute
// pre-aggregated windows, raw segments (chunks without an aligned tier, the
// open tail) contribute rows, merged in chunk order via each segment's
// `order` stamp. Windows are absolute-aligned with length spec.window; a tier
// window nests entirely inside one aggregation window because its length
// divides the scan resolution, which divides every spec window of the type.
Result<TimeSeries> TieredAggregate(const ScanView& view, const FeatureSpec& spec,
                                   const TimeInterval& interval) {
  const Timestamp window = spec.window;
  if (window <= 0) return Status::InvalidArgument("window must be positive");
  std::vector<WindowPartial> partials;
  // Window ends arrive non-decreasing (rows are time-ordered within and
  // across chunks), so folding only ever extends or reuses the last partial.
  auto fold_into = [&partials](Timestamp wend) -> WindowPartial& {
    if (partials.empty() || partials.back().wend != wend) {
      partials.push_back(WindowPartial{wend});
    }
    return partials.back();
  };
  size_t ri = 0, ti = 0;
  while (ri < view.segments.size() || ti < view.tier_segments.size()) {
    const bool take_raw =
        ti >= view.tier_segments.size() ||
        (ri < view.segments.size() &&
         view.segments[ri].order < view.tier_segments[ti].order);
    if (take_raw) {
      const ScanView::Segment& seg = view.segments[ri++];
      const ChunkColumns& cols = *seg.columns;
      if (spec.attr_index >= cols.num_columns()) continue;
      const AttributeColumn& col = cols.attr(spec.attr_index);
      for (size_t i = seg.begin; i < seg.end; ++i) {
        const double v = col.nums[i];
        if (std::isnan(v)) continue;  // missing or string row
        WindowPartial& p = fold_into(TierWindowEnd(cols.ts()[i], window));
        if (p.count == 0) {
          p.min = p.max = v;
        } else {
          p.min = std::min(p.min, v);
          p.max = std::max(p.max, v);
        }
        p.sum += v;
        p.sumsq += v * v;
        ++p.count;
      }
    } else {
      const ScanView::TierSegment& seg = view.tier_segments[ti++];
      const TierColumns& tier = *seg.tier;
      if (spec.attr_index >= tier.attrs.size()) continue;
      const TierAttr& agg = tier.attrs[spec.attr_index];
      for (size_t i = seg.begin; i < seg.end; ++i) {
        if (agg.count[i] == 0) continue;  // no numeric sample in this window
        WindowPartial& p =
            fold_into(TierWindowEnd(tier.ts[i] - tier.window, window));
        if (p.count == 0) {
          p.min = agg.min[i];
          p.max = agg.max[i];
        } else {
          p.min = std::min(p.min, agg.min[i]);
          p.max = std::max(p.max, agg.max[i]);
        }
        p.sum += agg.sum[i];
        p.sumsq += agg.sumsq[i];
        p.count += agg.count[i];
      }
    }
  }

  std::vector<Timestamp> times;
  std::vector<double> vals;
  if (spec.agg == AggregateKind::kCount) {
    // Count features observe silence: every aligned window overlapping the
    // query interval emits a sample, zeros included (cf. CountOverInterval).
    size_t pi = 0;
    for (Timestamp wend = TierWindowEnd(interval.lower, window);
         wend - window <= interval.upper; wend += window) {
      while (pi < partials.size() && partials[pi].wend < wend) ++pi;
      const bool hit = pi < partials.size() && partials[pi].wend == wend;
      times.push_back(wend);
      vals.push_back(hit ? static_cast<double>(partials[pi].count) : 0.0);
    }
  } else {
    times.reserve(partials.size());
    vals.reserve(partials.size());
    for (const WindowPartial& p : partials) {
      if (p.count == 0) continue;
      const double n = static_cast<double>(p.count);
      double v = 0.0;
      switch (spec.agg) {
        case AggregateKind::kMean:
          v = p.sum / n;
          break;
        case AggregateKind::kSum:
          v = p.sum;
          break;
        case AggregateKind::kMin:
          v = p.min;
          break;
        case AggregateKind::kMax:
          v = p.max;
          break;
        case AggregateKind::kStdDev: {
          // Population stddev from moments; n < 2 is 0 by the repo-wide
          // convention (common/stats), and the max() guards the tiny negative
          // variance floating-point cancellation can produce.
          const double mean = p.sum / n;
          v = p.count < 2
                  ? 0.0
                  : std::sqrt(std::max(0.0, p.sumsq / n - mean * mean));
          break;
        }
        case AggregateKind::kRaw:
        case AggregateKind::kCount:
          break;  // unreachable: raw specs force the exact path, count above
      }
      times.push_back(p.wend);
      vals.push_back(v);
    }
  }
  TimeSeries out;
  out.AppendAggregatedSpan(times.data(), vals.data(), times.size());
  return out;
}

}  // namespace

Result<std::vector<Feature>> FeatureBuilder::Build(const std::vector<FeatureSpec>& specs,
                                                   const TimeInterval& interval,
                                                   ThreadPool* pool,
                                                   const CancelToken* cancel,
                                                   DegradationReport* degradation,
                                                   bool allow_tiers,
                                                   DecodedChunks* decoded) const {
  EXSTREAM_ASSIGN_OR_RETURN(
      std::vector<std::vector<Feature>> out,
      BuildIntervals(specs, {interval}, {1}, pool, cancel, degradation, allow_tiers,
                     decoded));
  return std::move(out[0]);
}

Result<std::vector<std::vector<Feature>>> FeatureBuilder::BuildIntervals(
    const std::vector<FeatureSpec>& specs, const std::vector<TimeInterval>& intervals,
    const std::vector<char>& materialize, ThreadPool* pool, const CancelToken* cancel,
    DegradationReport* degradation, bool allow_tiers, DecodedChunks* decoded) const {
  const size_t n = intervals.size();
  // Stage 1: scan each referenced event type once for all intervals (spilled
  // chunks mean disk I/O, so the scans themselves are worth parallelizing).
  // Each (slot, interval) gets its own degradation report; the serial merge
  // below keeps accumulation deterministic.
  // Slot assignment is array-based rather than hashed: spec lists repeat a
  // handful of types, so a linear probe over the dedup list beats hashing,
  // and the per-spec slot vectors make the later stages straight lookups.
  // With tiering allowed, a type's specs split into two slots: raw specs (and
  // non-positive windows, which must reach the classic error path) share an
  // exact-rows scan, while fixed-window aggregates share a resolution-aware
  // scan that the archive may answer from downsampled tiers. The declared
  // resolution is the gcd of the aggregate windows, so any tier whose window
  // divides it nests into every spec's aggregation windows. Without tiering
  // the split is inert (every spec maps to the type's single exact slot).
  const bool tiering = allow_tiers && !use_legacy_row_scan_;
  std::vector<EventTypeId> scan_types;
  std::vector<char> scan_wants_tier;  // parallel to scan_types
  std::vector<size_t> spec_scan(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    const EventTypeId type = specs[i].type;
    const char tiered = tiering && specs[i].agg != AggregateKind::kRaw &&
                        specs[i].window > 0;
    size_t slot = 0;
    while (slot < scan_types.size() &&
           (scan_types[slot] != type || scan_wants_tier[slot] != tiered)) {
      ++slot;
    }
    if (slot == scan_types.size()) {
      scan_types.push_back(type);
      scan_wants_tier.push_back(tiered);
    }
    spec_scan[i] = slot;
  }
  std::vector<Timestamp> scan_resolution(scan_types.size(), 0);
  for (size_t i = 0; i < specs.size(); ++i) {
    const size_t slot = spec_scan[i];
    if (scan_wants_tier[slot]) {
      scan_resolution[slot] = std::gcd(scan_resolution[slot], specs[i].window);
    }
  }
  // The intervals to build, in order.
  std::vector<size_t> built_intervals;
  for (size_t k = 0; k < n; ++k) {
    if (materialize[k]) built_intervals.push_back(k);
  }
  const size_t nb = built_intervals.size();

  // views[s][k]: slot s's scan of interval k. The legacy row path
  // materializes each built interval's rows from the same views
  // (rows[s][b]).
  std::vector<Result<std::vector<ScanView>>> views(scan_types.size(),
                                                   std::vector<ScanView>{});
  std::vector<std::vector<std::vector<Event>>> rows(
      use_legacy_row_scan_ ? scan_types.size() : 0);
  std::vector<std::vector<DegradationReport>> scan_degradation(
      scan_types.size(), std::vector<DegradationReport>(n));
  const size_t scans_done = ParallelFor(
      pool, scan_types.size(),
      [&](size_t s) {
        std::vector<DegradationReport>* deg =
            degradation != nullptr ? &scan_degradation[s] : nullptr;
        if (use_legacy_row_scan_) {
          views[s] = archive_->ScanIntervals(scan_types[s], intervals, deg, cancel,
                                             /*resolution=*/0, decoded);
          if (!views[s].ok()) return;
          rows[s].resize(nb);
          for (size_t b = 0; b < nb; ++b) {
            const ScanView& view = (*views[s])[built_intervals[b]];
            rows[s][b].reserve(view.rows());
            view.MaterializeEvents(&rows[s][b]);
          }
        } else if (recent_ != nullptr && scan_resolution[s] == 0) {
          // Exact-resolution scans may be served from the incremental tail
          // (cold prefixes backfill from the archive inside). Tiered slots
          // stay on the archive: a tier answer is not reproducible from the
          // raw tail without re-running the tier fold.
          views[s] = recent_->ScanIntervalsWithBackfill(*archive_, scan_types[s],
                                                        intervals, deg, cancel,
                                                        decoded);
        } else {
          views[s] = archive_->ScanIntervals(scan_types[s], intervals, deg, cancel,
                                             scan_resolution[s], decoded);
        }
      },
      cancel);
  if (degradation != nullptr) {
    for (size_t k = 0; k < n; ++k) {
      for (const auto& per_slot : scan_degradation) degradation->Merge(per_slot[k]);
    }
  }
  if (cancel != nullptr && cancel->Expired()) {
    return Status::DeadlineExceeded(
        StrFormat("feature build cancelled during archive scans (%zu/%zu types)",
                  scans_done, scan_types.size()));
  }
  for (const auto& view : views) EXSTREAM_RETURN_NOT_OK(view.status());
  // A slot's scan of an interval is tiered iff at least one chunk actually
  // answered from a tier; otherwise the view is raw-only and the classic fold
  // below stays bit-identical to an allow_tiers=false build.
  auto tiered = [&](size_t s, size_t k) {
    return !(*views[s])[k].tier_segments.empty();
  };

  // Stage 2: derive each (type, attr) raw series once per interval.
  std::vector<std::pair<size_t, size_t>> raw_pairs;  // (scan slot, attr)
  std::vector<size_t> spec_raw(specs.size());
  std::vector<std::vector<int64_t>> attr_slot(scan_types.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    std::vector<int64_t>& slots = attr_slot[spec_scan[i]];
    const size_t attr = specs[i].attr_index;
    if (attr >= slots.size()) slots.resize(attr + 1, -1);
    if (slots[attr] < 0) {
      slots[attr] = static_cast<int64_t>(raw_pairs.size());
      raw_pairs.emplace_back(spec_scan[i], attr);
    }
    spec_raw[i] = static_cast<size_t>(slots[attr]);
  }
  // Stages 2 and 3 run interval by interval, so only one interval's raw
  // series are alive at a time.
  const size_t np = raw_pairs.size();
  const size_t ns = specs.size();
  std::vector<std::vector<Feature>> out(n);
  for (size_t b = 0; b < nb; ++b) {
    const size_t k = built_intervals[b];
    const TimeInterval& interval = intervals[k];
    std::vector<TimeSeries> raws(np);
    const size_t raws_done = ParallelFor(
        pool, np,
        [&](size_t p) {
          const auto& [s, attr] = raw_pairs[p];
          if (tiered(s, k)) return;  // folded in stage 3
          raws[p] = use_legacy_row_scan_ ? RawSeries(rows[s][b], attr)
                                         : RawSeriesFromView((*views[s])[k], attr);
        },
        cancel);
    if (cancel != nullptr && cancel->Expired()) {
      return Status::DeadlineExceeded(
          StrFormat("feature build cancelled during raw-series derivation (%zu/%zu)",
                    raws_done, np));
    }

    // Stage 3: one aggregate per spec, into its own slot.
    std::vector<Result<Feature>> built(ns, Feature{});
    const size_t built_done = ParallelFor(pool, ns, [&](size_t i) {
      const FeatureSpec& s = specs[i];
      const TimeSeries& raw = raws[spec_raw[i]];
      Feature f;
      f.spec = s;
      if (tiered(spec_scan[i], k)) {
        // Tiered slots never carry raw specs (those pin the scan to exact
        // rows), so every spec here folds windows straight off the view.
        auto series = TieredAggregate((*views[spec_scan[i]])[k], s, interval);
        if (!series.ok()) {
          built[i] = series.status();
          return;
        }
        f.series = std::move(*series);
        built[i] = std::move(f);
        return;
      }
      if (s.agg == AggregateKind::kRaw) {
        f.series = raw;
      } else if (s.agg == AggregateKind::kCount) {
        auto series = CountOverInterval(raw, s.window, interval);
        if (!series.ok()) {
          built[i] = series.status();
          return;
        }
        f.series = std::move(*series);
      } else {
        auto series = ApplyWindowAggregate(raw, s.agg, s.window);
        if (!series.ok()) {
          built[i] = series.status();
          return;
        }
        f.series = std::move(*series);
      }
      built[i] = std::move(f);
    }, cancel);
    if (cancel != nullptr && cancel->Expired()) {
      return Status::DeadlineExceeded(
          StrFormat("feature build cancelled during aggregation (%zu/%zu specs)",
                    built_done, ns));
    }
    std::vector<Feature>& feats = out[k];
    feats.reserve(ns);
    for (Result<Feature>& f : built) {
      EXSTREAM_RETURN_NOT_OK(f.status());
      feats.push_back(std::move(*f));
    }
  }
  return out;
}

Result<Feature> FeatureBuilder::BuildOne(const FeatureSpec& spec,
                                         const TimeInterval& interval) const {
  EXSTREAM_ASSIGN_OR_RETURN(std::vector<Feature> feats,
                            Build(std::vector<FeatureSpec>{spec}, interval));
  return std::move(feats.front());
}

}  // namespace exstream
