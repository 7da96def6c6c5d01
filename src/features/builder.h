// FeatureBuilder: materializes features over an interval from the archive
// (the "feature generation" stage of the explanation module, Fig. 19b).

#pragma once

#include <vector>

#include "archive/archive.h"
#include "common/deadline.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "features/feature.h"
#include "features/incremental.h"

namespace exstream {

/// \brief Builds feature time series by replaying archived events.
///
/// Events of each (type, attribute) pair are scanned once per build (for
/// all of its intervals) and shared across all aggregates/windows derived
/// from that pair, so the archive read amplification is independent of the
/// feature-space size and of the number of intervals.
///
/// By default scans go through the archive's columnar ScanView path: raw
/// series are folded straight off pinned ts/value column spans, with no
/// per-event materialization. `use_legacy_row_scan` switches to the row
/// `Scan` shim — same output bit for bit, kept as the A/B baseline for
/// determinism tests and benchmarks.
///
/// With `recent` set, exact-resolution scans are answered from the
/// incremental in-memory tail when it covers the interval (archive scans
/// remain the backfill for cold prefixes). Rows are byte-identical either
/// way, so features — and the explanations built from them — do not change;
/// tiered scans and the legacy row path always go straight to the archive.
class FeatureBuilder {
 public:
  explicit FeatureBuilder(const EventArchive* archive,
                          bool use_legacy_row_scan = false,
                          const IncrementalFeatureState* recent = nullptr)
      : archive_(archive),
        use_legacy_row_scan_(use_legacy_row_scan),
        recent_(recent) {}

  /// \brief Materializes each spec over `interval`.
  ///
  /// Features whose underlying attribute produced no samples in the interval
  /// are still returned (with an empty series); downstream reward computation
  /// treats empty-vs-nonempty contrast via count features.
  ///
  /// When `pool` is non-null, the three stages (archive scans, raw-series
  /// derivation, per-spec aggregation) each fan out over the pool. Every
  /// stage writes into index-addressed slots, so the output is identical to
  /// the serial run regardless of thread count.
  ///
  /// `cancel`, when non-null, is polled cooperatively inside and between the
  /// stages; an expired token makes Build return Status::DeadlineExceeded
  /// with the stage reached. `degradation`, when non-null, accumulates what
  /// the underlying archive scans had to skip (quarantined chunks).
  ///
  /// `allow_tiers` lets scans be answered from the archive's downsampled
  /// tiers: each event type's fixed-window aggregate specs share a scan that
  /// declares the gcd of their windows as its resolution, and sealed chunks
  /// carrying an aligned tier contribute pre-aggregated windows instead of
  /// raw rows (no spill read, no row folding). Raw specs (and non-positive
  /// windows) scan separately at exact resolution, so a feature space that
  /// mixes raw and windowed features still tiers the windowed ones. Tiered
  /// aggregation uses absolute-aligned windows, so results can differ from
  /// the default series-anchored windows — callers opt in per scan (e.g.
  /// reference-interval pools) and never for the abnormal interval, whose
  /// explanation must be bit-identical to raw. A scan whose chunks carry no
  /// aligned tier silently takes the exact path.
  ///
  /// `decoded`, when non-null, memoizes spilled-chunk decodes across the
  /// scans of one analysis (see DecodedChunks). Build is the one-interval
  /// call of BuildIntervals.
  Result<std::vector<Feature>> Build(const std::vector<FeatureSpec>& specs,
                                     const TimeInterval& interval,
                                     ThreadPool* pool = nullptr,
                                     const CancelToken* cancel = nullptr,
                                     DegradationReport* degradation = nullptr,
                                     bool allow_tiers = false,
                                     DecodedChunks* decoded = nullptr) const;

  /// \brief Materializes each spec over each interval with one scan per
  /// (event type, scan slot) for all of them: `out[k]` is what Build(specs,
  /// intervals[k], ...) returns, bit for bit. Intervals may come in any order
  /// and may repeat, overlap or abut.
  ///
  /// An interval whose `materialize` entry is 0 is scanned but not built
  /// (`out[k]` stays empty): the caller already holds its features and wants
  /// only its scan accounting. `degradation` receives, interval by interval
  /// and scan slot by scan slot, what separate Build calls would have
  /// reported, so a chunk that several intervals overlap counts once per
  /// interval. The other parameters are Build's.
  Result<std::vector<std::vector<Feature>>> BuildIntervals(
      const std::vector<FeatureSpec>& specs,
      const std::vector<TimeInterval>& intervals,
      const std::vector<char>& materialize, ThreadPool* pool = nullptr,
      const CancelToken* cancel = nullptr, DegradationReport* degradation = nullptr,
      bool allow_tiers = false, DecodedChunks* decoded = nullptr) const;

  /// \brief Materializes one spec over `interval`.
  Result<Feature> BuildOne(const FeatureSpec& spec, const TimeInterval& interval) const;

 private:
  const EventArchive* archive_;  // not owned
  bool use_legacy_row_scan_ = false;
  const IncrementalFeatureState* recent_ = nullptr;  // not owned, may be null
};

}  // namespace exstream
