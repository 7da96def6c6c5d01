// Single-feature reward computation over annotated intervals (Sec. 4).

#pragma once

#include <vector>

#include "common/deadline.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "features/builder.h"
#include "features/feature.h"
#include "ts/entropy_distance.h"

namespace exstream {

/// \brief A feature with its interval series and entropy-distance reward.
struct RankedFeature {
  FeatureSpec spec;
  TimeSeries abnormal_series;
  TimeSeries reference_series;
  EntropyDistanceResult entropy;

  /// The single-feature reward D(f) of Eq. 4.
  double reward() const { return entropy.distance; }
};

/// \brief Materializes every spec over both annotated intervals, computes
/// entropy rewards, and returns features sorted by reward descending
/// (stable: spec order breaks ties deterministically).
///
/// \param min_support features with fewer samples than this in either
///        interval get reward 0 — a 3-point "perfect separation" is noise,
///        not signal
/// \param pool when non-null, feature materialization and the per-feature
///        entropy distances fan out over the pool; results are merged in
///        spec order, so the ranking is identical to the serial run
/// \param cancel when non-null, polled cooperatively; expiry yields
///        Status::DeadlineExceeded with the stage reached
/// \param degradation when non-null, accumulates chunks the archive scans
///        had to skip (see EventArchive::Scan)
/// \param tiered_reference when true, the reference-interval build may fold
///        from archive tiers (FeatureBuilder::Build allow_tiers); the
///        abnormal interval always reads exact rows
/// \param decoded when non-null, memoizes spilled-chunk decodes across both
///        builds (and any later scans of the same analysis)
Result<std::vector<RankedFeature>> ComputeFeatureRewards(
    const FeatureBuilder& builder, const std::vector<FeatureSpec>& specs,
    const TimeInterval& abnormal, const TimeInterval& reference,
    size_t min_support = 5, ThreadPool* pool = nullptr,
    const CancelToken* cancel = nullptr, DegradationReport* degradation = nullptr,
    bool tiered_reference = false, DecodedChunks* decoded = nullptr);

/// \brief Reward computation on pre-built, aligned feature vectors. Takes the
/// features by value and moves their series into the ranked output (pass
/// std::move when the inputs are no longer needed — the hot path does; a
/// plain lvalue call still copies). With an expired `cancel` token the result
/// is truncated mid-ranking; callers that pass a token must check it
/// afterwards.
std::vector<RankedFeature> RankFeatures(std::vector<Feature> abnormal,
                                        std::vector<Feature> reference,
                                        size_t min_support = 5,
                                        ThreadPool* pool = nullptr,
                                        const CancelToken* cancel = nullptr);

/// \brief Total sample count of a ranked feature (both intervals).
inline size_t FeatureSupport(const RankedFeature& f) {
  return f.abnormal_series.size() + f.reference_series.size();
}

}  // namespace exstream
