// Reference Explain for differential tests of Step 2 (Sec. 5.2).
//
// It runs the pipeline one interval at a time: the rank stage builds each
// annotated interval on its own, and Step 2 rebuilds every labeled
// interval — the annotated pair included — with its own
// FeatureBuilder::Build call, one archive or tail scan per (interval, event
// type, scan slot), then pools the values interval by interval. Everything
// runs serially and no scan shares a decoded chunk with another. It is the
// definition ExplanationEngine must reproduce bit for bit: the ranking,
// every ValidatedFeature, the explanation and the degradation report. It
// fetches the monitored series of the annotated partitions once per side.
//
// Its one-interval builds run on the same archive and tail scans as the
// engine's (Build is the one-interval call of BuildIntervals), so only the
// pooling and the sharing of scans and decodes are checked independently.
// The scans themselves are pinned against data that no scan produced:
// ValidationOnePassTest.RawFeaturesMatchTheEventStream (raw features of
// every pooled interval against the simulator's events), archive_test's
// ScanColumnsMatchesRowScan and incremental_features_test's
// FullHitMatchesArchiveScan and BuilderDifferentialAcrossPaths.

#pragma once

#include <string>
#include <utility>
#include <vector>

#include "explain/alignment.h"
#include "explain/engine.h"
#include "explain/predicate_builder.h"

namespace exstream {

class ReferenceExplainer {
 public:
  /// Same arguments as ExplanationEngine; options.num_threads is ignored.
  ReferenceExplainer(const EventArchive* archive, const PartitionTable* partitions,
                     SeriesProvider series_provider, ExplainOptions options,
                     const IncrementalFeatureState* recent = nullptr)
      : partitions_(partitions),
        series_provider_(std::move(series_provider)),
        options_(std::move(options)),
        specs_(GenerateFeatureSpecs(archive->registry(), options_.feature_space)),
        builder_(archive, options_.use_legacy_row_scan,
                 options_.use_legacy_row_scan ? nullptr : recent) {}

  /// `pooled`, when non-null, receives Step 2's pooled intervals: the
  /// abnormal ones, then the reference ones, each starting with the
  /// annotated interval.
  Result<ExplanationReport> Explain(const AnomalyAnnotation& annotation,
                                    std::vector<TimeInterval>* pooled = nullptr) const {
    ExplanationReport report;
    report.annotation = annotation;
    EXSTREAM_ASSIGN_OR_RETURN(
        std::vector<Feature> fa,
        builder_.Build(specs_, annotation.abnormal.range, nullptr, nullptr,
                       &report.degradation));
    EXSTREAM_ASSIGN_OR_RETURN(
        std::vector<Feature> fr,
        builder_.Build(specs_, annotation.reference.range, nullptr, nullptr,
                       &report.degradation, options_.tiered_reference_scans));
    report.ranked = RankFeatures(std::move(fa), std::move(fr), options_.min_support);
    report.after_leap = RewardLeapFilter(report.ranked, options_.leap);

    if (options_.enable_validation && partitions_ != nullptr && series_provider_) {
      EXSTREAM_RETURN_NOT_OK(Validate(annotation, &report, pooled));
    } else {
      for (const RankedFeature& f : report.after_leap) {
        ValidatedFeature v;
        v.feature = f;
        v.annotated_reward = f.reward();
        v.validated_reward = f.reward();
        v.kept = f.reward() >= options_.validation_min_reward;
        if (v.kept) report.after_validation.push_back(f);
        report.validation.push_back(std::move(v));
      }
    }

    if (options_.enable_clustering) {
      report.clustering =
          CorrelationClusterFilter(report.after_validation, options_.correlation);
      report.final_features = report.clustering.representatives;
    } else {
      report.final_features = report.after_validation;
      report.clustering.cluster_labels.assign(report.after_validation.size(), 0);
      report.clustering.num_clusters =
          static_cast<int>(report.after_validation.size());
    }
    EXSTREAM_ASSIGN_OR_RETURN(report.explanation,
                              BuildExplanation(report.final_features));
    if (report.degradation.degraded()) {
      report.explanation.MarkDegraded(report.degradation.ToString());
    }
    return report;
  }

 private:
  Status Validate(const AnomalyAnnotation& annotation, ExplanationReport* report,
                  std::vector<TimeInterval>* pooled) const {
    std::vector<TimeInterval> abnormal_intervals = {annotation.abnormal.range};
    std::vector<TimeInterval> reference_intervals = {annotation.reference.range};

    auto annotated_rec =
        partitions_->Get(annotation.abnormal.query, annotation.abnormal.partition);
    if (annotated_rec.ok()) {
      auto abn_series_r = series_provider_(annotation.abnormal.query,
                                           annotation.abnormal.partition);
      auto ref_series_r = series_provider_(annotation.reference.query,
                                           annotation.reference.partition);
      if (abn_series_r.ok() && ref_series_r.ok()) {
        const TimeSeries& abn_series = *abn_series_r;
        const TimeSeries& ref_series = *ref_series_r;
        CandidateInterval annotated_abnormal{
            annotation.abnormal.partition, annotation.abnormal.range,
            abn_series.Slice(annotation.abnormal.range)};
        CandidateInterval annotated_reference{
            annotation.reference.partition, annotation.reference.range,
            ref_series.Slice(annotation.reference.range)};
        const std::vector<PartitionRecord> related =
            partitions_->FindRelated(*annotated_rec);
        report->num_related_partitions = related.size();

        std::vector<CandidateInterval> candidates;
        const TimeInterval& ia = annotation.abnormal.range;
        std::vector<TimeInterval> remainders;
        if (!abn_series.empty()) {
          remainders.push_back({abn_series.start_time(), ia.lower - 1});
          remainders.push_back({ia.upper + 1, abn_series.end_time()});
        }
        for (TimeInterval rem : remainders) {
          if (annotation.reference.partition == annotation.abnormal.partition) {
            const TimeInterval& ir = annotation.reference.range;
            if (ir.lower <= rem.lower && ir.upper >= rem.upper) continue;
            if (ir.lower > rem.lower && ir.lower <= rem.upper) rem.upper = ir.lower - 1;
            if (ir.upper < rem.upper && ir.upper >= rem.lower) rem.lower = ir.upper + 1;
          }
          if (rem.upper <= rem.lower) continue;
          CandidateInterval cand;
          cand.partition = annotation.abnormal.partition;
          cand.range = rem;
          cand.series = abn_series.Slice(rem);
          if (cand.series.size() >= options_.min_support) {
            candidates.push_back(std::move(cand));
          }
        }
        for (const PartitionRecord& rel : related) {
          auto rel_series_r = series_provider_(rel.query_name, rel.partition);
          if (!rel_series_r.ok()) continue;
          for (const TimeInterval& src :
               {annotation.abnormal.range, annotation.reference.range}) {
            auto aligned = AlignAnnotation(*annotated_rec, abn_series, src, rel,
                                           *rel_series_r);
            if (!aligned.ok()) continue;
            CandidateInterval cand;
            cand.partition = rel.partition;
            cand.range = aligned->range;
            cand.series = rel_series_r->Slice(aligned->range);
            if (cand.series.empty()) continue;
            candidates.push_back(std::move(cand));
          }
        }
        if (!candidates.empty()) {
          EXSTREAM_ASSIGN_OR_RETURN(
              const std::vector<LabeledInterval> labeled,
              LabelIntervals(annotated_abnormal, annotated_reference, candidates,
                             options_.labeling));
          for (const LabeledInterval& li : labeled) {
            switch (li.label) {
              case IntervalLabel::kAbnormal:
                abnormal_intervals.push_back(li.candidate.range);
                ++report->num_labeled_abnormal;
                break;
              case IntervalLabel::kReference:
                reference_intervals.push_back(li.candidate.range);
                ++report->num_labeled_reference;
                break;
              case IntervalLabel::kDiscarded:
                ++report->num_discarded;
                break;
            }
          }
        }
      }
    }

    if (pooled != nullptr) {
      *pooled = abnormal_intervals;
      pooled->insert(pooled->end(), reference_intervals.begin(),
                     reference_intervals.end());
    }
    std::vector<FeatureSpec> survivor_specs;
    for (const RankedFeature& f : report->after_leap) survivor_specs.push_back(f.spec);
    std::vector<std::vector<double>> abnormal_pool(survivor_specs.size());
    std::vector<std::vector<double>> reference_pool(survivor_specs.size());
    auto accumulate = [&](const std::vector<TimeInterval>& intervals,
                          std::vector<std::vector<double>>* value_pool,
                          bool allow_tiers) -> Status {
      for (const TimeInterval& interval : intervals) {
        EXSTREAM_ASSIGN_OR_RETURN(
            const std::vector<Feature> feats,
            builder_.Build(survivor_specs, interval, nullptr, nullptr,
                           &report->degradation, allow_tiers));
        for (size_t i = 0; i < feats.size(); ++i) {
          const auto& vals = feats[i].series.values();
          (*value_pool)[i].insert((*value_pool)[i].end(), vals.begin(), vals.end());
        }
      }
      return Status::OK();
    };
    EXSTREAM_RETURN_NOT_OK(accumulate(abnormal_intervals, &abnormal_pool, false));
    EXSTREAM_RETURN_NOT_OK(accumulate(reference_intervals, &reference_pool,
                                      options_.tiered_reference_scans));

    for (size_t i = 0; i < report->after_leap.size(); ++i) {
      ValidatedFeature v;
      v.feature = report->after_leap[i];
      v.annotated_reward = v.feature.reward();
      v.feature.entropy = ComputeEntropyDistance(abnormal_pool[i], reference_pool[i]);
      v.validated_reward = v.feature.entropy.distance;
      v.kept = v.validated_reward >= options_.validation_min_reward;
      if (v.kept) report->after_validation.push_back(v.feature);
      report->validation.push_back(std::move(v));
    }
    return Status::OK();
  }

  const PartitionTable* partitions_;  // not owned, may be null
  SeriesProvider series_provider_;
  ExplainOptions options_;
  std::vector<FeatureSpec> specs_;
  FeatureBuilder builder_;
};

}  // namespace exstream
