#include "explain/labeling.h"

#include <bit>
#include <cmath>
#include <cstdint>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace exstream {
namespace {

// Series with samples every `step` around the given level.
TimeSeries Level(double level, Timestamp start, Timestamp end, Timestamp step,
                 uint64_t seed = 1) {
  Rng rng(seed);
  TimeSeries s;
  for (Timestamp t = start; t <= end; t += step) {
    (void)s.Append(t, level + rng.Gaussian(0, 0.05));
  }
  return s;
}

CandidateInterval Candidate(const char* partition, TimeSeries series) {
  CandidateInterval c;
  c.partition = partition;
  c.range = {series.empty() ? 0 : series.start_time(),
             series.empty() ? 0 : series.end_time()};
  c.series = std::move(series);
  return c;
}

TEST(IntervalDistanceTest, SimilarIntervalsClose) {
  const TimeSeries a = Level(10, 0, 100, 2, 1);
  const TimeSeries b = Level(10, 200, 300, 2, 2);
  EXPECT_LT(IntervalDistance(a, b), 0.45);
}

TEST(IntervalDistanceTest, DifferentValuesFar) {
  const TimeSeries a = Level(10, 0, 100, 2, 1);
  const TimeSeries b = Level(50, 200, 300, 2, 2);
  EXPECT_GT(IntervalDistance(a, b), 0.45);
}

TEST(IntervalDistanceTest, FrequencyDifferenceCounts) {
  // Same values, very different sampling rates (the paper's 3.7 vs 50.1).
  const TimeSeries dense = Level(10, 0, 100, 1, 1);
  const TimeSeries sparse = Level(10, 0, 100, 20, 2);
  LabelingOptions options;
  options.entropy_weight = 0.0;
  options.frequency_weight = 1.0;
  EXPECT_GT(IntervalDistance(dense, sparse, options), 0.8);
}

TEST(IntervalDistanceTest, EmptySeriesMaximallyFar) {
  EXPECT_DOUBLE_EQ(IntervalDistance(TimeSeries(), Level(1, 0, 10, 1)), 1.0);
}

TEST(IntervalDistanceMatrixTest, EqualsPairwiseIntervalDistance) {
  // The matrix sorts each series once and merges pairs; every cell must be
  // the exact double IntervalDistance returns for that pair. Levels overlap
  // so entropy distances land strictly between 0 and 1, values are rounded
  // so sides share values (mixed segments), and one series is empty.
  std::vector<TimeSeries> owned;
  Rng rng(5);
  for (int k = 0; k < 12; ++k) {
    const Timestamp step = 1 + rng.UniformInt(0, 4);
    const Timestamp start = 100 * k;
    const Timestamp end = start + 10 + rng.UniformInt(0, 300);
    TimeSeries s;
    for (Timestamp t = start; t <= end; t += step) {
      (void)s.Append(t, std::round(rng.Gaussian(k % 3, 1.5) * 4) / 4);
    }
    owned.push_back(std::move(s));
  }
  owned.emplace_back();
  std::vector<const TimeSeries*> series;
  for (const TimeSeries& s : owned) series.push_back(&s);

  for (const LabelingOptions& options :
       {LabelingOptions{}, LabelingOptions{0.35, 1.0, 0.0}, LabelingOptions{0.35, 0.2, 0.8}}) {
    const DistanceMatrix dist = IntervalDistanceMatrix(series, options);
    ASSERT_EQ(dist.size(), series.size());
    for (size_t i = 0; i < series.size(); ++i) {
      EXPECT_EQ(dist.at(i, i), 0.0);
      for (size_t j = i + 1; j < series.size(); ++j) {
        const double want = IntervalDistance(*series[i], *series[j], options);
        EXPECT_EQ(std::bit_cast<uint64_t>(dist.at(i, j)), std::bit_cast<uint64_t>(want))
            << "pair " << i << "," << j;
        EXPECT_EQ(dist.at(j, i), dist.at(i, j));
      }
    }
  }
}

TEST(LabelingTest, CandidatesInheritNearestAnnotationLabel) {
  // Annotated abnormal: low values sampled sparsely. Annotated reference:
  // high values sampled densely. Candidates resembling each get the matching
  // label.
  const CandidateInterval abnormal = Candidate("pA", Level(2, 0, 100, 10, 1));
  const CandidateInterval reference = Candidate("pA", Level(50, 100, 200, 2, 2));
  std::vector<CandidateInterval> candidates = {
      Candidate("p1", Level(2.1, 0, 100, 10, 3)),   // like the anomaly
      Candidate("p2", Level(49, 300, 400, 2, 4)),   // like the reference
  };
  auto labeled = LabelIntervals(abnormal, reference, candidates);
  ASSERT_TRUE(labeled.ok());
  ASSERT_EQ(labeled->size(), 2u);
  EXPECT_EQ((*labeled)[0].label, IntervalLabel::kAbnormal);
  EXPECT_EQ((*labeled)[1].label, IntervalLabel::kReference);
}

TEST(LabelingTest, IndistinguishableAnnotationsDiscardEverything) {
  // If the annotated abnormal and reference look the same, no candidate can
  // be labeled with certainty.
  const CandidateInterval abnormal = Candidate("pA", Level(10, 0, 100, 2, 1));
  const CandidateInterval reference = Candidate("pA", Level(10, 100, 200, 2, 2));
  std::vector<CandidateInterval> candidates = {
      Candidate("p1", Level(10, 300, 400, 2, 3))};
  auto labeled = LabelIntervals(abnormal, reference, candidates);
  ASSERT_TRUE(labeled.ok());
  EXPECT_EQ((*labeled)[0].label, IntervalLabel::kDiscarded);
}

TEST(LabelingTest, FarFromBothIsResolvedByRelativeDistance) {
  const CandidateInterval abnormal = Candidate("pA", Level(2, 0, 100, 2, 1));
  const CandidateInterval reference = Candidate("pA", Level(50, 100, 200, 2, 2));
  // A candidate at value 40: its own cluster, but clearly closer to the
  // reference side.
  std::vector<CandidateInterval> candidates = {
      Candidate("p1", Level(40, 300, 400, 2, 3))};
  LabelingOptions options;
  options.cut_threshold = 0.2;  // force separate clusters
  auto labeled = LabelIntervals(abnormal, reference, candidates, options);
  ASSERT_TRUE(labeled.ok());
  EXPECT_NE((*labeled)[0].label, IntervalLabel::kAbnormal);
}

TEST(LabelingTest, NoCandidates) {
  const CandidateInterval abnormal = Candidate("pA", Level(2, 0, 100, 2, 1));
  const CandidateInterval reference = Candidate("pA", Level(50, 100, 200, 2, 2));
  auto labeled = LabelIntervals(abnormal, reference, {});
  ASSERT_TRUE(labeled.ok());
  EXPECT_TRUE(labeled->empty());
}

TEST(LabelingTest, LabelNames) {
  EXPECT_EQ(IntervalLabelToString(IntervalLabel::kAbnormal), "abnormal");
  EXPECT_EQ(IntervalLabelToString(IntervalLabel::kReference), "reference");
  EXPECT_EQ(IntervalLabelToString(IntervalLabel::kDiscarded), "discarded");
}

}  // namespace
}  // namespace exstream
