#include "ts/entropy_distance.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "entropy_distance_reference.h"

namespace exstream {
namespace {

TEST(EntropyDistanceTest, PerfectSeparationScoresOne) {
  // All abnormal values strictly below all reference values (Fig. 10's first
  // two features).
  const auto res = ComputeEntropyDistance({1, 2, 3}, {10, 11, 12});
  EXPECT_DOUBLE_EQ(res.distance, 1.0);
  EXPECT_TRUE(res.PerfectSeparation());
  ASSERT_EQ(res.segments.size(), 2u);
  EXPECT_EQ(res.segments[0].cls, SegmentClass::kAbnormalOnly);
  EXPECT_EQ(res.segments[1].cls, SegmentClass::kReferenceOnly);
}

TEST(EntropyDistanceTest, EmptySideScoresZero) {
  EXPECT_DOUBLE_EQ(ComputeEntropyDistance({}, {1, 2}).distance, 0.0);
  EXPECT_DOUBLE_EQ(ComputeEntropyDistance({1, 2}, {}).distance, 0.0);
  EXPECT_DOUBLE_EQ(
      ComputeEntropyDistance(std::vector<double>{}, std::vector<double>{}).distance,
      0.0);
}

TEST(EntropyDistanceTest, ClassEntropyBalanced) {
  // Balanced classes -> H_class = 1 bit.
  const auto res = ComputeEntropyDistance({1, 2}, {3, 4});
  EXPECT_NEAR(res.class_entropy, 1.0, 1e-12);
}

TEST(EntropyDistanceTest, ClassEntropySkewed) {
  // 1 abnormal of 5 -> H = 0.2*log2(5) + 0.8*log2(1.25).
  const auto res = ComputeEntropyDistance({1}, {2, 3, 4, 5});
  const double expected = 0.2 * std::log2(5.0) + 0.8 * std::log2(1.25);
  EXPECT_NEAR(res.class_entropy, expected, 1e-12);
}

TEST(EntropyDistanceTest, IdenticalValuesFormSingleMixedSegment) {
  // Every point shares one value: the worst separation. One mixed segment,
  // zero segmentation entropy, positive penalty -> small distance.
  const auto res = ComputeEntropyDistance({5, 5, 5}, {5, 5, 5});
  ASSERT_EQ(res.segments.size(), 1u);
  EXPECT_EQ(res.segments[0].cls, SegmentClass::kMixed);
  EXPECT_DOUBLE_EQ(res.segmentation_entropy, 0.0);
  EXPECT_GT(res.regularized_entropy, 0.0);
  // Worst-case interleaving of 3+3 identical points: 6 singleton segments
  // -> penalty = log2(6); D = 1 / log2(6).
  EXPECT_NEAR(res.distance, 1.0 / std::log2(6.0), 1e-9);
}

TEST(EntropyDistanceTest, WorstCasePenaltyPaperExample) {
  // Paper Sec. 4.3: a mixed segment with 3 N and 2 A distributes uniformly
  // as (N,A,N,A,N): 5 unit segments. With only this segment in the feature,
  // H+ = 5 * (1/5) log2(5) = log2(5).
  const auto res = ComputeEntropyDistance({7, 7}, {7, 7, 7});
  ASSERT_EQ(res.segments.size(), 1u);
  EXPECT_NEAR(res.regularized_entropy, std::log2(5.0), 1e-9);
}

TEST(EntropyDistanceTest, InterleavedDistinctValuesScoreLow) {
  // Alternating distinct values: many segments, low reward.
  const auto interleaved = ComputeEntropyDistance({1, 3, 5, 7}, {2, 4, 6, 8});
  const auto separated = ComputeEntropyDistance({1, 2, 3, 4}, {5, 6, 7, 8});
  EXPECT_LT(interleaved.distance, separated.distance);
  EXPECT_LT(interleaved.distance, 0.5);
  EXPECT_DOUBLE_EQ(separated.distance, 1.0);
}

TEST(EntropyDistanceTest, PartialMixingIntermediate) {
  // Mostly separated with one shared value: between the extremes.
  const auto res = ComputeEntropyDistance({1, 2, 3, 5}, {5, 8, 9, 10});
  EXPECT_GT(res.distance, 0.3);
  EXPECT_LT(res.distance, 1.0);
}

TEST(EntropyDistanceTest, OrderInvariance) {
  // Set-based measure: shuffling sample order cannot change the result.
  const auto a = ComputeEntropyDistance({3, 1, 2}, {9, 7, 8});
  const auto b = ComputeEntropyDistance({1, 2, 3}, {7, 8, 9});
  EXPECT_DOUBLE_EQ(a.distance, b.distance);
}

TEST(EntropyDistanceTest, PaperLockStepCounterexample) {
  // Sec. 4.2: TS1=(1,1,1) vs TS2=(0,0,0) should be farther apart than
  // TS3=(1,0,1) vs TS4=(0,1,0); lock-step measures see them as equal, the
  // entropy distance does not.
  const auto d12 = ComputeEntropyDistance({1, 1, 1}, {0, 0, 0});
  const auto d34 = ComputeEntropyDistance({1, 0, 1}, {0, 1, 0});
  EXPECT_GT(d12.distance, d34.distance);
  EXPECT_DOUBLE_EQ(d12.distance, 1.0);
}

TEST(EntropyDistanceTest, SymmetryUnderClassSwapWithEqualSizes) {
  const auto ab = ComputeEntropyDistance({1, 2, 5}, {4, 8, 9});
  const auto ba = ComputeEntropyDistance({4, 8, 9}, {1, 2, 5});
  EXPECT_DOUBLE_EQ(ab.distance, ba.distance);
}

TEST(EntropyDistanceTest, TimeSeriesOverloadMatchesVectors) {
  TimeSeries a;
  TimeSeries r;
  for (int i = 0; i < 5; ++i) {
    (void)a.Append(i, i);
    (void)r.Append(i, i + 10);
  }
  EXPECT_DOUBLE_EQ(ComputeEntropyDistance(a, r).distance, 1.0);
}

TEST(AbnormalRangesTest, SingleBoundaryPerfectSeparation) {
  // Abnormal low, reference high: one predicate `f <= midpoint` (Sec. 5.4).
  const auto res = ComputeEntropyDistance({1, 2, 3}, {9, 10});
  const auto ranges = ExtractAbnormalRanges(res);
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_FALSE(ranges[0].has_lower);
  ASSERT_TRUE(ranges[0].has_upper);
  EXPECT_DOUBLE_EQ(ranges[0].upper, 6.0);  // midpoint of 3 and 9
}

TEST(AbnormalRangesTest, AbnormalAboveYieldsLowerBound) {
  const auto res = ComputeEntropyDistance({9, 10}, {1, 2, 3});
  const auto ranges = ExtractAbnormalRanges(res);
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_TRUE(ranges[0].has_lower);
  EXPECT_FALSE(ranges[0].has_upper);
  EXPECT_DOUBLE_EQ(ranges[0].lower, 6.0);
}

TEST(AbnormalRangesTest, MultipleAbnormalIntervals) {
  // Abnormal at both extremes, reference in the middle: two ranges -> the
  // paper's disjunctive clause f <= c1 OR (f >= c2).
  const auto res = ComputeEntropyDistance({1, 2, 20, 21}, {10, 11, 12});
  const auto ranges = ExtractAbnormalRanges(res);
  ASSERT_EQ(ranges.size(), 2u);
  EXPECT_FALSE(ranges[0].has_lower);
  EXPECT_TRUE(ranges[0].has_upper);
  EXPECT_TRUE(ranges[1].has_lower);
  EXPECT_FALSE(ranges[1].has_upper);
}

TEST(AbnormalRangesTest, FullyMixedYieldsNoRanges) {
  const auto res = ComputeEntropyDistance({5, 5}, {5, 5});
  EXPECT_TRUE(ExtractAbnormalRanges(res).empty());
}

TEST(SegmentClassTest, Names) {
  EXPECT_EQ(SegmentClassToString(SegmentClass::kAbnormalOnly), "abnormal");
  EXPECT_EQ(SegmentClassToString(SegmentClass::kReferenceOnly), "reference");
  EXPECT_EQ(SegmentClassToString(SegmentClass::kMixed), "mixed");
}

// Property sweep: for random inputs, D in [0,1]; H+ >= H_seg; segment point
// counts sum to the input size; monotone response to separation shift.
class EntropyPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EntropyPropertyTest, Invariants) {
  Rng rng(GetParam());
  std::vector<double> a;
  std::vector<double> r;
  const int n = 30 + static_cast<int>(rng.UniformInt(0, 50));
  for (int i = 0; i < n; ++i) {
    a.push_back(std::round(rng.Gaussian(0, 2)));
    r.push_back(std::round(rng.Gaussian(1, 2)));
  }
  const auto res = ComputeEntropyDistance(a, r);
  EXPECT_GE(res.distance, 0.0);
  EXPECT_LE(res.distance, 1.0);
  EXPECT_GE(res.regularized_entropy, res.segmentation_entropy - 1e-12);
  size_t points = 0;
  for (const Segment& s : res.segments) points += s.TotalPoints();
  EXPECT_EQ(points, a.size() + r.size());

  // Shifting the reference away increases (or keeps) the reward.
  std::vector<double> far = r;
  for (double& v : far) v += 100.0;
  EXPECT_GE(ComputeEntropyDistance(a, far).distance, res.distance - 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EntropyPropertyTest,
                         ::testing::Range(uint64_t{1}, uint64_t{13}));

// --- Differential check against the reference implementation ---------------
//
// The production kernel sorts each side on its own and merges; the reference
// tags, sorts and groups all points together. Every field must agree bit for
// bit. One exception is legitimate: -0.0 and 0.0 compare equal, so they fall
// into one value group in both implementations, but which of the two becomes
// the group's value depends on where each sort puts it. A zero segment edge
// (min_value/max_value) may therefore differ in sign; it is compared with ==.
// Nothing else is loosened.

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

void ExpectIdenticalToReference(const std::vector<double>& a,
                                const std::vector<double>& r) {
  const EntropyDistanceResult want = reference::ComputeEntropyDistance(a, r);
  const EntropyDistanceResult got = ComputeEntropyDistance(a, r);
  EXPECT_EQ(Bits(got.class_entropy), Bits(want.class_entropy));
  EXPECT_EQ(Bits(got.segmentation_entropy), Bits(want.segmentation_entropy));
  EXPECT_EQ(Bits(got.regularized_entropy), Bits(want.regularized_entropy));
  EXPECT_EQ(Bits(got.distance), Bits(want.distance));
  EXPECT_EQ(got.abnormal_count, want.abnormal_count);
  EXPECT_EQ(got.reference_count, want.reference_count);
  ASSERT_EQ(got.segments.size(), want.segments.size());
  auto same_edge = [](double g, double w) {
    return w == 0.0 ? g == 0.0 : Bits(g) == Bits(w);
  };
  for (size_t k = 0; k < want.segments.size(); ++k) {
    const Segment& g = got.segments[k];
    const Segment& w = want.segments[k];
    EXPECT_EQ(g.cls, w.cls) << "segment " << k;
    EXPECT_TRUE(same_edge(g.min_value, w.min_value))
        << "segment " << k << " min " << g.min_value << " vs " << w.min_value;
    EXPECT_TRUE(same_edge(g.max_value, w.max_value))
        << "segment " << k << " max " << g.max_value << " vs " << w.max_value;
    EXPECT_EQ(g.abnormal_points, w.abnormal_points) << "segment " << k;
    EXPECT_EQ(g.reference_points, w.reference_points) << "segment " << k;
  }
  // The distance-only entry point over pre-sorted sides.
  EXPECT_EQ(Bits(SortedEntropyDistance(SortedValues(a), SortedValues(r))),
            Bits(want.distance));
}

enum class Shape { kContinuous, kHeavyTies, kAllEqual, kNegative, kZerosAndDenormals };

std::vector<double> Draw(Rng& rng, Shape shape, size_t n, double shift) {
  constexpr double kDenormal = std::numeric_limits<double>::denorm_min();
  const double specials[] = {-0.0, 0.0, kDenormal, -kDenormal, 3 * kDenormal,
                             std::numeric_limits<double>::min(), -1.0, 1.0};
  const double level = std::round(rng.Uniform(-3, 3));
  std::vector<double> v(n);
  for (double& x : v) {
    switch (shape) {
      case Shape::kContinuous:
        x = rng.Gaussian(shift, 1.0);
        break;
      case Shape::kHeavyTies:
        x = static_cast<double>(rng.UniformInt(0, 3)) + shift;
        break;
      case Shape::kAllEqual:
        x = level;
        break;
      case Shape::kNegative:
        x = -std::fabs(rng.Gaussian(shift, 1e3)) - 1e-9;
        break;
      case Shape::kZerosAndDenormals:
        x = specials[rng.UniformInt(0, std::size(specials) - 1)];
        break;
    }
  }
  return v;
}

// Sizes on both sides of the radix cutoff (128): short sides take std::sort,
// long ones the radix sort, and a pair may mix the two.
constexpr size_t kSizes[] = {1, 2, 7, 64, 127, 128, 129, 300, 2000};

class EntropyDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EntropyDifferentialTest, MatchesReferenceBitForBit) {
  Rng rng(GetParam());
  for (Shape shape : {Shape::kContinuous, Shape::kHeavyTies, Shape::kAllEqual,
                      Shape::kNegative, Shape::kZerosAndDenormals}) {
    for (size_t na : kSizes) {
      const size_t nr = kSizes[rng.UniformInt(0, std::size(kSizes) - 1)];
      const double shift = rng.Uniform(-1, 1);
      SCOPED_TRACE(::testing::Message() << "shape " << static_cast<int>(shape)
                                        << " sizes " << na << "/" << nr);
      ExpectIdenticalToReference(Draw(rng, shape, na, 0.0),
                                 Draw(rng, shape, nr, shift));
    }
  }
}

TEST_P(EntropyDifferentialTest, MixedShapesMatchReference) {
  // Each side drawn from a different shape: negative against zeros,
  // ties against continuous values, and so on.
  Rng rng(GetParam() + 1000);
  const Shape shapes[] = {Shape::kContinuous, Shape::kHeavyTies, Shape::kAllEqual,
                          Shape::kNegative, Shape::kZerosAndDenormals};
  for (int trial = 0; trial < 40; ++trial) {
    const Shape sa = shapes[rng.UniformInt(0, std::size(shapes) - 1)];
    const Shape sr = shapes[rng.UniformInt(0, std::size(shapes) - 1)];
    const size_t na = kSizes[rng.UniformInt(0, std::size(kSizes) - 1)];
    const size_t nr = kSizes[rng.UniformInt(0, std::size(kSizes) - 1)];
    SCOPED_TRACE(::testing::Message() << "trial " << trial);
    ExpectIdenticalToReference(Draw(rng, sa, na, 0.0), Draw(rng, sr, nr, 0.5));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EntropyDifferentialTest,
                         ::testing::Range(uint64_t{1}, uint64_t{9}));

TEST(EntropyDifferentialTest, OneEmptySideMatchesReference) {
  Rng rng(7);
  for (size_t n : kSizes) {
    const std::vector<double> v = Draw(rng, Shape::kContinuous, n, 0.0);
    ExpectIdenticalToReference(v, {});
    ExpectIdenticalToReference({}, v);
  }
  ExpectIdenticalToReference({}, {});
}

TEST(EntropyDifferentialTest, AllEqualSidesMatchReference) {
  for (size_t n : kSizes) {
    ExpectIdenticalToReference(std::vector<double>(n, 4.0), std::vector<double>(n, 4.0));
    ExpectIdenticalToReference(std::vector<double>(n, 4.0), std::vector<double>(129, 5.0));
    ExpectIdenticalToReference(std::vector<double>(n, -0.0), std::vector<double>(n, 0.0));
  }
}

TEST(SortedValuesTest, AscendingPermutationOnBothSidesOfTheCutoff) {
  Rng rng(11);
  for (Shape shape : {Shape::kContinuous, Shape::kHeavyTies, Shape::kNegative,
                      Shape::kZerosAndDenormals}) {
    for (size_t n : kSizes) {
      const std::vector<double> in = Draw(rng, shape, n, 0.0);
      const std::vector<double> out = SortedValues(in);
      ASSERT_EQ(out.size(), in.size());
      EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
      // Same values, bit for bit, including the sign of every zero.
      std::vector<uint64_t> in_bits;
      std::vector<uint64_t> out_bits;
      for (double v : in) in_bits.push_back(Bits(v));
      for (double v : out) out_bits.push_back(Bits(v));
      std::sort(in_bits.begin(), in_bits.end());
      std::sort(out_bits.begin(), out_bits.end());
      EXPECT_EQ(in_bits, out_bits);
    }
  }
}

}  // namespace
}  // namespace exstream
