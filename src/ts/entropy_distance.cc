#include "ts/entropy_distance.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>

namespace exstream {

namespace {

constexpr double kLog2 = 0.6931471805599453;  // ln(2)

// p * log2(1/p), with the 0 * log(1/0) = 0 convention.
double PLog(double p) {
  if (p <= 0.0) return 0.0;
  return -p * std::log(p) / kLog2;
}

// Entropy contribution of the worst-case (uniform interleaving) ordering of a
// mixed segment: the minority class spreads as singletons, splitting the
// majority class into as-even-as-possible chunks (paper: 3N+2A ->
// (N,A,N,A,N)). Sub-segment probabilities are relative to the whole feature's
// point count, consistent with Eq. 2.
double WorstCaseMixedEntropy(size_t abnormal, size_t reference, size_t total_points) {
  const size_t minority = std::min(abnormal, reference);
  const size_t majority = std::max(abnormal, reference);
  const double total = static_cast<double>(total_points);
  double h = 0.0;
  // Minority singletons.
  h += static_cast<double>(minority) * PLog(1.0 / total);
  // Majority chunks: if counts are equal, strict alternation gives `minority`
  // majority chunks of size 1; otherwise minority singletons cut the majority
  // into minority + 1 chunks.
  const size_t chunks = (majority == minority) ? minority : minority + 1;
  if (chunks == 0) return h;
  const size_t base = majority / chunks;
  const size_t extra = majority % chunks;  // first `extra` chunks get one more
  // Chunks come in two sizes only, so two logs cover them all; the terms are
  // still added one chunk at a time, so the rounding matches a chunk-by-chunk
  // sum.
  const double larger = PLog(static_cast<double>(base + 1) / total);
  const double smaller = PLog(static_cast<double>(base) / total);
  for (size_t i = 0; i < extra; ++i) h += larger;
  if (base > 0) {
    for (size_t i = extra; i < chunks; ++i) h += smaller;
  }
  return h;
}

// Inputs shorter than this are sorted with std::sort: below it the radix
// sort's per-pass histogram work outweighs the comparisons it saves.
constexpr size_t kRadixCutoff = 128;

// Order-preserving bit image of a double: flipping the sign bit of
// non-negative values and every bit of negative ones makes unsigned key
// order the numeric order (-0.0 sorts just below +0.0).
uint64_t ToKey(double v) {
  const uint64_t bits = std::bit_cast<uint64_t>(v);
  return bits ^ ((bits >> 63) != 0 ? ~uint64_t{0} : uint64_t{1} << 63);
}

double FromKey(uint64_t key) {
  return std::bit_cast<double>(key ^ ((key >> 63) != 0 ? uint64_t{1} << 63 : ~uint64_t{0}));
}

// First index k > i at which `pred` fails, given that it holds at s[i] and,
// s being sorted, on a prefix of the rest.
template <typename Pred>
size_t RunEnd(std::span<const double> s, size_t i, Pred pred) {
  size_t k = i + 1;
  while (k < s.size() && pred(s[k])) ++k;
  return k;
}

// The kernel every caller shares: one merge of the two ascending sides, in
// value order. All abnormal values below the next reference value form one
// abnormal-only run (and vice versa); a value present on both sides is a
// mixed group. A run or group extends the open segment or, when ownership
// changes, closes it. A closed segment adds its term to H_seg (Eq. 2) and,
// if mixed, its worst-case penalty (Eq. 3) in value order, so the sums come
// out in one pass with no point or group array. Closed segments are kept
// only if `keep_segments`.
EntropyDistanceResult MergeSorted(std::span<const double> a, std::span<const double> r,
                                  bool keep_segments) {
  EntropyDistanceResult out;
  out.abnormal_count = a.size();
  out.reference_count = r.size();
  if (a.empty() || r.empty()) {
    // No contrast between classes; reward is zero by definition.
    return out;
  }
  const size_t total = a.size() + r.size();
  const double total_d = static_cast<double>(total);

  // Class entropy (Eq. 1).
  out.class_entropy = PLog(static_cast<double>(a.size()) / total_d) +
                      PLog(static_cast<double>(r.size()) / total_d);

  double h_seg = 0.0;
  double penalty = 0.0;
  Segment open;
  auto close = [&] {
    h_seg += PLog(static_cast<double>(open.TotalPoints()) / total_d);
    if (open.cls == SegmentClass::kMixed) {
      penalty += WorstCaseMixedEntropy(open.abnormal_points, open.reference_points, total);
    }
    if (keep_segments) out.segments.push_back(open);
  };
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() || j < r.size()) {
    Segment run;
    if (j == r.size() || (i < a.size() && a[i] < r[j])) {
      const size_t end = j == r.size()
                             ? a.size()
                             : RunEnd(a, i, [bound = r[j]](double x) { return x < bound; });
      run = Segment{SegmentClass::kAbnormalOnly, a[i], a[end - 1], end - i, 0};
      i = end;
    } else if (i == a.size() || r[j] < a[i]) {
      const size_t end = i == a.size()
                             ? r.size()
                             : RunEnd(r, j, [bound = a[i]](double x) { return x < bound; });
      run = Segment{SegmentClass::kReferenceOnly, r[j], r[end - 1], 0, end - j};
      j = end;
    } else {
      // a[i] == r[j]: every point holding that value, on both sides. (-0.0
      // and 0.0 are one value.) Each side advances by at least one point,
      // so unordered values (NaN) cannot stall the merge.
      const double v = a[i];
      const auto at_most_v = [v](double x) { return x <= v; };
      const size_t end_a = RunEnd(a, i, at_most_v);
      const size_t end_r = RunEnd(r, j, at_most_v);
      run = Segment{SegmentClass::kMixed, v, v, end_a - i, end_r - j};
      i = end_a;
      j = end_r;
    }
    if (open.TotalPoints() > 0 && open.cls == run.cls) {
      open.max_value = run.max_value;
      open.abnormal_points += run.abnormal_points;
      open.reference_points += run.reference_points;
    } else {
      if (open.TotalPoints() > 0) close();
      open = run;
    }
  }
  close();
  out.segmentation_entropy = h_seg;
  out.regularized_entropy = h_seg + penalty;

  // Distance (Eq. 4). H+ >= H_class always holds for non-degenerate inputs;
  // clamp defensively for floating-point wiggle.
  out.distance = out.regularized_entropy > 0.0
                     ? std::min(1.0, out.class_entropy / out.regularized_entropy)
                     : 0.0;
  return out;
}

// Writes `in` sorted ascending to `out[0, in.size())`.
void SortInto(std::span<const double> in, double* out) {
  const size_t n = in.size();
  if (n < kRadixCutoff) {
    std::copy(in.begin(), in.end(), out);
    std::sort(out, out + n);
    return;
  }
  // LSD radix sort, one byte per pass, over the order-preserving bit image.
  // A byte that is the same in every key (the exponent of values of one
  // magnitude, the low mantissa bytes of integers) is neither counted nor
  // moved.
  std::unique_ptr<uint64_t[]> buffer(new uint64_t[2 * n]);
  uint64_t* src = buffer.get();
  uint64_t* dst = src + n;
  uint64_t differing = 0;
  for (size_t k = 0; k < n; ++k) {
    src[k] = ToKey(in[k]);
    differing |= src[k] ^ src[0];
  }
  std::array<unsigned, 8> shifts;
  size_t passes = 0;
  for (unsigned shift = 0; shift < 64; shift += 8) {
    if (((differing >> shift) & 0xff) != 0) shifts[passes++] = shift;
  }
  if (passes == 0) {  // every value the same
    std::copy(in.begin(), in.end(), out);
    return;
  }
  std::array<std::array<size_t, 256>, 8> counts;
  for (size_t p = 0; p < passes; ++p) counts[p].fill(0);
  for (size_t k = 0; k < n; ++k) {
    for (size_t p = 0; p < passes; ++p) ++counts[p][(src[k] >> shifts[p]) & 0xff];
  }
  for (size_t p = 0; p < passes; ++p) {
    const unsigned shift = shifts[p];
    std::array<size_t, 256>& next = counts[p];
    size_t offset = 0;
    for (size_t& c : next) {
      const size_t here = c;
      c = offset;
      offset += here;
    }
    if (p + 1 == passes) {
      // The last pass scatters straight into `out`, decoding as it goes.
      for (size_t k = 0; k < n; ++k) out[next[(src[k] >> shift) & 0xff]++] = FromKey(src[k]);
    } else {
      for (size_t k = 0; k < n; ++k) dst[next[(src[k] >> shift) & 0xff]++] = src[k];
      std::swap(src, dst);
    }
  }
}

}  // namespace

std::string_view SegmentClassToString(SegmentClass c) {
  switch (c) {
    case SegmentClass::kAbnormalOnly:
      return "abnormal";
    case SegmentClass::kReferenceOnly:
      return "reference";
    case SegmentClass::kMixed:
      return "mixed";
  }
  return "unknown";
}

EntropyDistanceResult ComputeEntropyDistance(
    const std::vector<double>& abnormal_values,
    const std::vector<double>& reference_values) {
  // Both sorted sides share one allocation.
  const size_t na = abnormal_values.size();
  std::vector<double> sorted(na + reference_values.size());
  SortInto(abnormal_values, sorted.data());
  SortInto(reference_values, sorted.data() + na);
  const std::span<const double> all(sorted);
  return MergeSorted(all.first(na), all.subspan(na), /*keep_segments=*/true);
}

double SortedEntropyDistance(std::span<const double> abnormal_sorted,
                             std::span<const double> reference_sorted) {
  return MergeSorted(abnormal_sorted, reference_sorted, /*keep_segments=*/false).distance;
}

std::vector<double> SortedValues(std::span<const double> values) {
  std::vector<double> out(values.size());
  SortInto(values, out.data());
  return out;
}

EntropyDistanceResult ComputeEntropyDistance(const TimeSeries& abnormal,
                                             const TimeSeries& reference) {
  return ComputeEntropyDistance(abnormal.values(), reference.values());
}

std::vector<AbnormalRange> ExtractAbnormalRanges(const EntropyDistanceResult& result,
                                                 double min_fraction,
                                                 size_t min_points) {
  std::vector<AbnormalRange> ranges;
  const auto& segs = result.segments;
  const size_t required = std::max(
      min_points, static_cast<size_t>(min_fraction *
                                      static_cast<double>(result.abnormal_count)));
  for (size_t i = 0; i < segs.size(); ++i) {
    if (segs[i].cls != SegmentClass::kAbnormalOnly) continue;
    if (segs[i].abnormal_points < required) continue;  // noise blip
    AbnormalRange r;
    if (i > 0) {
      r.has_lower = true;
      r.lower = (segs[i - 1].max_value + segs[i].min_value) / 2.0;
    }
    if (i + 1 < segs.size()) {
      r.has_upper = true;
      r.upper = (segs[i].max_value + segs[i + 1].min_value) / 2.0;
    }
    ranges.push_back(r);
  }
  return ranges;
}

}  // namespace exstream
