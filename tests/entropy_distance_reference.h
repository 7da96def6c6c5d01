// Reference implementation of the entropy distance (paper Sec. 4.3), kept
// only as a differential oracle for the sort-once merge kernel in
// src/ts/entropy_distance.cc.
//
// It is the straightforward formulation: tag every point with its class,
// sort the tagged points together, group equal values, then merge groups of
// equal ownership into segments. The production kernel must reproduce every
// field of its result bit for bit (see entropy_distance_test.cc for the one
// documented exception: the sign of a zero segment edge).

#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "ts/entropy_distance.h"

namespace exstream {
namespace reference {

inline double PLog(double p) {
  if (p <= 0.0) return 0.0;
  return -p * std::log(p) / 0.6931471805599453;
}

inline double WorstCaseMixedEntropy(size_t abnormal, size_t reference,
                                    size_t total_points) {
  const size_t minority = std::min(abnormal, reference);
  const size_t majority = std::max(abnormal, reference);
  const double total = static_cast<double>(total_points);
  double h = 0.0;
  h += static_cast<double>(minority) * PLog(1.0 / total);
  const size_t chunks = (majority == minority) ? minority : minority + 1;
  if (chunks == 0) return h;
  const size_t base = majority / chunks;
  const size_t extra = majority % chunks;
  for (size_t i = 0; i < chunks; ++i) {
    const size_t sz = base + (i < extra ? 1 : 0);
    if (sz > 0) h += PLog(static_cast<double>(sz) / total);
  }
  return h;
}

inline EntropyDistanceResult ComputeEntropyDistance(
    const std::vector<double>& abnormal_values,
    const std::vector<double>& reference_values) {
  EntropyDistanceResult out;
  out.abnormal_count = abnormal_values.size();
  out.reference_count = reference_values.size();
  const size_t total = out.abnormal_count + out.reference_count;
  if (out.abnormal_count == 0 || out.reference_count == 0) return out;

  const double pa = static_cast<double>(out.abnormal_count) / static_cast<double>(total);
  const double pr = static_cast<double>(out.reference_count) / static_cast<double>(total);
  out.class_entropy = PLog(pa) + PLog(pr);

  struct Point {
    double value;
    bool abnormal;
  };
  std::vector<Point> points;
  points.reserve(total);
  for (double v : abnormal_values) points.push_back({v, true});
  for (double v : reference_values) points.push_back({v, false});
  std::sort(points.begin(), points.end(),
            [](const Point& a, const Point& b) { return a.value < b.value; });

  struct Group {
    double value;
    size_t abnormal;
    size_t reference;
    SegmentClass cls() const {
      if (abnormal > 0 && reference > 0) return SegmentClass::kMixed;
      return abnormal > 0 ? SegmentClass::kAbnormalOnly : SegmentClass::kReferenceOnly;
    }
  };
  std::vector<Group> groups;
  for (const Point& p : points) {
    if (!groups.empty() && groups.back().value == p.value) {
      if (p.abnormal) {
        ++groups.back().abnormal;
      } else {
        ++groups.back().reference;
      }
    } else {
      groups.push_back({p.value, p.abnormal ? size_t{1} : size_t{0},
                        p.abnormal ? size_t{0} : size_t{1}});
    }
  }

  for (const Group& g : groups) {
    const SegmentClass cls = g.cls();
    if (!out.segments.empty() && out.segments.back().cls == cls) {
      Segment& s = out.segments.back();
      s.max_value = g.value;
      s.abnormal_points += g.abnormal;
      s.reference_points += g.reference;
    } else {
      out.segments.push_back(Segment{cls, g.value, g.value, g.abnormal, g.reference});
    }
  }

  double h_seg = 0.0;
  double penalty = 0.0;
  for (const Segment& s : out.segments) {
    h_seg += PLog(static_cast<double>(s.TotalPoints()) / static_cast<double>(total));
    if (s.cls == SegmentClass::kMixed) {
      penalty += WorstCaseMixedEntropy(s.abnormal_points, s.reference_points, total);
    }
  }
  out.segmentation_entropy = h_seg;
  out.regularized_entropy = h_seg + penalty;
  out.distance = out.regularized_entropy > 0.0
                     ? std::min(1.0, out.class_entropy / out.regularized_entropy)
                     : 0.0;
  return out;
}

}  // namespace reference
}  // namespace exstream
