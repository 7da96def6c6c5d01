// Sample statistics the benchmark reports: percentiles that carry their
// sample count, and rates taken as medians over windows, so that a few
// stalled windows (another tenant taking the CPU for some milliseconds)
// do not move them the way they move a mean.

#pragma once

#include <cstddef>
#include <vector>

namespace pipebench {

/// \brief A percentile of a sample set together with the set's size, so a
/// reader can tell how many samples lie beyond it.
struct Percentiles {
  size_t count = 0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

/// \brief Nearest-rank percentile: the smallest sample with at least `q`
/// (0 < q <= 1) of all samples at or below it. 0 for an empty set.
double Percentile(std::vector<double> samples, double q);

/// Median, p95 and p99 of `samples`, with the sample count.
Percentiles Summarize(const std::vector<double>& samples);

/// Samples strictly greater than the nearest-rank percentile `q`.
size_t SamplesBeyond(const std::vector<double>& samples, double q);

/// Median of `values` (mean of the middle two for an even count).
double Median(std::vector<double> values);

/// \brief Median over consecutive windows of `window` items of (sum of
/// `amounts`) / (sum of `seconds`). A trailing partial window counts only
/// when it is the only one. 0 when there is nothing to measure.
double MedianWindowRate(const std::vector<double>& amounts,
                        const std::vector<double>& seconds, size_t window);

/// \brief Median, over the whole seconds [k, k + 1) of a phase lasting
/// `phase_s`, of how many of `times_s` (seconds from the phase's start) fall
/// into each. Counts every time when the phase is shorter than a second.
double MedianPerSecond(const std::vector<double>& times_s, double phase_s);

}  // namespace pipebench
