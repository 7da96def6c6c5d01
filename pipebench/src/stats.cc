#include "stats.h"

#include <algorithm>
#include <cmath>

namespace pipebench {

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const size_t index = rank <= 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

Percentiles Summarize(const std::vector<double>& samples) {
  return Percentiles{samples.size(), Percentile(samples, 0.50),
                     Percentile(samples, 0.95), Percentile(samples, 0.99)};
}

size_t SamplesBeyond(const std::vector<double>& samples, double q) {
  const double threshold = Percentile(samples, q);
  return static_cast<size_t>(std::count_if(
      samples.begin(), samples.end(), [&](double v) { return v > threshold; }));
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double MedianWindowRate(const std::vector<double>& amounts,
                        const std::vector<double>& seconds, size_t window) {
  const size_t n = std::min(amounts.size(), seconds.size());
  if (n == 0 || window == 0) return 0.0;
  std::vector<double> rates;
  for (size_t begin = 0; begin < n; begin += window) {
    const size_t end = std::min(n, begin + window);
    if (end - begin < window && begin > 0) break;
    double amount = 0.0;
    double secs = 0.0;
    for (size_t i = begin; i < end; ++i) {
      amount += amounts[i];
      secs += seconds[i];
    }
    if (secs > 0) rates.push_back(amount / secs);
  }
  return Median(std::move(rates));
}

double MedianPerSecond(const std::vector<double>& times_s, double phase_s) {
  if (phase_s < 1.0) return phase_s > 0 ? static_cast<double>(times_s.size()) / phase_s : 0.0;
  std::vector<double> counts(static_cast<size_t>(phase_s), 0.0);
  for (const double t : times_s) {
    if (t >= 0 && t < static_cast<double>(counts.size())) counts[static_cast<size_t>(t)] += 1;
  }
  return Median(std::move(counts));
}

}  // namespace pipebench
