#include "queries.h"

#include "common/rng.h"
#include "common/strings.h"
#include "scenario.h"

namespace pipebench {

namespace {

using exstream::StrFormat;

struct Metric {
  const char* type;
  const char* attr;
  double base;   ///< simulator baseline
  double noise;  ///< simulator noise scale
  double sign;   ///< direction an incident moves it (+1 up, -1 down)
};

// Node metrics and how an incident shifts them (sim/hadoop_sim.cc).
constexpr Metric kMetrics[] = {
    {"CpuUsage", "cpuUsage", 25, 4, +1},    {"CpuUsage", "load", 2, 0.4, +1},
    {"MemUsage", "memFree", 9000, 250, -1}, {"MemUsage", "swapFree", 3800, 40, -1},
    {"DiskUsage", "diskIOPercent", 12, 3, +1}, {"DiskUsage", "bytesWritten", 20, 4, +1},
    {"NetUsage", "bytesIn", 30, 6, +1},     {"NetUsage", "bytesOut", 30, 6, +1},
};
constexpr const char* kAggs[] = {"sum", "avg", "min", "max", "count"};
constexpr const char* kTaskPairs[][2] = {{"MapStart", "MapFinish"},
                                         {"PullStart", "PullFinish"}};

// A threshold a few noise units beyond the baseline, in the incident's
// direction: quiet nodes rarely cross it, interfered nodes always do. The
// grid is coarse on purpose, so some draws coincide and merge.
std::string Threshold(const Metric& m, exstream::Rng* rng) {
  const double k = static_cast<double>(rng->UniformInt(3, 8));
  return StrFormat("%g", m.base + m.sign * k * m.noise);
}

}  // namespace

std::vector<QuerySpec> MixedQueries(uint64_t seed, size_t count) {
  exstream::Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
  std::vector<QuerySpec> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    std::string text;
    const int64_t shape = rng.UniformInt(0, 9);
    // Node-metric watches name one node, as a per-machine dashboard does;
    // that also keeps their match rows to one node's incidents.
    const auto node = static_cast<long long>(rng.UniformInt(0, 29));
    if (shape <= 4) {
      // Two consecutive readings of one node past a threshold.
      const Metric& m = kMetrics[rng.UniformInt(0, std::size(kMetrics) - 1)];
      const std::string thr = Threshold(m, &rng);
      const char* op = m.sign > 0 ? ">" : "<";
      text = StrFormat(
          "PATTERN SEQ(%s a, %s b) WHERE [clusterNodeNumber] AND "
          "a.clusterNodeNumber = %lld AND a.%s %s %s AND b.%s %s %s WITHIN %lld "
          "RETURN (a.timestamp, b.%s)",
          m.type, m.type, node, m.attr, op, thr.c_str(), m.attr, op, thr.c_str(),
          static_cast<long long>(5 * rng.UniformInt(1, 4)), m.attr);
    } else if (shape <= 6) {
      // One node's reading of one metric followed by another metric.
      const Metric& a = kMetrics[rng.UniformInt(0, std::size(kMetrics) - 1)];
      const Metric& b = kMetrics[rng.UniformInt(0, std::size(kMetrics) - 1)];
      const std::string thr = Threshold(a, &rng);
      text = StrFormat(
          "PATTERN SEQ(%s a, %s b) WHERE [clusterNodeNumber] AND "
          "a.clusterNodeNumber = %lld AND a.%s %s %s WITHIN %lld "
          "RETURN (a.timestamp, a.%s, b.%s)",
          a.type, b.type, node, a.attr, a.sign > 0 ? ">" : "<", thr.c_str(),
          static_cast<long long>(5 * rng.UniformInt(1, 6)), a.attr, b.attr);
    } else if (shape <= 8) {
      // Task lifetimes, keyed by job or by node.
      const auto& pair = kTaskPairs[rng.UniformInt(0, 1)];
      const char* key = rng.Chance(0.5) ? "jobId" : "clusterNodeNumber";
      text = StrFormat(
          "PATTERN SEQ(%s a, %s b) WHERE [%s] AND a.taskId >= %lld WITHIN %lld "
          "RETURN (a.jobId, a.timestamp, b.timestamp)",
          pair[0], pair[1], key, static_cast<long long>(rng.UniformInt(0, 10)),
          static_cast<long long>(60 * rng.UniformInt(1, 10)));
    } else {
      // Running aggregate of a job's large data chunks (the one Kleene
      // template: rows grow with the job, not with the node metrics).
      const char* agg = kAggs[rng.UniformInt(0, std::size(kAggs) - 1)];
      text = StrFormat(
          "PATTERN SEQ(JobStart a, DataIO+ b[], JobEnd c) WHERE [jobId] AND "
          "b.dataSize > %g RETURN (a.jobId, %s(b[1..i].dataSize))",
          1.0 + 0.5 * static_cast<double>(rng.UniformInt(0, 1)), agg);
    }
    out.push_back(QuerySpec{StrFormat("M%03zu", i), std::move(text)});
  }
  return out;
}

std::vector<QuerySpec> Q1Replicas(size_t count) {
  std::vector<QuerySpec> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    out.push_back(QuerySpec{StrFormat("Q1r%03zu", i), kQ1Text});
  }
  return out;
}

}  // namespace pipebench
