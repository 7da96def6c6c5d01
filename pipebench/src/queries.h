// Seeded generator of the mixed monitoring-query set: many queries that
// differ in partition key, predicate thresholds, WITHIN windows and RETURN
// aggregates, so the engine's merge planner faces many distinct groups
// instead of the one group identical Q1 replicas collapse into.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pipebench {

struct QuerySpec {
  std::string name;
  std::string text;
};

/// \brief `count` queries drawn from a handful of templates over the Hadoop
/// simulator's event types. Deterministic in `seed`. No template streams a
/// row per node-metric event, so match tables stay small over hours of
/// input.
std::vector<QuerySpec> MixedQueries(uint64_t seed, size_t count);

/// `count` copies of Q1 under distinct names (the merge planner's best case).
std::vector<QuerySpec> Q1Replicas(size_t count);

}  // namespace pipebench
