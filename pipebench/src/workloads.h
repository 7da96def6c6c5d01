// The benchmark's two workloads, each run end to end through XStreamSystem:
//
//   ingest-mixed   closed loop, one producer replaying a pre-generated
//                  24-hour stream (two passes, each on a new system); Q1 +
//                  200 seeded mixed queries + the detector's memory query;
//                  each incident explained inline right after its job ends.
//   explain-cold   set-up ingests a 12-hour history (measured), then a closed
//                  loop of 3 Explain clients (first asks, window drags and
//                  repeats) over the settled archive, its oldest part spilled.
//
// See pipebench/README.md for why each exists and what each metric means.

#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "trace.h"

namespace pipebench {

struct RunSettings {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string work_dir;    ///< where the WAL and spill directories go
  std::string trace_path;  ///< traced runs write their spans here (if set)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunOutcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Output checks that failed, one line each.
  std::vector<std::string> problems;
  /// Context printed with the result (sample counts, sizes, paths).
  std::vector<std::pair<std::string, std::string>> info;
};

const std::vector<std::string>& WorkloadNames();

/// \brief One layer's share of a traced run.
struct LayerRow {
  std::string name;
  double busy_s = 0.0;  ///< self time
  double share = 0.0;   ///< busy_s over the attribution basis
  uint64_t calls = 0;
};

struct LayerAttribution {
  std::vector<LayerRow> rows;
  /// Root-span time, less the explain stages that were re-run for timing.
  double basis_s = 0.0;
  /// Share of the basis that no layer span covers.
  double unattributed_share = 0.0;
};

/// \brief Per-layer self time and share of a traced run's spans. The explain
/// stages with a public entry point are re-run for timing after the engine
/// returns; validation, which has none, is the engine's time minus theirs.
LayerAttribution AttributeLayers(const std::vector<Span>& spans);

/// Runs one workload; the untraced run when !settings.trace, otherwise a
/// shorter untraced run followed by replays of the same work through the
/// hand-composed pipeline, untraced and traced.
RunOutcome RunWorkload(const RunSettings& settings);

}  // namespace pipebench
