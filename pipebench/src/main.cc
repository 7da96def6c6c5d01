// pipebench: the end-to-end pipeline benchmark.
//
//   pipebench --workload NAME --seed N --seconds S --trace 0|1
//             [--work-dir DIR] [--trace-file PATH]
//   pipebench --summarize TRACE.tsv [TRACE.tsv ...]
//
// A run prints context lines ("# key: value") and, last, one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}} with the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1). It
// exits non-zero when an output check fails. --summarize reads span files
// written by traced runs and prints each layer's self time and share per
// workload.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "workloads.h"

namespace {

int Usage() {
  fprintf(stderr,
          "usage: pipebench --workload NAME --seed N --seconds S --trace 0|1 "
          "[--work-dir DIR] [--trace-file PATH]\n"
          "       pipebench --summarize TRACE.tsv [TRACE.tsv ...]\n"
          "workloads: ingest-mixed explain-cold\n");
  return 2;
}

/// Machine-wide CPU ticks: (steal, total), from /proc/stat. Steal is time
/// the hypervisor gave this machine's CPUs to someone else.
std::pair<uint64_t, uint64_t> CpuTicks() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  uint64_t v[8] = {};
  f >> cpu >> v[0] >> v[1] >> v[2] >> v[3] >> v[4] >> v[5] >> v[6] >> v[7];
  uint64_t total = 0;
  for (const uint64_t x : v) total += x;
  return {v[7], total};
}

int Summarize(const std::vector<std::string>& paths) {
  const auto by_workload = pipebench::ReadSpans(paths);
  if (!by_workload.ok()) {
    fprintf(stderr, "%s\n", by_workload.status().ToString().c_str());
    return 1;
  }
  for (const auto& [workload, spans] : *by_workload) {
    const pipebench::LayerAttribution a = pipebench::AttributeLayers(spans);
    printf("%s  (basis %.4f s, %zu spans)\n", workload.c_str(), a.basis_s, spans.size());
    printf("  %-20s %12s %8s %10s\n", "layer", "self_s", "share", "calls");
    for (const pipebench::LayerRow& row : a.rows) {
      printf("  %-20s %12.6f %8.4f %10llu\n", row.name.c_str(), row.busy_s, row.share,
             static_cast<unsigned long long>(row.calls));
    }
    printf("  %-20s %12s %8.4f\n", "unattributed", "", a.unattributed_share);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 3 && strcmp(argv[1], "--summarize") == 0) {
    return Summarize(std::vector<std::string>(argv + 2, argv + argc));
  }
  pipebench::RunSettings settings;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      settings.workload = value;
    } else if (arg == "--seed") {
      settings.seed = strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (arg == "--seconds") {
      settings.seconds = strtod(value, &end);
      have_seconds = end != value && *end == '\0' && settings.seconds > 0;
    } else if (arg == "--trace") {
      have_trace = strcmp(value, "0") == 0 || strcmp(value, "1") == 0;
      settings.trace = strcmp(value, "1") == 0;
    } else if (arg == "--work-dir") {
      settings.work_dir = value;
    } else if (arg == "--trace-file") {
      settings.trace_path = value;
    } else {
      return Usage();
    }
  }
  bool known = false;
  for (const std::string& w : pipebench::WorkloadNames()) known |= w == settings.workload;
  if (!known || !have_seed || !have_seconds || !have_trace) return Usage();
  if (settings.work_dir.empty()) {
    settings.work_dir = ".bench_out/" + settings.workload + "-" +
                        std::to_string(settings.seed) + "-" + std::to_string(getpid());
  }

  const auto ticks_before = CpuTicks();
  pipebench::RunOutcome out = pipebench::RunWorkload(settings);
  const auto ticks_after = CpuTicks();
  const double ticks = static_cast<double>(ticks_after.second - ticks_before.second);
  std::error_code ec;
  std::filesystem::remove_all(settings.work_dir, ec);

  printf("# workload: %s\n# seed: %llu\n# seconds: %g\n# trace: %d\n",
         settings.workload.c_str(), static_cast<unsigned long long>(settings.seed),
         settings.seconds, settings.trace ? 1 : 0);
  printf("# hardware_concurrency: %u\n# build_type: %s\n",
         std::thread::hardware_concurrency(), PIPEBENCH_BUILD_TYPE);
  // Other tenants' load on the machine shows up as steal.
  printf("# cpu_steal_share: %.4f\n",
         ticks > 0 ? static_cast<double>(ticks_after.first - ticks_before.first) / ticks : 0.0);
  const char* commit = getenv("PIPEBENCH_SOURCE_VERSION");
  printf("# source_version: %s\n", commit != nullptr ? commit : "unknown");
  for (const auto& [key, value] : out.info) printf("# %s: %s\n", key.c_str(), value.c_str());
  for (const std::string& p : out.problems) printf("# CHECK FAILED: %s\n", p.c_str());
  for (const pipebench::Metric& m : out.metrics) {
    printf("# metric %s = %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
         out.correct ? "true" : "false", static_cast<unsigned long long>(out.attempted),
         static_cast<unsigned long long>(out.failed));
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
           out.metrics[i].name.c_str(), out.metrics[i].value, out.metrics[i].unit.c_str());
  }
  printf("}}\n");
  return out.correct ? 0 : 1;
}
