// Shared helpers for the experiment-reproduction benches.

#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "sim/workloads.h"
#include "xstream/evaluation.h"

namespace exstream::bench {

/// The command line the JSON benches share:
///   NAME [--smoke] [--out PATH] [--reps N] [DIR_FLAG DIR]
struct BenchArgs {
  bool smoke = false;
  std::string out_path;
  size_t reps = 0;  ///< 0 = the bench's own default
  std::string dir;  ///< value of the bench's DIR_FLAG, if it has one
};

/// Parses the shared bench command line. `dir_flag` (e.g. "--spill-dir") is
/// the one bench-specific flag, taking a directory. Anything else prints the
/// usage line and exits 2.
inline BenchArgs ParseBenchArgs(int argc, char** argv, const char* name,
                                std::string out_default,
                                const char* dir_flag = nullptr,
                                std::string dir_default = "") {
  BenchArgs args;
  args.out_path = std::move(out_default);
  args.dir = std::move(dir_default);
  for (int i = 1; i < argc; ++i) {
    const bool has_value = i + 1 < argc;
    if (strcmp(argv[i], "--smoke") == 0) {
      args.smoke = true;
    } else if (strcmp(argv[i], "--out") == 0 && has_value) {
      args.out_path = argv[++i];
    } else if (strcmp(argv[i], "--reps") == 0 && has_value) {
      args.reps = strtoull(argv[++i], nullptr, 10);
    } else if (dir_flag != nullptr && strcmp(argv[i], dir_flag) == 0 && has_value) {
      args.dir = argv[++i];
    } else {
      fprintf(stderr, "usage: %s [--smoke] [--out PATH] [--reps N]", name);
      if (dir_flag != nullptr) fprintf(stderr, " [%s DIR]", dir_flag);
      fprintf(stderr, "\n");
      exit(2);
    }
  }
  return args;
}

/// Aborts the bench with a message when a Result/Status is not OK.
inline void CheckOk(const Status& status, const char* what) {
  if (!status.ok()) {
    fprintf(stderr, "%s failed: %s\n", what, status.ToString().c_str());
    exit(1);
  }
}

template <typename T>
T CheckResult(Result<T> result, const char* what) {
  CheckOk(result.status(), what);
  return std::move(result).MoveValue();
}

/// Builds one workload run, aborting on failure.
inline std::unique_ptr<WorkloadRun> BuildRun(const WorkloadDef& def,
                                             WorkloadRunOptions options = {}) {
  return CheckResult(BuildWorkloadRun(def, options), def.name.c_str());
}

/// Runs CompareMethods over every workload in `defs`, printing progress.
inline std::vector<MethodComparison> CompareAll(const std::vector<WorkloadDef>& defs) {
  std::vector<MethodComparison> out;
  for (const WorkloadDef& def : defs) {
    fprintf(stderr, "[bench] building + evaluating %s ...\n", def.name.c_str());
    auto run = BuildRun(def);
    out.push_back(CheckResult(CompareMethods(*run), "CompareMethods"));
  }
  return out;
}

/// Prints one metric of every method as a workload x method table.
inline void PrintMethodTable(const char* title, const char* value_format,
                             const std::vector<WorkloadDef>& defs,
                             const std::vector<MethodComparison>& comparisons,
                             double (*metric)(const MethodResult&)) {
  printf("\n%s\n", title);
  printf("%-34s", "workload");
  const std::vector<std::string> methods = {
      kMethodXStream, kMethodXStreamCluster, kMethodLogReg,
      kMethodDTree,   kMethodVote,           kMethodFusion};
  for (const auto& m : methods) printf(" %18s", m.c_str());
  printf("\n");
  for (size_t w = 0; w < defs.size(); ++w) {
    printf("%-34s", defs[w].name.c_str());
    for (const auto& m : methods) {
      const MethodResult& r = FindMethod(comparisons[w], m);
      printf(" ");
      printf(value_format, metric(r));
    }
    printf("\n");
  }
}

}  // namespace exstream::bench
