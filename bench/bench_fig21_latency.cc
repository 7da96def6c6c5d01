// Reproduces Fig. 21: explanation duration vs affected duration vs average
// delay of affected monitoring threads, per workload.
//
//  * explanation duration: wall-clock of the analysis run standalone, both
//    serial (num_threads=1) and parallel (one worker per hardware thread).
//  * affected duration: the time span during which any monitoring thread
//    observed a per-event latency above the 0.01 s threshold while the
//    analysis ran concurrently.
//  * delayed distance (avg delay): the mean excess latency of affected
//    threads over the idle baseline.
//
// Expected shape: explanation returns within seconds (paper: < 1 minute at
// their scale); delays are short-lived and small (paper: ~0.4 s average).
//
// Also emits BENCH_explain.json: per-workload serial/parallel wall clock and
// affected-thread fraction, plus a direct serial-vs-parallel
// ComputeFeatureRewards measurement, so future PRs can track the perf
// trajectory mechanically.

#include <algorithm>
#include <atomic>
#include <future>
#include <thread>

#include "bench_json.h"
#include "bench_util.h"

#include "common/stats.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "explain/reward.h"
#include "features/feature_space.h"

using namespace exstream;
using namespace exstream::bench;

namespace {

constexpr double kDelayThresholdSeconds = 0.01;

// Set from the command line; --smoke shrinks the monitoring-thread fleet so
// CI can run the bench in seconds as a correctness smoke test.
size_t g_num_queries = 2000;

struct LatencyResult {
  double serial_explain_seconds = 0.0;    ///< standalone, num_threads = 1
  double parallel_explain_seconds = 0.0;  ///< standalone, one worker per core
  double affected_seconds = 0.0;          ///< span with any delayed thread
  double mean_delay_seconds = 0.0;  ///< avg excess latency of affected threads
  size_t affected_threads = 0;
};

LatencyResult RunUseCase(const WorkloadDef& def) {
  WorkloadRunOptions options;
  options.num_normal_jobs = 1;
  options.num_nodes = 4;
  auto run = BuildRun(def, options);

  ExplanationEngine serial_explainer =
      run->MakeExplanationEngine(run->DefaultExplainOptions());
  ExplainOptions parallel_options = run->DefaultExplainOptions();
  parallel_options.num_threads = 0;  // one worker per hardware thread
  ExplanationEngine parallel_explainer =
      run->MakeExplanationEngine(std::move(parallel_options));

  LatencyResult result;
  // Standalone explanation runtime (the blue bars of Fig. 21), both modes.
  {
    Stopwatch timer;
    CheckOk(serial_explainer.Explain(run->annotation).status(),
            "standalone serial explain");
    result.serial_explain_seconds = timer.ElapsedSeconds();
  }
  {
    Stopwatch timer;
    CheckOk(parallel_explainer.Explain(run->annotation).status(),
            "standalone parallel explain");
    result.parallel_explain_seconds = timer.ElapsedSeconds();
  }

  std::vector<std::unique_ptr<CepEngine>> threads;
  const std::string q1_text =
      run->engine->compiled(run->monitor_query).query().ToString();
  for (size_t i = 0; i < g_num_queries; ++i) {
    auto engine = std::make_unique<CepEngine>(run->registry.get());
    CheckOk(engine->AddQueryText(q1_text, StrFormat("Q1_%zu", i)).status(),
            "add query");
    threads.push_back(std::move(engine));
  }

  auto scanned = CheckResult(
      run->archive->ScanAll(TimeInterval{0, (Timestamp{1} << 62)}), "scan");
  std::vector<Event> stream;
  for (auto& per_type : scanned) {
    stream.insert(stream.end(), per_type.events.begin(), per_type.events.end());
  }
  std::stable_sort(stream.begin(), stream.end(),
                   [](const Event& a, const Event& b) { return a.ts < b.ts; });

  // The concurrent run uses the parallel analysis — the deployment shape.
  std::atomic<bool> explaining{true};
  auto future = std::async(std::launch::async, [&] {
    auto report = parallel_explainer.Explain(run->annotation);
    explaining.store(false);
    return report;
  });

  Stopwatch wall;
  std::vector<double> max_latency(g_num_queries, 0.0);
  double first_delay = -1.0;
  double last_delay = -1.0;
  for (const Event& e : stream) {
    const bool busy = explaining.load(std::memory_order_relaxed);
    for (size_t q = 0; q < threads.size(); ++q) {
      Stopwatch timer;
      threads[q]->OnEvent(e);
      const double elapsed = timer.ElapsedSeconds();
      if (busy) {
        max_latency[q] = std::max(max_latency[q], elapsed);
        if (elapsed > kDelayThresholdSeconds) {
          const double now = wall.ElapsedSeconds();
          if (first_delay < 0) first_delay = now;
          last_delay = now;
        }
      }
    }
    if (!busy) break;
  }
  CheckOk(future.get().status(), "concurrent explain");

  std::vector<double> delays;
  for (double l : max_latency) {
    if (l > kDelayThresholdSeconds) delays.push_back(l - kDelayThresholdSeconds);
  }
  result.affected_threads = delays.size();
  result.mean_delay_seconds = Mean(delays);
  result.affected_seconds = first_delay < 0 ? 0.0 : last_delay - first_delay;
  return result;
}

/// Times one ComputeFeatureRewards sweep over the first workload; best of
/// `reps` to shed scheduler noise.
double TimeRewards(const FeatureBuilder& builder, const std::vector<FeatureSpec>& specs,
                   const AnomalyAnnotation& annotation, ThreadPool* pool, int reps) {
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    Stopwatch timer;
    CheckOk(ComputeFeatureRewards(builder, specs, annotation.abnormal.range,
                                  annotation.reference.range, 5, pool)
                .status(),
            "reward sweep");
    best = std::min(best, timer.ElapsedSeconds());
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args =
      ParseBenchArgs(argc, argv, "bench_fig21_latency", "BENCH_explain.json");
  const bool smoke = args.smoke;
  int reps = args.reps != 0 ? static_cast<int>(args.reps) : 5;
  if (smoke) {
    g_num_queries = 200;
    reps = std::min(reps, 2);
  }

  std::vector<WorkloadDef> defs = HadoopWorkloads();
  if (smoke) defs.resize(1);  // one workload is enough to smoke the pipeline
  const size_t cores = std::max(1u, std::thread::hardware_concurrency());
  printf("Figure 21 reproduction: explanation vs affected duration vs delay\n");
  printf("(%zu concurrent queries; delay threshold %.2f s; %zu cores)\n\n",
         g_num_queries, kDelayThresholdSeconds, cores);
  printf("%-34s %12s %14s %14s %13s %9s\n", "use case", "serial (s)",
         "parallel (s)", "affected (s)", "avg delay (s)", "affected");

  std::vector<LatencyResult> results;
  for (const WorkloadDef& def : defs) {
    fprintf(stderr, "[bench] %s ...\n", def.name.c_str());
    const LatencyResult r = RunUseCase(def);
    printf("%-34s %12.3f %14.3f %14.3f %13.4f %8zu\n", def.name.c_str(),
           r.serial_explain_seconds, r.parallel_explain_seconds,
           r.affected_seconds, r.mean_delay_seconds, r.affected_threads);
    results.push_back(r);
  }

  // Direct serial-vs-parallel ComputeFeatureRewards measurement (the tightest
  // loop of the analysis) on the first workload.
  fprintf(stderr, "[bench] feature-reward serial vs parallel ...\n");
  WorkloadRunOptions options;
  options.num_normal_jobs = 1;
  options.num_nodes = 4;
  auto run = BuildRun(defs[0], options);
  FeatureBuilder builder(run->archive.get());
  const std::vector<FeatureSpec> specs =
      GenerateFeatureSpecs(*run->registry, run->FeatureSpace());
  ThreadPool pool(0);
  const double serial_rewards = TimeRewards(builder, specs, run->annotation,
                                            nullptr, reps);
  const double parallel_rewards = TimeRewards(builder, specs, run->annotation,
                                              &pool, reps);
  printf("\nComputeFeatureRewards (%zu specs): serial %.4f s, parallel %.4f s "
         "(%.2fx on %zu threads)\n",
         specs.size(), serial_rewards, parallel_rewards,
         serial_rewards / std::max(parallel_rewards, 1e-12),
         pool.num_threads());

  JsonWriter json;
  json.BeginObject();
  json.Key("bench");
  json.String("fig21_latency");
  json.Key("smoke");
  json.Bool(smoke);
  json.Key("hardware_concurrency");
  json.UInt(cores);
  json.Key("num_queries");
  json.UInt(g_num_queries);
  json.Key("delay_threshold_s");
  json.Double(kDelayThresholdSeconds);
  json.Key("feature_rewards");
  json.BeginObject();
  json.Key("num_specs");
  json.UInt(specs.size());
  json.Key("num_threads");
  json.UInt(pool.num_threads());
  json.Key("serial_s");
  json.Double(serial_rewards);
  json.Key("parallel_s");
  json.Double(parallel_rewards);
  json.Key("speedup");
  json.Double(serial_rewards / std::max(parallel_rewards, 1e-12));
  json.EndObject();
  json.Key("workloads");
  json.BeginArray();
  for (size_t w = 0; w < defs.size(); ++w) {
    const LatencyResult& r = results[w];
    json.BeginObject();
    json.Key("name");
    json.String(defs[w].name);
    json.Key("serial_explain_s");
    json.Double(r.serial_explain_seconds);
    json.Key("parallel_explain_s");
    json.Double(r.parallel_explain_seconds);
    json.Key("explain_speedup");
    json.Double(r.serial_explain_seconds /
                std::max(r.parallel_explain_seconds, 1e-12));
    json.Key("affected_s");
    json.Double(r.affected_seconds);
    json.Key("mean_delay_s");
    json.Double(r.mean_delay_seconds);
    json.Key("affected_threads");
    json.UInt(r.affected_threads);
    json.Key("affected_fraction");
    json.Double(static_cast<double>(r.affected_threads) /
                static_cast<double>(g_num_queries));
    json.EndObject();
  }
  json.EndArray();
  json.MemoryObject(SampleMemoryStats());
  json.EndObject();
  if (json.WriteFile(args.out_path)) {
    fprintf(stderr, "[bench] wrote %s\n", args.out_path.c_str());
  }

  printf("\nExplanations return in seconds and delay only a small set of\n"
         "monitoring threads briefly (Appendix C).\n");
  return 0;
}
