// Scan + feature-build throughput: columnar ScanView path vs the legacy
// row-materializing Scan path, over the Hadoop-sim workload's annotated
// intervals (the exact access pattern of the explanation hot path).
//
// The two paths must be perf-different but result-identical, so this bench is
// also a correctness harness: it verifies bit-identical Feature series and a
// bit-identical Explanation report across modes before timing anything.
//
// Emits BENCH_scan_view.json (with memory counters); scripts/check_bench.py
// gates the view/row speedup on full runs. --smoke shrinks the workload for
// CI.

#include <algorithm>
#include <string>
#include <vector>

#include "bench_json.h"
#include "bench_util.h"

#include "archive/archive.h"
#include "common/stopwatch.h"
#include "features/builder.h"
#include "features/feature_space.h"

using namespace exstream;
using namespace exstream::bench;

namespace {

struct Measurement {
  double seconds_per_pass = 0.0;  ///< best-of-reps, one pass = both intervals
  double events_per_sec = 0.0;
  size_t iters = 0;
};

// Events the feature build actually reads per pass: in-range rows of every
// referenced type, across both annotation intervals.
size_t EventsPerPass(const WorkloadRun& run, const std::vector<FeatureSpec>& specs) {
  std::vector<EventTypeId> types;
  for (const FeatureSpec& s : specs) {
    if (std::find(types.begin(), types.end(), s.type) == types.end()) {
      types.push_back(s.type);
    }
  }
  size_t events = 0;
  for (const TimeInterval& interval :
       {run.annotation.abnormal.range, run.annotation.reference.range}) {
    for (const EventTypeId t : types) {
      events += CheckResult(run.archive->ScanColumns(t, interval), "count scan").rows();
    }
  }
  return events;
}

// One pass: materialize the full feature space over both annotated intervals.
void BuildPass(const FeatureBuilder& builder, const std::vector<FeatureSpec>& specs,
               const WorkloadRun& run, std::vector<Feature>* sink) {
  for (const TimeInterval& interval :
       {run.annotation.abnormal.range, run.annotation.reference.range}) {
    std::vector<Feature> feats =
        CheckResult(builder.Build(specs, interval), "feature build");
    if (sink != nullptr) {
      sink->insert(sink->end(), std::make_move_iterator(feats.begin()),
                   std::make_move_iterator(feats.end()));
    }
  }
}

Measurement TimePasses(const FeatureBuilder& builder,
                       const std::vector<FeatureSpec>& specs, const WorkloadRun& run,
                       size_t events_per_pass, size_t iters, size_t reps) {
  Measurement m;
  m.iters = iters;
  double best = 1e30;
  for (size_t rep = 0; rep < reps; ++rep) {
    Stopwatch timer;
    for (size_t i = 0; i < iters; ++i) BuildPass(builder, specs, run, nullptr);
    best = std::min(best, timer.ElapsedSeconds() / static_cast<double>(iters));
  }
  m.seconds_per_pass = best;
  m.events_per_sec = static_cast<double>(events_per_pass) / best;
  return m;
}

bool IdenticalFeatures(const std::vector<Feature>& a, const std::vector<Feature>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].spec.Name() != b[i].spec.Name()) return false;
    if (a[i].series.times() != b[i].series.times()) return false;
    if (a[i].series.values() != b[i].series.values()) return false;  // bitwise
  }
  return true;
}

// Full-pipeline equivalence: the Explanation must not depend on the storage
// layout behind the scans.
bool IdenticalExplanations(const WorkloadRun& run, std::string* out_cnf) {
  ExplainOptions view_options = run.DefaultExplainOptions();
  view_options.use_legacy_row_scan = false;
  ExplainOptions row_options = run.DefaultExplainOptions();
  row_options.use_legacy_row_scan = true;
  const ExplanationReport view = CheckResult(
      run.MakeExplanationEngine(std::move(view_options)).Explain(run.annotation),
      "view explain");
  const ExplanationReport row = CheckResult(
      run.MakeExplanationEngine(std::move(row_options)).Explain(run.annotation),
      "row explain");
  *out_cnf = view.explanation.ToString();
  if (view.explanation.ToString() != row.explanation.ToString()) return false;
  if (view.ranked.size() != row.ranked.size()) return false;
  for (size_t i = 0; i < view.ranked.size(); ++i) {
    if (view.ranked[i].spec.Name() != row.ranked[i].spec.Name()) return false;
    if (view.ranked[i].reward() != row.ranked[i].reward()) return false;  // bitwise
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args =
      ParseBenchArgs(argc, argv, "bench_scan_view", "BENCH_scan_view.json");
  const bool smoke = args.smoke;
  const size_t reps = args.reps != 0 ? args.reps : smoke ? 2 : 5;

  // The paper's Hadoop scenario; more nodes = more archived metric streams =
  // more rows behind every scan, which is the quantity under test.
  WorkloadRunOptions options;
  options.num_nodes = smoke ? 4 : 16;
  options.num_normal_jobs = smoke ? 2 : 4;
  const WorkloadDef def = HadoopWorkloads()[0];
  fprintf(stderr, "[bench] building %s (%d nodes) ...\n", def.name.c_str(),
          options.num_nodes);
  auto run = BuildRun(def, options);

  const std::vector<FeatureSpec> specs =
      GenerateFeatureSpecs(*run->registry, run->FeatureSpace());
  const size_t events_per_pass = EventsPerPass(*run, specs);
  fprintf(stderr, "[bench] %zu specs, %zu in-range events per pass\n", specs.size(),
          events_per_pass);

  const FeatureBuilder view_builder(run->archive.get(), /*use_legacy_row_scan=*/false);
  const FeatureBuilder row_builder(run->archive.get(), /*use_legacy_row_scan=*/true);

  // Correctness first: identical Features, then an identical end-to-end
  // Explanation. A perf win that changes results would be a bug, not a win.
  std::vector<Feature> view_feats;
  std::vector<Feature> row_feats;
  BuildPass(view_builder, specs, *run, &view_feats);
  BuildPass(row_builder, specs, *run, &row_feats);
  const bool features_identical = IdenticalFeatures(view_feats, row_feats);
  std::string cnf;
  const bool explanations_identical = IdenticalExplanations(*run, &cnf);
  if (!features_identical || !explanations_identical) {
    fprintf(stderr, "FAIL: view path diverged from row path (features %s, "
            "explanations %s)\n", features_identical ? "ok" : "DIFFER",
            explanations_identical ? "ok" : "DIFFER");
    return 1;
  }
  view_feats.clear();
  row_feats.clear();

  // Calibrate the inner iteration count off the row baseline so each timed
  // rep runs long enough to shed scheduler noise.
  Stopwatch calibrate;
  BuildPass(row_builder, specs, *run, nullptr);
  const double single = calibrate.ElapsedSeconds();
  const double target = smoke ? 0.2 : 1.0;  // seconds per timed rep
  const size_t iters =
      std::clamp<size_t>(static_cast<size_t>(target / std::max(single, 1e-6)), 1, 512);

  fprintf(stderr, "[bench] timing row baseline (%zu iters x %zu reps) ...\n", iters,
          reps);
  const Measurement row = TimePasses(row_builder, specs, *run, events_per_pass,
                                     iters, reps);
  fprintf(stderr, "[bench] timing columnar view ...\n");
  const Measurement view = TimePasses(view_builder, specs, *run, events_per_pass,
                                      iters, reps);
  const double speedup = view.events_per_sec / std::max(row.events_per_sec, 1e-12);

  printf("\nScan + FeatureBuilder throughput, %s (%zu specs, %zu events/pass)\n",
         def.name.c_str(), specs.size(), events_per_pass);
  printf("%-22s %14s %16s\n", "mode", "s/pass", "events/sec");
  printf("%-22s %14.5f %16.0f\n", "row (legacy Scan)", row.seconds_per_pass,
         row.events_per_sec);
  printf("%-22s %14.5f %16.0f\n", "columnar (ScanView)", view.seconds_per_pass,
         view.events_per_sec);
  printf("\nresults: features identical, explanation identical (%s)\n", cnf.c_str());
  printf("view = %.2fx row baseline\n", speedup);

  JsonWriter json;
  json.BeginObject();
  json.Key("bench");
  json.String("scan_view");
  json.Key("smoke");
  json.Bool(smoke);
  json.Key("workload");
  json.String(def.name);
  json.Key("num_nodes");
  json.UInt(static_cast<size_t>(options.num_nodes));
  json.Key("num_specs");
  json.UInt(specs.size());
  json.Key("events_per_pass");
  json.UInt(events_per_pass);
  json.Key("iters");
  json.UInt(iters);
  json.Key("reps");
  json.UInt(reps);
  json.Key("row_s_per_pass");
  json.Double(row.seconds_per_pass);
  json.Key("row_events_per_sec");
  json.Double(row.events_per_sec);
  json.Key("view_s_per_pass");
  json.Double(view.seconds_per_pass);
  json.Key("view_events_per_sec");
  json.Double(view.events_per_sec);
  json.Key("speedup");
  json.Double(speedup);
  json.Key("features_identical");
  json.Bool(features_identical);
  json.Key("explanations_identical");
  json.Bool(explanations_identical);
  json.MemoryObject(SampleMemoryStats());
  json.EndObject();
  if (!json.WriteFile(args.out_path)) return 1;
  fprintf(stderr, "[bench] wrote %s\n", args.out_path.c_str());
  return 0;
}
