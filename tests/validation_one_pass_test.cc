// Step 2 (Sec. 5.2) reads the archive in one pass: the annotated pair comes
// from the rank stage, every other labeled interval is built by one
// FeatureBuilder::BuildIntervals call, and one Explain decodes each spilled
// chunk at most once. These tests hold that design to the per-interval
// definition in validation_reference.h bit for bit — rewards, explanation
// and degradation report — on both simulators, over spilled chunks, a tail
// that covers the intervals only in part and open chunks, with tiered
// reference scans on and off, serial and parallel. They also count disk
// reads and monitored-series fetches, and check a corrupt chunk is
// accounted for as it is per interval.

#include <unistd.h>

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "features/builder.h"
#include "features/incremental.h"
#include "io/file_util.h"
#include "sim/workloads.h"
#include "validation_reference.h"

namespace exstream {
namespace {

WorkloadRunOptions FastOptions() {
  WorkloadRunOptions options;
  options.num_nodes = 4;
  options.num_normal_jobs = 2;
  options.sc_num_sensors = 6;
  options.sc_num_machines = 6;
  return options;
}

std::string Basename(const std::string& path) {
  return path.substr(path.find_last_of('/') + 1);
}

// `text` without the temporary directories it names (two archives built in
// different directories must report the same skips).
std::string WithoutTempDirs(std::string text) {
  const std::string prefix = "/tmp/exstream_onepass_";
  for (size_t at; (at = text.find(prefix)) != std::string::npos;) {
    const size_t slash = text.find('/', at + prefix.size());
    text.erase(at, slash == std::string::npos ? std::string::npos : slash + 1 - at);
  }
  return text;
}

// A fresh temporary directory, removed (files first) on destruction.
class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/exstream_onepass_XXXXXX";
    EXPECT_NE(mkdtemp(tmpl), nullptr);
    path_ = tmpl;
  }
  ~TempDir() {
    auto names = ListDirFiles(path_);
    if (names.ok()) {
      for (const std::string& name : *names) (void)RemoveFileIfExists(path_ + "/" + name);
    }
    rmdir(path_.c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// Spill-file names in `dir` (no sidecars, no quarantined files).
std::vector<std::string> SpillFiles(const std::string& dir) {
  std::vector<std::string> out;
  auto names = ListDirFiles(dir);
  if (!names.ok()) return out;
  for (const std::string& name : *names) {
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".bin") == 0) {
      out.push_back(name);
    }
  }
  return out;
}

// The run's events re-archived with small spilling chunks (the newest chunk
// of every type stays open), plus incremental tails whose retention puts
// their coverage floor inside the annotated abnormal interval: intervals
// before the floor miss, the annotated abnormal interval is a partial hit,
// later ones are full hits.
struct Replica {
  std::unique_ptr<EventArchive> archive;
  std::unique_ptr<IncrementalFeatureState> tails;
  /// Per type, every event in append order (chunk i holds [i*cap, (i+1)*cap)).
  std::vector<std::vector<Event>> events;
  size_t chunk_capacity = 0;
};

Replica MakeReplica(const WorkloadRun& run, const std::string& spill_dir,
                    std::vector<Timestamp> tier_windows,
                    ArchiveOptions options = {}) {
  Replica r;
  options.chunk_capacity = 96;
  options.spill_dir = spill_dir;
  options.max_resident_chunks = 2;
  options.tier_windows = std::move(tier_windows);
  options.spill_retry.base_backoff_ms = 0.1;
  options.spill_retry.max_backoff_ms = 0.5;
  r.chunk_capacity = options.chunk_capacity;
  r.archive = std::make_unique<EventArchive>(run.registry.get(), options);
  const TimeInterval everything{0, std::numeric_limits<Timestamp>::max() / 2};
  auto scans = run.archive->ScanAll(everything);
  EXPECT_TRUE(scans.ok()) << scans.status().ToString();
  r.events.resize(run.registry->size());
  Timestamp last = 0;
  for (const auto& scan : *scans) {
    r.events[scan.type] = scan.events;
    last = std::max(last, scan.events.back().ts);
  }
  const TimeInterval& ia = run.annotation.abnormal.range;
  r.tails = std::make_unique<IncrementalFeatureState>(
      run.registry.get(), last - (ia.lower + ia.upper) / 2);
  for (const auto& scan : *scans) {
    for (const Event& e : scan.events) {
      EXPECT_TRUE(r.archive->Append(e).ok());
      r.tails->OnEvent(e);
    }
  }
  return r;
}

void ExpectSameSeries(const TimeSeries& a, const TimeSeries& b) {
  EXPECT_EQ(a.times(), b.times());
  EXPECT_EQ(a.values(), b.values());
}

void ExpectSameDegradation(const DegradationReport& a, const DegradationReport& b) {
  ASSERT_EQ(a.skipped.size(), b.skipped.size());
  for (size_t i = 0; i < a.skipped.size(); ++i) {
    EXPECT_EQ(a.skipped[i].type, b.skipped[i].type) << i;
    EXPECT_EQ(Basename(a.skipped[i].spill_path), Basename(b.skipped[i].spill_path)) << i;
    EXPECT_EQ(a.skipped[i].events_lost, b.skipped[i].events_lost) << i;
    EXPECT_EQ(WithoutTempDirs(a.skipped[i].reason),
              WithoutTempDirs(b.skipped[i].reason))
        << i;
  }
  EXPECT_EQ(a.events_lost_estimate, b.events_lost_estimate);
  EXPECT_EQ(a.resolution_degraded, b.resolution_degraded);
  ASSERT_EQ(a.coverage.size(), b.coverage.size());
  for (const auto& [type, cov] : a.coverage) {
    ASSERT_EQ(b.coverage.count(type), 1u) << type;
    EXPECT_EQ(cov.chunks_total, b.coverage.at(type).chunks_total) << type;
    EXPECT_EQ(cov.chunks_skipped, b.coverage.at(type).chunks_skipped) << type;
  }
}

// The whole report, bit for bit.
void ExpectSameReport(const ExplanationReport& a, const ExplanationReport& b) {
  ASSERT_EQ(a.ranked.size(), b.ranked.size());
  for (size_t i = 0; i < a.ranked.size(); ++i) {
    SCOPED_TRACE(a.ranked[i].spec.Name());
    EXPECT_EQ(a.ranked[i].spec.Name(), b.ranked[i].spec.Name());
    EXPECT_EQ(a.ranked[i].reward(), b.ranked[i].reward());
    ExpectSameSeries(a.ranked[i].abnormal_series, b.ranked[i].abnormal_series);
    ExpectSameSeries(a.ranked[i].reference_series, b.ranked[i].reference_series);
  }
  ASSERT_EQ(a.after_leap.size(), b.after_leap.size());
  EXPECT_EQ(a.num_related_partitions, b.num_related_partitions);
  EXPECT_EQ(a.num_labeled_abnormal, b.num_labeled_abnormal);
  EXPECT_EQ(a.num_labeled_reference, b.num_labeled_reference);
  EXPECT_EQ(a.num_discarded, b.num_discarded);
  ASSERT_EQ(a.validation.size(), b.validation.size());
  for (size_t i = 0; i < a.validation.size(); ++i) {
    const ValidatedFeature& va = a.validation[i];
    const ValidatedFeature& vb = b.validation[i];
    SCOPED_TRACE(va.feature.spec.Name());
    EXPECT_EQ(va.feature.spec.Name(), vb.feature.spec.Name());
    EXPECT_EQ(va.annotated_reward, vb.annotated_reward);
    EXPECT_EQ(va.validated_reward, vb.validated_reward);
    EXPECT_EQ(va.feature.entropy.regularized_entropy,
              vb.feature.entropy.regularized_entropy);
    EXPECT_EQ(va.kept, vb.kept);
  }
  ASSERT_EQ(a.after_validation.size(), b.after_validation.size());
  EXPECT_EQ(a.clustering.cluster_labels, b.clustering.cluster_labels);
  EXPECT_EQ(a.SelectedFeatureNames(), b.SelectedFeatureNames());
  EXPECT_EQ(a.explanation.ToString(), b.explanation.ToString());
  EXPECT_EQ(a.explanation.degraded(), b.explanation.degraded());
  EXPECT_EQ(a.explanation.degradation_note(), b.explanation.degradation_note());
  ExpectSameDegradation(a.degradation, b.degradation);
}

struct Case {
  const char* name;
  std::vector<Timestamp> tier_windows;  // of the replica's archive
  bool tiered_reference;
  // A single survivor over a raw-free feature space of these windows (empty:
  // the default space and survivor count).
  std::vector<Timestamp> one_survivor_windows = {};
};

// The resolution a tiered build of `specs` declares for `type`'s aggregate
// scan: the gcd of its fixed-window aggregate specs' windows.
Timestamp TieredResolution(const std::vector<FeatureSpec>& specs, EventTypeId type) {
  Timestamp resolution = 0;
  for (const FeatureSpec& spec : specs) {
    if (spec.type == type && spec.agg != AggregateKind::kRaw && spec.window > 0) {
      resolution = std::gcd(resolution, spec.window);
    }
  }
  return resolution;
}

// Whether a tiered build of `survivors` alone scans some type at another
// resolution than a build of the full space `specs` (then reusing the rank
// stage's tiered reference series would be wrong).
bool SurvivorResolutionDiffers(const std::vector<FeatureSpec>& specs,
                               const std::vector<RankedFeature>& survivors) {
  std::vector<FeatureSpec> survivor_specs;
  for (const RankedFeature& f : survivors) survivor_specs.push_back(f.spec);
  for (const FeatureSpec& spec : survivor_specs) {
    if (spec.agg == AggregateKind::kRaw || spec.window <= 0) continue;
    if (TieredResolution(survivor_specs, spec.type) !=
        TieredResolution(specs, spec.type)) {
      return true;
    }
  }
  return false;
}

void CheckAgainstReference(const WorkloadDef& def) {
  auto run = BuildWorkloadRun(def, FastOptions());
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const WorkloadRun& w = **run;
  const std::vector<Timestamp>& windows = w.FeatureSpace().windows;
  // Tier windows dividing every feature window (tiers answer every tiered
  // scan), and only the widest one (a tiered scan of the full space at the
  // gcd of its windows finds no tier). Over windows {2w, 3w}, tiered at both,
  // the full space scans at w and finds no tier, while a single survivor's
  // type scans at its own window and does: Step 2 must then rebuild the
  // annotated reference instead of reusing the rank stage's.
  const Timestamp w0 = windows.front();
  const std::vector<Case> cases = {
      {"exact", {}, false},
      {"tiered-gcd", {w0}, true},
      {"tiered-widest", {windows.back()}, true},
      {"tiered-one-survivor", {2 * w0, 3 * w0}, true, {2 * w0, 3 * w0}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    TempDir dir;
    const Replica r = MakeReplica(w, dir.path(), c.tier_windows);
    ASSERT_FALSE(SpillFiles(dir.path()).empty());
    ExplainOptions options = w.DefaultExplainOptions();
    options.tiered_reference_scans = c.tiered_reference;
    if (!c.one_survivor_windows.empty()) {
      options.feature_space.windows = c.one_survivor_windows;
      options.feature_space.include_raw = false;
      options.leap.max_keep = 1;
    }
    const ReferenceExplainer reference(r.archive.get(), w.partitions.get(),
                                       w.MakeSeriesProvider(), options,
                                       r.tails.get());
    auto expected = reference.Explain(w.annotation);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    ASSERT_FALSE(expected->after_leap.empty());
    ASSERT_GT(expected->num_labeled_abnormal + expected->num_labeled_reference, 0u);
    if (!c.one_survivor_windows.empty()) {
      ASSERT_TRUE(SurvivorResolutionDiffers(
          GenerateFeatureSpecs(*w.registry, options.feature_space), expected->after_leap))
          << "the single survivor does not change its type's tiered resolution";
    }
    const auto before = r.tails->stats();
    for (const size_t threads : {size_t{1}, size_t{4}}) {
      SCOPED_TRACE("num_threads=" + std::to_string(threads));
      options.num_threads = threads;
      const ExplanationEngine engine(r.archive.get(), w.partitions.get(),
                                     w.MakeSeriesProvider(), options, r.tails.get());
      auto got = engine.Explain(w.annotation);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ExpectSameReport(*got, *expected);
    }
    // The fixture reached every path it is meant to cover (without raw
    // features, every scan of the one-survivor case is a tiered archive
    // scan).
    if (c.one_survivor_windows.empty()) {
      const auto after = r.tails->stats();
      EXPECT_GT(after.full_hits, before.full_hits);
      EXPECT_GT(after.partial_hits, before.partial_hits);
      EXPECT_GT(after.misses, before.misses);
    }
    if (c.tiered_reference &&
        (c.tier_windows.front() == w0 || !c.one_survivor_windows.empty())) {
      EXPECT_GT(r.archive->tier_segments_served(), 0u);
    }
  }
}

TEST(ValidationOnePassTest, HadoopMatchesPerIntervalReference) {
  CheckAgainstReference(HadoopWorkloads()[0]);
}

TEST(ValidationOnePassTest, SupplyChainMatchesPerIntervalReference) {
  CheckAgainstReference(SupplyChainWorkloads()[3]);  // SC4 labels intervals
}

// BuildIntervals against one Build per interval on interval lists with
// duplicates, overlaps, abutting and empty intervals, in no particular
// order: over spilled, resident and open chunks and a partly covering tail,
// exact and tiered, columnar and legacy rows, serial and parallel.
TEST(ValidationOnePassTest, BuildIntervalsMatchesOneBuildPerInterval) {
  EventTypeRegistry registry;
  ASSERT_TRUE(registry
                  .Register(EventSchema("A", {{"x", ValueType::kDouble},
                                              {"host", ValueType::kString}}))
                  .ok());
  ASSERT_TRUE(registry.Register(EventSchema("B", {{"y", ValueType::kInt64}})).ok());
  TempDir dir;
  ArchiveOptions options;
  options.chunk_capacity = 16;
  options.spill_dir = dir.path();
  options.max_resident_chunks = 2;
  options.tier_windows = {4};
  EventArchive archive(&registry, options);
  IncrementalFeatureState tails(&registry, /*retention=*/60);
  for (Timestamp t = 0; t < 300; ++t) {
    const Event a(0, t, {Value(0.25 * static_cast<double>(t % 13)),
                         Value(std::string(t % 3 == 0 ? "h1" : "h2"))});
    ASSERT_TRUE(archive.Append(a).ok());
    tails.OnEvent(a);
    if (t % 2 == 0) {
      const Event b(1, t, {Value(static_cast<int64_t>(t % 7))});
      ASSERT_TRUE(archive.Append(b).ok());
      tails.OnEvent(b);
    }
  }
  ASSERT_FALSE(SpillFiles(dir.path()).empty());
  FeatureSpaceOptions space;
  space.windows = {4, 8};
  const std::vector<FeatureSpec> specs = GenerateFeatureSpecs(registry, space);
  ASSERT_FALSE(specs.empty());
  const std::vector<TimeInterval> intervals = {
      {250, 280}, {10, 40}, {10, 40}, {30, 70}, {71, 90}, {0, 5},
      {230, 299}, {400, 500}, {120, 119}, {231, 260}, {5, 295}};
  std::vector<char> materialize(intervals.size(), 1);
  materialize[2] = 0;
  materialize[6] = 0;

  for (const bool legacy : {false, true}) {
    for (const bool tiers : {false, true}) {
      for (const size_t threads : {size_t{1}, size_t{4}}) {
        SCOPED_TRACE(std::string(legacy ? "legacy" : "view") +
                     (tiers ? " tiered" : " exact") +
                     " threads=" + std::to_string(threads));
        ThreadPool pool(threads);
        ThreadPool* p = threads == 1 ? nullptr : &pool;
        const FeatureBuilder builder(&archive, legacy, legacy ? nullptr : &tails);
        DecodedChunks decoded;
        DegradationReport got_deg;
        auto got = builder.BuildIntervals(specs, intervals, materialize, p, nullptr,
                                          &got_deg, tiers, &decoded);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        ASSERT_EQ(got->size(), intervals.size());
        DegradationReport want_deg;
        for (size_t k = 0; k < intervals.size(); ++k) {
          SCOPED_TRACE("interval " + std::to_string(k));
          auto want = builder.Build(specs, intervals[k], nullptr, nullptr, &want_deg,
                                    tiers);
          ASSERT_TRUE(want.ok()) << want.status().ToString();
          if (!materialize[k]) {
            EXPECT_TRUE((*got)[k].empty());
            continue;
          }
          ASSERT_EQ((*got)[k].size(), want->size());
          for (size_t i = 0; i < want->size(); ++i) {
            SCOPED_TRACE((*want)[i].spec.Name());
            ExpectSameSeries((*got)[k][i].series, (*want)[i].series);
          }
        }
        ExpectSameDegradation(got_deg, want_deg);
      }
    }
  }
  EXPECT_GT(archive.tier_segments_served(), 0u);
  EXPECT_GT(tails.stats().partial_hits, 0u);
}

// The per-interval reference builds through the same archive and tail scans
// as the engine, so a scan defect common to one and many intervals would
// not show as a difference. This test reads no scan: every raw feature of
// every labeled interval Step 2 pools, built in one BuildIntervals call over
// spilled chunks, open chunks and a partly covering tail, must equal the
// simulator's events of that type filtered by the interval.
TEST(ValidationOnePassTest, RawFeaturesMatchTheEventStream) {
  auto run = BuildWorkloadRun(HadoopWorkloads()[0], FastOptions());
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const WorkloadRun& w = **run;
  TempDir dir;
  const Replica r = MakeReplica(w, dir.path(), {});
  ASSERT_FALSE(SpillFiles(dir.path()).empty());
  const ExplainOptions options = w.DefaultExplainOptions();
  const ReferenceExplainer reference(r.archive.get(), w.partitions.get(),
                                     w.MakeSeriesProvider(), options, r.tails.get());
  std::vector<TimeInterval> pooled;
  ASSERT_TRUE(reference.Explain(w.annotation, &pooled).ok());
  ASSERT_GT(pooled.size(), 2u);
  std::vector<FeatureSpec> raw_specs;
  for (const FeatureSpec& spec : GenerateFeatureSpecs(*w.registry, options.feature_space)) {
    if (spec.agg == AggregateKind::kRaw) raw_specs.push_back(spec);
  }
  ASSERT_FALSE(raw_specs.empty());
  const auto before = r.tails->stats();
  const FeatureBuilder builder(r.archive.get(), false, r.tails.get());
  DecodedChunks decoded;
  auto got = builder.BuildIntervals(raw_specs, pooled,
                                    std::vector<char>(pooled.size(), 1), nullptr,
                                    nullptr, nullptr, false, &decoded);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  for (size_t k = 0; k < pooled.size(); ++k) {
    SCOPED_TRACE("interval " + std::to_string(k));
    for (size_t i = 0; i < raw_specs.size(); ++i) {
      SCOPED_TRACE(raw_specs[i].Name());
      std::vector<Timestamp> times;
      std::vector<double> values;
      for (const Event& e : r.events[raw_specs[i].type]) {
        if (!pooled[k].Contains(e.ts)) continue;
        times.push_back(e.ts);
        values.push_back(e.values[raw_specs[i].attr_index].AsDouble());
      }
      EXPECT_EQ((*got)[k][i].series.times(), times);
      EXPECT_EQ((*got)[k][i].series.values(), values);
    }
  }
  const auto after = r.tails->stats();
  EXPECT_GT(after.full_hits, before.full_hits);
  EXPECT_GT(after.partial_hits, before.partial_hits);
  EXPECT_GT(after.misses, before.misses);
}

// The reference interval usually lies in the abnormal partition; its
// monitored series is then fetched once per Explain, not once per side.
TEST(ValidationOnePassTest, AnnotatedPartitionSeriesIsFetchedOnce) {
  auto run = BuildWorkloadRun(HadoopWorkloads()[0], FastOptions());
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const WorkloadRun& w = **run;
  const IntervalRef& abnormal = w.annotation.abnormal;
  ASSERT_EQ(w.annotation.reference.query, abnormal.query);
  ASSERT_EQ(w.annotation.reference.partition, abnormal.partition);
  size_t fetches = 0;
  const SeriesProvider inner = w.MakeSeriesProvider();
  const SeriesProvider counted = [&](const std::string& query,
                                     const std::string& partition) {
    if (query == abnormal.query && partition == abnormal.partition) ++fetches;
    return inner(query, partition);
  };
  const ExplanationEngine engine(w.archive.get(), w.partitions.get(), counted,
                                 w.DefaultExplainOptions());
  auto report = engine.Explain(w.annotation);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_GT(report->num_related_partitions, 0u);
  EXPECT_EQ(fetches, 1u);
}

// One Explain reads each spilled chunk from disk at most once, ranking and
// validation together; the per-interval definition reads some chunks many
// times over.
TEST(ValidationOnePassTest, ExplainReadsEachSpilledChunkAtMostOnce) {
  auto run = BuildWorkloadRun(HadoopWorkloads()[0], FastOptions());
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const WorkloadRun& w = **run;
  TempDir dir;
  size_t reads = 0;
  ArchiveOptions hooked;
  hooked.spill_read_hook_for_testing = [&reads] { ++reads; };
  const Replica r = MakeReplica(w, dir.path(), {}, hooked);
  const std::vector<std::string> files = SpillFiles(dir.path());
  ASSERT_FALSE(files.empty());
  const ExplainOptions options = w.DefaultExplainOptions();
  const ExplanationEngine engine(r.archive.get(), w.partitions.get(),
                                 w.MakeSeriesProvider(), options, r.tails.get());
  const ReferenceExplainer reference(r.archive.get(), w.partitions.get(),
                                     w.MakeSeriesProvider(), options, r.tails.get());

  auto report = engine.Explain(w.annotation);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_GT(report->num_labeled_abnormal + report->num_labeled_reference, 0u);
  const size_t engine_reads = reads;
  EXPECT_GT(engine_reads, 0u);
  EXPECT_LE(engine_reads, files.size());

  // Per file: the mmap-read seam sees one read per decode; a zero-delay
  // fault counts them.
  size_t max_engine = 0, max_reference = 0;
  for (const std::string& file : files) {
    FaultPlan plan;
    plan.mode = FaultMode::kDelay;
    plan.op = FaultOp::kRead;
    plan.path_substring = "/" + file;
    plan.delay_ms = 0;
    {
      ScopedFaultInjection count(plan);
      ASSERT_TRUE(engine.Explain(w.annotation).ok());
      max_engine = std::max(max_engine, FaultInjector::Global().hits());
    }
    {
      ScopedFaultInjection count(plan);
      ASSERT_TRUE(reference.Explain(w.annotation).ok());
      max_reference = std::max(max_reference, FaultInjector::Global().hits());
    }
  }
  EXPECT_EQ(max_engine, 1u);
  EXPECT_GT(max_reference, 1u) << "the fixture does not scan any chunk twice";
}

// A corrupt spilled chunk that several labeled intervals overlap: the
// Explain still succeeds, degraded, and its degradation report — the
// skipped chunk, once per scan that overlapped it, and the lost events —
// equals the per-interval definition's.
TEST(ValidationOnePassTest, CorruptChunkUnderSeveralIntervalsIsAccountedPerScan) {
  auto run = BuildWorkloadRun(HadoopWorkloads()[0], FastOptions());
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const WorkloadRun& w = **run;
  const ExplainOptions options = w.DefaultExplainOptions();

  // Pick the spilled chunk of a surviving feature's type that the most
  // labeled intervals (other than the annotated pair) overlap.
  std::string victim;
  {
    TempDir dir;
    const Replica r = MakeReplica(w, dir.path(), {});
    const ReferenceExplainer reference(r.archive.get(), w.partitions.get(),
                                       w.MakeSeriesProvider(), options, r.tails.get());
    std::vector<TimeInterval> pooled;
    auto clean = reference.Explain(w.annotation, &pooled);
    ASSERT_TRUE(clean.ok()) << clean.status().ToString();
    const size_t annotated_reference = 1 + clean->num_labeled_abnormal;
    size_t best = 0;
    for (const RankedFeature& f : clean->after_leap) {
      const EventTypeId type = f.spec.type;
      const std::vector<Event>& events = r.events[type];
      const size_t chunks = r.archive->NumChunks(type);
      const size_t spilled = chunks > 3 ? chunks - 3 : 0;  // open + 2 resident
      for (size_t c = 0; c < spilled; ++c) {
        const Timestamp lo = events[c * r.chunk_capacity].ts;
        const Timestamp hi = events[(c + 1) * r.chunk_capacity - 1].ts;
        size_t overlapping = 0;
        for (size_t k = 0; k < pooled.size(); ++k) {
          if (k == 0 || k == annotated_reference) continue;
          if (lo <= pooled[k].upper && hi >= pooled[k].lower) ++overlapping;
        }
        if (overlapping > best) {
          best = overlapping;
          victim = "type" + std::to_string(type) + "_chunk" + std::to_string(c) + "_";
        }
      }
    }
    ASSERT_GE(best, 2u) << "no spilled chunk under two labeled intervals";
  }

  FaultPlan plan;
  plan.mode = FaultMode::kCorruptBytes;
  plan.op = FaultOp::kRead;
  plan.path_substring = victim;
  auto explain = [&](bool one_pass) -> Result<ExplanationReport> {
    ScopedFaultInjection fault(plan);
    TempDir dir;
    const Replica r = MakeReplica(w, dir.path(), {});
    if (one_pass) {
      const ExplanationEngine engine(r.archive.get(), w.partitions.get(),
                                     w.MakeSeriesProvider(), options, r.tails.get());
      return engine.Explain(w.annotation);
    }
    const ReferenceExplainer reference(r.archive.get(), w.partitions.get(),
                                       w.MakeSeriesProvider(), options, r.tails.get());
    return reference.Explain(w.annotation);
  };
  auto got = explain(true);
  auto want = explain(false);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_TRUE(got->degradation.degraded());
  EXPECT_TRUE(got->explanation.degraded());
  // At least the two labeled intervals' scans.
  EXPECT_GE(got->degradation.chunks_skipped(), 2u);
  for (const auto& sk : got->degradation.skipped) {
    EXPECT_NE(sk.spill_path.find(victim), std::string::npos) << sk.spill_path;
  }
  ExpectSameReport(*got, *want);
}

}  // namespace
}  // namespace exstream
