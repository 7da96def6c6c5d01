#include "scenario.h"

#include "common/rng.h"
#include "common/strings.h"
#include "event/stream.h"

namespace pipebench {

using exstream::AnomalyType;
using exstream::Timestamp;

namespace {

// Half the Fig. 13 workloads' severity (job slowdown 2x instead of 3x). At
// full severity the share of right explanations swings by ~0.3 between
// seeds, too much for a gated metric; at half it stays within ~0.1.
constexpr double kInterferenceSeverity = 0.5;

}  // namespace

const std::vector<JobFamily>& Families() {
  static const std::vector<JobFamily> kFamilies = {
      {"WC-frequent-users", "worldcup", AnomalyType::kHighMemory},
      {"WC-sessions", "worldcup", AnomalyType::kHighCpu},
      {"Twitter-trigram", "twitter", AnomalyType::kBusyDisk},
      {"WC-bigram", "worldcup", AnomalyType::kBusyNetwork},
  };
  return kFamilies;
}

std::vector<std::string> GroundTruth(AnomalyType type) {
  return exstream::AnomalyGroundTruthSignals(type);
}

exstream::Result<ClusterSegment> GenerateSegment(
    const exstream::EventTypeRegistry& registry, const ClusterOptions& options,
    size_t index) {
  const Timestamp offset = static_cast<Timestamp>(index) * options.segment_seconds;
  exstream::Rng rng(options.seed * 1000003 + index);

  exstream::HadoopSimConfig sim_config;
  sim_config.num_nodes = options.num_nodes;
  sim_config.seed = rng.Fork().gen()();
  sim_config.duration = options.segment_seconds - 1;
  exstream::HadoopClusterSim sim(sim_config, &registry);

  ClusterSegment seg;
  seg.begin = offset;
  seg.end = offset + options.segment_seconds;
  // Jobs rotate through the families; every other run of a family (after a
  // clean one, so validation has a related partition) is interfered with.
  // The seed moves the interference inside the job's early phase. The last
  // job must finish inside the segment, leaving ~20 min of slack.
  const size_t n_families = Families().size();
  size_t k = 0;
  for (Timestamp start = 0; start + 1200 < options.segment_seconds;
       start += options.job_spacing, ++k) {
    const size_t family = k % n_families;
    const size_t run_of_family = k / n_families;
    JobRun job;
    job.id = exstream::StrFormat("s%zu-job-%03zu", index, k);
    job.family = family;
    job.start = start;
    exstream::HadoopJobConfig cfg;
    cfg.job_id = job.id;
    cfg.program = Families()[family].program;
    cfg.dataset = Families()[family].dataset;
    cfg.start_time = start;
    sim.AddJob(cfg);
    if (run_of_family % 2 == 1) {
      Incident incident;
      incident.job = seg.jobs.size();
      incident.type = Families()[family].anomaly;
      const Timestamp lo = start + 40 + rng.UniformInt(0, 40);
      incident.window = {lo, lo + 300};
      exstream::AnomalySpec spec;
      spec.type = incident.type;
      spec.start = incident.window.lower;
      spec.end = incident.window.upper;
      spec.severity = kInterferenceSeverity;
      sim.AddAnomaly(spec);
      seg.incidents.push_back(std::move(incident));
    }
    seg.jobs.push_back(std::move(job));
  }

  exstream::VectorSink sink;
  EXSTREAM_ASSIGN_OR_RETURN(const auto completions, sim.Run(&sink));
  for (size_t j = 0; j < seg.jobs.size(); ++j) seg.jobs[j].end = completions[j].second;
  seg.events = sink.TakeEvents();
  for (exstream::Event& e : seg.events) e.ts += offset;
  for (JobRun& job : seg.jobs) {
    job.start += offset;
    job.end += offset;
  }
  for (Incident& incident : seg.incidents) {
    const JobRun& job = seg.jobs[incident.job];
    incident.window.lower += offset;
    incident.window.upper += offset;
    // The annotation a user draws on Q1: the slowed stretch against the
    // job's own recovered tail (as in the Fig. 13 workloads).
    incident.annotation.abnormal = {kQ1Name, incident.window, job.id};
    incident.annotation.reference = {kQ1Name, {incident.window.upper + 60, job.end},
                                     job.id};
  }
  return seg;
}

}  // namespace pipebench
