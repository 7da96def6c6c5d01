// The simulated 30-node Hadoop cluster the benchmark monitors: job families
// with injected incidents of known ground truth, Ganglia-rate node metrics,
// generated in time-shifted segments (one simulator run each) that join into
// one stream of any length.

#pragma once

#include <string>
#include <vector>

#include "common/result.h"
#include "event/event.h"
#include "event/registry.h"
#include "explain/annotation.h"
#include "sim/hadoop_sim.h"

namespace pipebench {

/// \brief One job family: a Hadoop program whose anomalous runs all suffer
/// the same anomaly class. Step 2 validation compares a job only with its own
/// family, and a family that mixes classes yields no explanation, so each
/// class gets a family of its own.
struct JobFamily {
  std::string program;
  std::string dataset;
  exstream::AnomalyType anomaly;
};

/// The four families, one per anomaly class of Fig. 13.
const std::vector<JobFamily>& Families();

struct JobRun {
  std::string id;
  size_t family = 0;
  exstream::Timestamp start = 0;
  exstream::Timestamp end = 0;  ///< JobEnd timestamp
};

/// \brief An injected incident: an interfering program during the early
/// phase of one job, plus the annotation a user would draw for it.
struct Incident {
  size_t job = 0;  ///< index into ClusterSegment::jobs
  exstream::AnomalyType type = exstream::AnomalyType::kNone;
  exstream::TimeInterval window;          ///< when the interference ran
  exstream::AnomalyAnnotation annotation; ///< on the monitoring query Q1
};

/// \brief One time-shifted slice of the cluster's stream.
struct ClusterSegment {
  std::vector<exstream::Event> events;  ///< in timestamp order
  std::vector<JobRun> jobs;
  std::vector<Incident> incidents;
  exstream::Timestamp begin = 0;  ///< first simulated second covered
  exstream::Timestamp end = 0;    ///< one past the last
};

struct ClusterOptions {
  uint64_t seed = 1;
  int num_nodes = 30;
  exstream::Timestamp segment_seconds = 6 * 3600;
  exstream::Timestamp job_spacing = 750;  ///< one job start per spacing
};

/// Name and text of the paper's Q1 (queuing size per job).
inline constexpr char kQ1Name[] = "Q1";
inline constexpr char kQ1Text[] =
    "PATTERN SEQ(JobStart a, DataIO+ b[], JobEnd c) WHERE [jobId] "
    "RETURN (b[i].timestamp, a.jobId, sum(b[1..i].dataSize))";
inline constexpr char kQ1Column[] = "sum_dataSize";

/// The memory query the streaming detector watches: node 0's memory. One
/// node gives one anomaly per memory incident, so auto-explanations do not
/// queue behind each other on the single auto-explain worker and their lag
/// is one explanation's, not a queue position's.
inline constexpr char kMemName[] = "NodeMem";
inline constexpr char kMemText[] =
    "PATTERN SEQ(MemUsage+ b[]) WHERE [clusterNodeNumber] AND "
    "b.clusterNodeNumber = 0 RETURN (b[i].timestamp, b[i].memFree)";

/// \brief Generates segment `index` of the stream: simulated seconds
/// [index * segment_seconds, (index + 1) * segment_seconds). The same
/// (options, index) always gives the same events.
exstream::Result<ClusterSegment> GenerateSegment(
    const exstream::EventTypeRegistry& registry, const ClusterOptions& options,
    size_t index);

/// Ground-truth signals of an anomaly class (what an expert would name).
std::vector<std::string> GroundTruth(exstream::AnomalyType type);

}  // namespace pipebench
