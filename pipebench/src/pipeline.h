// The system under test behind one interface, in two builds:
//
//   * SystemPipeline — XStreamSystem itself, untraced. End-to-end metrics
//     come from this one.
//   * TracedPipeline — the same layers composed by hand in XStreamSystem's
//     order (guard -> WAL -> CepEngine -> tails -> archive, detector on the
//     match callback, auto-explain worker, result cache), with a span around
//     every call into a layer's public functions. Per-layer metrics come from
//     this one; the benchmark checks that it produces the same match rows,
//     archive and explanations as the system it mirrors.

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "event/registry.h"
#include "trace.h"
#include "xstream/system.h"

namespace pipebench {

/// \brief Layer counters a run reads at its end.
struct PipelineCounters {
  uint64_t guard_rejected = 0;
  uint64_t shed_events = 0;
  uint64_t wal_events = 0;
  uint64_t wal_bytes = 0;
  uint64_t wal_syncs = 0;
  uint64_t wal_failures = 0;  ///< append + sync failures
  exstream::IncrementalFeatureState::Stats tails;
  exstream::ExplainResultCache::Stats cache;
  uint64_t detector_anomalies = 0;
  uint64_t auto_completed = 0;
  uint64_t auto_dropped = 0;
  /// Traced pipeline only: work counts of uncached explanations, and
  /// re-run stages whose output differed from the engine's own.
  uint64_t related_partitions = 0;
  uint64_t features_ranked = 0;
  uint64_t stage_mismatches = 0;
};

class Pipeline {
 public:
  virtual ~Pipeline() = default;

  virtual exstream::Result<exstream::QueryId> AddQuery(const std::string& text,
                                                       const std::string& name) = 0;
  /// One producer batch through the whole ingest path (synchronous apply).
  virtual void Ingest(exstream::EventBatch batch) = 0;
  /// Releases what the guard holds; afterwards every admitted event is applied.
  virtual void Flush() = 0;
  /// An interactive Explain through the result cache.
  virtual exstream::Result<exstream::ExplanationReport> Explain(
      const exstream::AnomalyAnnotation& annotation, exstream::QueryId query,
      const std::string& column) = 0;
  virtual std::vector<exstream::XStreamSystem::AutoExplanation>
  TakeAutoExplanations() = 0;
  /// End of stream: closes open detector excursions and waits for every
  /// auto-explanation they cause.
  virtual void FinalizeAndDrain() = 0;

  virtual exstream::PartitionTable& partitions() = 0;
  virtual const exstream::CepEngine& engine() const = 0;
  virtual const exstream::EventArchive& archive() const = 0;
  virtual PipelineCounters counters() const = 0;
};

std::unique_ptr<Pipeline> MakeSystemPipeline(const exstream::EventTypeRegistry* registry,
                                             const exstream::XStreamConfig& config);

/// `tracer` must outlive the pipeline.
std::unique_ptr<Pipeline> MakeTracedPipeline(const exstream::EventTypeRegistry* registry,
                                             const exstream::XStreamConfig& config,
                                             Tracer* tracer);

}  // namespace pipebench
