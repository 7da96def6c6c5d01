#include "workloads.h"

#include <sys/statfs.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <tuple>
#include <unordered_map>

#include "common/rng.h"
#include "common/strings.h"
#include "pipeline.h"
#include "queries.h"
#include "scenario.h"
#include "stats.h"
#include "trace.h"
#include "xstream/evaluation.h"

namespace pipebench {

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using exstream::AnomalyAnnotation;
using exstream::Event;
using exstream::EventBatch;
using exstream::ExplanationReport;
using exstream::QueryId;
using exstream::Result;
using exstream::Status;
using exstream::Timestamp;

// ---- Fixed workload parameters (see README.md for the reasoning) --------

constexpr size_t kBatchEvents = 512;
constexpr int kNodes = 30;
constexpr size_t kMixedQueries = 200;
constexpr size_t kSetupRepeats = 3;
constexpr Timestamp kSegmentSeconds = 6 * 3600;
constexpr size_t kIngestSegments = 4;  ///< ingest-mixed: 24 simulated hours
constexpr size_t kIngestPasses = 2;    ///< replays of that input, each on a new system
constexpr size_t kAsksPerIncident = 2;  ///< ingest-mixed: canonical window + one drag
constexpr Timestamp kHistorySeconds = 12 * 3600;
constexpr size_t kColdClients = 3;
constexpr double kColdRepeatShare = 0.25;
constexpr size_t kRepeatWindow = 32;  ///< repeats re-ask recent first asks
constexpr size_t kCacheCapacity = 2 * kRepeatWindow;  ///< so repeats always hit
constexpr int kDragSteps = 5;  ///< window edges move by up to 5 x 5 s
constexpr Timestamp kDragStep = 5;
constexpr size_t kRecheckSample = 24;  ///< post-flush re-asks per source
constexpr size_t kRateWindowBatches = 64;  ///< ingest rate: median over 64-batch windows

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}
double Secs(Clock::duration d) { return std::chrono::duration<double>(d).count(); }

// ---- Input stream ---------------------------------------------------------

/// \brief A run's input, generated up front: the simulated cluster's stream
/// cut into producer batches, with the batch in which each job ended and each
/// node-memory sample landed (partition indexing and auto-explain lag need
/// both). Every pass over it replays the same batches.
class Stream {
 public:
  static Result<std::shared_ptr<const Stream>> Generate(
      const exstream::EventTypeRegistry& registry, const ClusterOptions& options,
      size_t segments) {
    auto s = std::make_shared<Stream>();
    const exstream::EventTypeId mem_type = registry.IdOf("MemUsage").ValueOrDie();
    const exstream::EventTypeId job_end_type = registry.IdOf("JobEnd").ValueOrDie();
    s->mem_batches_.resize(kNodes);
    std::unordered_map<std::string, size_t> job_index;
    for (size_t i = 0; i < segments; ++i) {
      EXSTREAM_ASSIGN_OR_RETURN(ClusterSegment seg, GenerateSegment(registry, options, i));
      if (!seg.events.empty() && seg.events.back().ts >= seg.end) {
        return Status::Internal("segment events spill past the segment end");
      }
      const size_t base = s->jobs_.size();
      for (JobRun& job : seg.jobs) {
        job_index[job.id] = s->jobs_.size();
        s->jobs_.push_back(std::move(job));
      }
      s->job_end_batch_.resize(s->jobs_.size(), SIZE_MAX);
      for (Incident& incident : seg.incidents) {
        incident.job += base;
        s->incidents_.push_back(std::move(incident));
      }
      for (size_t pos = 0; pos < seg.events.size(); pos += kBatchEvents) {
        const size_t b = s->batches_.size();
        const size_t n = std::min(kBatchEvents, seg.events.size() - pos);
        EventBatch& batch = s->batches_.emplace_back();
        batch.reserve(n);
        s->ended_jobs_.emplace_back();
        for (size_t k = pos; k < pos + n; ++k) {
          Event& e = seg.events[k];
          if (e.type == mem_type) {
            s->mem_batches_[static_cast<size_t>(e.values[0].AsInt64())].emplace_back(e.ts, b);
          } else if (e.type == job_end_type) {
            const size_t j = job_index.at(e.values[2].AsString());
            s->job_end_batch_[j] = b;
            s->ended_jobs_.back().push_back(j);
          }
          batch.push_back(std::move(e));
        }
        s->events_ += n;
      }
    }
    for (const Incident& incident : s->incidents_) {
      if (s->job_end_batch_[incident.job] == SIZE_MAX) {
        return Status::Internal("an incident's job never ends inside the stream");
      }
    }
    return std::shared_ptr<const Stream>(std::move(s));
  }

  size_t num_batches() const { return batches_.size(); }
  const EventBatch& batch(size_t b) const { return batches_[b]; }
  /// Jobs whose JobEnd event is in batch `b`.
  const std::vector<size_t>& ended_jobs(size_t b) const { return ended_jobs_[b]; }
  size_t job_end_batch(size_t job) const { return job_end_batch_[job]; }
  uint64_t events() const { return events_; }
  const std::vector<JobRun>& jobs() const { return jobs_; }
  const std::vector<Incident>& incidents() const { return incidents_; }

  /// Batch holding node `partition`'s memory sample at `ts`.
  Result<size_t> MemBatch(const std::string& partition, Timestamp ts) const {
    const size_t n = std::stoul(partition);
    if (n >= mem_batches_.size()) return Status::NotFound("no node " + partition);
    const auto& v = mem_batches_[n];
    const auto it = std::lower_bound(
        v.begin(), v.end(), ts, [](const auto& p, Timestamp t) { return p.first < t; });
    if (it == v.end() || it->first != ts) {
      return Status::NotFound("no memory sample for node " + std::to_string(n));
    }
    return it->second;
  }

 private:
  std::vector<EventBatch> batches_;
  std::vector<std::vector<size_t>> ended_jobs_;
  std::vector<size_t> job_end_batch_;
  uint64_t events_ = 0;
  std::vector<JobRun> jobs_;
  std::vector<Incident> incidents_;
  std::vector<std::vector<std::pair<Timestamp, size_t>>> mem_batches_;
};

// ---- System construction --------------------------------------------------

/// Archive chunking: events per chunk, and the per-type budget of sealed
/// chunks kept in memory (past it, sealed chunks spill to v4 files).
struct Chunking {
  size_t capacity = exstream::ArchiveOptions{}.chunk_capacity;
  size_t resident = exstream::ArchiveOptions{}.max_resident_chunks;
};

exstream::XStreamConfig MakeConfig(const std::string& dir, Chunking chunking) {
  exstream::XStreamConfig config;
  config.archive.spill_dir = dir + "/spill";
  config.archive.chunk_capacity = chunking.capacity;
  config.archive.max_resident_chunks = chunking.resident;
  config.explain.feature_space.windows = {10, 30};
  config.explain.num_threads = 1;
  config.durability.wal_dir = dir + "/wal";
  config.durability.fsync = exstream::WalFsyncPolicy::kInterval;
  config.serving.incremental_features = true;
  config.serving.incremental_retention = 2 * 3600;
  config.serving.explain_cache_capacity = kCacheCapacity;
  config.serving.detector = exstream::StreamingDetectorOptions{};
  config.serving.detect_query = kMemName;
  config.serving.auto_explain = true;
  // Sized to hold every anomaly a run can raise: a dropped anomaly is a
  // failed operation, not a measurement.
  config.serving.auto_queue_capacity = 4096;
  config.serving.max_auto_explanations = 4096;
  return config;
}

/// Which build of the system a run drives: XStreamSystem itself, or the
/// hand-composed pipeline, traced or not.
enum class Build { kSystem, kComposed };

struct Built {
  std::unique_ptr<Pipeline> pipeline;
  QueryId q1 = 0;
  QueryId mem = 0;
};

/// Everything before the first event: the system and its queries. Node
/// partitions are left out of the partition table: each spans the whole
/// stream, so validating against them would rescan all history per anomaly.
Result<Built> BuildPipeline(const exstream::EventTypeRegistry* registry,
                            const std::string& dir, Build build, Tracer* tracer,
                            const std::vector<QuerySpec>& mixed, Chunking chunking) {
  fs::remove_all(dir);
  fs::create_directories(dir + "/spill");
  const exstream::XStreamConfig config = MakeConfig(dir, chunking);
  Built b;
  b.pipeline = build == Build::kComposed ? MakeTracedPipeline(registry, config, tracer)
                                         : MakeSystemPipeline(registry, config);
  EXSTREAM_ASSIGN_OR_RETURN(b.q1, b.pipeline->AddQuery(kQ1Text, kQ1Name));
  EXSTREAM_ASSIGN_OR_RETURN(b.mem, b.pipeline->AddQuery(kMemText, kMemName));
  for (const QuerySpec& q : mixed) {
    EXSTREAM_RETURN_NOT_OK(b.pipeline->AddQuery(q.text, q.name).status());
  }
  return b;
}

/// Registers a finished job's Q1 partition, as the monitoring side does when
/// a match completes.
void IndexJob(Pipeline& p, QueryId q1, const JobRun& job) {
  const std::vector<exstream::MatchRow> rows = p.engine().match_table(q1).Rows(job.id);
  if (rows.empty()) return;
  exstream::PartitionRecord rec;
  rec.query_name = kQ1Name;
  rec.partition = job.id;
  rec.dimensions = {{"program", Families()[job.family].program},
                    {"dataset", Families()[job.family].dataset}};
  rec.start_ts = rows.front().ts;
  rec.end_ts = rows.back().ts;
  rec.num_points = rows.size();
  p.partitions().Upsert(std::move(rec));
}

// ---- Output fingerprints and checks ---------------------------------------

struct Hasher {
  uint64_t h = 1469598103934665603ull;
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  }
  template <typename T>
  void Pod(const T& v) {
    Bytes(&v, sizeof(v));
  }
  void Str(const std::string& s) {
    Pod(s.size());
    Bytes(s.data(), s.size());
  }
  void Val(const exstream::Value& v) {
    Pod(static_cast<int>(v.type()));
    switch (v.type()) {
      case exstream::ValueType::kInt64:
        Pod(v.AsInt64());
        break;
      case exstream::ValueType::kDouble:
        Pod(v.AsDouble());
        break;
      case exstream::ValueType::kString:
        Str(v.AsString());
        break;
    }
  }
};

uint64_t ExplanationFingerprint(const ExplanationReport& r) {
  Hasher h;
  h.Str(r.explanation.ToString());
  h.Pod(r.num_related_partitions);
  for (const auto& f : r.ranked) {
    h.Str(f.spec.Name());
    h.Pod(f.reward());
  }
  for (const auto& f : r.final_features) h.Str(f.spec.Name());
  return h.h;
}

/// Every match row of every query, in query / partition / row order.
uint64_t MatchFingerprint(const exstream::CepEngine& engine, uint64_t* rows) {
  Hasher h;
  std::set<const exstream::MatchTable*> seen;
  *rows = 0;
  for (QueryId q = 0; q < engine.num_queries(); ++q) {
    const exstream::MatchTable& table = engine.match_table(q);
    for (const std::string& partition : table.Partitions()) {
      h.Str(partition);
      for (const exstream::MatchRow& row : table.Rows(partition)) {
        h.Pod(row.ts);
        for (const exstream::Value& v : row.values) h.Val(v);
      }
    }
    if (seen.insert(&table).second) *rows += table.TotalRows();
  }
  return h.h;
}

/// Fresh serial, uncached, tail-less explanations of `annotations` on the
/// pipeline's settled archive, fanned out over a few threads.
std::vector<Result<uint64_t>> ReferenceFingerprints(
    Pipeline& p, QueryId query, const std::string& column,
    const std::vector<AnomalyAnnotation>& annotations) {
  const exstream::ExplainOptions options = MakeConfig("", Chunking{}).explain;
  const exstream::CepEngine* engine = &p.engine();
  const std::string query_name = engine->compiled(query).query().name;
  std::vector<Result<uint64_t>> out(annotations.size(), Status::Internal("not run"));
  std::atomic<size_t> next{0};
  auto work = [&] {
    exstream::SeriesProvider series =
        [engine, query, query_name, column](
            const std::string& q,
            const std::string& partition) -> Result<exstream::TimeSeries> {
      if (q != query_name) return Status::NotFound("no series for query " + q);
      return engine->match_table(query).ExtractSeries(partition, column);
    };
    const exstream::ExplanationEngine reference(&p.archive(), &p.partitions(),
                                                std::move(series), options, nullptr);
    for (size_t i = next.fetch_add(1); i < annotations.size(); i = next.fetch_add(1)) {
      auto r = reference.Explain(annotations[i]);
      out[i] = r.ok() ? Result<uint64_t>(ExplanationFingerprint(*r))
                      : Result<uint64_t>(r.status());
    }
  };
  std::vector<std::thread> threads;
  for (size_t t = 0; t < 4; ++t) threads.emplace_back(work);
  for (auto& t : threads) t.join();
  return out;
}

// ---- Per-run measurements --------------------------------------------------

struct Samples {
  std::mutex mu;  ///< Explain clients record concurrently
  // Ingest side.
  std::vector<double> batch_ms;
  std::vector<double> batch_sizes;  ///< events per batch, in ingest order
  uint64_t batches = 0;
  uint64_t batch_events = 0;
  double batch_busy_s = 0.0;
  /// Shed, rejected or unlogged events and dropped anomalies, per system.
  uint64_t system_failures = 0;
  // Explain side: first asks compute an explanation, repeats re-ask one.
  std::vector<double> explain_ms;  ///< first asks
  std::vector<double> repeat_ms;
  std::vector<double> done_s;  ///< completion times, seconds into the client phase
  Clock::time_point phase_start;
  uint64_t explains = 0;  ///< first asks and repeats
  uint64_t explain_errors = 0;
  double explain_busy_s = 0.0;
  std::vector<double> consistency;  ///< first asks
  /// Explanations served, by request key (checked for agreement).
  std::map<std::string, uint64_t> served;
  std::vector<std::pair<std::string, AnomalyAnnotation>> interactive;
  // Detector and auto-explain.
  std::vector<double> lag_ms;
  uint64_t auto_taken = 0;
  uint64_t auto_errors = 0;
  std::set<std::tuple<std::string, Timestamp, Timestamp>> anomalies;
  std::vector<AnomalyAnnotation> auto_annotations;  ///< the last pass's
  double phase_s = 0.0;
};

/// Adds `from`'s ingest-side samples to `to`.
void PoolIngest(const Samples& from, Samples* to) {
  to->batch_ms.insert(to->batch_ms.end(), from.batch_ms.begin(), from.batch_ms.end());
  to->batch_sizes.insert(to->batch_sizes.end(), from.batch_sizes.begin(),
                         from.batch_sizes.end());
  to->batches += from.batches;
  to->batch_events += from.batch_events;
  to->batch_busy_s += from.batch_busy_s;
  to->system_failures += from.system_failures;
  to->lag_ms.insert(to->lag_ms.end(), from.lag_ms.begin(), from.lag_ms.end());
  to->auto_taken += from.auto_taken;
  to->auto_errors += from.auto_errors;
  to->anomalies.insert(from.anomalies.begin(), from.anomalies.end());
  to->auto_annotations = from.auto_annotations;
  to->phase_s += from.phase_s;
}

/// Limits of one measured phase: wall time, whole passes over the input
/// (ingest-mixed), and Explain requests (a traced replay serves exactly as
/// many as the untraced run did).
struct Budget {
  double seconds = 0.0;
  size_t passes = kIngestPasses;
  size_t explains = SIZE_MAX;
};

/// Drains auto-explanations as they complete, stamping when each was taken.
/// Keeps only what the metrics need: a report holds every ranked feature's
/// series and would dominate the process's memory.
class AutoCollector {
 public:
  struct Record {
    exstream::StreamAnomaly anomaly;
    bool ok = false;
    Clock::time_point taken;
  };

  explicit AutoCollector(Pipeline* p) : p_(p), thread_([this] { Loop(); }) {}
  ~AutoCollector() { Stop(); }
  AutoCollector(const AutoCollector&) = delete;
  AutoCollector& operator=(const AutoCollector&) = delete;

  std::vector<Record> Stop() {
    if (thread_.joinable()) {
      stop_.store(true);
      thread_.join();
      Take();
    }
    return std::move(records_);
  }

 private:
  void Loop() {
    while (!stop_.load()) {
      Take();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  void Take() {
    auto got = p_->TakeAutoExplanations();
    const Clock::time_point now = Clock::now();
    for (auto& item : got) {
      records_.push_back(Record{std::move(item.anomaly), item.report->ok(), now});
    }
  }

  Pipeline* p_;
  std::atomic<bool> stop_{false};
  std::vector<Record> records_;
  std::thread thread_;  // last: started after the members it uses
};

/// Lag from when the batch holding an anomaly's last abnormal sample was
/// handed in to the moment its explanation was taken. `due[b]` is batch b's.
void RecordAutos(const std::vector<AutoCollector::Record>& records, const Stream& stream,
                 const std::vector<Clock::time_point>& due, Samples* s) {
  s->auto_taken += records.size();
  for (const auto& rec : records) {
    const exstream::StreamAnomaly& a = rec.anomaly;
    s->anomalies.emplace(a.partition, a.annotation.abnormal.range.lower,
                         a.annotation.abnormal.range.upper);
    s->auto_annotations.push_back(a.annotation);
    if (!rec.ok) ++s->auto_errors;
    const auto batch = stream.MemBatch(a.partition, a.annotation.abnormal.range.upper);
    if (batch.ok() && *batch < due.size()) {
      s->lag_ms.push_back(Ms(rec.taken - due[*batch]));
    }
  }
}

// ---- Explain requests ------------------------------------------------------

/// An annotation a user could draw for `incident`: its canonical window with
/// each edge dragged by (dl, du) steps.
AnomalyAnnotation Dragged(const Incident& incident, int dl, int du) {
  AnomalyAnnotation a = incident.annotation;
  a.abnormal.range.lower += dl * kDragStep;
  a.abnormal.range.upper += du * kDragStep;
  return a;
}

struct Request {
  size_t incident = 0;
  int dl = 0;
  int du = 0;
  bool repeat = false;  ///< re-asks an earlier request
};

std::string RequestKey(const Request& r) {
  return exstream::StrFormat("%zu:%d:%d", r.incident, r.dl, r.du);
}

/// The explain-cold script: each incident's canonical window first, then
/// seeded window drags; kColdRepeatShare of the requests re-ask one of the
/// kRepeatWindow latest first asks.
std::vector<Request> ColdScript(uint64_t seed, size_t incidents, size_t length) {
  exstream::Rng rng(seed * 7919 + 17);
  std::vector<Request> script;
  std::vector<Request> asked;
  std::set<std::tuple<size_t, int, int>> used;
  const size_t distinct = incidents * (2 * kDragSteps + 1) * (2 * kDragSteps + 1);
  script.reserve(length);
  while (script.size() < length) {
    if (!asked.empty() && (asked.size() == distinct || rng.Chance(kColdRepeatShare))) {
      const size_t window = std::min(asked.size(), kRepeatWindow);
      Request r =
          asked[asked.size() - 1 - static_cast<size_t>(rng.UniformInt(0, window - 1))];
      r.repeat = true;
      script.push_back(r);
      continue;
    }
    Request r;
    if (asked.size() < incidents) {
      r.incident = asked.size();
    } else {
      do {
        r.incident = static_cast<size_t>(rng.UniformInt(0, incidents - 1));
        r.dl = static_cast<int>(rng.UniformInt(-kDragSteps, kDragSteps));
        r.du = static_cast<int>(rng.UniformInt(-kDragSteps, kDragSteps));
      } while (used.count({r.incident, r.dl, r.du}) != 0);
    }
    used.insert({r.incident, r.dl, r.du});
    asked.push_back(r);
    script.push_back(r);
  }
  return script;
}

/// Asks one Explain through the pipeline and records it.
void AskAndRecord(Pipeline& p, QueryId q1, const Incident& incident, const Request& req,
                  Samples* s) {
  const AnomalyAnnotation a = Dragged(incident, req.dl, req.du);
  const Clock::time_point start = Clock::now();
  const Result<ExplanationReport> report = p.Explain(a, q1, kQ1Column);
  const Clock::time_point done = Clock::now();
  const Clock::duration took = done - start;
  std::lock_guard<std::mutex> lock(s->mu);
  ++s->explains;
  s->done_s.push_back(Secs(done - s->phase_start));
  (req.repeat ? s->repeat_ms : s->explain_ms).push_back(Ms(took));
  s->explain_busy_s += Secs(took);
  if (!report.ok()) {
    ++s->explain_errors;
    return;
  }
  if (!req.repeat) {
    s->consistency.push_back(
        exstream::ClusterAwareConsistency(*report, GroundTruth(incident.type)));
  }
  const std::string key = RequestKey(req);
  const uint64_t fp = ExplanationFingerprint(*report);
  const auto [it, inserted] = s->served.emplace(key, fp);
  if (inserted) {
    s->interactive.emplace_back(key, a);
  } else if (it->second != fp) {
    it->second = 0;  // one request, two answers: fails the served check
  }
}

/// Closed-loop Explain clients serving `script` in order; they stop when
/// the budget's time is up or after budget.explains requests.
void RunClosedClients(Pipeline& p, QueryId q1, const std::vector<Incident>& incidents,
                      const std::vector<Request>& script, size_t clients,
                      const Budget& budget, Samples* s) {
  std::atomic<size_t> next{0};
  const Clock::time_point t0 = Clock::now();
  s->phase_start = t0;
  auto client = [&] {
    for (;;) {
      // Limits are checked before an index is taken, so every index taken
      // is served and a run serves exactly a prefix of the requests.
      if (Secs(Clock::now() - t0) >= budget.seconds) return;
      const size_t i = next.fetch_add(1);
      if (i >= budget.explains) return;
      const Request& req = script[i % script.size()];
      AskAndRecord(p, q1, incidents[req.incident], req, s);
    }
  };
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) threads.emplace_back(client);
  for (auto& t : threads) t.join();
  s->phase_s = Secs(Clock::now() - t0);
}

/// The system's counters that count failed operations.
uint64_t SystemFailures(const Pipeline& p) {
  const PipelineCounters c = p.counters();
  return c.auto_dropped + c.shed_events + c.guard_rejected + c.wal_failures;
}

/// Checks on a system that has ingested the whole stream once.
void CheckIngested(const std::string& workload, const Pipeline& p, const Stream& stream,
                   const Samples& in, std::vector<std::string>* problems) {
  const PipelineCounters c = p.counters();
  auto require = [&](bool ok, const std::string& what) {
    if (!ok) problems->push_back(what);
  };
  require(p.archive().TotalEvents() == stream.events(),
          exstream::StrFormat("archive holds %zu events, the stream has %llu",
                              p.archive().TotalEvents(),
                              static_cast<unsigned long long>(stream.events())));
  require(c.wal_events == stream.events(), "WAL did not log every ingested event");
  require(c.auto_dropped == 0, "auto-explain queue dropped anomalies");
  require(c.auto_completed == in.auto_taken, "not every detected anomaly was auto-explained");
  require(!in.anomalies.empty(), "the detector flagged nothing");
  if (workload == "ingest-mixed") {
    const size_t groups = p.engine().merge_stats().groups;
    require(groups * 4 >= kMixedQueries,
            exstream::StrFormat("mixed query set collapsed to %zu merge groups", groups));
  }
}

/// Closed-loop producer over the whole stream: the next batch goes in as
/// soon as the last returns. `after_batch(b)` runs once batch b and the
/// partitions of the jobs it finished are in. Ends with the final Flush and
/// every auto-explanation taken.
void IngestStream(Pipeline& p, QueryId q1, const Stream& stream,
                  const std::function<void(size_t)>& after_batch, Samples* s) {
  AutoCollector autos(&p);
  std::vector<Clock::time_point> due;
  due.reserve(stream.num_batches());
  const Clock::time_point t0 = Clock::now();
  for (size_t b = 0; b < stream.num_batches(); ++b) {
    EventBatch batch = stream.batch(b);  // a copy: passes replay the same input
    const size_t n = batch.size();
    const Clock::time_point start = Clock::now();
    due.push_back(start);
    p.Ingest(std::move(batch));
    const Clock::duration took = Clock::now() - start;
    s->batch_ms.push_back(Ms(took));
    s->batch_sizes.push_back(static_cast<double>(n));
    s->batch_busy_s += Secs(took);
    s->batch_events += n;
    ++s->batches;
    for (const size_t j : stream.ended_jobs(b)) IndexJob(p, q1, stream.jobs()[j]);
    if (after_batch) after_batch(b);
  }
  s->phase_s = Secs(Clock::now() - t0);
  p.Flush();
  p.FinalizeAndDrain();
  RecordAutos(autos.Stop(), stream, due, s);
  s->system_failures += SystemFailures(p);
}

// ---- Workloads -------------------------------------------------------------

struct Context {
  const RunSettings& settings;
  exstream::EventTypeRegistry registry;
  ClusterOptions cluster;
  std::vector<QuerySpec> mixed;
  std::vector<double> setup_s;
  std::string dir;
  /// explain-cold: the history ingests of every set-up, pooled.
  Samples history;
};

/// One run of a workload against one build of the system.
struct PassResult {
  std::shared_ptr<const Stream> stream;
  Build build = Build::kSystem;
  Tracer* tracer = nullptr;
  std::string dir;
  Chunking chunking;
  Built built;
  std::unique_ptr<Samples> ingest = std::make_unique<Samples>();
  std::unique_ptr<Samples> explain = std::make_unique<Samples>();
  /// Output checks that failed while the run went on.
  std::vector<std::string> problems;
  /// Tracer clock and layer counters when the measured phase began.
  int64_t measured_start_ns = 0;
  PipelineCounters counters_at_start;
};

void MarkMeasuredStart(PassResult* r) {
  if (r->tracer != nullptr) r->measured_start_ns = r->tracer->NowNs();
  r->counters_at_start = r->built.pipeline->counters();
}

Status BuildSystem(const Context& ctx, PassResult* r) {
  r->built = Built{};  // the old system closes its WAL before its files go
  EXSTREAM_ASSIGN_OR_RETURN(
      r->built,
      BuildPipeline(&ctx.registry, r->dir, r->build, r->tracer,
                    ctx.settings.workload == "ingest-mixed" ? ctx.mixed
                                                            : std::vector<QuerySpec>{},
                    r->chunking));
  return Status::OK();
}

/// The set-up a run needs before its measured phase: its input (generated,
/// unless `stream` is given) and the system with its queries; for
/// explain-cold also the closed-loop ingest of its history, with the
/// auto-explanations it raises.
Result<PassResult> Prepare(const Context& ctx, const std::string& dir, Build build,
                           Tracer* tracer, std::shared_ptr<const Stream> stream) {
  const bool cold = ctx.settings.workload == "explain-cold";
  PassResult r;
  r.build = build;
  r.tracer = tracer;
  r.dir = dir;
  // explain-cold keeps 48 sealed chunks per type in memory (~9 simulated
  // hours of node metrics), so the oldest quarter of its history, and the
  // incidents in it, are read back from v4 spill files. ingest-mixed keeps
  // all it ingests resident.
  r.chunking.resident = cold ? 48 : 1024;
  if (stream == nullptr) {
    ClusterOptions options = ctx.cluster;
    if (cold) options.segment_seconds = kHistorySeconds;
    EXSTREAM_ASSIGN_OR_RETURN(
        stream, Stream::Generate(ctx.registry, options, cold ? 1 : kIngestSegments));
  }
  r.stream = std::move(stream);
  EXSTREAM_RETURN_NOT_OK(BuildSystem(ctx, &r));
  if (cold) {
    IngestStream(*r.built.pipeline, r.built.q1, *r.stream, {}, r.ingest.get());
    CheckIngested(ctx.settings.workload, *r.built.pipeline, *r.stream, *r.ingest,
                  &r.problems);
  }
  return r;
}

/// ingest-mixed: whole passes over the stream, each on a new system (the
/// time budget only stops further passes). The operator asks about each
/// incident right after its job ends, inline between batches, so every pass
/// asks the same questions of the same data.
Status RunIngestMixed(const Context& ctx, PassResult& r, const Budget& budget) {
  const Stream& stream = *r.stream;
  std::vector<std::vector<Request>> asks(stream.num_batches());
  for (size_t i = 0; i < stream.incidents().size(); ++i) {
    exstream::Rng rng(ctx.settings.seed * 7919 + i);
    std::set<std::pair<int, int>> drags = {{0, 0}};
    while (drags.size() < kAsksPerIncident) {
      drags.emplace(static_cast<int>(rng.UniformInt(-kDragSteps, kDragSteps)),
                    static_cast<int>(rng.UniformInt(-kDragSteps, kDragSteps)));
    }
    auto& at = asks[stream.job_end_batch(stream.incidents()[i].job)];
    for (const auto& [dl, du] : drags) at.push_back(Request{i, dl, du, false});
  }
  MarkMeasuredStart(&r);
  const Clock::time_point t0 = Clock::now();
  for (size_t pass = 0; pass < budget.passes; ++pass) {
    if (pass > 0) {
      if (Secs(Clock::now() - t0) >= budget.seconds) break;
      EXSTREAM_RETURN_NOT_OK(BuildSystem(ctx, &r));
    }
    Pipeline& p = *r.built.pipeline;
    Samples in;
    IngestStream(
        p, r.built.q1, stream,
        [&](size_t b) {
          for (const Request& req : asks[b]) {
            AskAndRecord(p, r.built.q1, stream.incidents()[req.incident], req,
                         r.explain.get());
          }
        },
        &in);
    CheckIngested(ctx.settings.workload, p, stream, in, &r.problems);
    PoolIngest(in, r.ingest.get());
  }
  return Status::OK();
}

Status RunExplainCold(const Context& ctx, PassResult& r, const Budget& budget) {
  const std::vector<Incident>& incidents = r.stream->incidents();
  if (incidents.empty()) return Status::Internal("history holds no incidents");
  const std::vector<Request> script =
      ColdScript(ctx.settings.seed, incidents.size(), 200000);
  MarkMeasuredStart(&r);
  RunClosedClients(*r.built.pipeline, r.built.q1, incidents, script, kColdClients, budget,
                   r.explain.get());
  return Status::OK();
}

using WorkloadFn = Status (*)(const Context&, PassResult&, const Budget&);

WorkloadFn FindWorkload(const std::string& name) {
  if (name == "ingest-mixed") return &RunIngestMixed;
  if (name == "explain-cold") return &RunExplainCold;
  return nullptr;
}

// ---- Reporting -------------------------------------------------------------

double PeakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

std::string FilesystemOf(const std::string& path) {
  struct statfs st;
  if (statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53:
      return "ext4";
    case 0x58465342:
      return "xfs";
    case 0x01021994:
      return "tmpfs";
    case 0x794C7630:
      return "overlayfs";
    case 0x9123683E:
      return "btrfs";
    default:
      return exstream::StrFormat("0x%lx", static_cast<unsigned long>(st.f_type));
  }
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

void AddTiming(RunOutcome* out, const std::string& what, const std::vector<double>& v) {
  const Percentiles p = Summarize(v);
  out->info.emplace_back(
      what, exstream::StrFormat("n=%zu p50=%.4f p95=%.4f (%zu beyond) p99=%.4f (%zu beyond)",
                                p.count, p.p50, p.p95, SamplesBeyond(v, 0.95), p.p99,
                                SamplesBeyond(v, 0.99)));
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

void Require(RunOutcome* out, bool ok, const std::string& what) {
  if (!ok) {
    out->correct = false;
    out->problems.push_back(what);
  }
}

/// Counts operations and adds the checks that failed during the run.
void Account(const PassResult& r, RunOutcome* out) {
  out->attempted = r.ingest->batches + r.explain->explains + r.ingest->auto_taken;
  out->failed = r.explain->explain_errors + r.ingest->auto_errors + r.ingest->system_failures;
  for (const std::string& p : r.problems) Require(out, false, p);
}

/// Compares explanations with fresh serial, uncached ones on the settled
/// archive. `got[i]` is the pipeline's fingerprint for `anns[i]`.
size_t CountReferenceMismatches(Pipeline& p, QueryId query, const std::string& column,
                                const std::vector<AnomalyAnnotation>& anns,
                                const std::vector<Result<uint64_t>>& got) {
  const auto refs = ReferenceFingerprints(p, query, column, anns);
  size_t bad = 0;
  for (size_t i = 0; i < anns.size(); ++i) {
    if (!got[i].ok() || !refs[i].ok() || *got[i] != *refs[i]) ++bad;
  }
  return bad;
}

/// explain-cold: every distinct explanation served equals the reference.
/// ingest-mixed explains while data still arrives, so after the final flush
/// a seeded sample of its requests (interactive and automatic) is asked
/// again through the pipeline and compared instead; and every request must
/// have had one answer in all passes.
void CheckExplanations(const RunSettings& settings, PassResult& r, RunOutcome* out) {
  Pipeline& p = *r.built.pipeline;
  const Samples& s = *r.explain;
  std::vector<AnomalyAnnotation> q1_ann;
  std::vector<Result<uint64_t>> q1_got;
  if (settings.workload == "explain-cold") {
    for (const auto& [key, a] : s.interactive) {
      q1_ann.push_back(a);
      q1_got.push_back(s.served.at(key));
    }
  } else {
    size_t disagreements = 0;
    for (const auto& [key, fp] : s.served) disagreements += fp == 0 ? 1 : 0;
    Require(out, disagreements == 0,
            exstream::StrFormat("%zu requests got different explanations in different "
                                "passes over the same input",
                                disagreements));
    exstream::Rng rng(settings.seed + 99);
    auto sample = [&](std::vector<AnomalyAnnotation> v) {
      std::shuffle(v.begin(), v.end(), rng.gen());
      if (v.size() > kRecheckSample) v.resize(kRecheckSample);
      return v;
    };
    std::vector<AnomalyAnnotation> all;
    for (const auto& [key, a] : s.interactive) all.push_back(a);
    q1_ann = sample(all);
    const std::vector<AnomalyAnnotation> mem_ann = sample(r.ingest->auto_annotations);
    const std::string mem_column = p.engine().match_table(r.built.mem).column_names().back();
    std::vector<Result<uint64_t>> mem_got;
    for (const AnomalyAnnotation& a : mem_ann) {
      const auto e = p.Explain(a, r.built.mem, mem_column);
      mem_got.push_back(e.ok() ? Result<uint64_t>(ExplanationFingerprint(*e))
                               : Result<uint64_t>(e.status()));
    }
    const size_t bad =
        CountReferenceMismatches(p, r.built.mem, mem_column, mem_ann, mem_got);
    Require(out, bad == 0,
            exstream::StrFormat("%zu of %zu settled auto-explanations differ from the "
                                "serial uncached reference",
                                bad, mem_ann.size()));
    for (const AnomalyAnnotation& a : q1_ann) {
      const auto e = p.Explain(a, r.built.q1, kQ1Column);
      q1_got.push_back(e.ok() ? Result<uint64_t>(ExplanationFingerprint(*e))
                              : Result<uint64_t>(e.status()));
    }
  }
  const size_t bad = CountReferenceMismatches(p, r.built.q1, kQ1Column, q1_ann, q1_got);
  Require(out, bad == 0,
          exstream::StrFormat("%zu of %zu Q1 explanations differ from the serial "
                              "uncached reference",
                              bad, q1_ann.size()));
  out->info.emplace_back("explanations_checked_against_reference",
                         std::to_string(q1_ann.size()));
}

/// explain-cold's clients ask back to back: the median, over the client
/// phase's whole seconds, of Explains completed in each. ingest-mixed asks
/// between batches, as incidents end: Explains per second spent inside
/// Explain calls.
double ExplainsPerSecond(const std::string& workload, const Samples& ex) {
  if (workload == "explain-cold") return MedianPerSecond(ex.done_s, ex.phase_s);
  return ex.explain_busy_s > 0 ? static_cast<double>(ex.explains) / ex.explain_busy_s : 0.0;
}

/// Events per second inside ingest calls: the median over windows of
/// kRateWindowBatches batches, so a few batches stalled by another tenant
/// do not move it the way they move the mean (printed beside it).
double IngestRate(const Samples& in) {
  std::vector<double> seconds;
  seconds.reserve(in.batch_ms.size());
  for (const double ms : in.batch_ms) seconds.push_back(ms * 1e-3);
  return MedianWindowRate(in.batch_sizes, seconds, kRateWindowBatches);
}

void EndToEndMetrics(const Context& ctx, const PassResult& r, RunOutcome* out) {
  // explain-cold ingests only while setting up; its ingest metrics pool
  // the history ingests of all its set-ups.
  const Samples& in = ctx.settings.workload == "explain-cold" ? ctx.history : *r.ingest;
  const Samples& ex = *r.explain;
  // Tails (batch p95/p99, Explain p99) are printed with their sample counts
  // below but are not metrics: on a shared machine they move with other
  // tenants' load far more than any bound a gate could use.
  out->metrics = {
      {"setup_s", Median(ctx.setup_s), "s"},
      {"ingest_events_per_s", IngestRate(in), "events/s"},
      {"ingest_batch_p50_ms", Percentile(in.batch_ms, 0.5), "ms"},
      {"explain_per_s", ExplainsPerSecond(ctx.settings.workload, ex), "explains/s"},
      {"explain_p50_ms", Percentile(ex.explain_ms, 0.5), "ms"},
      {"auto_explain_lag_p50_ms", Percentile(in.lag_ms, 0.5), "ms"},
      {"explain_consistency", Mean(ex.consistency), "fraction"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
  AddTiming(out, "ingest_batch_ms", in.batch_ms);
  AddTiming(out, "explain_first_ask_ms", ex.explain_ms);
  AddTiming(out, "explain_repeat_ms", ex.repeat_ms);
  AddTiming(out, "auto_explain_lag_ms", in.lag_ms);
  AddTiming(out, "setup_s", ctx.setup_s);
  out->info.emplace_back(
      "ingest_events_per_s_mean",
      exstream::StrFormat("%.0f", in.batch_busy_s > 0 ? static_cast<double>(in.batch_events) /
                                                            in.batch_busy_s
                                                      : 0.0));
  if (ex.phase_s > 0) {
    out->info.emplace_back("explain_phase_s", exstream::StrFormat("%.3f", ex.phase_s));
    out->info.emplace_back(
        "explain_per_s_mean",
        exstream::StrFormat("%.3f", static_cast<double>(ex.explains) / ex.phase_s));
  }
  out->info.emplace_back("consistency_samples", std::to_string(ex.consistency.size()));
  out->info.emplace_back("events_ingested", std::to_string(in.batch_events));
  out->info.emplace_back("ingest_phase_s", exstream::StrFormat("%.3f", in.phase_s));
  out->info.emplace_back("auto_anomalies", std::to_string(in.auto_taken));
  out->info.emplace_back("merge_groups",
                         std::to_string(r.built.pipeline->engine().merge_stats().groups));
  for (const Metric& m : out->metrics) {
    Require(out, m.value > 0.0 && std::isfinite(m.value),
            "metric " + m.name + " has no measurement");
  }
}

// ---- Traced run ------------------------------------------------------------

/// `bare` is the traced run's composition without a tracer, fed the same
/// input: the tracing cost is the traced run's time inside ingest calls
/// over the bare run's. (Ingest calls only: a traced Explain also re-runs
/// its stages to time them, so its call time is not comparable.)
void PerLayerMetrics(const Context& ctx, const PassResult& traced, const Samples& bare,
                     const std::vector<Span>& all_spans, RunOutcome* out) {
  const PipelineCounters& before = traced.counters_at_start;
  std::vector<Span> spans;
  for (const Span& s : all_spans) {
    if (s.start_ns >= traced.measured_start_ns) spans.push_back(s);
  }
  const LayerAttribution layers = AttributeLayers(spans);
  for (const LayerRow& row : layers.rows) {
    out->metrics.push_back({row.name + ".busy_s", row.busy_s, "s"});
    out->metrics.push_back({row.name + ".share", row.share, "fraction"});
    out->metrics.push_back({row.name + ".calls", static_cast<double>(row.calls), "count"});
  }

  const Pipeline& p = *traced.built.pipeline;
  const PipelineCounters c = p.counters();
  const auto delta = [](uint64_t a, uint64_t b) { return static_cast<double>(a - b); };
  const auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const double wal_events = delta(c.wal_events, before.wal_events);
  const double tail_scans =
      delta(c.tails.full_hits + c.tails.partial_hits + c.tails.misses,
            before.tails.full_hits + before.tails.partial_hits + before.tails.misses);
  const double cache_lookups = delta(
      c.cache.hits + c.cache.misses + c.cache.single_flight_waits,
      before.cache.hits + before.cache.misses + before.cache.single_flight_waits);
  size_t chunks = 0;
  for (exstream::EventTypeId t = 0; t < ctx.registry.size(); ++t) {
    chunks += p.archive().NumChunks(t);
  }
  uint64_t match_rows = 0;
  (void)MatchFingerprint(p.engine(), &match_rows);
  exstream::CepEngine replicas(&ctx.registry);
  for (const QuerySpec& q : Q1Replicas(kMixedQueries)) {
    (void)replicas.AddQueryText(q.text, q.name);
  }
  const std::vector<Metric> counts = {
      {"guard.rejected", delta(c.guard_rejected, before.guard_rejected), "count"},
      {"wal.bytes_per_event", ratio(delta(c.wal_bytes, before.wal_bytes), wal_events),
       "bytes"},
      {"wal.syncs", delta(c.wal_syncs, before.wal_syncs), "count"},
      {"tails.full_hit_ratio",
       ratio(delta(c.tails.full_hits, before.tails.full_hits), tail_scans), "fraction"},
      {"archive.chunks", static_cast<double>(chunks), "count"},
      {"archive.spilled_bytes", static_cast<double>(DirBytes(traced.dir + "/spill")),
       "bytes"},
      {"cep.merge_groups", static_cast<double>(p.engine().merge_stats().groups), "count"},
      {"cep.replica_merge_groups", static_cast<double>(replicas.merge_stats().groups),
       "count"},
      {"cep.match_rows", static_cast<double>(match_rows), "count"},
      {"detect.anomalies", delta(c.detector_anomalies, before.detector_anomalies), "count"},
      {"auto_explain.completed", delta(c.auto_completed, before.auto_completed), "count"},
      {"explain.related_partitions",
       delta(c.related_partitions, before.related_partitions), "count"},
      {"explain.features_ranked", delta(c.features_ranked, before.features_ranked),
       "count"},
      {"explain.cache_hit_ratio", ratio(delta(c.cache.hits, before.cache.hits), cache_lookups),
       "fraction"},
      {"explain.cache_single_flight_waits",
       delta(c.cache.single_flight_waits, before.cache.single_flight_waits), "count"},
      {"unattributed.share", layers.unattributed_share, "fraction"},
      {"trace.overhead",
       ratio(traced.ingest->batch_busy_s, bare.batch_busy_s) - (bare.batch_busy_s > 0 ? 1.0 : 0.0),
       "fraction"},
  };
  out->metrics.insert(out->metrics.end(), counts.begin(), counts.end());
  out->info.emplace_back("traced_spans", std::to_string(spans.size()));
  out->info.emplace_back("trace_basis_s", exstream::StrFormat("%.4f", layers.basis_s));
  out->info.emplace_back("trace_overhead_basis",
                         exstream::StrFormat("%llu batches, %.4f s traced, %.4f s bare",
                                             static_cast<unsigned long long>(bare.batches),
                                             traced.ingest->batch_busy_s, bare.batch_busy_s));
  Require(out, c.stage_mismatches == 0,
          exstream::StrFormat("%llu explanations: a re-run stage disagreed with the "
                              "engine's own output",
                              static_cast<unsigned long long>(c.stage_mismatches)));
}

/// The traced replay must reproduce what the untraced system computed.
void CheckTracedAgainstUntraced(const PassResult& untraced, const PassResult& traced,
                                RunOutcome* out) {
  const Pipeline& u = *untraced.built.pipeline;
  const Pipeline& t = *traced.built.pipeline;
  uint64_t rows_u = 0;
  uint64_t rows_t = 0;
  Require(out, MatchFingerprint(u.engine(), &rows_u) == MatchFingerprint(t.engine(), &rows_t),
          "traced and untraced runs produced different match rows");
  Require(out, u.archive().TotalEvents() == t.archive().TotalEvents(),
          "traced and untraced archives hold different event counts");
  Require(out, untraced.ingest->anomalies == traced.ingest->anomalies,
          "traced and untraced detectors flagged different anomalies");
  Require(out, untraced.explain->served == traced.explain->served,
          "traced and untraced runs served different explanations");
  out->info.emplace_back("match_rows", std::to_string(rows_u));
}

}  // namespace

LayerAttribution AttributeLayers(const std::vector<Span>& spans) {
  static constexpr const char* kIngestLayers[] = {"guard", "wal",  "tails",
                                                  "archive.append", "cep", "detect"};
  static constexpr const char* kStageLayers[] = {"explain.build", "explain.rank",
                                                 "explain.leap", "explain.cluster",
                                                 "explain.predicates"};
  static constexpr const char* kRootSpans[] = {"ingest.batch", "ingest.flush",
                                               "explain.request", "auto_explain"};
  const std::map<std::string, LayerTime> times = SelfTimes(spans);
  auto get = [&](const char* name) {
    const auto it = times.find(name);
    return it == times.end() ? LayerTime{} : it->second;
  };
  // The stage spans re-run work the engine already did inside its own span,
  // so they leave the basis, and the engine's time splits into them plus the
  // validation residual.
  double stages = 0.0;
  for (const char* name : kStageLayers) stages += get(name).self_s;
  LayerAttribution out;
  out.basis_s = RootSeconds(spans) - stages;
  auto row = [&](const std::string& name, double busy, uint64_t calls) {
    out.rows.push_back(
        LayerRow{name, busy, out.basis_s > 0 ? busy / out.basis_s : 0.0, calls});
  };
  for (const char* name : kIngestLayers) row(name, get(name).self_s, get(name).calls);
  for (const char* name : kStageLayers) row(name, get(name).self_s, get(name).calls);
  row("explain.validate", get("explain.engine").self_s - stages,
      get("explain.engine").calls);
  row("explain.cache", get("explain.cache").self_s, get("explain.cache").calls);
  double root_self = 0.0;
  for (const char* name : kRootSpans) root_self += get(name).self_s;
  out.unattributed_share = out.basis_s > 0 ? root_self / out.basis_s : 0.0;
  return out;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"ingest-mixed", "explain-cold"};
  return kNames;
}

RunOutcome RunWorkload(const RunSettings& settings) {
  RunOutcome out;
  const WorkloadFn run = FindWorkload(settings.workload);
  if (run == nullptr) {
    Require(&out, false, "unknown workload " + settings.workload);
    return out;
  }
  Context ctx{settings, {}, {}, {}, {}, settings.work_dir, {}};
  auto fail = [&](const Status& st) {
    Require(&out, false, st.ToString());
    return out;
  };
  const Status reg = exstream::HadoopClusterSim::RegisterEventTypes(&ctx.registry);
  if (!reg.ok()) return fail(reg);
  ctx.cluster.seed = settings.seed;
  ctx.cluster.num_nodes = kNodes;
  ctx.cluster.segment_seconds = kSegmentSeconds;
  if (settings.workload == "ingest-mixed") {
    ctx.mixed = MixedQueries(settings.seed, kMixedQueries);
  }
  fs::create_directories(ctx.dir);
  out.info.emplace_back("wal_spill_filesystem", FilesystemOf(ctx.dir));

  // Set-up time: generating the run's input, building the system and
  // registering its queries (explain-cold: and ingesting its history); done
  // several times over, and the run proceeds with the last set-up.
  std::unique_ptr<PassResult> pass;
  for (size_t i = 0; i < kSetupRepeats; ++i) {
    const std::string dir = ctx.dir + "/setup" + std::to_string(i);
    pass.reset();  // one system at a time
    const Clock::time_point start = Clock::now();
    auto prepared = Prepare(ctx, dir, Build::kSystem, nullptr, nullptr);
    if (!prepared.ok()) return fail(prepared.status());
    ctx.setup_s.push_back(Secs(Clock::now() - start));
    pass = std::make_unique<PassResult>(std::move(*prepared));
    if (settings.workload == "explain-cold") {
      const Samples& h = *pass->ingest;
      out.info.emplace_back(
          "history_ingest_" + std::to_string(i),
          exstream::StrFormat("%.0f events/s, batch p95 %.3f ms, lag p50 %.1f ms",
                              static_cast<double>(h.batch_events) / h.batch_busy_s,
                              Percentile(h.batch_ms, 0.95), Percentile(h.lag_ms, 0.5)));
      PoolIngest(h, &ctx.history);
    }
    if (i > 0) fs::remove_all(ctx.dir + "/setup" + std::to_string(i - 1));
  }
  out.info.emplace_back("input_events", std::to_string(pass->stream->events()));
  out.info.emplace_back("input_incidents", std::to_string(pass->stream->incidents().size()));

  if (!settings.trace) {
    Budget budget;
    budget.seconds = settings.seconds;
    const Status st = run(ctx, *pass, budget);
    if (!st.ok()) return fail(st);
    EndToEndMetrics(ctx, *pass, &out);
    Account(*pass, &out);
    CheckExplanations(settings, *pass, &out);
    return out;
  }

  // Traced: an untraced run of one pass (ingest-mixed) or half the time
  // (explain-cold); the same work through the hand-composed pipeline
  // without a tracer, for the tracing cost (explain-cold ingests only in
  // its set-up, so there the set-up is all it needs); then traced.
  Budget budget;
  budget.seconds = settings.seconds / 2;
  budget.passes = 1;
  const Status st = run(ctx, *pass, budget);
  if (!st.ok()) return fail(st);
  const PassResult* untraced = pass.get();
  Budget replay;
  replay.seconds = 1e9;
  replay.passes = 1;
  replay.explains = untraced->explain->explains;
  Samples bare;
  {
    auto composed =
        Prepare(ctx, ctx.dir + "/bare", Build::kComposed, nullptr, untraced->stream);
    if (!composed.ok()) return fail(composed.status());
    if (settings.workload == "ingest-mixed") {
      const Status bare_st = run(ctx, *composed, replay);
      if (!bare_st.ok()) return fail(bare_st);
    }
    PoolIngest(*composed->ingest, &bare);
    fs::remove_all(ctx.dir + "/bare");
  }
  Tracer tracer;
  auto traced = Prepare(ctx, ctx.dir + "/traced", Build::kComposed, &tracer, untraced->stream);
  if (!traced.ok()) return fail(traced.status());
  const Status traced_st = run(ctx, *traced, replay);
  if (!traced_st.ok()) return fail(traced_st);
  Account(*traced, &out);
  for (const std::string& p : untraced->problems) Require(&out, false, p);
  CheckTracedAgainstUntraced(*untraced, *traced, &out);
  const std::vector<Span> spans = tracer.Collect();
  PerLayerMetrics(ctx, *traced, bare, spans, &out);
  if (!settings.trace_path.empty()) {
    const Status st = WriteSpans(settings.trace_path, settings.workload, spans);
    Require(&out, st.ok(), st.ToString());
    out.info.emplace_back("trace_file", settings.trace_path);
  }
  return out;
}

}  // namespace pipebench
