#include "pipeline.h"

#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>

#include "explain/correlation_filter.h"
#include "explain/leap_filter.h"
#include "explain/predicate_builder.h"
#include "explain/reward.h"
#include "features/builder.h"

namespace pipebench {

namespace {

using exstream::AnomalyAnnotation;
using exstream::EventBatch;
using exstream::ExplanationReport;
using exstream::QueryId;
using exstream::Result;
using exstream::XStreamSystem;

class SystemPipeline final : public Pipeline {
 public:
  SystemPipeline(const exstream::EventTypeRegistry* registry,
                 const exstream::XStreamConfig& config)
      : system_(registry, config) {}

  Result<QueryId> AddQuery(const std::string& text, const std::string& name) override {
    return system_.AddQuery(text, name);
  }
  void Ingest(EventBatch batch) override { system_.OnEventBatch(std::move(batch)); }
  void Flush() override { system_.Flush(); }
  Result<ExplanationReport> Explain(const AnomalyAnnotation& annotation, QueryId query,
                                    const std::string& column) override {
    return system_.Explain(annotation, query, column);
  }
  std::vector<XStreamSystem::AutoExplanation> TakeAutoExplanations() override {
    return system_.TakeAutoExplanations();
  }
  void FinalizeAndDrain() override {
    system_.FinalizeDetector();
    system_.DrainAutoExplains();
  }
  exstream::PartitionTable& partitions() override { return system_.partitions(); }
  const exstream::CepEngine& engine() const override { return system_.engine(); }
  const exstream::EventArchive& archive() const override {
    return const_cast<XStreamSystem&>(system_).archive();
  }

  PipelineCounters counters() const override {
    PipelineCounters c;
    const XStreamSystem::FaultStats faults = system_.fault_stats();
    c.guard_rejected = faults.rejected_events;
    c.shed_events = faults.shed_events;
    if (system_.wal() != nullptr) {
      const auto wal = system_.wal()->stats();
      c.wal_events = wal.events_appended;
      c.wal_bytes = wal.bytes_appended;
      c.wal_syncs = wal.syncs;
      c.wal_failures = wal.append_failures + wal.sync_failures;
    }
    if (system_.incremental() != nullptr) c.tails = system_.incremental()->stats();
    if (system_.explain_cache() != nullptr) c.cache = system_.explain_cache()->stats();
    if (system_.detector() != nullptr) {
      c.detector_anomalies = system_.detector()->stats().anomalies_emitted;
    }
    c.auto_completed = system_.auto_explains_completed();
    c.auto_dropped = system_.auto_anomalies_dropped();
    return c;
  }

 private:
  XStreamSystem system_;
};

/// XStreamSystem's pipeline rebuilt from its public layers, one span per
/// layer call. Mirrors XStreamSystem (synchronous ingest, no replication):
/// any behavioural drift shows up in the benchmark's output checks.
class TracedPipeline final : public Pipeline {
 public:
  TracedPipeline(const exstream::EventTypeRegistry* registry,
                 const exstream::XStreamConfig& config, Tracer* tracer)
      : registry_(registry),
        config_(config),
        tracer_(tracer),
        archive_(registry, config_.archive),
        engine_(registry, config_.ingest),
        guard_(registry, config_.guard) {
    if (config_.durability.wal_dir.has_value()) {
      exstream::WalOptions wopts;
      wopts.dir = *config_.durability.wal_dir;
      wopts.segment_bytes = config_.durability.wal_segment_bytes;
      wopts.fsync = config_.durability.fsync;
      wopts.fsync_interval_ms = config_.durability.fsync_interval_ms;
      auto wal = exstream::WriteAheadLog::Open(std::move(wopts));
      if (wal.ok()) {
        wal_ = std::move(*wal);
        next_seq_ = wal_->next_seq();
      } else {
        ++wal_open_failures_;
      }
    }
    if (config_.serving.incremental_features) {
      tails_ = std::make_unique<exstream::IncrementalFeatureState>(
          registry_, config_.serving.incremental_retention);
    }
    if (config_.serving.explain_cache_capacity > 0) {
      cache_ = std::make_unique<exstream::ExplainResultCache>(
          config_.serving.explain_cache_capacity);
    }
    watermark_.store(next_seq_);
  }

  ~TracedPipeline() override {
    if (auto_worker_.joinable()) {
      {
        std::lock_guard<std::mutex> lock(auto_mu_);
        auto_stopping_ = true;
      }
      auto_cv_.notify_all();
      auto_worker_.join();
    }
  }

  Result<QueryId> AddQuery(const std::string& text, const std::string& name) override {
    EXSTREAM_ASSIGN_OR_RETURN(const QueryId id, engine_.AddQueryText(text, name));
    if (config_.serving.detector.has_value() && detector_ == nullptr &&
        (config_.serving.detect_query.empty() || config_.serving.detect_query == name)) {
      BindDetector(id, name);
    }
    return id;
  }

  void Ingest(EventBatch batch) override {
    Tracer::Scope root(tracer_, "ingest.batch", NextRequest());
    if (batch.empty()) return;
    EventBatch released;
    {
      Tracer::Scope span(tracer_, "guard");
      released = guard_.Admit(std::move(batch));
    }
    Apply(std::move(released));
  }

  void Flush() override {
    Tracer::Scope root(tracer_, "ingest.flush", NextRequest());
    EventBatch released;
    {
      Tracer::Scope span(tracer_, "guard");
      released = guard_.Drain();
    }
    Apply(std::move(released));
  }

  Result<ExplanationReport> Explain(const AnomalyAnnotation& annotation, QueryId query,
                                    const std::string& column) override {
    Tracer::Scope root(tracer_, "explain.request", NextRequest());
    return ExplainCached(annotation, query, column);
  }

  std::vector<XStreamSystem::AutoExplanation> TakeAutoExplanations() override {
    std::lock_guard<std::mutex> lock(auto_mu_);
    std::vector<XStreamSystem::AutoExplanation> out = std::move(auto_results_);
    auto_results_.clear();
    return out;
  }

  void FinalizeAndDrain() override {
    if (detector_ == nullptr) return;
    detector_->FinalizeOpenExcursions();
    ForwardDetectorAnomalies();
    if (!auto_worker_.joinable()) return;
    std::unique_lock<std::mutex> lock(auto_mu_);
    auto_done_cv_.wait(lock, [&] { return auto_queue_.empty() && !auto_busy_; });
  }

  exstream::PartitionTable& partitions() override { return partitions_; }
  const exstream::CepEngine& engine() const override { return engine_; }
  const exstream::EventArchive& archive() const override { return archive_; }

  PipelineCounters counters() const override {
    PipelineCounters c;
    c.guard_rejected = guard_.report().total();
    if (wal_ != nullptr) {
      const auto wal = wal_->stats();
      c.wal_events = wal.events_appended;
      c.wal_bytes = wal.bytes_appended;
      c.wal_syncs = wal.syncs;
      c.wal_failures = wal.append_failures + wal.sync_failures;
    }
    c.wal_failures += wal_open_failures_;
    if (tails_ != nullptr) c.tails = tails_->stats();
    if (cache_ != nullptr) c.cache = cache_->stats();
    if (detector_ != nullptr) c.detector_anomalies = detector_->stats().anomalies_emitted;
    c.auto_completed = auto_completed_.load();
    c.auto_dropped = auto_dropped_.load();
    c.related_partitions = related_partitions_.load();
    c.features_ranked = features_ranked_.load();
    c.stage_mismatches = stage_mismatches_.load();
    return c;
  }

 private:
  uint64_t NextRequest() { return next_request_.fetch_add(1) + 1; }

  // XStreamSystem::ApplyBatch, layer by layer.
  void Apply(EventBatch batch) {
    if (batch.empty()) return;
    if (wal_ != nullptr) {
      Tracer::Scope span(tracer_, "wal");
      (void)wal_->Append(next_seq_, batch);  // failures land in wal stats
      next_seq_ = wal_->next_seq();
    } else {
      next_seq_ += batch.size();
    }
    {
      Tracer::Scope span(tracer_, "cep");
      engine_.IngestBatch(batch);
    }
    if (tails_ != nullptr) {
      Tracer::Scope span(tracer_, "tails");
      tails_->OnEventBatch(batch);
    }
    {
      Tracer::Scope span(tracer_, "archive.append");
      archive_.OnEventBatch(std::move(batch));
    }
    watermark_.store(next_seq_, std::memory_order_release);
    if (detector_ != nullptr) ForwardDetectorAnomalies();
  }

  void BindDetector(QueryId query, const std::string& name) {
    const exstream::MatchTable& table = engine_.match_table(query);
    if (config_.serving.detect_column.empty()) {
      if (table.column_names().empty()) return;
      config_.serving.detect_column = table.column_names().back();
    }
    const auto column = table.ColumnIndex(config_.serving.detect_column);
    if (!column.ok()) return;
    detect_query_ = query;
    detector_ = std::make_unique<exstream::StreamingDetector>(name,
                                                              *config_.serving.detector);
    exstream::StreamingDetector* detector = detector_.get();
    const size_t col = *column;
    Tracer* tracer = tracer_;
    engine_.SetMatchCallback([detector, query, col, tracer](
                                 const exstream::MatchNotification& n) {
      if (n.query != query || col >= n.row.values.size()) return;
      Tracer::Scope span(tracer, "detect");
      detector->Observe(n.partition, n.row.ts, n.row.values[col].AsDouble());
    });
    if (config_.serving.auto_explain) {
      auto_worker_ = std::thread(&TracedPipeline::AutoExplainLoop, this);
    }
  }

  void ForwardDetectorAnomalies() {
    if (!auto_worker_.joinable()) return;
    std::vector<exstream::StreamAnomaly> ready = detector_->TakeReady();
    if (ready.empty()) return;
    {
      std::lock_guard<std::mutex> lock(auto_mu_);
      for (exstream::StreamAnomaly& anomaly : ready) {
        auto_queue_.push_back(std::move(anomaly));
        while (auto_queue_.size() > config_.serving.auto_queue_capacity) {
          auto_queue_.pop_front();
          auto_dropped_.fetch_add(1);
        }
      }
    }
    auto_cv_.notify_one();
  }

  void AutoExplainLoop() {
    std::unique_lock<std::mutex> lock(auto_mu_);
    for (;;) {
      auto_cv_.wait(lock, [&] { return !auto_queue_.empty() || auto_stopping_; });
      if (auto_queue_.empty() && auto_stopping_) return;
      exstream::StreamAnomaly anomaly = std::move(auto_queue_.front());
      auto_queue_.pop_front();
      auto_busy_ = true;
      lock.unlock();
      std::shared_ptr<const Result<ExplanationReport>> report;
      {
        Tracer::Scope root(tracer_, "auto_explain", NextRequest());
        report = std::make_shared<const Result<ExplanationReport>>(ExplainCached(
            anomaly.annotation, detect_query_, config_.serving.detect_column));
      }
      lock.lock();
      auto_results_.push_back(
          XStreamSystem::AutoExplanation{std::move(anomaly), std::move(report)});
      while (auto_results_.size() > config_.serving.max_auto_explanations) {
        auto_results_.erase(auto_results_.begin());
      }
      auto_busy_ = false;
      auto_completed_.fetch_add(1);
      auto_done_cv_.notify_all();
    }
  }

  // XStreamSystem::DegradationStateFingerprint; nothing is shed here.
  uint64_t DegradationState() const {
    uint64_t h = 1469598103934665603ull;
    const auto mix = [&h](uint64_t v) {
      h ^= v;
      h *= 1099511628211ull;
    };
    mix(archive_.quarantined_chunks());
    mix(archive_.tier0_evictions());
    mix(0);
    mix(guard_.report().total());
    return h;
  }

  Result<ExplanationReport> ExplainCached(const AnomalyAnnotation& annotation,
                                          QueryId query, const std::string& column) {
    if (cache_ == nullptr) return ExplainUncached(annotation, query, column);
    const std::string key = exstream::ExplainCacheKey(
        annotation, query, column, config_.explain,
        watermark_.load(std::memory_order_acquire), DegradationState());
    Tracer::Scope span(tracer_, "explain.cache");
    const auto result = cache_->GetOrCompute(
        key, [&] { return ExplainUncached(annotation, query, column); });
    return *result;
  }

  Result<ExplanationReport> ExplainUncached(const AnomalyAnnotation& annotation,
                                            QueryId query, const std::string& column) {
    const exstream::CepEngine* engine = &engine_;
    const std::string query_name = engine_.compiled(query).query().name;
    exstream::SeriesProvider series =
        [engine, query, query_name, column](
            const std::string& q,
            const std::string& partition) -> Result<exstream::TimeSeries> {
      if (q != query_name) {
        return exstream::Status::NotFound("no monitored series for query '" + q + "'");
      }
      return engine->match_table(query).ExtractSeries(partition, column);
    };
    const exstream::ExplanationEngine explainer(&archive_, &partitions_,
                                                std::move(series), config_.explain,
                                                tails_.get());
    Result<ExplanationReport> report = exstream::Status::InvalidArgument("not run");
    {
      Tracer::Scope span(tracer_, "explain.engine");
      report = explainer.Explain(annotation);
    }
    if (!report.ok()) return report;
    related_partitions_.fetch_add(report->num_related_partitions);
    features_ranked_.fetch_add(report->ranked.size());
    if (tracer_ != nullptr) AttributeStages(explainer, annotation, *report);
    const size_t rejected = guard_.report().total();
    if (rejected > 0) {
      report->degradation.events_rejected += rejected;
      if (report->degradation.degraded()) {
        report->explanation.MarkDegraded(report->degradation.ToString());
      }
    }
    return report;
  }

  // Re-runs each stage that has a public entry point on the inputs the engine
  // used, so its time can be measured apart. Validation (private to the
  // engine) is what remains of the engine's time after these.
  void AttributeStages(const exstream::ExplanationEngine& explainer,
                       const AnomalyAnnotation& annotation,
                       const ExplanationReport& report) {
    const exstream::ExplainOptions& opts = config_.explain;
    const exstream::FeatureBuilder builder(
        &archive_, opts.use_legacy_row_scan,
        opts.use_legacy_row_scan ? nullptr : tails_.get());
    Result<std::vector<exstream::Feature>> abnormal = std::vector<exstream::Feature>{};
    Result<std::vector<exstream::Feature>> reference = std::vector<exstream::Feature>{};
    {
      Tracer::Scope span(tracer_, "explain.build");
      abnormal = builder.Build(explainer.feature_specs(), annotation.abnormal.range);
      reference = builder.Build(explainer.feature_specs(), annotation.reference.range,
                                nullptr, nullptr, nullptr, opts.tiered_reference_scans);
    }
    bool same = abnormal.ok() && reference.ok();
    if (same) {
      Tracer::Scope span(tracer_, "explain.rank");
      const auto ranked = exstream::RankFeatures(std::move(*abnormal),
                                                 std::move(*reference), opts.min_support);
      same = ranked.size() == report.ranked.size();
    }
    {
      Tracer::Scope span(tracer_, "explain.leap");
      same = same && exstream::RewardLeapFilter(report.ranked, opts.leap).size() ==
                         report.after_leap.size();
    }
    if (opts.enable_clustering) {
      Tracer::Scope span(tracer_, "explain.cluster");
      same = same && exstream::CorrelationClusterFilter(report.after_validation,
                                                        opts.correlation)
                             .representatives.size() == report.final_features.size();
    }
    {
      Tracer::Scope span(tracer_, "explain.predicates");
      const auto built = exstream::BuildExplanation(report.final_features);
      same = same && built.ok() &&
             built->ToString() == report.explanation.ToString();
    }
    if (!same) stage_mismatches_.fetch_add(1);
  }

  const exstream::EventTypeRegistry* registry_;
  exstream::XStreamConfig config_;
  Tracer* tracer_;
  exstream::EventArchive archive_;
  exstream::CepEngine engine_;
  exstream::PartitionTable partitions_;
  exstream::IngestGuard guard_;
  std::unique_ptr<exstream::WriteAheadLog> wal_;
  uint64_t wal_open_failures_ = 0;
  uint64_t next_seq_ = 0;
  std::atomic<uint64_t> watermark_{0};
  std::unique_ptr<exstream::IncrementalFeatureState> tails_;
  std::unique_ptr<exstream::ExplainResultCache> cache_;
  std::unique_ptr<exstream::StreamingDetector> detector_;
  QueryId detect_query_ = 0;
  std::atomic<uint64_t> next_request_{0};
  std::atomic<uint64_t> related_partitions_{0};
  std::atomic<uint64_t> features_ranked_{0};
  std::atomic<uint64_t> stage_mismatches_{0};

  std::mutex auto_mu_;
  std::condition_variable auto_cv_;
  std::condition_variable auto_done_cv_;
  std::deque<exstream::StreamAnomaly> auto_queue_;
  bool auto_busy_ = false;
  bool auto_stopping_ = false;
  std::vector<XStreamSystem::AutoExplanation> auto_results_;
  std::atomic<uint64_t> auto_completed_{0};
  std::atomic<uint64_t> auto_dropped_{0};
  std::thread auto_worker_;  // last: joined before the members it uses go
};

}  // namespace

std::unique_ptr<Pipeline> MakeSystemPipeline(const exstream::EventTypeRegistry* registry,
                                             const exstream::XStreamConfig& config) {
  return std::make_unique<SystemPipeline>(registry, config);
}

std::unique_ptr<Pipeline> MakeTracedPipeline(const exstream::EventTypeRegistry* registry,
                                             const exstream::XStreamConfig& config,
                                             Tracer* tracer) {
  return std::make_unique<TracedPipeline>(registry, config, tracer);
}

}  // namespace pipebench
