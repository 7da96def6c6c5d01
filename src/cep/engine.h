// CepEngine: the multi-query CEP evaluator at the core of the monitoring
// system (Fig. 1c / Fig. 18).
//
// Ingestion has two entry points with identical semantics:
//
//   * OnEvent        — the classic one-event-at-a-time path.
//   * OnEventBatch   — the throughput path. Partition keys are extracted and
//     hashed once per event (not once per query per event), partition ids are
//     dense uint32_t interns indexing flat run vectors, and each match table
//     is locked once per batch.
//
// Multi-query optimization: queries are canonicalized and grouped by
// matching structure (cep/query_merge.h), and each *group* is evaluated once
// per event by a shared automaton (cep/shared_nfa.h) regardless of how many
// member queries it carries — the Fig. 20 scenario of thousands of
// near-identical monitoring queries. Within a group, members with identical
// RETURN semantics share row construction (residue classes) and members with
// identical output columns share one physical MatchTable (table classes).
//
// Ingestion is single-threaded and runs to completion on the calling thread:
// a batch is evaluated group by group, and within a group event by event in
// stream order, so intern ids and bucket ids are assigned in first-seen order.
// Parallel ingest comes from running several engines (TenantHub applies
// tenants in parallel), not from splitting one engine's work.
//
// Determinism contract (same as the explanation pipeline): for any batch
// split, the resulting MatchTables, the match callback sequence and the
// SaveState bytes are bit-identical to evaluating each query on its own, one
// QueryRun per partition, event by event (tests/cep_reference.h). Callbacks
// are buffered tagged with (event index, query) and delivered in canonical
// (event, query) order.

#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cep/interner.h"
#include "cep/match_table.h"
#include "cep/nfa.h"
#include "cep/query_merge.h"
#include "cep/shared_nfa.h"
#include "common/result.h"
#include "event/registry.h"
#include "event/stream.h"

namespace exstream {

using QueryId = uint32_t;

/// \brief A match-row notification delivered to the engine's callback.
///
/// `partition` is a view into the engine's interned key storage — valid for
/// the engine's lifetime, never a per-row string copy. `partition_id` is the
/// dense intern id (assigned in first-seen stream order, so it is
/// deterministic for a fixed event order regardless of batching).
struct MatchNotification {
  QueryId query = 0;
  uint32_t partition_id = 0;
  std::string_view partition;
  MatchRow row;
  bool complete = false;  ///< the full pattern completed with this event
};

/// \brief Engine construction options. There are none: ingestion has one
/// path. The empty struct stays only because pipebench/src/pipeline.cc
/// constructs `CepEngine(registry, config_.ingest)` (as XStreamSystem does);
/// drop it, XStreamConfig::ingest and the constructor parameter together the
/// next time pipebench/ is edited.
struct CepEngineOptions {};

/// \brief Evaluates many SASE queries over one event stream.
///
/// Each query maintains one run per partition value (the bracketed
/// equivalence attribute); structurally equivalent queries share one run per
/// partition through their merge group. Events irrelevant to a group (by
/// type) are skipped via a per-group type-route table, so thousands of
/// concurrent queries stay cheap per event (the Fig. 20 scenario).
///
/// Thread model: one ingesting thread calls OnEvent/OnEventBatch; readers
/// (visualization, Explain, checkpoints of the tables) may query MatchTables
/// concurrently — they take the table's lock, which ingest holds for one
/// group pass at a time.
class CepEngine : public EventSink {
 public:
  explicit CepEngine(const EventTypeRegistry* registry, CepEngineOptions = {})
      : registry_(registry) {}

  /// Compiles and registers a query; returns its id.
  Result<QueryId> AddQuery(const Query& query);

  /// Parses, compiles, and registers a query given in Fig. 3 syntax.
  Result<QueryId> AddQueryText(std::string_view text, std::string name);

  /// EventSink: feeds one event through every relevant query.
  void OnEvent(const Event& event) override;

  /// EventSink: batched ingest (see class comment for the contract).
  void OnEventBatch(EventBatch batch) override { IngestBatch(batch); }

  /// Batched ingest for callers that keep the buffer (e.g. to forward it).
  void IngestBatch(const EventBatch& batch);

  size_t num_queries() const { return queries_.size(); }
  uint64_t events_processed() const { return events_processed_; }

  /// Merge-plan shape (groups/residues/tables).
  const MergePlanStats& merge_stats() const { return planner_.stats(); }

  const CompiledQuery& compiled(QueryId id) const { return queries_[id]->compiled; }
  /// The query's match table. Queries in the same table class share one
  /// physical table (their contents are bit-identical by construction).
  const MatchTable& match_table(QueryId id) const { return *queries_[id]->physical; }

  /// Lookup by query name; NotFound if absent.
  Result<QueryId> QueryIdByName(std::string_view name) const;

  /// \brief Registers a callback invoked on every emitted match row.
  ///
  /// Rows are appended to the match table before the callback sees them.
  /// Callbacks for an event (or a batch) are delivered after it is
  /// evaluated, in canonical (event, query) order, on the ingesting thread.
  void SetMatchCallback(std::function<void(const MatchNotification&)> cb) {
    callback_ = std::move(cb);
  }

  /// \brief Serializes every query's mutable evaluation state — interned
  /// partition keys (in id order), per-partition NFA runs, match tables — and
  /// the processed-event count, plus each query's mid-stream-add flag so the
  /// restoring engine rebuilds the exact merge plan (mid-stream queries are
  /// forced-singleton groups with their own key sets). Compiled queries and
  /// route tables are NOT included: RestoreState requires the same queries
  /// added in the same order. Each query is written as the state its own
  /// QueryRuns would hold (merged groups write one member view per query),
  /// so the format does not depend on the merge plan. Must not run
  /// concurrently with ingestion.
  void SaveState(BytesWriter* out) const;

  /// \brief Restores a SaveState snapshot. The engine must hold the same
  /// queries as at save time with empty match tables (fresh AddQuery calls).
  Status RestoreState(BytesReader* in);

 private:
  /// Route-table entry values: how a query treats events of one type.
  static constexpr uint16_t kRouteIrrelevant = 0;
  static constexpr uint16_t kRouteEmptyKey = 1;  ///< unpartitioned query
  static constexpr uint16_t kRouteSpecBase = 2;  ///< spec index + 2

  static constexpr QueryId kNoQuery = static_cast<QueryId>(-1);

  /// One partition-key extraction: attribute `attr` of events of `type`.
  /// Deduplicated across queries so a key is extracted/hashed once per event.
  struct ExtractorSpec {
    EventTypeId type = kInvalidEventType;
    size_t attr = 0;
  };

  /// A partition key ready for interning: view plus its precomputed hash.
  struct PrepKey {
    std::string_view view;
    uint64_t hash = 0;
  };

  struct PendingNote {
    uint32_t event_idx = 0;
    MatchNotification note;
  };

  struct QueryState {
    CompiledQuery compiled;
    MatchTable matches;
    /// The physical table serving match_table(id): &matches, or the table
    /// class representative's matches when this query merged into one.
    MatchTable* physical = nullptr;
    std::vector<uint16_t> route;      ///< event type -> route entry
    uint32_t route_class = 0;         ///< index into route_classes_
    uint32_t merge_group = 0;         ///< owning group index
    uint32_t merge_residue = 0;       ///< residue within group
    /// Added after ingestion started (forced singleton in the merge plan).
    /// Persisted by SaveState so RestoreState reproduces the same plan.
    bool added_mid_stream = false;

    QueryState(CompiledQuery cq)
        : compiled(std::move(cq)), matches(compiled.OutputColumns()),
          physical(&matches) {}
  };

  /// \brief Queries sharing row construction (identical compiled RETURNs).
  /// Members with identical output column names also share one physical
  /// MatchTable (a table class), so rows fan out once per table class.
  struct ResidueClass {
    uint32_t nfa_residue = 0;      ///< index into the group's SharedNfa
    QueryId rep = 0;               ///< aggregate source on checkpoint restore
    std::vector<uint32_t> tables;  ///< table classes, as indices into MergeGroup::tables
    std::vector<QueryId> members;  ///< ascending query id (note fan-out order)
  };

  /// \brief One merge group: a shared automaton plus all per-partition state
  /// its members would otherwise hold independently.
  struct MergeGroup {
    std::unique_ptr<SharedNfa> nfa;
    std::vector<ResidueClass> residues;
    /// The group's physical tables, one per table class. A table belongs to
    /// exactly one group; bucket ids are identical across all of them.
    std::vector<MatchTable*> tables;
    std::vector<QueryId> members;      ///< ascending query id
    /// First member whose own QueryRun stores the latest kleene event — the
    /// record that supplies the kleene bound slot on checkpoint restore.
    QueryId bound_source = kNoQuery;
    PartitionInterner interner;
    std::vector<SharedRun> runs;       ///< indexed by interned partition id
    std::vector<uint32_t> buckets;     ///< id -> bucket (same in all tables)
    std::vector<uint16_t> route;       ///< == every member's route table
    uint32_t route_class = 0;
  };

  /// Deduplicated index of (type, attr); appends a new spec if unseen.
  uint16_t SpecIndexFor(EventTypeId type, size_t attr);

  /// Assigns query `id` to its merge group / residue / table classes,
  /// creating them as needed. Called by AddQuery, and by RestoreState when a
  /// snapshot's persisted mid-stream flags require rebuilding the plan.
  void AssignMergePlan(QueryId id, bool force_singleton);

  /// Fills prep_ with one (view, hash) per (spec, event) for this batch.
  void PrepareBatchKeys(const EventBatch& batch);

  /// Rebuilds classes_by_type_ from route_classes_ when stale.
  void RebuildRouteIndex();

  /// Locks every table of `g` for one group pass (fills appenders_). Only
  /// the ingest thread ever holds more than one table lock; readers take one
  /// at a time, so the acquisition order cannot deadlock.
  void OpenTables(MergeGroup& g);

  /// \brief One (group, event) step, shared by OnEvent and IngestBatch:
  /// interns the partition key (creating its run and registering its bucket
  /// in every group table on first sight), advances the shared run, appends
  /// rows and completions through appenders_ (opened by OpenTables), and
  /// queues notifications tagged with `event_idx`.
  void Step(MergeGroup& g, const Event& event, uint32_t event_idx,
            std::string_view key, uint64_t hash);

  /// Delivers the queued notifications in (event, query) order.
  void DispatchNotifications();

  const EventTypeRegistry* registry_;  // not owned
  std::vector<std::unique_ptr<QueryState>> queries_;
  std::function<void(const MatchNotification&)> callback_;
  uint64_t events_processed_ = 0;

  // Partition-key extraction, shared across queries.
  std::vector<ExtractorSpec> specs_;
  std::vector<std::vector<uint16_t>> specs_by_type_;  ///< type -> spec indices
  uint64_t empty_key_hash_ = PartitionKeyHash({});
  std::string serial_key_scratch_;  ///< OnEvent: reused numeric-key buffer

  // Route classes: queries with identical route tables share one class, and
  // each batch computes the class's relevant-event index list once — so 1000
  // replicated queries (the Fig. 20 shape) skip a batch's irrelevant events
  // with one scan total instead of one scan each. classes_by_type_ inverts
  // the class route tables (event type -> classes that want it); it is
  // rebuilt lazily after AddQuery instead of being rescanned per batch.
  std::vector<std::vector<uint16_t>> route_classes_;   ///< class -> route table
  std::vector<std::vector<uint16_t>> classes_by_type_; ///< type -> class idxs
  bool route_index_dirty_ = false;
  std::vector<std::vector<uint32_t>> class_events_;    ///< class -> event idxs

  // Multi-query merge plan.
  MergePlanner planner_;
  std::vector<std::unique_ptr<MergeGroup>> groups_;

  // Ingest scratch (reused across events and batches).
  std::vector<std::vector<PrepKey>> prep_;           ///< per spec, per event
  std::vector<std::vector<std::string>> prep_keys_;  ///< numeric keys storage
  std::vector<MatchTable::Appender> appenders_;      ///< open tables of one group
  MatchRow row_;                                     ///< per-residue row build
  std::vector<PendingNote> notes_;                   ///< undelivered notifications
};

}  // namespace exstream
