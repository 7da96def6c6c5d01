// CepEngine: the multi-query CEP evaluator at the core of the monitoring
// system (Fig. 1c / Fig. 18).
//
// Ingestion has two entry points with identical semantics and one
// implementation: OnEvent is a batch of one, and OnEventBatch/IngestBatch
// take a run of consecutive events. Partition keys are extracted, hashed and
// interned once per event (not once per query per event) into an
// engine-wide id space per partition attribute name; each merge group maps
// that id to its own dense partition id through a flat array, and each match
// table is locked once per group pass.
//
// Multi-query optimization: queries are canonicalized and grouped by
// matching structure (cep/query_merge.h), and each *group* is evaluated once
// per event by a shared automaton (cep/shared_nfa.h) regardless of how many
// member queries it carries — the Fig. 20 scenario of thousands of
// near-identical monitoring queries. Within a group, members with identical
// RETURN semantics share row construction (residue classes) and members with
// identical output columns share one physical MatchTable (table classes).
//
// Routing: groups with identical type-route tables form a route class, and
// each ingest call lists a class's relevant events once. Most groups step
// every event of their class. A *pinned* group — one whose first positive
// component carries `attr = constant` on its own partition attribute, the
// per-node dashboard watch — can only ever start a run under keys the
// constant may equal; every other key's run stays in its initial state, so
// stepping it is a no-op. Such a group marks each key live or dead when it
// first registers it, and once it has registered every key its class has
// seen it is indexed by (route class, key id): it then steps only the events
// of its live keys, and registers the class's new keys as they arrive. Per
// event, CEP work scales with the groups that can match the event, not with
// the number of queries.
//
// Ingestion is single-threaded and runs to completion on the calling thread:
// a call is evaluated class by class and group by group, and within a group
// event by event in stream order, so intern ids and bucket ids are assigned
// in each group's first-seen order. Parallel ingest comes from running
// several engines (TenantHub applies tenants in parallel), not from
// splitting one engine's work.
//
// Determinism contract (same as the explanation pipeline): for any batch
// split, the resulting MatchTables, the match callback sequence and the
// SaveState bytes are bit-identical to evaluating each query on its own, one
// QueryRun per partition, event by event (tests/cep_reference.h). Callbacks
// are buffered tagged with (event index, query) and delivered in canonical
// (event, query) order.

#pragma once

#include <deque>
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
/// type) are skipped via the route class's event list, and a pinned group
/// skips the events of keys its pin rules out, so thousands of concurrent
/// queries stay cheap per event (the Fig. 20 scenario).
///
/// Thread model: one ingesting thread calls OnEvent/OnEventBatch; readers
/// (visualization, Explain, checkpoints of the tables) may query MatchTables
/// concurrently — they take the table's lock, which ingest holds for one
/// group pass at a time.
class CepEngine : public EventSink {
 public:
  explicit CepEngine(const EventTypeRegistry* registry, CepEngineOptions = {});

  /// Compiles and registers a query; returns its id.
  Result<QueryId> AddQuery(const Query& query);

  /// Parses, compiles, and registers a query given in Fig. 3 syntax.
  Result<QueryId> AddQueryText(std::string_view text, std::string name);

  /// EventSink: feeds one event through every relevant query.
  void OnEvent(const Event& event) override { Ingest(&event, 1); }

  /// EventSink: batched ingest (see class comment for the contract).
  void OnEventBatch(EventBatch batch) override { IngestBatch(batch); }

  /// Batched ingest for callers that keep the buffer (e.g. to forward it).
  void IngestBatch(const EventBatch& batch) { Ingest(batch.data(), batch.size()); }

  size_t num_queries() const { return queries_.size(); }
  uint64_t events_processed() const { return events_processed_; }

  /// \brief Shared-automaton steps taken so far: one per (merge group,
  /// routed event) pair actually evaluated. A deterministic work count — it
  /// depends on the queries and the stream, not on batching or the clock.
  uint64_t steps() const { return steps_; }

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
  /// so the format does not depend on the merge plan or on routing. Must not
  /// run concurrently with ingestion.
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
  static constexpr uint32_t kNoId = static_cast<uint32_t>(-1);

  /// A pinned group's verdict on one of its partition keys.
  enum class KeyWatch : uint8_t {
    kUndecided,  ///< restored from a snapshot; decided on its next event
    kLive,       ///< the pin may pass: every event of the key is stepped
    kDead,       ///< the pin fails for every value of the key: never stepped
  };

  /// One partition-key extraction: attribute `attr` of events of `type`.
  /// Deduplicated across queries so a key is extracted/interned once per event.
  struct ExtractorSpec {
    EventTypeId type = kInvalidEventType;
    size_t attr = 0;
    uint32_t space = 0;  ///< key space of the attribute's name
  };

  /// Every partition key seen under one attribute name, interned to an
  /// engine-wide id. Space 0 is the unpartitioned queries' single empty key.
  struct KeySpace {
    std::string attr;
    PartitionInterner keys;
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
    uint32_t route_class = 0;         ///< index into classes_
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
    uint32_t space = 0;                ///< key space of the partition attribute
    std::vector<uint32_t> local;       ///< space key id -> partition id (or kNoId)
    std::vector<uint32_t> keys;        ///< partition id -> space key id
    std::vector<SharedRun> runs;       ///< indexed by partition id
    std::vector<uint32_t> buckets;     ///< id -> bucket (same in all tables)
    std::vector<uint16_t> route;       ///< == every member's route table
    uint32_t route_class = 0;
    /// The `attr = constant` predicate that pins the group (null if none),
    /// owned by the group's shape query.
    const CompiledPredicate* pin = nullptr;
    std::vector<KeyWatch> watch;       ///< pinned: partition id -> verdict
    uint32_t undecided = 0;            ///< pinned: kUndecided entries in watch
  };

  /// \brief Queries with identical route tables. The class lists each
  /// ingest call's relevant events once, and routes them to its groups:
  /// every event to the `scan` groups, and only live keys' events to pinned
  /// groups that have registered every key the class has seen (`synced`).
  struct RouteClass {
    std::vector<uint16_t> route;     ///< event type -> route entry
    uint32_t space = 0;              ///< key space of every spec in `route`
    std::vector<uint8_t> seen;       ///< space key id -> seen by the class
    uint32_t num_seen = 0;
    std::vector<uint32_t> scan;      ///< groups that step every class event
    std::vector<uint32_t> synced;    ///< pinned groups indexed by key
    std::vector<std::vector<uint32_t>> watchers;  ///< key id -> synced groups live on it

    // Per-ingest-call lists, refilled by PrepareKeys (empty unless the class
    // is in call_classes_).
    std::vector<uint32_t> events;      ///< relevant event indexes, stream order
    std::vector<uint32_t> event_keys;  ///< key id of each entry of `events`
    std::vector<uint32_t> new_keys;    ///< positions in `events` of first-seen keys
    /// Filled only while `synced` is non-empty: key id -> event indexes, and
    /// the keys with events in this call.
    std::vector<std::vector<uint32_t>> key_events;
    std::vector<uint32_t> call_keys;
  };

  /// Deduplicated index of (type, attr); appends a new spec if unseen.
  uint16_t SpecIndexFor(EventTypeId type, size_t attr, uint32_t space);

  /// Id of the key space for partition attribute `attr` (created if new).
  uint32_t SpaceFor(const std::string& attr);

  /// Assigns query `id` to its merge group / residue / table classes,
  /// creating them as needed. Called by AddQuery, and by RestoreState when a
  /// snapshot's persisted mid-stream flags require rebuilding the plan.
  void AssignMergePlan(QueryId id, bool force_singleton);

  /// The one ingest path: OnEvent is a call with n == 1.
  void Ingest(const Event* events, size_t n);

  /// Interns each event's keys once and fills the lists of the route classes
  /// that want the events (recorded in call_classes_).
  void PrepareKeys(const Event* events, size_t n);

  /// Rebuilds classes_by_type_ from classes_ when stale.
  void RebuildRouteIndex();

  /// Puts every group back on its class's scan list and recomputes each
  /// class's seen keys from its groups' keys (after a restore).
  void ResetClassRouting();

  /// Locks every table of `g` for one group pass (fills appenders_). Only
  /// the ingest thread ever holds more than one table lock; readers take one
  /// at a time, so the acquisition order cannot deadlock.
  void OpenTables(MergeGroup& g);

  /// Registers space key `key` as `g`'s next partition id: its run, and its
  /// bucket in every group table (through appenders_). Returns the id.
  uint32_t Register(MergeGroup& g, uint32_t key);

  /// Records a pinned group's verdict on partition `id`, whose key an event
  /// carries as `value`.
  void Decide(MergeGroup& g, uint32_t id, const Value& value);

  /// Steps `g` over every event its class routed in this call (registering
  /// unseen keys in first-seen order; skipping a pinned group's dead keys).
  void ScanPass(MergeGroup& g, const RouteClass& rc, const Event* events);

  /// Moves pinned scan groups of `rc` that now hold every seen key, and no
  /// undecided one, to the key index.
  void PromoteSynced(RouteClass& rc);

  /// \brief One (group, event) step: advances partition `id`'s shared run,
  /// appends rows and completions through appenders_ (opened by
  /// OpenTables), and queues notifications tagged with `event_idx`.
  void Step(MergeGroup& g, const Event& event, uint32_t event_idx, uint32_t id);

  std::string_view KeyOf(const MergeGroup& g, uint32_t id) const {
    return spaces_[g.space].keys.KeyOf(g.keys[id]);
  }

  /// Delivers the queued notifications in (event, query) order.
  void DispatchNotifications();

  const EventTypeRegistry* registry_;  // not owned
  std::vector<std::unique_ptr<QueryState>> queries_;
  std::function<void(const MatchNotification&)> callback_;
  uint64_t events_processed_ = 0;
  uint64_t steps_ = 0;

  // Partition-key extraction, shared across queries.
  std::vector<ExtractorSpec> specs_;
  std::vector<std::vector<uint16_t>> specs_by_type_;  ///< type -> spec indices
  std::deque<KeySpace> spaces_;  ///< deque: interned key views never move

  // Route classes. classes_by_type_ inverts the class route tables (event
  // type -> classes that want it); it is rebuilt lazily after AddQuery
  // instead of being rescanned per call.
  std::vector<RouteClass> classes_;
  std::vector<std::vector<uint16_t>> classes_by_type_;
  /// Classes with events in the current (or last) ingest call, ascending:
  /// the only ones whose per-call lists are non-empty.
  std::vector<uint16_t> call_classes_;
  bool route_index_dirty_ = false;

  // Multi-query merge plan.
  MergePlanner planner_;
  std::vector<std::unique_ptr<MergeGroup>> groups_;

  // Ingest scratch (reused across events and calls).
  std::vector<uint32_t> spec_keys_;                  ///< one event's key id per spec
  std::string key_scratch_;                          ///< numeric key text
  std::vector<MatchTable::Appender> appenders_;      ///< open tables of one group
  MatchRow row_;                                     ///< per-residue row build
  std::vector<PendingNote> notes_;                   ///< undelivered notifications
};

}  // namespace exstream
