#include "cep/engine.h"

#include <algorithm>

#include "query/parser.h"

namespace exstream {

namespace {

/// \brief The predicate `attr = constant` on the first positive component,
/// where attr is that component's partition attribute; null if there is
/// none. A fresh run must match that component first, so under any key the
/// pin rules out the run never leaves its initial state. A pin on a later
/// component does not qualify: runs of other keys start before it.
const CompiledPredicate* PinOf(const CompiledQuery& cq) {
  for (const CompiledComponent& comp : cq.components()) {
    if (comp.negated) continue;
    if (!comp.partition_attr.has_value()) return nullptr;
    for (const CompiledPredicate& pred : comp.predicates) {
      if (pred.op == CompareOp::kEq && pred.rhs_constant.has_value() &&
          !pred.lhs.is_timestamp && pred.lhs.attr_index == *comp.partition_attr) {
        return &pred;
      }
    }
    return nullptr;
  }
  return nullptr;
}

/// \brief True if `pin` fails for every value whose Value::ToString is
/// `key`, judged from one such value. Only two witnesses decide:
///  - an int64 against a numeric constant whose own text is not the key:
///    the other values printing as the key are doubles, and a double equal
///    to the constant prints as the constant does (a double constant such
///    as 5.0000001 prints as "5", so it keeps key "5" live);
///  - a string against a string constant: numerics never equal a string.
/// Any other witness (a double, whose %g text loses precision; a string
/// against a numeric constant, since int64 5 prints as "5") keeps the key
/// live. The predicate is evaluated on the witness itself, so an int64
/// above 2^53 that equals the constant as a double stays live too.
bool PinRulesOut(const CompiledPredicate& pin, const Value& witness,
                 std::string_view key) {
  const Value& c = *pin.rhs_constant;
  const bool decidable =
      (witness.type() == ValueType::kInt64 && c.is_numeric() && c.ToString() != key) ||
      (witness.is_string() && c.is_string());
  return decidable && *witness.Compare(c) != 0;
}

}  // namespace

CepEngine::CepEngine(const EventTypeRegistry* registry, CepEngineOptions)
    : registry_(registry) {
  SpaceFor("");
  spaces_[0].keys.Intern({}, PartitionKeyHash({}));
}

Result<QueryId> CepEngine::AddQuery(const Query& query) {
  EXSTREAM_ASSIGN_OR_RETURN(CompiledQuery cq, CompiledQuery::Compile(query, registry_));
  const QueryId id = static_cast<QueryId>(queries_.size());
  queries_.push_back(std::make_unique<QueryState>(std::move(cq)));

  // Build the type-route table: one lookup replaces the per-event relevance
  // bitmap check plus the per-component partition-attribute scan.
  QueryState& qs = *queries_.back();
  qs.route.assign(registry_->size(), kRouteIrrelevant);
  const std::string& attr = qs.compiled.query().partition_attribute;
  const uint32_t space = SpaceFor(attr);
  for (const CompiledComponent& comp : qs.compiled.components()) {
    if (comp.type >= qs.route.size()) continue;
    if (attr.empty()) {
      qs.route[comp.type] = kRouteEmptyKey;
    } else if (comp.partition_attr.has_value()) {
      qs.route[comp.type] = static_cast<uint16_t>(
          kRouteSpecBase + SpecIndexFor(comp.type, *comp.partition_attr, space));
    }
    // A relevant type without a partition attribute stays unroutable, which
    // skips an event whose type matches but which carries no key.
  }

  // Assign the query to its route class (creating one if this route table is
  // new). AddQuery is rare and #classes is small, so linear search is fine.
  qs.route_class = static_cast<uint32_t>(classes_.size());
  for (size_t c = 0; c < classes_.size(); ++c) {
    if (classes_[c].route == qs.route) {
      qs.route_class = static_cast<uint32_t>(c);
      break;
    }
  }
  if (qs.route_class == classes_.size()) {
    classes_.emplace_back();
    classes_.back().route = qs.route;
    classes_.back().space = space;
  }
  route_index_dirty_ = true;

  // Merge-plan assignment. A query added after ingestion started must not
  // join a group whose runs already carry partial matches from events it
  // never saw — it is forced into a fresh singleton group instead. The flag
  // is persisted by SaveState so a restoring engine reproduces the exact
  // plan even though recovery re-adds every query before any event flows.
  qs.added_mid_stream = events_processed_ > 0;
  AssignMergePlan(id, /*force_singleton=*/qs.added_mid_stream);
  return id;
}

void CepEngine::AssignMergePlan(QueryId id, bool force_singleton) {
  QueryState& qs = *queries_[id];
  const MergeAssignment a = planner_.Assign(qs.compiled, force_singleton);
  if (a.new_group) {
    auto g = std::make_unique<MergeGroup>();
    g->nfa = std::make_unique<SharedNfa>(&qs.compiled);
    g->route = qs.route;
    g->route_class = qs.route_class;
    g->space = classes_[qs.route_class].space;
    g->pin = PinOf(qs.compiled);
    classes_[qs.route_class].scan.push_back(static_cast<uint32_t>(groups_.size()));
    groups_.push_back(std::move(g));
  }
  MergeGroup& g = *groups_[a.group];
  if (a.new_residue) {
    ResidueClass rc;
    rc.nfa_residue = g.nfa->AddResidue(&qs.compiled);
    rc.rep = id;
    g.residues.push_back(std::move(rc));
  }
  ResidueClass& rc = g.residues[a.residue];
  if (a.new_table) {
    rc.tables.push_back(static_cast<uint32_t>(g.tables.size()));
    g.tables.push_back(&qs.matches);
  }
  rc.members.push_back(id);
  g.members.push_back(id);
  qs.physical = g.tables[rc.tables[a.table]];
  qs.merge_group = a.group;
  qs.merge_residue = a.residue;
  if (g.bound_source == kNoQuery && qs.compiled.kleene_bound_needed()) {
    g.bound_source = id;
  }
}

Result<QueryId> CepEngine::AddQueryText(std::string_view text, std::string name) {
  EXSTREAM_ASSIGN_OR_RETURN(Query q, ParseQuery(text, std::move(name)));
  return AddQuery(q);
}

Result<QueryId> CepEngine::QueryIdByName(std::string_view name) const {
  for (size_t i = 0; i < queries_.size(); ++i) {
    if (queries_[i]->compiled.query().name == name) {
      return static_cast<QueryId>(i);
    }
  }
  return Status::NotFound("no query named '" + std::string(name) + "'");
}

uint16_t CepEngine::SpecIndexFor(EventTypeId type, size_t attr, uint32_t space) {
  for (size_t s = 0; s < specs_.size(); ++s) {
    if (specs_[s].type == type && specs_[s].attr == attr) {
      return static_cast<uint16_t>(s);
    }
  }
  const uint16_t s = static_cast<uint16_t>(specs_.size());
  specs_.push_back(ExtractorSpec{type, attr, space});
  if (specs_by_type_.size() <= type) specs_by_type_.resize(type + 1);
  specs_by_type_[type].push_back(s);
  return s;
}

uint32_t CepEngine::SpaceFor(const std::string& attr) {
  for (size_t i = 0; i < spaces_.size(); ++i) {
    if (spaces_[i].attr == attr) return static_cast<uint32_t>(i);
  }
  spaces_.emplace_back();
  spaces_.back().attr = attr;
  return static_cast<uint32_t>(spaces_.size() - 1);
}

void CepEngine::OpenTables(MergeGroup& g) {
  appenders_.clear();
  for (MatchTable* table : g.tables) appenders_.emplace_back(table);
}

uint32_t CepEngine::Register(MergeGroup& g, uint32_t key) {
  const uint32_t id = static_cast<uint32_t>(g.keys.size());
  if (g.local.size() <= key) g.local.resize(spaces_[g.space].keys.size(), kNoId);
  g.local[key] = id;
  g.keys.push_back(key);
  g.runs.emplace_back(g.nfa.get());
  // Every table of the group registers the partition in the same first-seen
  // order, so the bucket id is identical across them — one id serves them all.
  const std::string_view stored = KeyOf(g, id);
  uint32_t bucket = 0;
  for (MatchTable::Appender& table : appenders_) bucket = table.EnsureBucket(stored);
  g.buckets.push_back(bucket);
  if (g.pin != nullptr) {
    g.watch.push_back(KeyWatch::kUndecided);
    ++g.undecided;
  }
  return id;
}

void CepEngine::Decide(MergeGroup& g, uint32_t id, const Value& value) {
  g.watch[id] = PinRulesOut(*g.pin, value, KeyOf(g, id)) ? KeyWatch::kDead
                                                          : KeyWatch::kLive;
  --g.undecided;
}

void CepEngine::Step(MergeGroup& g, const Event& event, uint32_t event_idx,
                     uint32_t id) {
  ++steps_;
  SharedRun& run = g.runs[id];
  const SharedStepResult step = run.Step(event);
  if (!step.absorbed_kleene && !step.match_complete) return;
  const bool want_notes = callback_ != nullptr;
  const uint32_t bucket = g.buckets[id];
  for (const ResidueClass& rc : g.residues) {
    const bool per_kleene = g.nfa->EmitsPerKleeneEvent(rc.nfa_residue);
    const bool row_now =
        (step.absorbed_kleene && per_kleene) ||
        (step.match_complete && !(per_kleene && step.closed_kleene));
    if (!row_now && !step.match_complete) continue;
    if (row_now) {
      // Build the row once per residue class, then fan out one physical
      // append per table class (not per member query).
      row_.ts = event.ts;
      row_.values.clear();
      run.AppendRowValues(rc.nfa_residue, event, &row_.values);
    }
    for (const uint32_t t : rc.tables) {
      if (row_now) appenders_[t].Append(bucket, row_);
      if (step.match_complete) appenders_[t].MarkComplete(bucket);
    }
    if (want_notes) {
      for (const QueryId q : rc.members) {
        notes_.push_back({event_idx,
                          MatchNotification{q, id, KeyOf(g, id),
                                            row_now ? row_ : MatchRow{},
                                            step.match_complete}});
      }
    }
  }
  if (step.match_complete) run.Reset();
}

void CepEngine::ScanPass(MergeGroup& g, const RouteClass& rc, const Event* events) {
  // One pass in stream order: partition ids and bucket ids come out in the
  // group's first-seen order, and each table is locked once for the pass.
  OpenTables(g);
  for (size_t j = 0; j < rc.events.size(); ++j) {
    const uint32_t i = rc.events[j];
    const uint32_t key = rc.event_keys[j];
    uint32_t id = key < g.local.size() ? g.local[key] : kNoId;
    if (id == kNoId) id = Register(g, key);
    if (g.pin != nullptr) {
      if (g.watch[id] == KeyWatch::kUndecided) {
        const Event& e = events[i];
        Decide(g, id, e.values[specs_[g.route[e.type] - kRouteSpecBase].attr]);
      }
      if (g.watch[id] == KeyWatch::kDead) continue;
    }
    Step(g, events[i], i, id);
  }
  appenders_.clear();
}

void CepEngine::PromoteSynced(RouteClass& rc) {
  size_t kept = 0;
  for (const uint32_t gi : rc.scan) {
    const MergeGroup& g = *groups_[gi];
    if (g.pin == nullptr || g.undecided != 0 || g.keys.size() != rc.num_seen) {
      rc.scan[kept++] = gi;
      continue;
    }
    rc.synced.push_back(gi);
    for (uint32_t id = 0; id < g.keys.size(); ++id) {
      if (g.watch[id] != KeyWatch::kLive) continue;
      if (rc.watchers.size() <= g.keys[id]) rc.watchers.resize(g.keys[id] + 1);
      rc.watchers[g.keys[id]].push_back(gi);
    }
  }
  rc.scan.resize(kept);
}

void CepEngine::RebuildRouteIndex() {
  classes_by_type_.assign(registry_->size(), {});
  for (size_t c = 0; c < classes_.size(); ++c) {
    const std::vector<uint16_t>& route = classes_[c].route;
    for (size_t t = 0; t < route.size() && t < classes_by_type_.size(); ++t) {
      if (route[t] != kRouteIrrelevant) {
        classes_by_type_[t].push_back(static_cast<uint16_t>(c));
      }
    }
  }
  route_index_dirty_ = false;
}

void CepEngine::PrepareKeys(const Event* events, size_t n) {
  if (route_index_dirty_) RebuildRouteIndex();
  // Only the classes the previous call touched hold per-call lists, so a
  // one-event call costs the classes of its type, not all classes.
  for (const uint16_t c : call_classes_) {
    RouteClass& rc = classes_[c];
    rc.events.clear();
    rc.event_keys.clear();
    rc.new_keys.clear();
    for (const uint32_t key : rc.call_keys) rc.key_events[key].clear();
    rc.call_keys.clear();
  }
  call_classes_.clear();
  spec_keys_.resize(specs_.size());
  for (uint32_t i = 0; i < n; ++i) {
    const Event& e = events[i];
    // The inverted class index makes this loop proportional to the classes
    // that actually want the event's type, not to all classes.
    if (e.type >= classes_by_type_.size() || classes_by_type_[e.type].empty()) continue;
    if (e.type < specs_by_type_.size()) {
      for (const uint16_t s : specs_by_type_[e.type]) {
        const Value& v = e.values[specs_[s].attr];
        std::string_view key;
        if (v.is_string()) {
          key = v.AsString();
        } else {
          key_scratch_ = v.ToString();
          key = key_scratch_;
        }
        spec_keys_[s] =
            spaces_[specs_[s].space].keys.Intern(key, PartitionKeyHash(key));
      }
    }
    for (const uint16_t c : classes_by_type_[e.type]) {
      RouteClass& rc = classes_[c];
      if (rc.events.empty()) call_classes_.push_back(c);
      const uint16_t r = rc.route[e.type];
      const uint32_t key = r == kRouteEmptyKey ? 0 : spec_keys_[r - kRouteSpecBase];
      if (rc.seen.size() <= key) rc.seen.resize(spaces_[rc.space].keys.size(), 0);
      if (rc.seen[key] == 0) {
        rc.seen[key] = 1;
        ++rc.num_seen;
        rc.new_keys.push_back(static_cast<uint32_t>(rc.events.size()));
      }
      if (!rc.synced.empty()) {
        if (rc.key_events.size() <= key) {
          rc.key_events.resize(spaces_[rc.space].keys.size());
        }
        if (rc.key_events[key].empty()) rc.call_keys.push_back(key);
        rc.key_events[key].push_back(i);
      }
      rc.events.push_back(i);
      rc.event_keys.push_back(key);
    }
  }
  // Ingest visits the touched classes in class order.
  std::sort(call_classes_.begin(), call_classes_.end());
}

void CepEngine::Ingest(const Event* events, size_t n) {
  if (n == 0) return;
  events_processed_ += n;
  PrepareKeys(events, n);
  for (const uint16_t c : call_classes_) {
    RouteClass& rc = classes_[c];
    for (const uint32_t gi : rc.scan) ScanPass(*groups_[gi], rc, events);
    // Synced groups hold every key the class saw before this call, so the
    // keys new to the class are exactly the keys new to them, in the same
    // first-seen order.
    if (!rc.new_keys.empty()) {
      for (const uint32_t gi : rc.synced) {
        MergeGroup& g = *groups_[gi];
        OpenTables(g);
        for (const uint32_t j : rc.new_keys) {
          const uint32_t key = rc.event_keys[j];
          const uint32_t id = Register(g, key);
          const Event& e = events[rc.events[j]];
          Decide(g, id, e.values[specs_[g.route[e.type] - kRouteSpecBase].attr]);
          if (g.watch[id] != KeyWatch::kLive) continue;
          if (rc.watchers.size() <= key) rc.watchers.resize(key + 1);
          rc.watchers[key].push_back(gi);
        }
        appenders_.clear();
      }
    }
    // Each synced group steps only its live keys' events. Runs of different
    // keys are independent, so stepping key by key (each key in stream
    // order) changes no run, row or note order.
    for (const uint32_t key : rc.call_keys) {
      if (key >= rc.watchers.size()) continue;
      for (const uint32_t gi : rc.watchers[key]) {
        MergeGroup& g = *groups_[gi];
        const uint32_t id = g.local[key];
        OpenTables(g);
        for (const uint32_t i : rc.key_events[key]) Step(g, events[i], i, id);
        appenders_.clear();
      }
    }
    PromoteSynced(rc);
  }
  DispatchNotifications();
}

void CepEngine::ResetClassRouting() {
  for (RouteClass& rc : classes_) {
    rc.seen.clear();
    rc.num_seen = 0;
    rc.scan.clear();
    rc.synced.clear();
    rc.watchers.clear();
  }
  for (uint32_t gi = 0; gi < groups_.size(); ++gi) {
    const MergeGroup& g = *groups_[gi];
    RouteClass& rc = classes_[g.route_class];
    rc.scan.push_back(gi);
    for (const uint32_t key : g.keys) {
      if (rc.seen.size() <= key) rc.seen.resize(spaces_[rc.space].keys.size(), 0);
      if (rc.seen[key] == 0) {
        rc.seen[key] = 1;
        ++rc.num_seen;
      }
    }
  }
}

void CepEngine::DispatchNotifications() {
  if (notes_.empty()) return;
  // Groups are evaluated one after another, each in stream order; the
  // canonical order is (event, query). Stable sort keeps the fixed
  // row-before-completion order of the (at most two) notes one
  // (event, query) pair can produce.
  std::stable_sort(notes_.begin(), notes_.end(),
                   [](const PendingNote& a, const PendingNote& b) {
                     if (a.event_idx != b.event_idx) return a.event_idx < b.event_idx;
                     return a.note.query < b.note.query;
                   });
  for (const PendingNote& p : notes_) callback_(p.note);
  notes_.clear();
}

void CepEngine::SaveState(BytesWriter* out) const {
  out->Put<uint64_t>(events_processed_);
  out->Put<uint32_t>(static_cast<uint32_t>(queries_.size()));
  // Mid-stream-add flags. RestoreState replays them into the merge planner:
  // a query added after ingestion started was forced singleton at save time,
  // and must land in its own group again on restore even though recovery
  // re-adds every query before any event flows.
  for (const auto& qs : queries_) {
    out->Put<uint8_t>(qs->added_mid_stream ? 1 : 0);
  }
  for (const auto& qs : queries_) {
    // Each member writes the state its own QueryRuns would have held, so the
    // bytes do not depend on the merge plan. Members of a group repeat the
    // shared pieces (keys, buckets, traversal state); RestoreState uses the
    // redundancy as a cross-check.
    const MergeGroup& g = *groups_[qs->merge_group];
    const uint32_t nfa_residue = g.residues[qs->merge_residue].nfa_residue;
    const uint32_t n_keys = static_cast<uint32_t>(g.keys.size());
    out->Put<uint32_t>(n_keys);
    for (uint32_t id = 0; id < n_keys; ++id) out->PutString(KeyOf(g, id));
    out->PutPodVector(g.buckets);
    for (uint32_t id = 0; id < n_keys; ++id) {
      g.runs[id].SaveMemberView(nfa_residue, out);
    }
    qs->physical->SaveState(out);
  }
}

Status CepEngine::RestoreState(BytesReader* in) {
  EXSTREAM_ASSIGN_OR_RETURN(const uint64_t events_processed, in->Get<uint64_t>());
  EXSTREAM_ASSIGN_OR_RETURN(const uint32_t n_queries, in->Get<uint32_t>());
  if (n_queries != queries_.size()) {
    return Status::InvalidArgument(
        StrFormat("snapshot holds %u queries, engine has %zu registered",
                  n_queries, queries_.size()));
  }
  std::vector<uint8_t> mid_stream(n_queries, 0);
  for (uint32_t i = 0; i < n_queries; ++i) {
    EXSTREAM_ASSIGN_OR_RETURN(mid_stream[i], in->Get<uint8_t>());
  }
  // If the snapshot's mid-stream flags disagree with how this engine's
  // queries were added (during recovery every query is re-added before any
  // event, so none is forced singleton), the current merge plan groups
  // queries the snapshot kept apart — their per-group key sets differ and
  // the member cross-check below would reject the snapshot. Rebuild the
  // plan with the persisted flags instead.
  bool replan = false;
  for (uint32_t i = 0; i < n_queries; ++i) {
    if ((mid_stream[i] != 0) != queries_[i]->added_mid_stream) replan = true;
  }
  if (replan) {
    for (const auto& gp : groups_) {
      if (!gp->keys.empty()) {
        return Status::InvalidArgument(
            "engine must be freshly constructed before restore");
      }
    }
    for (const auto& qs : queries_) {
      if (qs->matches.TotalRows() != 0) {
        return Status::InvalidArgument(
            "engine must be freshly constructed before restore");
      }
    }
    planner_ = MergePlanner();
    groups_.clear();
    for (QueryId qi = 0; qi < queries_.size(); ++qi) {
      queries_[qi]->physical = &queries_[qi]->matches;
      AssignMergePlan(qi, /*force_singleton=*/mid_stream[qi] != 0);
    }
    ResetClassRouting();  // drops the old plan's group indices
  }
  // Adopt the persisted flags so a re-checkpoint of the restored engine
  // writes the same plan.
  for (QueryId qi = 0; qi < queries_.size(); ++qi) {
    queries_[qi]->added_mid_stream = mid_stream[qi] != 0;
  }
  for (QueryId qi = 0; qi < queries_.size(); ++qi) {
    QueryState& qs = *queries_[qi];

    EXSTREAM_ASSIGN_OR_RETURN(const uint32_t n_keys, in->Get<uint32_t>());
    std::vector<std::string> keys;
    keys.reserve(n_keys);
    for (uint32_t i = 0; i < n_keys; ++i) {
      EXSTREAM_ASSIGN_OR_RETURN(std::string key, in->GetString());
      keys.push_back(std::move(key));
    }
    std::vector<uint32_t> buckets;
    EXSTREAM_RETURN_NOT_OK(in->GetPodVector(&buckets));
    if (buckets.size() != n_keys) {
      return Status::Corruption(
          StrFormat("snapshot bucket map holds %zu entries for %u keys",
                    buckets.size(), n_keys));
    }

    MergeGroup& g = *groups_[qs.merge_group];
    const ResidueClass& rc = g.residues[qs.merge_residue];
    const bool first_member = g.members.front() == qi;
    const bool take_kleene = g.bound_source == qi;
    const bool take_aggs = rc.rep == qi;
    if (first_member) {
      if (!g.keys.empty()) {
        return Status::InvalidArgument(
            "engine must be freshly constructed before restore");
      }
      // Registering the keys in saved id order reproduces the exact id
      // assignment. A pinned group decides each key again on its next event.
      KeySpace& space = spaces_[g.space];
      g.runs.reserve(n_keys);
      for (uint32_t i = 0; i < n_keys; ++i) {
        const uint32_t key = space.keys.Intern(keys[i], PartitionKeyHash(keys[i]));
        if (g.local.size() <= key) g.local.resize(space.keys.size(), kNoId);
        if (g.local[key] != kNoId) {
          return Status::Corruption(
              StrFormat("duplicate partition key in snapshot at id %u", i));
        }
        g.local[key] = i;
        g.keys.push_back(key);
        g.runs.emplace_back(g.nfa.get());
        if (g.pin != nullptr) {
          g.watch.push_back(KeyWatch::kUndecided);
          ++g.undecided;
        }
      }
      g.buckets = std::move(buckets);
    } else {
      // Later members of the group must describe the exact same shared
      // state their group already restored.
      if (n_keys != g.keys.size() || buckets != g.buckets) {
        return Status::Corruption(StrFormat(
            "merged query %u disagrees with its group's restored keys", qi));
      }
      for (uint32_t i = 0; i < n_keys; ++i) {
        if (keys[i] != KeyOf(g, i)) {
          return Status::Corruption(StrFormat(
              "merged query %u disagrees with its group's restored keys", qi));
        }
      }
    }
    for (uint32_t i = 0; i < n_keys; ++i) {
      EXSTREAM_RETURN_NOT_OK(g.runs[i].RestoreMemberView(
          in, rc.nfa_residue, first_member, take_kleene, take_aggs));
    }
    if (qs.physical == &qs.matches) {
      if (qs.matches.TotalRows() != 0) {
        return Status::InvalidArgument(
            "engine must be freshly constructed before restore");
      }
      EXSTREAM_RETURN_NOT_OK(qs.matches.RestoreState(in));
    } else {
      // Non-representative member of a table class: its table bytes equal
      // the representative's, which were (or will be) restored into the
      // shared physical table — parse into a throwaway to keep the stream
      // aligned.
      MatchTable discard(qs.compiled.OutputColumns());
      EXSTREAM_RETURN_NOT_OK(discard.RestoreState(in));
    }
  }
  events_processed_ = events_processed;
  ResetClassRouting();
  return Status::OK();
}

}  // namespace exstream
