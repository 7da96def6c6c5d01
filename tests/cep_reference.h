// Reference CEP evaluator for differential tests of CepEngine.
//
// Every query is evaluated on its own, one QueryRun per partition, event by
// event: no merge groups, no shared runs, no shared tables, no batching. It
// is the definition the engine's merged evaluation must reproduce bit for
// bit — match tables, the match callback sequence (order and partition_id
// included), and SaveState bytes. A snapshot it writes is in the engine's
// checkpoint format, so engine RestoreState can load it (the format a
// per-query engine wrote before merged evaluation became the only path).

#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "cep/engine.h"
#include "cep/nfa.h"
#include "query/parser.h"

namespace exstream {

class ReferenceCep {
 public:
  explicit ReferenceCep(const EventTypeRegistry* registry) : registry_(registry) {}

  Result<QueryId> AddQueryText(std::string_view text, std::string name) {
    EXSTREAM_ASSIGN_OR_RETURN(Query q, ParseQuery(text, std::move(name)));
    EXSTREAM_ASSIGN_OR_RETURN(CompiledQuery cq, CompiledQuery::Compile(q, registry_));
    queries_.push_back(std::make_unique<PerQuery>(std::move(cq)));
    queries_.back()->added_mid_stream = events_processed_ > 0;
    return static_cast<QueryId>(queries_.size() - 1);
  }

  void SetMatchCallback(std::function<void(const MatchNotification&)> cb) {
    callback_ = std::move(cb);
  }

  void OnEvent(const Event& event) {
    ++events_processed_;
    for (size_t qi = 0; qi < queries_.size(); ++qi) {
      PerQuery& q = *queries_[qi];
      std::string key;
      if (!PartitionKey(q.compiled, event, &key)) continue;
      auto it = q.ids.find(key);
      if (it == q.ids.end()) {
        q.keys.push_back(key);
        it = q.ids.emplace(key, static_cast<uint32_t>(q.runs.size())).first;
        q.runs.emplace_back(&q.compiled);
        q.buckets.push_back(q.matches.EnsureBucket(key));
      }
      const uint32_t id = it->second;
      const std::string_view partition = q.keys[id];
      MatchRow row;
      const RunStepResult step = q.runs[id].OnEvent(event, &row);
      if (step.emitted_row) {
        q.matches.Append(q.buckets[id], row);
        if (callback_) {
          callback_(MatchNotification{static_cast<QueryId>(qi), id, partition, row,
                                      step.match_complete});
        }
      }
      if (step.match_complete) {
        q.matches.MarkComplete(q.buckets[id]);
        if (callback_ && !step.emitted_row) {
          callback_(MatchNotification{static_cast<QueryId>(qi), id, partition,
                                      MatchRow{}, true});
        }
      }
    }
  }

  const MatchTable& match_table(QueryId id) const { return queries_[id]->matches; }
  size_t num_queries() const { return queries_.size(); }

  /// Writes the CepEngine::SaveState format.
  void SaveState(BytesWriter* out) const {
    out->Put<uint64_t>(events_processed_);
    out->Put<uint32_t>(static_cast<uint32_t>(queries_.size()));
    for (const auto& q : queries_) out->Put<uint8_t>(q->added_mid_stream ? 1 : 0);
    for (const auto& q : queries_) {
      out->Put<uint32_t>(static_cast<uint32_t>(q->keys.size()));
      for (const std::string& key : q->keys) out->PutString(key);
      out->PutPodVector(q->buckets);
      for (const QueryRun& run : q->runs) run.SaveState(out);
      q->matches.SaveState(out);
    }
  }

 private:
  struct PerQuery {
    explicit PerQuery(CompiledQuery cq)
        : compiled(std::move(cq)), matches(compiled.OutputColumns()) {}

    CompiledQuery compiled;
    MatchTable matches;
    std::deque<std::string> keys;  ///< partition keys in first-seen order
    std::unordered_map<std::string, uint32_t> ids;
    std::vector<QueryRun> runs;      ///< indexed by partition id
    std::vector<uint32_t> buckets;   ///< partition id -> match-table bucket
    bool added_mid_stream = false;
  };

  /// The event's partition key under `cq`: false if the event's type is not
  /// a component of the pattern (or carries no partition attribute); the
  /// empty string for an unpartitioned query.
  static bool PartitionKey(const CompiledQuery& cq, const Event& event,
                           std::string* key) {
    const bool partitioned = !cq.query().partition_attribute.empty();
    bool relevant = false;
    for (const CompiledComponent& comp : cq.components()) {
      if (comp.type != event.type) continue;
      if (!partitioned) {
        key->clear();
        relevant = true;
      } else if (comp.partition_attr.has_value()) {
        const Value& v = event.values[*comp.partition_attr];
        *key = v.is_string() ? std::string(v.AsString()) : v.ToString();
        relevant = true;
      }
    }
    return relevant;
  }

  const EventTypeRegistry* registry_;  // not owned
  std::vector<std::unique_ptr<PerQuery>> queries_;
  std::function<void(const MatchNotification&)> callback_;
  uint64_t events_processed_ = 0;
};

}  // namespace exstream
