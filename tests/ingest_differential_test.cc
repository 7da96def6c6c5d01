// Differential test of the engine's ingestion paths.
//
// Contract under test (see cep/engine.h): for ANY batch split, OnEventBatch
// — and per-event OnEvent — must produce MatchTables, a match callback
// sequence, and SaveState bytes bit-identical to the per-query reference
// evaluator (cep_reference.h). The streams include adversarial partition-key
// skew — one hot key (every event in the same partition) and all-unique keys
// (every completion is a fresh partition: maximal interner churn) — plus the
// random mixed stream the stress test uses.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cep/engine.h"
#include "cep_reference.h"
#include "common/rng.h"
#include "common/strings.h"

namespace exstream {
namespace {

constexpr char kQuery[] =
    "PATTERN SEQ(Start a, Tick+ b[], End c) WHERE [job] "
    "RETURN (b[i].timestamp, a.job, sum(b[1..i].size))";

// A deep copy of one MatchNotification, safe to compare after the fact.
struct NoteCopy {
  QueryId query;
  uint32_t partition_id;
  std::string partition;
  Timestamp ts;
  std::vector<Value> values;
  bool complete;

  static NoteCopy From(const MatchNotification& n) {
    return NoteCopy{n.query,  n.partition_id, std::string(n.partition),
                    n.row.ts, n.row.values,   n.complete};
  }
  bool operator==(const NoteCopy& o) const {
    return query == o.query && partition_id == o.partition_id &&
           partition == o.partition && ts == o.ts && values == o.values &&
           complete == o.complete;
  }
};

// Snapshot of one query's match table: partition list order included.
struct TableCopy {
  std::vector<std::string> partitions;
  std::vector<std::vector<MatchRow>> rows;
  std::vector<bool> complete;

  static TableCopy From(const MatchTable& t) {
    TableCopy c;
    c.partitions = t.Partitions();
    for (const std::string& p : c.partitions) {
      c.rows.push_back(t.Rows(p));
      c.complete.push_back(t.IsComplete(p));
    }
    return c;
  }
};

void ExpectTablesEqual(const TableCopy& a, const TableCopy& b,
                       const std::string& label) {
  ASSERT_EQ(a.partitions, b.partitions) << label;
  ASSERT_EQ(a.complete, b.complete) << label;
  for (size_t p = 0; p < a.partitions.size(); ++p) {
    const auto& ra = a.rows[p];
    const auto& rb = b.rows[p];
    ASSERT_EQ(ra.size(), rb.size()) << label << " partition " << a.partitions[p];
    for (size_t i = 0; i < ra.size(); ++i) {
      ASSERT_EQ(ra[i].ts, rb[i].ts) << label << " " << a.partitions[p] << "#" << i;
      ASSERT_EQ(ra[i].values, rb[i].values)
          << label << " " << a.partitions[p] << "#" << i;
    }
  }
}

class IngestDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(registry_
                    .Register(EventSchema("Start", {{"job", ValueType::kString}}))
                    .ok());
    ASSERT_TRUE(registry_
                    .Register(EventSchema("Tick", {{"job", ValueType::kString},
                                                   {"size", ValueType::kDouble}}))
                    .ok());
    ASSERT_TRUE(registry_
                    .Register(EventSchema("End", {{"job", ValueType::kString}}))
                    .ok());
  }

  // Random interleaving over `num_jobs` partitions (the stress-test stream).
  std::vector<Event> MixedStream(uint64_t seed, int num_jobs, int num_events) {
    Rng rng(seed);
    std::vector<Event> events;
    Timestamp ts = 0;
    std::vector<int> phase(static_cast<size_t>(num_jobs), 0);
    for (int i = 0; i < num_events; ++i) {
      ts += rng.UniformInt(1, 3);
      const int j = static_cast<int>(rng.UniformInt(0, num_jobs - 1));
      const std::string job = StrFormat("job-%d", j);
      auto& p = phase[static_cast<size_t>(j)];
      const int64_t kind = rng.UniformInt(0, 5);
      if (p == 0 && kind == 0) {
        events.emplace_back(0, ts, MakeValues(job));
        p = 1;
      } else if (p == 1 && kind == 5) {
        events.emplace_back(2, ts, MakeValues(job));
        p = 0;
      } else {
        events.emplace_back(1, ts, MakeValues(job, rng.Gaussian(5, 2)));
      }
    }
    return events;
  }

  // One hot key: every event belongs to the same partition.
  std::vector<Event> HotKeyStream(int num_events) {
    std::vector<Event> events;
    Timestamp ts = 0;
    const std::string job = "the-one-job";
    int phase = 0;
    for (int i = 0; i < num_events; ++i) {
      ++ts;
      if (phase == 0) {
        events.emplace_back(0, ts, MakeValues(job));
        phase = 1;
      } else if (phase > 8) {
        events.emplace_back(2, ts, MakeValues(job));
        phase = 0;
      } else {
        events.emplace_back(1, ts, MakeValues(job, static_cast<double>(i)));
        ++phase;
      }
    }
    return events;
  }

  // All-unique keys: every Start/Tick/End triple is a brand-new partition.
  std::vector<Event> UniqueKeyStream(int num_triples) {
    std::vector<Event> events;
    Timestamp ts = 0;
    for (int i = 0; i < num_triples; ++i) {
      const std::string job = StrFormat("uniq-%d", i);
      events.emplace_back(0, ++ts, MakeValues(job));
      events.emplace_back(1, ++ts, MakeValues(job, static_cast<double>(i)));
      events.emplace_back(2, ++ts, MakeValues(job));
    }
    return events;
  }

  struct Output {
    std::vector<TableCopy> tables;
    std::vector<NoteCopy> notes;
    std::string snapshot;  ///< SaveState bytes after the whole stream
  };

  // Runs `queries` through the per-query reference evaluator.
  Output RunReference(const std::vector<Event>& stream,
                      const std::vector<std::string>& queries) {
    ReferenceCep ref(&registry_);
    for (size_t q = 0; q < queries.size(); ++q) {
      EXPECT_TRUE(ref.AddQueryText(queries[q], StrFormat("Q%zu", q)).ok());
    }
    Output out;
    ref.SetMatchCallback(
        [&out](const MatchNotification& n) { out.notes.push_back(NoteCopy::From(n)); });
    for (const Event& e : stream) ref.OnEvent(e);
    for (size_t q = 0; q < ref.num_queries(); ++q) {
      out.tables.push_back(TableCopy::From(ref.match_table(static_cast<QueryId>(q))));
    }
    BytesWriter w;
    ref.SaveState(&w);
    out.snapshot = w.Take();
    return out;
  }

  // Runs the same queries through the engine, cutting the stream into
  // batches of the sizes in `splits` (cycled); empty `splits` = OnEvent.
  Output RunEngine(const std::vector<Event>& stream,
                   const std::vector<std::string>& queries,
                   const std::vector<size_t>& splits) {
    CepEngine engine(&registry_);
    std::vector<QueryId> ids;
    for (size_t q = 0; q < queries.size(); ++q) {
      auto qid = engine.AddQueryText(queries[q], StrFormat("Q%zu", q));
      EXPECT_TRUE(qid.ok()) << qid.status().ToString();
      ids.push_back(*qid);
    }
    Output out;
    engine.SetMatchCallback(
        [&out](const MatchNotification& n) { out.notes.push_back(NoteCopy::From(n)); });
    if (splits.empty()) {
      for (const Event& e : stream) engine.OnEvent(e);
    } else {
      size_t k = 0;
      for (size_t i = 0; i < stream.size(); k = (k + 1) % splits.size()) {
        const size_t end = std::min(stream.size(), i + splits[k]);
        engine.OnEventBatch(EventBatch(stream.begin() + static_cast<ptrdiff_t>(i),
                                       stream.begin() + static_cast<ptrdiff_t>(end)));
        i = end;
      }
    }
    EXPECT_EQ(engine.events_processed(), stream.size());
    for (const QueryId id : ids) out.tables.push_back(TableCopy::From(engine.match_table(id)));
    BytesWriter w;
    engine.SaveState(&w);
    out.snapshot = w.Take();
    return out;
  }

  void CheckDifferential(const std::vector<Event>& stream,
                         const std::vector<std::string>& queries,
                         const std::string& stream_label) {
    const Output ref = RunReference(stream, queries);
    ASSERT_FALSE(ref.notes.empty()) << stream_label << ": stream produced no matches";

    // Batch splits: OnEvent (none), fixed sizes from single events to the
    // whole stream, and a ragged seeded split whose boundaries fall
    // everywhere relative to partition runs.
    std::vector<std::vector<size_t>> splits = {
        {}, {1}, {2}, {7}, {64}, {512}, {stream.size()}};
    Rng rng(stream.size());
    std::vector<size_t> ragged;
    for (int i = 0; i < 64; ++i) ragged.push_back(static_cast<size_t>(rng.UniformInt(1, 97)));
    splits.push_back(ragged);

    for (const std::vector<size_t>& split : splits) {
      std::string label = stream_label + " per-event";
      if (split.size() == 1) label = StrFormat("%s batch=%zu", stream_label.c_str(), split[0]);
      if (split.size() > 1) label = stream_label + " ragged";
      const Output got = RunEngine(stream, queries, split);
      ASSERT_EQ(got.tables.size(), ref.tables.size()) << label;
      for (size_t q = 0; q < got.tables.size(); ++q) {
        ExpectTablesEqual(ref.tables[q], got.tables[q], label);
      }
      ASSERT_EQ(got.notes.size(), ref.notes.size()) << label;
      for (size_t i = 0; i < got.notes.size(); ++i) {
        ASSERT_TRUE(got.notes[i] == ref.notes[i]) << label << " note #" << i;
      }
      EXPECT_TRUE(got.snapshot == ref.snapshot) << label << ": SaveState bytes differ";
    }
  }

  EventTypeRegistry registry_;
};

const std::vector<std::string> kReplicas(5, kQuery);

TEST_F(IngestDifferentialTest, MixedStreamBitIdentical) {
  CheckDifferential(MixedStream(7, 20, 6000), kReplicas, "mixed");
}

TEST_F(IngestDifferentialTest, HotKeyBitIdentical) {
  CheckDifferential(HotKeyStream(4000), kReplicas, "hot-key");
}

TEST_F(IngestDifferentialTest, UniqueKeysBitIdentical) {
  CheckDifferential(UniqueKeyStream(1500), kReplicas, "unique-keys");
}

TEST_F(IngestDifferentialTest, UnpartitionedQueryBatched) {
  // A query with no WHERE [key] clause routes through the empty-key path.
  constexpr char kUnpartitioned[] =
      "PATTERN SEQ(Start a, Tick+ b[], End c) "
      "RETURN (b[i].timestamp, a.job, sum(b[1..i].size))";
  const auto stream = HotKeyStream(1200);

  ReferenceCep ref(&registry_);
  ASSERT_TRUE(ref.AddQueryText(kUnpartitioned, "U").ok());
  for (const Event& e : stream) ref.OnEvent(e);
  const TableCopy want = TableCopy::From(ref.match_table(0));

  for (const size_t batch_size : {size_t{0}, size_t{1}, size_t{64}}) {
    CepEngine engine(&registry_);
    auto qid = engine.AddQueryText(kUnpartitioned, "U");
    ASSERT_TRUE(qid.ok());
    if (batch_size == 0) {
      for (const Event& e : stream) engine.OnEvent(e);
    } else {
      for (size_t i = 0; i < stream.size(); i += batch_size) {
        const size_t end = std::min(stream.size(), i + batch_size);
        engine.OnEventBatch(EventBatch(stream.begin() + static_cast<ptrdiff_t>(i),
                                       stream.begin() + static_cast<ptrdiff_t>(end)));
      }
    }
    ExpectTablesEqual(want, TableCopy::From(engine.match_table(*qid)),
                      StrFormat("unpartitioned batch=%zu", batch_size));
  }
}

// ---------------------------------------------------------------------------
// Pinned-key routing: groups whose first component pins the partition
// attribute to a constant step only the events of keys the pin may pass.
// Every case is compared with the reference, which steps every key.
// ---------------------------------------------------------------------------

class PinnedRoutingTest : public IngestDifferentialTest {
 protected:
  static constexpr EventTypeId kMetric = 3;
  static constexpr EventTypeId kOther = 4;
  static constexpr EventTypeId kHost = 5;
  static constexpr int64_t kBig = int64_t{1} << 53;  // kBig + 1 == kBig as doubles

  void SetUp() override {
    IngestDifferentialTest::SetUp();
    ASSERT_TRUE(registry_
                    .Register(EventSchema("Metric", {{"node", ValueType::kInt64},
                                                     {"val", ValueType::kDouble}}))
                    .ok());
    ASSERT_TRUE(registry_
                    .Register(EventSchema("Other", {{"node", ValueType::kInt64},
                                                    {"val", ValueType::kDouble}}))
                    .ok());
    ASSERT_TRUE(registry_
                    .Register(EventSchema("Host", {{"host", ValueType::kString},
                                                   {"val", ValueType::kDouble}}))
                    .ok());
    ASSERT_EQ(registry_.IdOf("Host").ValueOrDie(), kHost);
  }

  // Readings of 30 int64 nodes and 6 string hosts, plus keys that probe the
  // dead-key rule: "5" first seen as a string, later as int64 5; "13" first
  // seen as the double 13.0000001 (which prints as "13"), later as int64 13;
  // "7" first seen as int64 7, later as the double 7.0000001; the double
  // 12.5; and kBig / kBig + 1, distinct keys equal as doubles.
  std::vector<Event> PinnedStream(uint64_t seed, int num_events) {
    Rng rng(seed);
    std::vector<Event> events;
    Timestamp ts = 0;
    events.emplace_back(kMetric, ++ts, MakeValues(std::string("5"), 80.0));
    events.emplace_back(kMetric, ++ts, MakeValues(std::string("5"), 90.0));
    events.emplace_back(kMetric, ++ts, MakeValues(13.0000001, 70.0));
    for (int i = 0; i < num_events; ++i) {
      ts += rng.UniformInt(1, 3);
      const double val = rng.Uniform(0, 100);
      if (i % 97 == 50) {
        events.emplace_back(kMetric, ts, MakeValues(i % 2 == 0 ? kBig : kBig + 1, val));
      } else if (i % 89 == 40 && i > 200) {
        events.emplace_back(kMetric, ts, MakeValues(7.0000001, val));
      } else if (i % 83 == 30) {
        events.emplace_back(kMetric, ts, MakeValues(12.5, val));
      } else if (rng.UniformInt(0, 5) == 0) {
        const std::string host = StrFormat("h%d", static_cast<int>(rng.UniformInt(0, 5)));
        events.emplace_back(kHost, ts, MakeValues(host, val));
      } else {
        const EventTypeId type = rng.UniformInt(0, 2) == 0 ? kOther : kMetric;
        events.emplace_back(type, ts, MakeValues(rng.UniformInt(0, 29), val));
      }
    }
    return events;
  }
};

TEST_F(PinnedRoutingTest, PinOnFirstComponent) {
  CheckDifferential(
      PinnedStream(11, 3000),
      {"PATTERN SEQ(Metric a, Metric b) WHERE [node] AND a.node = 3 AND a.val > 50 "
       "RETURN (a.timestamp, b.val)",
       "PATTERN SEQ(Metric a, Metric b) WHERE [node] AND a.node = 3 AND a.val > 50 "
       "RETURN (a.timestamp, b.val)",
       "PATTERN SEQ(Metric a, Metric b) WHERE [node] AND a.val > 50 AND a.node = 3 "
       "RETURN (b.timestamp, a.val)"},
      "first-component pin");
}

TEST_F(PinnedRoutingTest, PinOnKleeneFirstComponent) {
  CheckDifferential(PinnedStream(12, 3000),
                    {"PATTERN SEQ(Metric+ b[]) WHERE [node] AND b.node = 0 "
                     "RETURN (b[i].timestamp, b[i].val)",
                     "PATTERN SEQ(Metric+ b[], Other c) WHERE [node] AND b.node = 1 "
                     "RETURN (b[i].timestamp, sum(b[1..i].val))"},
                    "kleene pin");
}

TEST_F(PinnedRoutingTest, PinOnLaterComponentIsNotIndexed) {
  // Runs of every key start at the unpinned first component, hold partial
  // state (SaveState bytes) and stream kleene rows.
  CheckDifferential(PinnedStream(13, 3000),
                    {"PATTERN SEQ(Metric+ a[], Other b) WHERE [node] AND b.node = 2 "
                     "RETURN (a[i].timestamp, a[i].val)",
                     "PATTERN SEQ(Metric a, Other b) WHERE [node] AND b.node = 2 "
                     "RETURN (a.timestamp, b.val)"},
                    "later-component pin");
}

TEST_F(PinnedRoutingTest, PinWithNegation) {
  CheckDifferential(PinnedStream(14, 3000),
                    {"PATTERN SEQ(Metric a, !Other n, Metric b) WHERE [node] AND "
                     "a.node = 4 AND n.val > 70 RETURN (a.timestamp, b.val)",
                     "PATTERN SEQ(Metric a, !Other n, Metric b) WHERE [node] AND "
                     "a.node = 4 AND n.val > 70 RETURN (a.timestamp, b.val)"},
                    "pin with negation");
}

TEST_F(PinnedRoutingTest, SameShapeDifferentConstants) {
  std::vector<std::string> queries;
  for (int node = 0; node < 30; ++node) {
    queries.push_back(StrFormat(
        "PATTERN SEQ(Metric a, Other b) WHERE [node] AND a.node = %d AND "
        "a.val > 40 WITHIN 20 RETURN (a.timestamp, a.val, b.val)",
        node));
  }
  CheckDifferential(PinnedStream(15, 4000), queries, "30 constants");
}

TEST_F(PinnedRoutingTest, StringPartitionKey) {
  CheckDifferential(PinnedStream(16, 3000),
                    {"PATTERN SEQ(Host a, Host b) WHERE [host] AND a.host = 'h2' "
                     "RETURN (a.timestamp, b.val)",
                     "PATTERN SEQ(Host a, Host b) WHERE [host] AND a.host = 'h9' "
                     "RETURN (a.timestamp, b.val)",
                     "PATTERN SEQ(Host a, Host b) WHERE [host] AND a.val > 90 "
                     "RETURN (a.timestamp, b.val)"},
                    "string key");
}

TEST_F(PinnedRoutingTest, Int64KeysEqualAsDoubles) {
  // kBig and kBig + 1 are different keys, but both pass `= kBig + 1` as
  // doubles: neither may be ruled out.
  CheckDifferential(PinnedStream(17, 3000),
                    {StrFormat("PATTERN SEQ(Metric a, Metric b) WHERE [node] AND "
                               "a.node = %lld RETURN (a.timestamp, b.val)",
                               static_cast<long long>(kBig + 1))},
                    "int64 above 2^53");
}

TEST_F(PinnedRoutingTest, DoubleValuedKey) {
  // Key "7" is first seen as int64 7; the double 7.0000001 later shares it
  // and passes `= 7.0000001`. Key "13" is first seen as a double that fails
  // `= 13`; the int64 13 events after it pass. Key "12.5" only ever holds a
  // double.
  CheckDifferential(PinnedStream(18, 3000),
                    {"PATTERN SEQ(Metric a, Metric b) WHERE [node] AND "
                     "a.node = 7.0000001 RETURN (a.timestamp, b.val)",
                     "PATTERN SEQ(Metric a, Metric b) WHERE [node] AND "
                     "a.node = 12.5 RETURN (a.timestamp, b.val)",
                     "PATTERN SEQ(Metric a, Metric b) WHERE [node] AND "
                     "a.node = 12 RETURN (a.timestamp, b.val)",
                     "PATTERN SEQ(Metric a, Metric b) WHERE [node] AND "
                     "a.node = 13 RETURN (a.timestamp, b.val)"},
                    "double key");
}

TEST_F(PinnedRoutingTest, StringKeyAgainstInt64Constant) {
  // Key "5" is first seen as the string "5", which fails `= 5`; the int64 5
  // events that follow share the key and pass.
  CheckDifferential(PinnedStream(19, 3000),
                    {"PATTERN SEQ(Metric a, Metric b) WHERE [node] AND a.node = 5 "
                     "RETURN (a.timestamp, b.val)"},
                    "string \"5\" vs int64 5");
}

TEST_F(PinnedRoutingTest, StepsCountOnlyLiveKeys) {
  // 30 per-node watches, one unpinned query and one pinned on its second
  // component. A pinned group steps only its own node's events; the others
  // step every event of their types. The count is a pure work count: the
  // same for every batch split.
  Rng rng(20);
  std::vector<Event> stream;
  std::vector<uint64_t> per_node(30, 0);
  for (int i = 0; i < 3000; ++i) {
    const int64_t node = rng.UniformInt(0, 29);
    const EventTypeId type = rng.UniformInt(0, 1) == 0 ? kOther : kMetric;
    stream.emplace_back(type, i, MakeValues(node, rng.Uniform(0, 100)));
    ++per_node[static_cast<size_t>(node)];
  }
  std::vector<std::string> queries;
  uint64_t want = 0;
  for (int node = 0; node < 30; ++node) {
    queries.push_back(StrFormat(
        "PATTERN SEQ(Metric a, Other b) WHERE [node] AND a.node = %d "
        "RETURN (a.timestamp, b.val)",
        node));
    want += per_node[static_cast<size_t>(node)];
  }
  queries.push_back("PATTERN SEQ(Metric a, Other b) WHERE [node] RETURN (b.val)");
  queries.push_back(
      "PATTERN SEQ(Metric a, Other b) WHERE [node] AND b.node = 1 RETURN (b.val)");
  want += 2 * stream.size();

  for (const size_t batch : {size_t{0}, size_t{7}, stream.size()}) {
    CepEngine engine(&registry_);
    for (size_t q = 0; q < queries.size(); ++q) {
      ASSERT_TRUE(engine.AddQueryText(queries[q], StrFormat("Q%zu", q)).ok());
    }
    if (batch == 0) {
      for (const Event& e : stream) engine.OnEvent(e);
    } else {
      for (size_t i = 0; i < stream.size(); i += batch) {
        const size_t end = std::min(stream.size(), i + batch);
        engine.IngestBatch(EventBatch(stream.begin() + static_cast<ptrdiff_t>(i),
                                      stream.begin() + static_cast<ptrdiff_t>(end)));
      }
    }
    EXPECT_EQ(engine.steps(), want) << "batch=" << batch;
  }
}

}  // namespace
}  // namespace exstream
