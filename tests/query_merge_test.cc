// Tests of the multi-query optimizer: signature canonicalization
// (query_merge.h), merge-class assignment, and full differential
// bit-identity of the merged shared-NFA engine against the per-query
// reference evaluator (cep_reference.h) on both paper simulators (Hadoop
// cluster and supply chain): tables, callbacks and checkpoint bytes.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cep/engine.h"
#include "cep/query_merge.h"
#include "cep_reference.h"
#include "common/strings.h"
#include "query/parser.h"
#include "sim/hadoop_sim.h"
#include "sim/supply_chain_sim.h"

namespace exstream {
namespace {

// ---------------------------------------------------------------------------
// Signature canonicalization
// ---------------------------------------------------------------------------

class MergeSignatureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(registry_
                    .Register(EventSchema("Start", {{"job", ValueType::kString},
                                                    {"region", ValueType::kString}}))
                    .ok());
    ASSERT_TRUE(registry_
                    .Register(EventSchema("Tick", {{"job", ValueType::kString},
                                                   {"region", ValueType::kString},
                                                   {"size", ValueType::kDouble}}))
                    .ok());
    ASSERT_TRUE(registry_
                    .Register(EventSchema("End", {{"job", ValueType::kString},
                                                  {"region", ValueType::kString}}))
                    .ok());
  }

  CompiledQuery Compile(const std::string& text) {
    auto query = ParseQuery(text);
    EXPECT_TRUE(query.ok()) << query.status().ToString();
    auto cq = CompiledQuery::Compile(*query, &registry_);
    EXPECT_TRUE(cq.ok()) << cq.status().ToString();
    return std::move(*cq);
  }

  MergeSignature Sig(const std::string& text) {
    return BuildMergeSignature(Compile(text));
  }

  EventTypeRegistry registry_;
};

constexpr char kBase[] =
    "PATTERN SEQ(Start a, Tick+ b[], End c) WHERE [job] "
    "RETURN (b[i].timestamp, a.job, sum(b[1..i].size))";

TEST_F(MergeSignatureTest, ReplicasShareAllKeys) {
  const MergeSignature s1 = Sig(kBase);
  const MergeSignature s2 = Sig(kBase);
  EXPECT_TRUE(s1.mergeable);
  EXPECT_EQ(s1.group_key, s2.group_key);
  EXPECT_EQ(s1.residue_key, s2.residue_key);
  EXPECT_EQ(s1.table_key, s2.table_key);
}

TEST_F(MergeSignatureTest, PredicateReorderingCanonicalizes) {
  // WHERE predicates are an AND conjunction; their order must not split
  // groups.
  const MergeSignature s1 = Sig(
      "PATTERN SEQ(Start a, Tick+ b[], End c) "
      "WHERE [job] AND b.size > 1 AND b.size < 9 "
      "RETURN (b[i].timestamp, a.job, sum(b[1..i].size))");
  const MergeSignature s2 = Sig(
      "PATTERN SEQ(Start a, Tick+ b[], End c) "
      "WHERE [job] AND b.size < 9 AND b.size > 1 "
      "RETURN (b[i].timestamp, a.job, sum(b[1..i].size))");
  EXPECT_TRUE(s1.mergeable);
  EXPECT_EQ(s1.group_key, s2.group_key);
  EXPECT_EQ(s1.residue_key, s2.residue_key);
}

TEST_F(MergeSignatureTest, AliasRenamingCanonicalizes) {
  // Compiled references are positional; variable names must not matter.
  const MergeSignature s2 = Sig(
      "PATTERN SEQ(Start x, Tick+ y[], End z) WHERE [job] "
      "RETURN (y[i].timestamp, x.job, sum(y[1..i].size))");
  const MergeSignature s1 = Sig(kBase);
  EXPECT_EQ(s1.group_key, s2.group_key);
  EXPECT_EQ(s1.residue_key, s2.residue_key);
}

TEST_F(MergeSignatureTest, DifferentPredicateConstantsSplitGroups) {
  const MergeSignature s1 = Sig(
      "PATTERN SEQ(Start a, Tick+ b[], End c) WHERE [job] AND b.size > 1 "
      "RETURN (b[i].timestamp, a.job, sum(b[1..i].size))");
  const MergeSignature s2 = Sig(
      "PATTERN SEQ(Start a, Tick+ b[], End c) WHERE [job] AND b.size > 2 "
      "RETURN (b[i].timestamp, a.job, sum(b[1..i].size))");
  EXPECT_NE(s1.group_key, s2.group_key);
}

TEST_F(MergeSignatureTest, DifferentPartitionAttributesSplitGroups) {
  const MergeSignature by_job = Sig(kBase);
  const MergeSignature by_region = Sig(
      "PATTERN SEQ(Start a, Tick+ b[], End c) WHERE [region] "
      "RETURN (b[i].timestamp, a.job, sum(b[1..i].size))");
  EXPECT_TRUE(by_region.mergeable);
  EXPECT_NE(by_job.group_key, by_region.group_key);
}

TEST_F(MergeSignatureTest, WithinSplitsGroups) {
  const MergeSignature s1 = Sig(
      "PATTERN SEQ(Start a, Tick+ b[], End c) WHERE [job] WITHIN 100 "
      "RETURN (a.job)");
  const MergeSignature s2 = Sig(
      "PATTERN SEQ(Start a, Tick+ b[], End c) WHERE [job] WITHIN 200 "
      "RETURN (a.job)");
  EXPECT_NE(s1.group_key, s2.group_key);
}

TEST_F(MergeSignatureTest, DifferentReturnsShareGroupSplitResidue) {
  const MergeSignature s1 = Sig(kBase);
  const MergeSignature s2 = Sig(
      "PATTERN SEQ(Start a, Tick+ b[], End c) WHERE [job] "
      "RETURN (b[i].timestamp, a.job, count(b[1..i].size))");
  EXPECT_EQ(s1.group_key, s2.group_key);
  EXPECT_NE(s1.residue_key, s2.residue_key);
}

TEST_F(MergeSignatureTest, NegationIsUnmergeable) {
  const MergeSignature sig =
      Sig("PATTERN SEQ(Start a, !Tick b, End c) WHERE [job] RETURN (a.job)");
  EXPECT_FALSE(sig.mergeable);
}

TEST_F(MergeSignatureTest, PlannerAssignsClasses) {
  MergePlanner planner;
  const CompiledQuery replica1 = Compile(kBase);
  const CompiledQuery replica2 = Compile(kBase);
  const CompiledQuery other_return = Compile(
      "PATTERN SEQ(Start a, Tick+ b[], End c) WHERE [job] "
      "RETURN (b[i].timestamp, a.job, count(b[1..i].size))");
  const CompiledQuery other_pattern = Compile(
      "PATTERN SEQ(Start a, End c) WHERE [job] RETURN (a.job)");

  const MergeAssignment a1 = planner.Assign(replica1);
  const MergeAssignment a2 = planner.Assign(replica2);
  const MergeAssignment a3 = planner.Assign(other_return);
  const MergeAssignment a4 = planner.Assign(other_pattern);

  EXPECT_TRUE(a1.new_group);
  EXPECT_FALSE(a2.new_group);
  EXPECT_EQ(a1.group, a2.group);
  EXPECT_EQ(a1.residue, a2.residue);
  EXPECT_EQ(a1.table, a2.table);

  EXPECT_EQ(a1.group, a3.group);     // same pattern
  EXPECT_TRUE(a3.new_residue);       // different RETURN
  EXPECT_NE(a1.residue, a3.residue);

  EXPECT_TRUE(a4.new_group);  // different SEQ shape
  EXPECT_NE(a1.group, a4.group);

  const MergePlanStats& stats = planner.stats();
  EXPECT_EQ(stats.queries, 4u);
  EXPECT_EQ(stats.groups, 2u);
  EXPECT_EQ(stats.residue_classes, 3u);
  EXPECT_EQ(stats.table_classes, 3u);
  EXPECT_EQ(stats.unmergeable, 0u);
}

TEST_F(MergeSignatureTest, PlannerSingletonsNeverMerge) {
  MergePlanner planner;
  const CompiledQuery neg = Compile(
      "PATTERN SEQ(Start a, !Tick b, End c) WHERE [job] RETURN (a.job)");
  const MergeAssignment a1 = planner.Assign(neg);
  const MergeAssignment a2 = planner.Assign(neg);
  EXPECT_NE(a1.group, a2.group);  // identical text, still isolated
  EXPECT_EQ(planner.stats().unmergeable, 2u);

  // force_singleton isolates even a mergeable query (mid-stream AddQuery).
  const CompiledQuery plain = Compile(kBase);
  const MergeAssignment a3 = planner.Assign(plain);
  const MergeAssignment a4 = planner.Assign(plain, /*force_singleton=*/true);
  EXPECT_NE(a3.group, a4.group);
}

// ---------------------------------------------------------------------------
// Differential bit-identity on the paper simulators
// ---------------------------------------------------------------------------

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
    ASSERT_EQ(a.rows[p].size(), b.rows[p].size())
        << label << " partition " << a.partitions[p];
    for (size_t i = 0; i < a.rows[p].size(); ++i) {
      ASSERT_EQ(a.rows[p][i].ts, b.rows[p][i].ts)
          << label << " " << a.partitions[p] << "#" << i;
      ASSERT_EQ(a.rows[p][i].values, b.rows[p][i].values)
          << label << " " << a.partitions[p] << "#" << i;
    }
  }
}

struct EngineOutput {
  std::vector<TableCopy> tables;
  std::vector<NoteCopy> notes;
  std::string snapshot;  ///< SaveState bytes after the whole stream
};

// Runs `queries` through the per-query reference evaluator and captures
// everything an observer can see.
EngineOutput RunReference(const EventTypeRegistry& registry,
                          const std::vector<std::string>& queries,
                          const std::vector<Event>& stream) {
  ReferenceCep ref(&registry);
  for (size_t q = 0; q < queries.size(); ++q) {
    auto qid = ref.AddQueryText(queries[q], StrFormat("Q%zu", q));
    EXPECT_TRUE(qid.ok()) << qid.status().ToString();
  }
  EngineOutput out;
  ref.SetMatchCallback([&out](const MatchNotification& n) {
    out.notes.push_back(NoteCopy::From(n));
  });
  for (const Event& e : stream) ref.OnEvent(e);
  for (size_t q = 0; q < queries.size(); ++q) {
    out.tables.push_back(TableCopy::From(ref.match_table(static_cast<QueryId>(q))));
  }
  BytesWriter w;
  ref.SaveState(&w);
  out.snapshot = w.Take();
  return out;
}

// Runs `queries` through the engine (batch_size 0 = OnEvent) and captures
// the same observables.
EngineOutput RunEngine(const EventTypeRegistry& registry,
                       const std::vector<std::string>& queries,
                       const std::vector<Event>& stream, size_t batch_size) {
  CepEngine engine(&registry);
  std::vector<QueryId> ids;
  for (size_t q = 0; q < queries.size(); ++q) {
    auto qid = engine.AddQueryText(queries[q], StrFormat("Q%zu", q));
    EXPECT_TRUE(qid.ok()) << qid.status().ToString();
    ids.push_back(*qid);
  }
  EngineOutput out;
  engine.SetMatchCallback([&out](const MatchNotification& n) {
    out.notes.push_back(NoteCopy::From(n));
  });
  if (batch_size == 0) {
    for (const Event& e : stream) engine.OnEvent(e);
  } else {
    for (size_t i = 0; i < stream.size(); i += batch_size) {
      const size_t end = std::min(stream.size(), i + batch_size);
      engine.OnEventBatch(EventBatch(stream.begin() + static_cast<ptrdiff_t>(i),
                                     stream.begin() + static_cast<ptrdiff_t>(end)));
    }
  }
  for (const QueryId id : ids) {
    out.tables.push_back(TableCopy::From(engine.match_table(id)));
  }
  BytesWriter w;
  engine.SaveState(&w);
  out.snapshot = w.Take();
  return out;
}

void CheckMergedMatchesReference(const EventTypeRegistry& registry,
                                 const std::vector<std::string>& queries,
                                 const std::vector<Event>& stream,
                                 const std::string& label) {
  const EngineOutput ref = RunReference(registry, queries, stream);
  ASSERT_FALSE(ref.notes.empty()) << label << ": stream produced no matches";

  for (const size_t batch : {size_t{0}, size_t{1}, size_t{64}, size_t{512},
                             stream.size()}) {
    const std::string run_label = StrFormat("%s batch=%zu", label.c_str(), batch);
    const EngineOutput got = RunEngine(registry, queries, stream, batch);
    ASSERT_EQ(got.tables.size(), ref.tables.size()) << run_label;
    for (size_t q = 0; q < got.tables.size(); ++q) {
      ExpectTablesEqual(ref.tables[q], got.tables[q],
                        StrFormat("%s Q%zu", run_label.c_str(), q));
    }
    ASSERT_EQ(got.notes.size(), ref.notes.size()) << run_label;
    for (size_t i = 0; i < got.notes.size(); ++i) {
      ASSERT_TRUE(got.notes[i] == ref.notes[i])
          << run_label << " note #" << i << " (callback order must match)";
    }
    EXPECT_TRUE(got.snapshot == ref.snapshot)
        << run_label << ": SaveState bytes differ from the reference's";
  }
}

std::vector<Event> BuildHadoopStream(const EventTypeRegistry& registry) {
  HadoopSimConfig config;
  config.num_nodes = 3;
  config.seed = 99;
  HadoopClusterSim sim(config, &registry);
  for (int j = 0; j < 4; ++j) {
    HadoopJobConfig job;
    job.job_id = StrFormat("job-%d", j);
    job.program = "wordcount";
    job.dataset = "ds";
    job.start_time = j * 120;
    sim.AddJob(job);
  }
  VectorSink sink;
  EXPECT_TRUE(sim.Run(&sink).ok());
  return sink.TakeEvents();
}

TEST(QueryMergeDifferentialTest, HadoopSimulatorBitIdentical) {
  EventTypeRegistry registry;
  ASSERT_TRUE(HadoopClusterSim::RegisterEventTypes(&registry).ok());
  const std::vector<Event> stream = BuildHadoopStream(registry);
  ASSERT_FALSE(stream.empty());

  // A mixed portfolio: replicas (merge fully), a residue-mate with a
  // different RETURN, an alias-renamed replica, and a WITHIN variant that
  // must stay in its own group.
  const std::vector<std::string> queries = {
      "PATTERN SEQ(JobStart a, DataIO+ b[], JobEnd c) WHERE [jobId] "
      "RETURN (b[i].timestamp, a.jobId, sum(b[1..i].dataSize))",
      "PATTERN SEQ(JobStart a, DataIO+ b[], JobEnd c) WHERE [jobId] "
      "RETURN (b[i].timestamp, a.jobId, sum(b[1..i].dataSize))",
      "PATTERN SEQ(JobStart a, DataIO+ b[], JobEnd c) WHERE [jobId] "
      "RETURN (b[i].timestamp, a.jobId, count(b[1..i].dataSize))",
      "PATTERN SEQ(JobStart x, DataIO+ y[], JobEnd z) WHERE [jobId] "
      "RETURN (y[i].timestamp, x.jobId, sum(y[1..i].dataSize))",
      "PATTERN SEQ(JobStart a, DataIO+ b[], JobEnd c) WHERE [jobId] WITHIN 500 "
      "RETURN (b[i].timestamp, a.jobId, max(b[1..i].dataSize))",
  };
  CheckMergedMatchesReference(registry, queries, stream, "hadoop");
}

TEST(QueryMergeDifferentialTest, SupplyChainSimulatorBitIdentical) {
  EventTypeRegistry registry;
  SupplyChainConfig config;
  config.num_sensors = 4;
  config.num_machines = 4;
  config.num_products = 4;
  config.seed = 23;
  ASSERT_TRUE(SupplyChainSim::RegisterEventTypes(&registry, config).ok());
  SupplyChainSim sim(config, &registry);
  ScAnomalySpec spec;
  spec.type = ScAnomalyType::kSubParMaterial;
  spec.product_index = 1;
  spec.targets = {0};
  sim.AddAnomaly(spec);
  VectorSink sink;
  ASSERT_TRUE(sim.Run(&sink).ok());
  const std::vector<Event> stream = sink.TakeEvents();
  ASSERT_FALSE(stream.empty());

  const std::vector<std::string> queries = {
      "PATTERN SEQ(ProductStart a, ProductProgress+ b[], ProductEnd c) "
      "WHERE [productId] RETURN (b[i].timestamp, a.productId, "
      "avg(b[1..i].quality))",
      "PATTERN SEQ(ProductStart a, ProductProgress+ b[], ProductEnd c) "
      "WHERE [productId] RETURN (b[i].timestamp, a.productId, "
      "avg(b[1..i].quality))",
      "PATTERN SEQ(ProductStart a, ProductProgress+ b[], ProductEnd c) "
      "WHERE [productId] RETURN (b[i].timestamp, a.productId, "
      "min(b[1..i].quality))",
  };
  CheckMergedMatchesReference(registry, queries, stream, "supply-chain");
}

// ---------------------------------------------------------------------------
// Engine-level merge behavior
// ---------------------------------------------------------------------------

class MergedEngineTest : public MergeSignatureTest {};

TEST_F(MergedEngineTest, StatsReportCompression) {
  CepEngine engine(&registry_);
  for (int q = 0; q < 10; ++q) {
    ASSERT_TRUE(engine.AddQueryText(kBase, StrFormat("Q%d", q)).ok());
  }
  const MergePlanStats& stats = engine.merge_stats();
  EXPECT_EQ(stats.queries, 10u);
  EXPECT_EQ(stats.groups, 1u);
  EXPECT_EQ(stats.residue_classes, 1u);
  EXPECT_EQ(stats.table_classes, 1u);
  EXPECT_DOUBLE_EQ(stats.compression(), 10.0);
}

TEST_F(MergedEngineTest, MidStreamAddQueryIsIsolatedAndCorrect) {
  // A query added after events have flowed must not inherit the group's
  // partial-match history, and must still agree with the reference fed the
  // same add-mid-stream sequence.
  std::vector<Event> first_half;
  std::vector<Event> second_half;
  Timestamp ts = 0;
  for (int i = 0; i < 40; ++i) {
    const std::string job = StrFormat("j%d", i % 3);
    auto& dst = i < 20 ? first_half : second_half;
    dst.emplace_back(0, ++ts, MakeValues(job, std::string("r")));
    dst.emplace_back(1, ++ts, MakeValues(job, std::string("r"), 1.5 * i));
    dst.emplace_back(2, ++ts, MakeValues(job, std::string("r")));
  }

  ReferenceCep ref(&registry_);
  ASSERT_TRUE(ref.AddQueryText(kBase, "Q0").ok());
  for (const Event& e : first_half) ref.OnEvent(e);
  ASSERT_TRUE(ref.AddQueryText(kBase, "Q1").ok());  // mid-stream replica
  for (const Event& e : second_half) ref.OnEvent(e);

  CepEngine engine(&registry_);
  auto q0 = engine.AddQueryText(kBase, "Q0");
  ASSERT_TRUE(q0.ok());
  for (const Event& e : first_half) engine.OnEvent(e);
  auto q1 = engine.AddQueryText(kBase, "Q1");
  ASSERT_TRUE(q1.ok());
  for (const Event& e : second_half) engine.OnEvent(e);

  std::vector<TableCopy> merged;
  merged.push_back(TableCopy::From(engine.match_table(*q0)));
  merged.push_back(TableCopy::From(engine.match_table(*q1)));
  ExpectTablesEqual(TableCopy::From(ref.match_table(0)), merged[0], "mid-stream Q0");
  ExpectTablesEqual(TableCopy::From(ref.match_table(1)), merged[1], "mid-stream Q1");
  // Q1 saw only the second half: strictly fewer rows than Q0.
  size_t q0_rows = 0;
  size_t q1_rows = 0;
  for (const auto& r : merged[0].rows) q0_rows += r.size();
  for (const auto& r : merged[1].rows) q1_rows += r.size();
  EXPECT_LT(q1_rows, q0_rows);
  EXPECT_GT(q1_rows, 0u);
}

TEST_F(MergedEngineTest, MidStreamAddQueryCheckpointRestores) {
  // Regression: a query added mid-stream is a forced-singleton merge group,
  // but recovery re-adds every query before any event flows — without the
  // persisted mid-stream flags the restoring planner merged it into its
  // structural group and RestoreState rejected the snapshot as corrupt.
  std::vector<Event> part1;
  std::vector<Event> part2;
  std::vector<Event> part3;
  Timestamp ts = 0;
  auto triplet = [&](std::vector<Event>* dst, const std::string& job,
                     double size) {
    dst->emplace_back(0, ++ts, MakeValues(job, std::string("r")));
    dst->emplace_back(1, ++ts, MakeValues(job, std::string("r"), size));
    dst->emplace_back(2, ++ts, MakeValues(job, std::string("r")));
  };
  for (int i = 0; i < 12; ++i) triplet(&part1, StrFormat("j%d", i % 3), 0.5 * i);
  for (int i = 0; i < 12; ++i) triplet(&part2, StrFormat("j%d", i % 4), 1.5 * i);
  // Leave one run mid-kleene at the snapshot point; part3 closes it.
  part2.emplace_back(0, ++ts, MakeValues(std::string("open"), std::string("r")));
  part2.emplace_back(1, ++ts, MakeValues(std::string("open"), std::string("r"), 7.0));
  for (int i = 0; i < 12; ++i) triplet(&part3, StrFormat("j%d", i % 4), 2.5 * i);
  part3.emplace_back(2, ++ts, MakeValues(std::string("open"), std::string("r")));

  // Tables of any evaluator (reference or engine), in query id order.
  auto capture = [](const auto& evaluator) {
    std::vector<TableCopy> tables;
    for (QueryId q = 0; q < evaluator.num_queries(); ++q) {
      tables.push_back(TableCopy::From(evaluator.match_table(q)));
    }
    return tables;
  };

  // Reference: snapshot after part2, then the observables of part3.
  ReferenceCep ref(&registry_);
  ASSERT_TRUE(ref.AddQueryText(kBase, "Q0").ok());
  for (const Event& e : part1) ref.OnEvent(e);
  ASSERT_TRUE(ref.AddQueryText(kBase, "Q1").ok());  // mid-stream replica
  for (const Event& e : part2) ref.OnEvent(e);
  BytesWriter ref_snapshot;
  ref.SaveState(&ref_snapshot);
  std::vector<NoteCopy> want_notes;
  ref.SetMatchCallback([&want_notes](const MatchNotification& n) {
    want_notes.push_back(NoteCopy::From(n));
  });
  for (const Event& e : part3) ref.OnEvent(e);
  const std::vector<TableCopy> want = capture(ref);
  ASSERT_FALSE(want_notes.empty());

  // Check 1: the engine, fed the same sequence, writes the same bytes.
  CepEngine source(&registry_);
  ASSERT_TRUE(source.AddQueryText(kBase, "Q0").ok());
  for (const Event& e : part1) source.OnEvent(e);
  ASSERT_TRUE(source.AddQueryText(kBase, "Q1").ok());
  for (const Event& e : part2) source.OnEvent(e);
  BytesWriter snapshot;
  source.SaveState(&snapshot);
  EXPECT_TRUE(snapshot.str() == ref_snapshot.str())
      << "engine snapshot bytes differ from the reference's";

  // Check 2: the reference's snapshot restores into an engine in recovery
  // shape — both queries re-added before any event, so without the
  // persisted flags Q1 would merge into Q0's group.
  CepEngine restored(&registry_);
  ASSERT_TRUE(restored.AddQueryText(kBase, "Q0").ok());
  ASSERT_TRUE(restored.AddQueryText(kBase, "Q1").ok());
  BytesReader reader(ref_snapshot.str());
  const Status st = restored.RestoreState(&reader);
  ASSERT_TRUE(st.ok()) << st.ToString();

  // The flags must survive a re-checkpoint of the restored engine too.
  BytesWriter resnapshot;
  restored.SaveState(&resnapshot);
  EXPECT_TRUE(resnapshot.str() == ref_snapshot.str())
      << "re-checkpoint of the restored engine changed the bytes";
  CepEngine second(&registry_);
  ASSERT_TRUE(second.AddQueryText(kBase, "Q0").ok());
  ASSERT_TRUE(second.AddQueryText(kBase, "Q1").ok());
  BytesReader rereader(resnapshot.str());
  const Status st2 = second.RestoreState(&rereader);
  ASSERT_TRUE(st2.ok()) << "re-checkpoint: " << st2.ToString();

  for (CepEngine* engine : {&restored, &second}) {
    const std::string label = engine == &restored ? "restored" : "re-restored";
    std::vector<NoteCopy> notes;
    engine->SetMatchCallback([&notes](const MatchNotification& n) {
      notes.push_back(NoteCopy::From(n));
    });
    for (const Event& e : part3) engine->OnEvent(e);
    const std::vector<TableCopy> got = capture(*engine);
    ASSERT_EQ(got.size(), want.size()) << label;
    for (size_t q = 0; q < want.size(); ++q) {
      ExpectTablesEqual(want[q], got[q], StrFormat("%s Q%zu", label.c_str(), q));
    }
    ASSERT_EQ(notes.size(), want_notes.size()) << label;
    for (size_t i = 0; i < notes.size(); ++i) {
      ASSERT_TRUE(notes[i] == want_notes[i]) << label << " note #" << i;
    }
  }
}

TEST_F(MergedEngineTest, CheckpointMatchesReferenceAndRestores) {
  // Mid-pattern state included: the engine's snapshot bytes must equal the
  // reference's, and a reference snapshot (the per-query format) must
  // restore into the engine and continue bit-identically.
  std::vector<Event> first_half;
  std::vector<Event> second_half;
  Timestamp ts = 0;
  for (int i = 0; i < 30; ++i) {
    const std::string job = StrFormat("j%d", i % 4);
    // Leave runs mid-kleene at the snapshot point: starts and ticks in the
    // first half, closing End events only in the second.
    first_half.emplace_back(0, ++ts, MakeValues(job, std::string("r")));
    first_half.emplace_back(1, ++ts, MakeValues(job, std::string("r"), 0.5 * i));
    first_half.emplace_back(1, ++ts, MakeValues(job, std::string("r"), 1.5 * i));
    second_half.emplace_back(2, ++ts, MakeValues(job, std::string("r")));
  }

  const std::vector<std::string> queries = {
      kBase, kBase,
      "PATTERN SEQ(Start a, Tick+ b[], End c) WHERE [job] "
      "RETURN (b[i].timestamp, a.job, count(b[1..i].size))"};

  ReferenceCep ref(&registry_);
  CepEngine engine(&registry_);
  CepEngine restored(&registry_);
  for (size_t q = 0; q < queries.size(); ++q) {
    ASSERT_TRUE(ref.AddQueryText(queries[q], StrFormat("Q%zu", q)).ok());
    ASSERT_TRUE(engine.AddQueryText(queries[q], StrFormat("Q%zu", q)).ok());
    ASSERT_TRUE(restored.AddQueryText(queries[q], StrFormat("Q%zu", q)).ok());
  }
  for (const Event& e : first_half) {
    ref.OnEvent(e);
    engine.OnEvent(e);
  }
  BytesWriter ref_snapshot;
  ref.SaveState(&ref_snapshot);
  BytesWriter snapshot;
  engine.SaveState(&snapshot);
  EXPECT_TRUE(snapshot.str() == ref_snapshot.str())
      << "engine snapshot bytes differ from the reference's";

  BytesReader reader(ref_snapshot.str());
  const Status st = restored.RestoreState(&reader);
  ASSERT_TRUE(st.ok()) << st.ToString();

  std::vector<NoteCopy> want_notes;
  std::vector<NoteCopy> notes;
  ref.SetMatchCallback([&want_notes](const MatchNotification& n) {
    want_notes.push_back(NoteCopy::From(n));
  });
  restored.SetMatchCallback([&notes](const MatchNotification& n) {
    notes.push_back(NoteCopy::From(n));
  });
  for (const Event& e : second_half) {
    ref.OnEvent(e);
    restored.OnEvent(e);
  }
  for (size_t q = 0; q < queries.size(); ++q) {
    ExpectTablesEqual(TableCopy::From(ref.match_table(static_cast<QueryId>(q))),
                      TableCopy::From(restored.match_table(static_cast<QueryId>(q))),
                      StrFormat("restored Q%zu", q));
  }
  ASSERT_FALSE(want_notes.empty());
  ASSERT_EQ(notes.size(), want_notes.size());
  for (size_t i = 0; i < notes.size(); ++i) {
    ASSERT_TRUE(notes[i] == want_notes[i]) << "note #" << i;
  }
}

// ---------------------------------------------------------------------------
// Pinned groups (first component pins the partition key) across mid-stream
// AddQuery and checkpoint/restore
// ---------------------------------------------------------------------------

constexpr char kPinnedJ1[] =
    "PATTERN SEQ(Start a, Tick+ b[], End c) WHERE [job] AND a.job = 'j1' "
    "RETURN (b[i].timestamp, a.job, sum(b[1..i].size))";
constexpr char kPinnedJ2[] =
    "PATTERN SEQ(Start a, Tick+ b[], End c) WHERE [job] AND a.job = 'j2' "
    "RETURN (b[i].timestamp, a.job, count(b[1..i].size))";

// Start/Tick/Tick/End quadruplets over jobs j0..j{num_jobs-1}, interleaved.
std::vector<Event> JobStream(Timestamp* ts, int num_jobs, int rounds) {
  std::vector<Event> out;
  for (int r = 0; r < rounds; ++r) {
    for (int step = 0; step < 4; ++step) {
      for (int j = 0; j < num_jobs; ++j) {
        const std::string job = StrFormat("j%d", (j + r) % num_jobs);
        const EventTypeId type = step == 0 ? 0 : (step == 3 ? 2 : 1);
        if (type == 1) {
          out.emplace_back(1, ++*ts, MakeValues(job, std::string("r"), 0.5 * r + j));
        } else {
          out.emplace_back(type, ++*ts, MakeValues(job, std::string("r")));
        }
      }
    }
  }
  return out;
}

// Feeds `events` to the engine in batches of `batch` (0 = OnEvent).
void Feed(CepEngine* engine, const std::vector<Event>& events, size_t batch) {
  if (batch == 0) {
    for (const Event& e : events) engine->OnEvent(e);
    return;
  }
  for (size_t i = 0; i < events.size();) {
    const size_t end = i + std::min(batch, events.size() - i);
    engine->IngestBatch(EventBatch(events.begin() + static_cast<ptrdiff_t>(i),
                                   events.begin() + static_cast<ptrdiff_t>(end)));
    i = end;
  }
}

// Everything an observer sees of either evaluator after a run.
template <typename Evaluator>
EngineOutput Capture(const Evaluator& evaluator, std::vector<NoteCopy> notes) {
  EngineOutput out;
  for (QueryId q = 0; q < evaluator.num_queries(); ++q) {
    out.tables.push_back(TableCopy::From(evaluator.match_table(q)));
  }
  out.notes = std::move(notes);
  BytesWriter w;
  evaluator.SaveState(&w);
  out.snapshot = w.Take();
  return out;
}

void ExpectSameOutput(const EngineOutput& want, const EngineOutput& got,
                      const std::string& label) {
  ASSERT_EQ(got.tables.size(), want.tables.size()) << label;
  for (size_t q = 0; q < want.tables.size(); ++q) {
    ExpectTablesEqual(want.tables[q], got.tables[q], StrFormat("%s Q%zu", label.c_str(), q));
  }
  ASSERT_EQ(got.notes.size(), want.notes.size()) << label;
  for (size_t i = 0; i < want.notes.size(); ++i) {
    ASSERT_TRUE(got.notes[i] == want.notes[i]) << label << " note #" << i;
  }
  EXPECT_TRUE(got.snapshot == want.snapshot) << label << ": SaveState bytes differ";
}

const std::vector<size_t> kBatchSizes = {0, 1, 7, 512, SIZE_MAX};

TEST_F(MergedEngineTest, PinnedQueryAddedMidStream) {
  // The mid-stream pinned groups start without the keys their class has
  // seen, register keys in their own first-seen order, and only then join
  // the key index. Job j3 first appears after the add.
  Timestamp ts = 0;
  const std::vector<Event> first = JobStream(&ts, 3, 6);
  const std::vector<Event> second = JobStream(&ts, 4, 6);

  ReferenceCep ref(&registry_);
  std::vector<NoteCopy> want_notes;
  ref.SetMatchCallback([&](const MatchNotification& n) {
    want_notes.push_back(NoteCopy::From(n));
  });
  ASSERT_TRUE(ref.AddQueryText(kBase, "Q0").ok());
  ASSERT_TRUE(ref.AddQueryText(kPinnedJ1, "Q1").ok());
  for (const Event& e : first) ref.OnEvent(e);
  ASSERT_TRUE(ref.AddQueryText(kPinnedJ1, "Q2").ok());
  ASSERT_TRUE(ref.AddQueryText(kPinnedJ2, "Q3").ok());
  for (const Event& e : second) ref.OnEvent(e);
  const EngineOutput want = Capture(ref, want_notes);
  ASSERT_FALSE(want_notes.empty());

  for (const size_t batch : kBatchSizes) {
    CepEngine engine(&registry_);
    std::vector<NoteCopy> notes;
    engine.SetMatchCallback([&](const MatchNotification& n) {
      notes.push_back(NoteCopy::From(n));
    });
    ASSERT_TRUE(engine.AddQueryText(kBase, "Q0").ok());
    ASSERT_TRUE(engine.AddQueryText(kPinnedJ1, "Q1").ok());
    Feed(&engine, first, batch);
    ASSERT_TRUE(engine.AddQueryText(kPinnedJ1, "Q2").ok());
    ASSERT_TRUE(engine.AddQueryText(kPinnedJ2, "Q3").ok());
    Feed(&engine, second, batch);
    ExpectSameOutput(want, Capture(engine, notes), StrFormat("batch=%zu", batch));
  }
}

TEST_F(MergedEngineTest, PinnedCheckpointRestoresMidStream) {
  // The snapshot is taken with runs mid-kleene; the restored engine decides
  // its keys again from the events that follow and must continue exactly as
  // the uninterrupted reference does, new keys included.
  Timestamp ts = 0;
  std::vector<Event> before = JobStream(&ts, 3, 5);
  before.emplace_back(0, ++ts, MakeValues(std::string("j1"), std::string("r")));
  before.emplace_back(1, ++ts, MakeValues(std::string("j1"), std::string("r"), 4.0));
  const std::vector<Event> after = JobStream(&ts, 5, 5);
  const std::vector<std::string> queries = {kBase, kPinnedJ1, kPinnedJ1, kPinnedJ2};

  ReferenceCep ref(&registry_);
  for (size_t q = 0; q < queries.size(); ++q) {
    ASSERT_TRUE(ref.AddQueryText(queries[q], StrFormat("Q%zu", q)).ok());
  }
  for (const Event& e : before) ref.OnEvent(e);
  BytesWriter checkpoint;
  ref.SaveState(&checkpoint);
  std::vector<NoteCopy> want_notes;
  ref.SetMatchCallback([&](const MatchNotification& n) {
    want_notes.push_back(NoteCopy::From(n));
  });
  for (const Event& e : after) ref.OnEvent(e);
  const EngineOutput want = Capture(ref, want_notes);
  ASSERT_FALSE(want_notes.empty());

  for (const size_t batch : kBatchSizes) {
    const std::string label = StrFormat("batch=%zu", batch);
    CepEngine source(&registry_);
    CepEngine restored(&registry_);
    for (size_t q = 0; q < queries.size(); ++q) {
      ASSERT_TRUE(source.AddQueryText(queries[q], StrFormat("Q%zu", q)).ok());
      ASSERT_TRUE(restored.AddQueryText(queries[q], StrFormat("Q%zu", q)).ok());
    }
    Feed(&source, before, batch);
    BytesWriter saved;
    source.SaveState(&saved);
    EXPECT_TRUE(saved.str() == checkpoint.str()) << label << ": checkpoint bytes differ";

    BytesReader reader(saved.str());
    const Status st = restored.RestoreState(&reader);
    ASSERT_TRUE(st.ok()) << label << ": " << st.ToString();
    std::vector<NoteCopy> notes;
    restored.SetMatchCallback([&](const MatchNotification& n) {
      notes.push_back(NoteCopy::From(n));
    });
    Feed(&restored, after, batch);
    ExpectSameOutput(want, Capture(restored, notes), label);
  }
}

}  // namespace
}  // namespace exstream
