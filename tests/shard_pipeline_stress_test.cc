// Concurrency stress of CEP ingestion (meant for TSan). The engine ingests
// on one thread; MatchTable readers and checkpoints run alongside it and
// take the table's mutex. This test drives all of it at once:
//  * batched ingestion of several queries,
//  * concurrent MatchTable readers (the Explain access pattern),
//  * checkpoints taken at batch boundaries mid-stream,
//  * a system-level run with a checkpoint and a real ExplainAsync in flight,
// and checks that nothing was lost or duplicated: the notification stream
// and final tables are compared against the per-query reference evaluator,
// element by element, and every checkpoint restores.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "cep/engine.h"
#include "cep_reference.h"
#include "common/rng.h"
#include "common/strings.h"
#include "sim/hadoop_sim.h"
#include "xstream/system.h"

namespace exstream {
namespace {

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

class ShardPipelineStressTest : public ::testing::Test {
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

  std::vector<Event> RandomStream(uint64_t seed, int num_jobs, int num_events) {
    Rng rng(seed);
    std::vector<Event> events;
    Timestamp ts = 0;
    std::vector<int> phase(static_cast<size_t>(num_jobs), 0);  // 0 idle, 1 running
    for (int i = 0; i < num_events; ++i) {
      ts += rng.UniformInt(1, 3);
      const int j = static_cast<int>(rng.UniformInt(0, num_jobs - 1));
      const std::string job = StrFormat("job-%d", j);
      auto& p = phase[static_cast<size_t>(j)];
      const int64_t kind = rng.UniformInt(0, 5);
      if (p == 0 && kind == 0) {
        events.emplace_back(0, ts, std::vector<Value>{Value(job)});
        p = 1;
      } else if (p == 1 && kind == 5) {
        events.emplace_back(2, ts, std::vector<Value>{Value(job)});
        p = 0;
      } else {
        events.emplace_back(
            1, ts, std::vector<Value>{Value(job), Value(rng.Gaussian(5, 2))});
      }
    }
    return events;
  }

  EventTypeRegistry registry_;
};

constexpr char kQuery[] =
    "PATTERN SEQ(Start a, Tick+ b[], End c) WHERE [job] "
    "RETURN (b[i].timestamp, a.job, sum(b[1..i].size))";

TEST_F(ShardPipelineStressTest, ReadersAndCheckpointsDuringBatchedIngest) {
  constexpr char kVariant[] =
      "PATTERN SEQ(Start a, Tick+ b[], End c) WHERE [job] "
      "RETURN (b[i].timestamp, a.job, count(b[1..i].size))";
  const auto stream = RandomStream(13, 24, 30000);
  const int kNumQueries = 12;
  auto query_text = [&](int q) { return q % 3 == 2 ? kVariant : kQuery; };

  // Per-query reference: the notification stream and tables the engine must
  // reproduce exactly while readers and checkpoints run alongside.
  std::vector<NoteCopy> ref_notes;
  std::vector<size_t> ref_rows;
  {
    ReferenceCep ref(&registry_);
    for (int q = 0; q < kNumQueries; ++q) {
      ASSERT_TRUE(ref.AddQueryText(query_text(q), StrFormat("Q%d", q)).ok());
    }
    ref.SetMatchCallback([&ref_notes](const MatchNotification& n) {
      ref_notes.push_back(NoteCopy::From(n));
    });
    for (const Event& e : stream) ref.OnEvent(e);
    for (int q = 0; q < kNumQueries; ++q) {
      ref_rows.push_back(ref.match_table(static_cast<QueryId>(q)).TotalRows());
    }
  }
  ASSERT_FALSE(ref_notes.empty());

  CepEngine engine(&registry_);
  for (int q = 0; q < kNumQueries; ++q) {
    ASSERT_TRUE(engine.AddQueryText(query_text(q), StrFormat("Q%d", q)).ok());
  }
  std::vector<NoteCopy> notes;
  engine.SetMatchCallback([&notes](const MatchNotification& n) {
    notes.push_back(NoteCopy::From(n));
  });

  // Readers hammer the MatchTables with the Explain access pattern
  // (Partitions -> Rows -> IsComplete) while the ingest thread appends.
  std::atomic<bool> done{false};
  std::atomic<size_t> rows_seen{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&engine, &done, &rows_seen, r] {
      while (!done.load(std::memory_order_acquire)) {
        const QueryId q = static_cast<QueryId>(r == 0 ? 0 : 2);
        const MatchTable& table = engine.match_table(q);
        size_t rows = 0;
        for (const std::string& partition : table.Partitions()) {
          rows += table.Rows(partition).size();
          (void)table.IsComplete(partition);
        }
        (void)table.TotalRows();
        rows_seen.fetch_add(rows);
      }
    });
  }
  // Holds ingest (bounded) until the readers have seen rows, so that they
  // read mid-stream however the scheduler interleaves the threads.
  auto wait_for_readers = [&rows_seen] {
    const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (rows_seen.load() == 0 && std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };

  // Ingest in batches; snapshot the engine at a few batch boundaries (the
  // quiescent points a system checkpoint uses) while the readers keep going.
  std::vector<std::string> snapshots;
  constexpr size_t kBatch = 256;
  size_t batch_index = 0;
  for (size_t i = 0; i < stream.size(); i += kBatch, ++batch_index) {
    const size_t end = std::min(stream.size(), i + kBatch);
    engine.IngestBatch(EventBatch(stream.begin() + static_cast<ptrdiff_t>(i),
                                  stream.begin() + static_cast<ptrdiff_t>(end)));
    if (batch_index % 16 == 5) {
      BytesWriter w;
      engine.SaveState(&w);
      snapshots.push_back(w.Take());
    }
    if (batch_index == 5) wait_for_readers();
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_GT(rows_seen.load(), 0u);
  EXPECT_GE(snapshots.size(), 2u);

  // No lost, duplicated, or reordered notifications.
  ASSERT_EQ(notes.size(), ref_notes.size());
  for (size_t i = 0; i < notes.size(); ++i) {
    ASSERT_TRUE(notes[i] == ref_notes[i]) << "note #" << i;
  }
  for (int q = 0; q < kNumQueries; ++q) {
    EXPECT_EQ(engine.match_table(static_cast<QueryId>(q)).TotalRows(),
              ref_rows[static_cast<size_t>(q)])
        << "Q" << q;
  }

  // Every mid-stream snapshot must restore into a fresh engine.
  for (size_t s = 0; s < snapshots.size(); ++s) {
    CepEngine restored(&registry_);
    for (int q = 0; q < kNumQueries; ++q) {
      ASSERT_TRUE(restored.AddQueryText(query_text(q), StrFormat("Q%d", q)).ok());
    }
    BytesReader reader(snapshots[s]);
    const Status st = restored.RestoreState(&reader);
    ASSERT_TRUE(st.ok()) << "snapshot #" << s << ": " << st.ToString();
  }
}

TEST_F(ShardPipelineStressTest, SystemCheckpointAndExplainDuringBatchedIngest) {
  // End-to-end race test: batched ingestion keeps feeding the system while
  // an explanation analysis scans the archive, and a full checkpoint is
  // taken mid-stream — all against one engine.
  EventTypeRegistry registry;
  ASSERT_TRUE(HadoopClusterSim::RegisterEventTypes(&registry).ok());

  XStreamConfig config;
  config.explain.feature_space.windows = {10};
  config.explain.num_threads = 2;
  XStreamSystem system(&registry, config);

  constexpr char kQ1[] =
      "PATTERN SEQ(JobStart a, DataIO+ b[], JobEnd c) WHERE [jobId] "
      "RETURN (b[i].timestamp, a.jobId, sum(b[1..i].dataSize))";
  std::vector<QueryId> ids;
  for (int i = 0; i < 8; ++i) {
    auto qid = system.AddQuery(kQ1, StrFormat("Q%d", i));
    ASSERT_TRUE(qid.ok()) << qid.status().ToString();
    ids.push_back(*qid);
  }

  HadoopSimConfig sim_config;
  sim_config.num_nodes = 3;
  sim_config.seed = 31;
  HadoopClusterSim sim(sim_config, &registry);
  HadoopJobConfig job;
  job.job_id = "job-x";
  job.program = "p";
  job.dataset = "d";
  sim.AddJob(job);
  AnomalySpec anomaly;
  anomaly.type = AnomalyType::kHighMemory;
  anomaly.start = 60;
  anomaly.end = 300;
  sim.AddAnomaly(anomaly);
  ASSERT_TRUE(sim.Run(&system).ok());  // ReplayMove: batched ingest
  ASSERT_GT(system.engine().match_table(ids[0]).NumRows("job-x"), 50u);
  ASSERT_TRUE(system.IndexPartitions(ids[0], {{"program", "p"}}).ok());

  AnomalyAnnotation annotation;
  annotation.abnormal = {"Q0", {60, 300}, "job-x"};
  annotation.reference = {"Q0", {360, 600}, "job-x"};
  auto future = system.ExplainAsync(annotation, ids[0], "sum_dataSize");

  // Keep the monitoring side hot while the analysis runs: batches of fresh
  // metric events (ts past the simulated horizon, so archive order holds).
  const EventTypeId cpu = *registry.IdOf("CpuUsage");
  const EventTypeId mem = *registry.IdOf("MemUsage");
  const std::string dir = ::testing::TempDir() + "/shard_pipeline_stress_ckpt";
  Timestamp ts = 1000000;
  for (int round = 0; round < 40; ++round) {
    EventBatch batch;
    batch.reserve(100);
    for (int i = 0; i < 50; ++i) {
      ++ts;
      batch.emplace_back(cpu, ts,
                         MakeValues(int64_t{i % 3}, 50.0, 50.0, 1.0,
                                    static_cast<double>(ts)));
      batch.emplace_back(mem, ++ts,
                         MakeValues(int64_t{i % 3}, 1e6, 1e5, 1e4, 1e6, 2e6, 4e6,
                                    100.0));
    }
    system.OnEventBatch(std::move(batch));
    if (round == 15) {
      // Mid-stream, explanation still in flight: the checkpoint drains the
      // ingest queue and serializes engine + merged-run state.
      const Status st = system.Checkpoint(dir);
      ASSERT_TRUE(st.ok()) << st.ToString();
    }
  }

  auto report = future.get();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->final_features.empty());
  EXPECT_FALSE(system.explanation_active());
  // All 8 replicas saw the identical stream.
  for (const QueryId id : ids) {
    EXPECT_EQ(system.engine().match_table(id).TotalRows(),
              system.engine().match_table(ids[0]).TotalRows());
  }

  // The checkpoint a concurrent run produced must recover cleanly (same
  // queries added in the same order first, per the Recover contract).
  XStreamSystem recovered(&registry, config);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(recovered.AddQuery(kQ1, StrFormat("Q%d", i)).ok());
  }
  auto recovery = recovered.Recover(dir);
  ASSERT_TRUE(recovery.ok()) << recovery.status().ToString();
  EXPECT_TRUE(recovery->manifest_loaded);
  EXPECT_EQ(recovered.engine().match_table(ids[0]).NumRows("job-x"),
            system.engine().match_table(ids[0]).NumRows("job-x"));
}

}  // namespace
}  // namespace exstream
