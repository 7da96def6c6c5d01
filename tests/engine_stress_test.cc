// Stress and consistency tests of the CEP engine: many concurrent queries,
// many interleaved partitions, and agreement between replicated queries.
// The concurrency cases (readers, checkpoints and ExplainAsync during
// ingest) are in shard_pipeline_stress_test.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "cep/engine.h"
#include "common/rng.h"
#include "common/strings.h"

namespace exstream {
namespace {

class EngineStressTest : public ::testing::Test {
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

TEST_F(EngineStressTest, ManyInterleavedPartitions) {
  CepEngine engine(&registry_);
  auto qid = engine.AddQueryText(kQuery, "Q");
  ASSERT_TRUE(qid.ok());
  const auto stream = RandomStream(1, 50, 20000);
  for (const Event& e : stream) engine.OnEvent(e);

  const MatchTable& table = engine.match_table(*qid);
  EXPECT_GT(table.TotalRows(), 1000u);
  // Per partition, the running sum must be consistent: the last row's sum
  // equals the sum of all size values of rows in that partition's last run.
  // Weaker invariant checked here: sums change monotonically in count.
  for (const std::string& partition : table.Partitions()) {
    const auto rows = table.Rows(partition);
    for (size_t i = 1; i < rows.size(); ++i) {
      EXPECT_GE(rows[i].ts, rows[i - 1].ts) << partition;
    }
  }
}

TEST_F(EngineStressTest, ReplicatedQueriesAgree) {
  // 64 replicas of the same query must produce identical match tables.
  CepEngine engine(&registry_);
  std::vector<QueryId> ids;
  for (int i = 0; i < 64; ++i) {
    auto qid = engine.AddQueryText(kQuery, StrFormat("Q%d", i));
    ASSERT_TRUE(qid.ok());
    ids.push_back(*qid);
  }
  const auto stream = RandomStream(2, 10, 5000);
  for (const Event& e : stream) engine.OnEvent(e);

  const MatchTable& reference = engine.match_table(ids[0]);
  for (size_t q = 1; q < ids.size(); ++q) {
    const MatchTable& other = engine.match_table(ids[q]);
    ASSERT_EQ(other.TotalRows(), reference.TotalRows());
    for (const std::string& partition : reference.Partitions()) {
      const auto a = reference.Rows(partition);
      const auto b = other.Rows(partition);
      ASSERT_EQ(a.size(), b.size()) << partition;
      for (size_t i = 0; i < a.size(); i += 37) {  // spot check
        EXPECT_EQ(a[i].ts, b[i].ts);
        EXPECT_DOUBLE_EQ(a[i].values[2].AsDouble(), b[i].values[2].AsDouble());
      }
    }
  }
}

TEST_F(EngineStressTest, EventCountingAndRelevance) {
  CepEngine engine(&registry_);
  ASSERT_TRUE(engine.AddQueryText(kQuery, "Q").ok());
  const auto stream = RandomStream(3, 5, 1000);
  for (const Event& e : stream) engine.OnEvent(e);
  EXPECT_EQ(engine.events_processed(), 1000u);
}

TEST_F(EngineStressTest, BatchedIngestManyQueriesMatchesSequential) {
  // 64 replicas ingested in batches must agree with the per-event engine —
  // the batched flavor of ReplicatedQueriesAgree.
  const auto stream = RandomStream(5, 10, 5000);

  CepEngine serial(&registry_);
  ASSERT_TRUE(serial.AddQueryText(kQuery, "ref").ok());
  for (const Event& e : stream) serial.OnEvent(e);
  const MatchTable& reference = serial.match_table(0);

  CepEngine engine(&registry_);
  std::vector<QueryId> ids;
  for (int i = 0; i < 64; ++i) {
    auto qid = engine.AddQueryText(kQuery, StrFormat("Q%d", i));
    ASSERT_TRUE(qid.ok());
    ids.push_back(*qid);
  }
  for (size_t i = 0; i < stream.size(); i += 256) {
    engine.OnEventBatch(EventBatch(
        stream.begin() + static_cast<ptrdiff_t>(i),
        stream.begin() + static_cast<ptrdiff_t>(std::min(stream.size(), i + 256))));
  }

  for (const QueryId id : ids) {
    const MatchTable& other = engine.match_table(id);
    ASSERT_EQ(other.TotalRows(), reference.TotalRows());
    ASSERT_EQ(other.Partitions(), reference.Partitions());
    for (const std::string& partition : reference.Partitions()) {
      const auto a = reference.Rows(partition);
      const auto b = other.Rows(partition);
      ASSERT_EQ(a.size(), b.size()) << partition;
      for (size_t i = 0; i < a.size(); i += 41) {  // spot check
        EXPECT_EQ(a[i].ts, b[i].ts);
        EXPECT_DOUBLE_EQ(a[i].values[2].AsDouble(), b[i].values[2].AsDouble());
      }
    }
  }
}

TEST_F(EngineStressTest, DeterministicAcrossRuns) {
  auto run_once = [&] {
    CepEngine engine(&registry_);
    auto qid = engine.AddQueryText(kQuery, "Q");
    EXPECT_TRUE(qid.ok());
    const auto stream = RandomStream(4, 20, 8000);
    for (const Event& e : stream) engine.OnEvent(e);
    return engine.match_table(*qid).TotalRows();
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace exstream
