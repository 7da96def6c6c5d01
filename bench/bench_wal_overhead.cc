// WAL overhead: batched ingest throughput through XStreamSystem with no WAL
// vs a WAL at each fsync policy (none / interval / every_batch), on the
// Hadoop monitoring stream across the Fig. 20 concurrent-query tiers
// (10 / 100 / 1000 replicas, as in bench_ingest_throughput).
//
// All modes ingest through the bounded queue (sized so nothing sheds), the
// production pipeline shape: the worker thread runs the WAL append — a
// serialize, a CRC32, two fwrites — immediately before the engine sees each
// batch, while the producer validates the next one. fsync=interval
// group-commits on a background flusher thread, so neither pipeline thread
// blocks on the disk. The interesting number is how much of the no-WAL
// throughput survives; the log's cost is fixed per byte, so the relative
// overhead shrinks as per-event engine work grows — the per-tier table shows
// that directly. Emits BENCH_wal_overhead.json; on full runs
// scripts/check_bench.py gates the fsync=interval / no-WAL events/sec ratio
// on the 1000-query tier, the same workload bench_ingest_throughput gates on
// (every_batch pays a real fsync per append and is not gated). --smoke runs a
// seconds-scale subset for CI.
//
// Each configuration is measured --reps times and the best (fastest) rep is
// reported (minimum-time estimator; see bench_ingest_throughput).
//
//   bench_wal_overhead [--smoke] [--out PATH] [--reps N]

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_json.h"
#include "bench_util.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "io/file_util.h"
#include "sim/hadoop_sim.h"
#include "xstream/system.h"

using namespace exstream;
using bench::CheckOk;
using bench::JsonWriter;

namespace {

constexpr char kQ1[] =
    "PATTERN SEQ(JobStart a, DataIO+ b[], JobEnd c) WHERE [jobId] "
    "RETURN (b[i].timestamp, a.jobId, sum(b[1..i].dataSize))";

std::vector<Event> BuildStream(const EventTypeRegistry& registry, int num_nodes,
                               int num_jobs, Timestamp duration) {
  HadoopSimConfig config;
  config.num_nodes = num_nodes;
  config.seed = 20170321;  // EDBT'17
  HadoopClusterSim sim(config, &registry);
  for (int j = 0; j < num_jobs; ++j) {
    HadoopJobConfig job;
    job.job_id = StrFormat("job-%03d", j);
    job.program = "wordcount";
    job.dataset = "ds";
    job.start_time = (duration * j) / num_jobs;
    sim.AddJob(job);
  }
  VectorSink sink;
  CheckOk(sim.Run(&sink).status(), "hadoop sim");
  return sink.TakeEvents();
}

struct Measurement {
  std::string mode;  // "no-wal", "none", "interval", "every_batch"
  size_t events = 0;
  double seconds = 0;
  double events_per_sec = 0;
  size_t match_rows = 0;      // cross-checks all configs did the same work
  uint64_t wal_bytes = 0;     // bytes appended per rep (0 for no-wal)
  uint64_t wal_syncs = 0;
};

void WipeDir(const std::string& dir) {
  const auto files = ListDirFiles(dir);
  if (!files.ok()) return;
  for (const std::string& f : *files) {
    CheckOk(RemoveFileIfExists(dir + "/" + f), "wipe wal dir");
  }
}

Measurement Run(const EventTypeRegistry& registry,
                const std::vector<EventBatch>& slices, size_t total_events,
                const std::string& mode, const std::string& wal_dir,
                size_t reps, int num_queries) {
  Measurement m;
  m.mode = mode;
  m.events = total_events;
  for (size_t rep = 0; rep < reps; ++rep) {
    XStreamConfig config;
    // Pipelined ingest: WAL on the producer thread, engine on the worker.
    // Capacity exceeds the batch count so backpressure can never shed (the
    // match-row cross-check below depends on every mode doing all the work).
    config.overload.queue_capacity = slices.size() + 1;
    if (mode != "no-wal") {
      WipeDir(wal_dir);  // each rep logs from scratch
      config.durability.wal_dir = wal_dir;
      if (mode == "none") config.durability.fsync = WalFsyncPolicy::kNone;
      if (mode == "interval") config.durability.fsync = WalFsyncPolicy::kInterval;
      if (mode == "every_batch") {
        config.durability.fsync = WalFsyncPolicy::kEveryBatch;
      }
    }
    XStreamSystem system(&registry, config);
    for (int q = 0; q < num_queries; ++q) {
      CheckOk(system.AddQuery(kQ1, StrFormat("Q1-%02d", q)).status(),
              "AddQuery");
    }
    Stopwatch timer;
    for (const EventBatch& slice : slices) system.OnEventBatch(slice);
    system.Flush();
    const double secs = timer.ElapsedSeconds();
    if (rep == 0 || secs < m.seconds) m.seconds = secs;
    m.match_rows = system.engine().match_table(0).TotalRows();
    if (system.wal() != nullptr) {
      m.wal_bytes = system.wal()->stats().bytes_appended;
      m.wal_syncs = system.wal()->stats().syncs;
    }
  }
  m.events_per_sec = static_cast<double>(m.events) / m.seconds;
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::ParseBenchArgs(
      argc, argv, "bench_wal_overhead", "BENCH_wal_overhead.json");
  const bool smoke = args.smoke;
  const size_t reps = args.reps != 0 ? args.reps : smoke ? 1 : 5;

  EventTypeRegistry registry;
  CheckOk(HadoopClusterSim::RegisterEventTypes(&registry), "RegisterEventTypes");

  const int num_nodes = smoke ? 2 : 30;
  const Timestamp duration = smoke ? 300 : 3600;
  // The Fig. 20 concurrent-query tiers (see bench_ingest_throughput). The
  // last tier is the gate workload: a production-scale deployment where
  // engine work per event is representative.
  const std::vector<int> tiers = smoke ? std::vector<int>{10}
                                       : std::vector<int>{10, 100, 1000};
  const size_t batch_size = 512;
  const std::vector<Event> stream = BuildStream(registry, num_nodes, 3, duration);
  std::vector<EventBatch> slices;
  for (size_t i = 0; i < stream.size(); i += batch_size) {
    const size_t end = std::min(stream.size(), i + batch_size);
    slices.emplace_back(stream.begin() + static_cast<ptrdiff_t>(i),
                        stream.begin() + static_cast<ptrdiff_t>(end));
  }
  fprintf(stderr, "[bench] stream: %zu events in %zu batches\n", stream.size(),
          slices.size());

  char wal_tmpl[] = "/tmp/exstream_walbench_XXXXXX";
  if (mkdtemp(wal_tmpl) == nullptr) {
    fprintf(stderr, "FAIL: cannot create WAL dir\n");
    return 1;
  }
  const std::string wal_dir = wal_tmpl;

  struct TierResult {
    int num_queries = 0;
    std::vector<Measurement> results;
  };
  std::vector<TierResult> tier_results;
  for (const int num_queries : tiers) {
    TierResult tier;
    tier.num_queries = num_queries;
    for (const char* mode : {"no-wal", "none", "interval", "every_batch"}) {
      fprintf(stderr, "[bench] %d queries, mode %s ...\n", num_queries, mode);
      tier.results.push_back(
          Run(registry, slices, stream.size(), mode, wal_dir, reps, num_queries));
      if (tier.results.back().match_rows != tier.results.front().match_rows) {
        fprintf(stderr, "FAIL: mode %s produced %zu match rows, no-wal %zu\n",
                mode, tier.results.back().match_rows,
                tier.results.front().match_rows);
        return 1;
      }
    }
    tier_results.push_back(std::move(tier));
  }
  WipeDir(wal_dir);

  double gate_ratio = 0;  // fsync=interval vs no-WAL, last (gated) tier
  for (const TierResult& tier : tier_results) {
    const double base_eps = tier.results.front().events_per_sec;
    printf("\nWAL overhead (events/sec), %zu events/batch, %d queries\n",
           batch_size, tier.num_queries);
    printf("%12s %14s %8s %12s %8s\n", "mode", "events/sec", "ratio", "wal MB",
           "syncs");
    for (const Measurement& m : tier.results) {
      const double ratio = m.events_per_sec / base_eps;
      printf("%12s %14.0f %7.2fx %12.1f %8llu\n", m.mode.c_str(),
             m.events_per_sec, ratio,
             static_cast<double>(m.wal_bytes) / (1024.0 * 1024.0),
             static_cast<unsigned long long>(m.wal_syncs));
      if (m.mode == "interval" && &tier == &tier_results.back()) {
        gate_ratio = ratio;
      }
    }
  }
  printf("\nfsync=interval = %.2fx no-WAL baseline at %d queries\n", gate_ratio,
         tier_results.back().num_queries);

  JsonWriter json;
  json.BeginObject();
  json.Key("bench");
  json.String("wal_overhead");
  json.Key("smoke");
  json.Bool(smoke);
  json.Key("batch_size");
  json.UInt(batch_size);
  json.Key("gate_num_queries");
  json.UInt(static_cast<size_t>(tier_results.back().num_queries));
  json.Key("reps");
  json.UInt(reps);
  json.Key("stream_events");
  json.UInt(stream.size());
  json.Key("gate_interval_vs_no_wal");
  json.Double(gate_ratio);
  json.Key("tiers");
  json.BeginArray();
  for (const TierResult& tier : tier_results) {
    const double base_eps = tier.results.front().events_per_sec;
    json.BeginObject();
    json.Key("num_queries");
    json.UInt(static_cast<size_t>(tier.num_queries));
    json.Key("results");
    json.BeginArray();
    for (const Measurement& m : tier.results) {
      json.BeginObject();
      json.Key("mode");
      json.String(m.mode);
      json.Key("events");
      json.UInt(m.events);
      json.Key("seconds");
      json.Double(m.seconds);
      json.Key("events_per_sec");
      json.Double(m.events_per_sec);
      json.Key("ratio_vs_no_wal");
      json.Double(m.events_per_sec / base_eps);
      json.Key("match_rows");
      json.UInt(m.match_rows);
      json.Key("wal_bytes");
      json.UInt(m.wal_bytes);
      json.Key("wal_syncs");
      json.UInt(m.wal_syncs);
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
  }
  json.EndArray();
  json.MemoryObject(bench::SampleMemoryStats());
  json.EndObject();
  if (!json.WriteFile(args.out_path)) return 1;
  fprintf(stderr, "[bench] wrote %s\n", args.out_path.c_str());
  return 0;
}
