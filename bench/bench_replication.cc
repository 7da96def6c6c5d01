// Replication overhead: child ingest throughput with the parent/child
// replication pipeline on vs off, over a loopback link.
//
// The sender is asynchronous — OnBatch only spools under a mutex and a
// background thread does the framing and socket I/O — so replication must
// not cost the child more than a modest fraction of its ingest throughput.
// The within-run ratio (replicated ev/s divided by standalone ev/s) is the
// gated quantity: both sides of the ratio run on the same host seconds
// apart, so hardware speed cancels out and scripts/check_bench.py can
// enforce a floor on any machine (absolute ev/s are reported for context
// only, never gated).
//
// Each run also cross-checks correctness: the parent must end with every
// child event applied (watermark == stream size, zero gaps) — a throughput
// "win" that drops events is a bug, not a speedup.
//
// Emits BENCH_replication.json.
//
//   bench_replication [--smoke] [--out PATH] [--reps N]

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_json.h"
#include "bench_util.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "net/replication_receiver.h"
#include "sim/hadoop_sim.h"
#include "xstream/system.h"
#include "xstream/tenant_hub.h"

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
  bool replicated = false;
  size_t events = 0;
  double ingest_seconds = 0;   ///< child-side feed + Flush (best rep)
  double ingest_eps = 0;
  double drain_seconds = 0;    ///< replication only: Flush -> last ACK
  size_t parent_applied = 0;   ///< replication only: receiver counter
  size_t parent_gaps = 0;      ///< must be 0 — nothing may shed on loopback
  size_t reconnects = 0;       ///< link flaps during the measured run
};

Measurement RunChild(const EventTypeRegistry& registry,
                     const std::vector<Event>& stream, bool replicate,
                     size_t reps, size_t batch_size) {
  // Pre-slice outside the timed region (the producer's cost, not ingest's).
  std::vector<EventBatch> slices;
  for (size_t i = 0; i < stream.size(); i += batch_size) {
    const size_t end = std::min(stream.size(), i + batch_size);
    slices.emplace_back(stream.begin() + static_cast<ptrdiff_t>(i),
                        stream.begin() + static_cast<ptrdiff_t>(end));
  }
  Measurement m;
  m.replicated = replicate;
  m.events = stream.size();
  for (size_t rep = 0; rep < reps; ++rep) {
    std::unique_ptr<XStreamSystem> parent;
    std::unique_ptr<ReplicationReceiver> receiver;
    XStreamConfig child_cfg;
    if (replicate) {
      parent = std::make_unique<XStreamSystem>(&registry);
      CheckOk(parent->AddQuery(kQ1, "Q1").status(), "parent AddQuery");
      ReplicationReceiverOptions ropts;
      ropts.io_timeout_ms = 100;
      receiver = std::make_unique<ReplicationReceiver>(parent.get(), ropts);
      CheckOk(receiver->Start(), "receiver Start");
      ReplicationSenderOptions sopts;
      sopts.port = receiver->port();
      sopts.idle_poll_ms = 2;
      child_cfg.replication = sopts;
    }
    auto child = std::make_unique<XStreamSystem>(&registry, child_cfg);
    CheckOk(child->AddQuery(kQ1, "Q1").status(), "child AddQuery");

    Stopwatch timer;
    for (const EventBatch& slice : slices) child->OnEventBatch(slice);
    child->Flush();
    const double ingest_secs = timer.ElapsedSeconds();

    if (replicate) {
      Stopwatch drain_timer;
      if (!child->replication()->WaitForDrain(120000)) {
        fprintf(stderr, "FAIL: replication did not drain\n");
        exit(1);
      }
      const double drain_secs = drain_timer.ElapsedSeconds();
      receiver->Stop();
      const auto rstats = receiver->stats();
      const auto cstats = child->replication()->stats();
      if (rep == 0 || ingest_secs < m.ingest_seconds) {
        m.drain_seconds = drain_secs;
      }
      m.parent_applied = rstats.events_applied;
      m.parent_gaps = rstats.gap_events;
      m.reconnects = cstats.reconnects;
      if (rstats.events_applied + rstats.gap_events != stream.size() ||
          rstats.gap_events != 0) {
        fprintf(stderr,
                "FAIL: parent applied %zu events + %zu gaps of %zu — "
                "replication lost data on a healthy loopback link\n",
                static_cast<size_t>(rstats.events_applied),
                static_cast<size_t>(rstats.gap_events), stream.size());
        exit(1);
      }
    }
    if (rep == 0 || ingest_secs < m.ingest_seconds) {
      m.ingest_seconds = ingest_secs;
    }
  }
  m.ingest_eps = static_cast<double>(m.events) / m.ingest_seconds;
  return m;
}

// --- Multi-child fan-in ------------------------------------------------------
//
// One receiver, N children across two tenants (even children -> tenant-a, odd
// -> tenant-b), the same total event volume split contiguously across the
// children. The gated quantity is fanin_ratio = aggregate ev/s with N
// children divided by aggregate ev/s with 1 child — both sides run on the
// same host in the same process, so hardware cancels out, exactly like
// overhead_ratio. Each run also asserts tenant isolation: every tenant's
// parent must end with exactly its own children's events and nothing else.

struct FanInMeasurement {
  size_t children = 0;
  size_t events = 0;            ///< total across all children
  double seconds = 0;           ///< best rep: feed start -> all drained
  double eps = 0;
  size_t tenant_a_applied = 0;
  size_t tenant_b_applied = 0;
  size_t tenant_a_shed = 0;     ///< gaps + quota sheds disclosed to tenant-a
  size_t tenant_b_shed = 0;
  size_t gap_events = 0;        ///< receiver-wide; must be 0 on loopback
  bool contamination_free = false;
};

FanInMeasurement RunFanIn(const EventTypeRegistry& registry,
                          const std::vector<Event>& stream, size_t n_children,
                          size_t reps, size_t batch_size) {
  // Contiguous per-child slices; each child owns its own seq space, so each
  // slice replays as that child's whole stream.
  std::vector<std::vector<Event>> child_streams(n_children);
  const size_t per_child = stream.size() / n_children;
  for (size_t c = 0; c < n_children; ++c) {
    const size_t begin = c * per_child;
    const size_t end = (c + 1 == n_children) ? stream.size() : begin + per_child;
    child_streams[c].assign(stream.begin() + static_cast<ptrdiff_t>(begin),
                            stream.begin() + static_cast<ptrdiff_t>(end));
  }
  size_t expected_a = 0;
  size_t expected_b = 0;
  for (size_t c = 0; c < n_children; ++c) {
    (c % 2 == 0 ? expected_a : expected_b) += child_streams[c].size();
  }

  FanInMeasurement m;
  m.children = n_children;
  m.events = stream.size();
  for (size_t rep = 0; rep < reps; ++rep) {
    XStreamSystem parent_a(&registry);
    XStreamSystem parent_b(&registry);
    CheckOk(parent_a.AddQuery(kQ1, "Q1").status(), "tenant-a AddQuery");
    CheckOk(parent_b.AddQuery(kQ1, "Q1").status(), "tenant-b AddQuery");
    TenantHub hub;
    CheckOk(hub.AddTenant("tenant-a", &parent_a), "AddTenant a");
    CheckOk(hub.AddTenant("tenant-b", &parent_b), "AddTenant b");
    ReplicationReceiverOptions ropts;
    ropts.io_timeout_ms = 100;
    ReplicationReceiver receiver(&hub, ropts);
    CheckOk(receiver.Start(), "receiver Start");

    std::vector<std::unique_ptr<XStreamSystem>> children;
    for (size_t c = 0; c < n_children; ++c) {
      XStreamConfig cfg;
      ReplicationSenderOptions sopts;
      sopts.port = receiver.port();
      sopts.idle_poll_ms = 2;
      sopts.tenant = (c % 2 == 0) ? "tenant-a" : "tenant-b";
      sopts.node_id = StrFormat("child-%zu", c);
      cfg.replication = sopts;
      children.push_back(std::make_unique<XStreamSystem>(&registry, cfg));
      CheckOk(children.back()->AddQuery(kQ1, "Q1").status(), "child AddQuery");
    }

    Stopwatch timer;
    for (size_t c = 0; c < n_children; ++c) {
      const std::vector<Event>& events = child_streams[c];
      for (size_t i = 0; i < events.size(); i += batch_size) {
        const size_t end = std::min(events.size(), i + batch_size);
        children[c]->OnEventBatch(
            EventBatch(events.begin() + static_cast<ptrdiff_t>(i),
                       events.begin() + static_cast<ptrdiff_t>(end)));
      }
    }
    for (auto& child : children) child->Flush();
    for (auto& child : children) {
      if (!child->replication()->WaitForDrain(120000)) {
        fprintf(stderr, "FAIL: fan-in replication did not drain\n");
        exit(1);
      }
    }
    const double secs = timer.ElapsedSeconds();
    receiver.Stop();

    const size_t applied_a = parent_a.engine().events_processed();
    const size_t applied_b = parent_b.engine().events_processed();
    const size_t shed_a = parent_a.shed_events();
    const size_t shed_b = parent_b.shed_events();
    const auto rstats = receiver.stats();
    const bool clean = applied_a == expected_a && applied_b == expected_b &&
                       shed_a == 0 && shed_b == 0 && rstats.gap_events == 0 &&
                       rstats.quota_shed_events == 0;
    if (!clean) {
      fprintf(stderr,
              "FAIL: fan-in contamination with %zu children — tenant-a "
              "%zu/%zu, tenant-b %zu/%zu, sheds %zu/%zu, gaps %zu\n",
              n_children, applied_a, expected_a, applied_b, expected_b, shed_a,
              shed_b, static_cast<size_t>(rstats.gap_events));
      exit(1);
    }
    if (rep == 0 || secs < m.seconds) m.seconds = secs;
    m.tenant_a_applied = applied_a;
    m.tenant_b_applied = applied_b;
    m.tenant_a_shed = shed_a;
    m.tenant_b_shed = shed_b;
    m.gap_events = rstats.gap_events;
    m.contamination_free = clean;
  }
  m.eps = static_cast<double>(m.events) / m.seconds;
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::ParseBenchArgs(
      argc, argv, "bench_replication", "BENCH_replication.json");
  const bool smoke = args.smoke;
  const size_t reps = args.reps != 0 ? args.reps : smoke ? 2 : 5;

  EventTypeRegistry registry;
  CheckOk(HadoopClusterSim::RegisterEventTypes(&registry), "RegisterEventTypes");
  const int num_nodes = smoke ? 3 : 30;
  const Timestamp duration = smoke ? 600 : 3600;
  const size_t batch_size = 1024;
  const std::vector<Event> stream = BuildStream(registry, num_nodes, 3, duration);
  fprintf(stderr, "[bench] stream: %zu events, %zu reps\n", stream.size(), reps);

  fprintf(stderr, "[bench] standalone child (replication off) ...\n");
  const Measurement off = RunChild(registry, stream, /*replicate=*/false, reps,
                                   batch_size);
  fprintf(stderr, "[bench] replicated child (loopback parent) ...\n");
  const Measurement on = RunChild(registry, stream, /*replicate=*/true, reps,
                                  batch_size);

  const double ratio = on.ingest_eps / off.ingest_eps;
  printf("\nReplication overhead (child ingest, %zu events/batch)\n", batch_size);
  printf("%14s %14s %12s %10s\n", "mode", "events/sec", "drain (s)", "gaps");
  printf("%14s %14.0f %12s %10s\n", "standalone", off.ingest_eps, "-", "-");
  printf("%14s %14.0f %12.3f %10zu\n", "replicated", on.ingest_eps,
         on.drain_seconds, on.parent_gaps);
  printf("\noverhead ratio (replicated / standalone) = %.3f\n", ratio);
  printf("parent applied %zu/%zu events, %zu reconnects\n", on.parent_applied,
         stream.size(), on.reconnects);

  std::vector<FanInMeasurement> fanin;
  for (const size_t n_children : {size_t{1}, size_t{2}, size_t{4}}) {
    fprintf(stderr, "[bench] fan-in: %zu children, 2 tenants ...\n",
            n_children);
    fanin.push_back(RunFanIn(registry, stream, n_children, reps, batch_size));
  }
  printf("\nFan-in (one receiver, 2 tenants, same total events)\n");
  printf("%9s %14s %9s %12s %12s %8s %8s\n", "children", "events/sec", "ratio",
         "tenant-a ev", "tenant-b ev", "shed-a", "shed-b");
  for (const FanInMeasurement& f : fanin) {
    printf("%9zu %14.0f %9.3f %12zu %12zu %8zu %8zu\n", f.children, f.eps,
           f.eps / fanin.front().eps, f.tenant_a_applied, f.tenant_b_applied,
           f.tenant_a_shed, f.tenant_b_shed);
  }

  JsonWriter json;
  json.BeginObject();
  json.Key("bench");
  json.String("replication");
  json.Key("smoke");
  json.Bool(smoke);
  json.Key("reps");
  json.UInt(reps);
  json.Key("batch_size");
  json.UInt(batch_size);
  json.Key("stream_events");
  json.UInt(stream.size());
  json.Key("ingest_eps_standalone");
  json.Double(off.ingest_eps);
  json.Key("ingest_eps_replicated");
  json.Double(on.ingest_eps);
  json.Key("overhead_ratio");
  json.Double(ratio);
  json.Key("drain_seconds");
  json.Double(on.drain_seconds);
  json.Key("parent_events_applied");
  json.UInt(on.parent_applied);
  json.Key("parent_gap_events");
  json.UInt(on.parent_gaps);
  json.Key("sender_reconnects");
  json.UInt(on.reconnects);
  json.Key("fanin");
  json.BeginArray();
  for (const FanInMeasurement& f : fanin) {
    json.BeginObject();
    json.Key("children");
    json.UInt(f.children);
    json.Key("events");
    json.UInt(f.events);
    json.Key("seconds");
    json.Double(f.seconds);
    json.Key("eps");
    json.Double(f.eps);
    json.Key("fanin_ratio");
    json.Double(f.eps / fanin.front().eps);
    json.Key("tenant_a_applied");
    json.UInt(f.tenant_a_applied);
    json.Key("tenant_b_applied");
    json.UInt(f.tenant_b_applied);
    json.Key("tenant_a_shed_events");
    json.UInt(f.tenant_a_shed);
    json.Key("tenant_b_shed_events");
    json.UInt(f.tenant_b_shed);
    json.Key("gap_events");
    json.UInt(f.gap_events);
    json.Key("contamination_free");
    json.Bool(f.contamination_free);
    json.EndObject();
  }
  json.EndArray();
  json.MemoryObject(bench::SampleMemoryStats());
  json.EndObject();
  if (!json.WriteFile(args.out_path)) return 1;
  fprintf(stderr, "[bench] wrote %s\n", args.out_path.c_str());
  return 0;
}
