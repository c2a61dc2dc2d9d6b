// Wall-clock performance smoke test for the simulation kernel itself.
//
// Every figure reproduction is bottlenecked by how fast the discrete-event
// kernel and the Flock hot path run on the *host* CPU, not by simulated
// fidelity. This bench drives a fixed fan-in echo workload (several client
// nodes closed-loop against one or more server nodes) for a fixed span of
// simulated time and reports host-side throughput: simulator events per
// wall-clock second, completed RPCs per wall-clock second, and peak RSS.
//
// Besides the single-shard default row it emits a shard-scaling pair — the
// same larger multi-server world on 1 shard and on --scale-shards shards —
// whose event counts, RPC counts and trace hashes must match exactly (the
// sharded kernel replays the sequential trace, DESIGN.md §12) while the
// wall-clock improves with the host cores available. The gate table in
// scripts/check_perf.py checks both, and the default and scale_seq traces
// against the committed baseline. --json=<path> writes the rows;
// the committed baseline BENCH_perf_smoke.json is refreshed only by naming it
// explicitly, so a run from the repo root cannot overwrite it by accident.
//
// Usage:
//   perf_smoke [--clients=4] [--threads=8] [--payload=64] [--sim-ms=20]
//              [--repeats=3] [--shards=1] [--workers=0] [--servers=1]
//              [--scale=1] [--scale-shards=8] [--scale-servers=4]
//              [--scale-clients=12] [--scale-sim-ms=4]
//              [--json=<path>]
#include <sys/resource.h>

#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/flock/flock.h"

namespace flock::bench {
namespace {

struct SmokeResult {
  double wall_s = 0;
  uint64_t events = 0;
  uint64_t rpcs = 0;
  double events_per_s = 0;
  double rpcs_per_s = 0;
  double events_per_rpc = 0;  // event-queue traffic per completed RPC
  double sim_mops = 0;  // simulated throughput, for fidelity cross-checks
  uint64_t trace_hash = 0;  // per-node device stats + completions, node order
  // Kernel delivery counters (see Simulator): how the resumptions that drove
  // this run were delivered.
  KernelCounters kernel;
  // Control-plane lane census across all connections at end of run. A
  // fault-free run must report every lane healthy and zero reconnects.
  LaneCensus lanes;
};

struct SmokeConfig {
  int servers = 1;
  int clients = 4;
  int threads_per_client = 8;
  uint32_t payload_bytes = 64;
  Nanos sim_span = 20 * kMillisecond;
  int shards = 1;
  int workers = 0;
};

sim::Proc EchoWorker(Connection* conn, FlockThread* thread, uint32_t payload_bytes,
                     uint64_t* done) {
  std::vector<uint8_t> payload(payload_bytes, 0x5a);
  std::vector<uint8_t> resp;
  for (;;) {
    co_await conn->Call(*thread, 1, payload.data(), payload_bytes, &resp);
    (*done)++;
  }
}

SmokeResult RunSmoke(const SmokeConfig& cfg) {
  verbs::Cluster cluster(
      verbs::Cluster::Config{.num_nodes = cfg.servers + cfg.clients,
                             .cores_per_node = 34,
                             .num_shards = cfg.shards,
                             .num_workers = cfg.workers});
  FlockConfig config;
  std::vector<std::unique_ptr<FlockRuntime>> servers;
  for (int s = 0; s < cfg.servers; ++s) {
    servers.push_back(std::make_unique<FlockRuntime>(cluster, s, config));
    servers.back()->RegisterHandler(
        1, [](const uint8_t* req, uint32_t req_len, uint8_t* resp, uint32_t,
              Nanos* cpu) -> uint32_t {
          *cpu = 50;
          std::memcpy(resp, req, req_len);
          return req_len;
        });
    servers.back()->StartServer(4);
  }

  std::vector<std::unique_ptr<FlockRuntime>> client_rts;
  std::vector<Connection*> conns;
  // Completions are counted per client node: all of a node's workers run on
  // its shard, so the counter stays single-writer under sharding and the
  // node-order merge below is deterministic.
  std::vector<uint64_t> done(static_cast<size_t>(cfg.clients), 0);
  for (int c = 0; c < cfg.clients; ++c) {
    const int node = cfg.servers + c;
    auto rt = std::make_unique<FlockRuntime>(cluster, node, config);
    rt->StartClient();
    Connection* conn = rt->Connect(
        *servers[static_cast<size_t>(c % cfg.servers)],
        static_cast<uint32_t>(cfg.threads_per_client));
    conns.push_back(conn);
    for (int t = 0; t < cfg.threads_per_client; ++t) {
      cluster.sim().Spawn(EchoWorker(conn, rt->CreateThread(t),
                                     cfg.payload_bytes,
                                     &done[static_cast<size_t>(c)]),
                          node);
    }
    client_rts.push_back(std::move(rt));
  }

  // Warm up (fills pools, rings, and scheduler state), then measure.
  cluster.sim().RunFor(cfg.sim_span / 4);
  const KernelCounters before = KernelCounters::Capture(cluster.sim());
  uint64_t done_before = 0;
  for (const uint64_t d : done) {
    done_before += d;
  }
  const WallTimer timer;
  cluster.sim().RunFor(cfg.sim_span);

  SmokeResult r;
  r.wall_s = timer.Seconds();
  r.kernel = KernelCounters::Capture(cluster.sim()).Since(before);
  r.events = r.kernel.events;
  for (const uint64_t d : done) {
    r.rpcs += d;
  }
  r.rpcs -= done_before;
  r.events_per_s = static_cast<double>(r.events) / r.wall_s;
  r.rpcs_per_s = static_cast<double>(r.rpcs) / r.wall_s;
  r.events_per_rpc =
      r.rpcs == 0 ? 0 : static_cast<double>(r.events) / static_cast<double>(r.rpcs);
  r.sim_mops =
      static_cast<double>(r.rpcs) / static_cast<double>(cfg.sim_span) * 1e3;
  TraceHash hash;
  for (int n = 0; n < cluster.num_nodes(); ++n) {
    const verbs::Device::Stats& d = cluster.device(n).stats();
    hash.Mix(d.tx_msgs).Mix(d.tx_bytes).Mix(d.tx_wire_bytes).Mix(d.tx_packets);
    hash.Mix(d.rx_msgs).Mix(d.rx_packets).Mix(d.cqes_dma_ed);
  }
  for (const uint64_t d : done) {
    hash.Mix(d);
  }
  r.trace_hash = hash.value();
  for (Connection* conn : conns) {
    r.lanes.Add(*conn);
  }
  return r;
}

int64_t PeakRssKb() {
  struct rusage usage = {};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  SmokeConfig cfg;
  cfg.clients = static_cast<int>(flags.Int("clients", 4));
  cfg.threads_per_client = static_cast<int>(flags.Int("threads", 8));
  cfg.payload_bytes = static_cast<uint32_t>(flags.Int("payload", 64));
  cfg.sim_span = flags.Int("sim-ms", 20) * kMillisecond;
  cfg.shards = static_cast<int>(flags.Int("shards", 1));
  cfg.workers = static_cast<int>(flags.Int("workers", 0));
  cfg.servers = static_cast<int>(flags.Int("servers", 1));
  const int repeats = static_cast<int>(flags.Int("repeats", 3));
  const bool scale = flags.Bool("scale", true);
  // Shard-scaling pair: a larger multi-server world (several servers break
  // the single-dispatcher serial bottleneck, so shards have parallel work),
  // once sequential and once sharded. Identical traces, different clocks.
  SmokeConfig big;
  big.servers = static_cast<int>(flags.Int("scale-servers", 4));
  big.clients = static_cast<int>(flags.Int("scale-clients", 12));
  big.threads_per_client = cfg.threads_per_client;
  big.payload_bytes = cfg.payload_bytes;
  big.sim_span = flags.Int("scale-sim-ms", 4) * kMillisecond;
  const int scale_shards = static_cast<int>(flags.Int("scale-shards", 8));
  const int host_cpus = static_cast<int>(std::thread::hardware_concurrency());
  JsonDump json(flags, "perf_smoke");
  flags.Finish();

  PrintBanner("perf_smoke: wall-clock kernel throughput");
  std::printf("%-10s %12s %12s %12s %10s %10s\n", "run", "events/s", "rpcs/s",
              "events", "sim Mops", "wall ms");

  int run = 0;
  const SmokeResult best = BestOf(
      repeats,
      [&] {
        const SmokeResult r = RunSmoke(cfg);
        std::printf("%-10d %12.0f %12.0f %12lu %10.2f %10.1f\n", run,
                    r.events_per_s, r.rpcs_per_s,
                    static_cast<unsigned long>(r.events), r.sim_mops,
                    r.wall_s * 1e3);
        std::printf("CSV,perf_smoke,%d,%.0f,%.0f,%lu,%.2f\n", run,
                    r.events_per_s, r.rpcs_per_s,
                    static_cast<unsigned long>(r.events), r.sim_mops);
        ++run;
        return r;
      },
      [](const SmokeResult& r) { return r.events_per_s; });
  const int64_t rss_kb = PeakRssKb();
  std::printf("best: %.0f events/s, %.0f rpcs/s, %.1f events/rpc, peak RSS %ld KB\n",
              best.events_per_s, best.rpcs_per_s, best.events_per_rpc,
              static_cast<long>(rss_kb));
  std::printf(
      "resume delivery: %lu total, %lu direct (fifo-server), %lu coalesced "
      "(wake batches)\n",
      static_cast<unsigned long>(best.kernel.resumes),
      static_cast<unsigned long>(best.kernel.direct_resumes),
      static_cast<unsigned long>(best.kernel.coalesced_wakes));
  std::printf("idle passes elided: %lu, re-queued: %lu\n",
              static_cast<unsigned long>(best.kernel.elided_passes),
              static_cast<unsigned long>(best.kernel.requeued_passes));

  JsonRow row;
  row.Add("config", "default")
      .Add("clients", cfg.clients)
      .Add("threads_per_client", cfg.threads_per_client)
      .Add("payload_bytes", cfg.payload_bytes)
      .Add("sim_ms", static_cast<int64_t>(cfg.sim_span / kMillisecond))
      .Add("servers", cfg.servers)
      .Add("shards", cfg.shards)
      .Add("host_cpus", host_cpus)
      .Add("events_per_sec", best.events_per_s)
      .Add("rpcs_per_sec", best.rpcs_per_s)
      .Add("events", best.events)
      .Add("rpcs", best.rpcs)
      .Add("events_per_rpc", best.events_per_rpc)
      .Add("resumes", best.kernel.resumes)
      .Add("direct_resumes", best.kernel.direct_resumes)
      .Add("coalesced_wakes", best.kernel.coalesced_wakes)
      .Add("elided_passes", best.kernel.elided_passes)
      .Add("requeued_passes", best.kernel.requeued_passes);
  best.lanes.AppendTo(&row, /*include_retired=*/false);
  row.Add("trace_hash", std::to_string(best.trace_hash))
      .Add("sim_mops", best.sim_mops)
      .Add("wall_s", best.wall_s)
      .Add("peak_rss_kb", rss_kb);
  json.Row(row);

  if (scale) {
    PrintBanner("perf_smoke: shard scaling (identical trace, parallel clock)");
    std::printf("%-10s %12s %12s %12s %10s %10s\n", "shards", "events/s",
                "rpcs/s", "events", "sim Mops", "wall ms");
    for (const int shards : {1, scale_shards}) {
      big.shards = shards;
      big.workers = 0;  // one worker per shard, capped at the host cores
      const SmokeResult r = BestOf(
          std::max(1, repeats / 3), [&] { return RunSmoke(big); },
          [](const SmokeResult& rr) { return rr.events_per_s; });
      std::printf("%-10d %12.0f %12.0f %12lu %10.2f %10.1f\n", shards,
                  r.events_per_s, r.rpcs_per_s,
                  static_cast<unsigned long>(r.events), r.sim_mops,
                  r.wall_s * 1e3);
      JsonRow srow;
      srow.Add("config", shards == 1 ? "scale_seq" : "scale_par")
          .Add("clients", big.clients)
          .Add("threads_per_client", big.threads_per_client)
          .Add("payload_bytes", big.payload_bytes)
          .Add("sim_ms", static_cast<int64_t>(big.sim_span / kMillisecond))
          .Add("servers", big.servers)
          .Add("shards", shards)
          .Add("host_cpus", host_cpus)
          .Add("events_per_sec", r.events_per_s)
          .Add("rpcs_per_sec", r.rpcs_per_s)
          .Add("events", r.events)
          .Add("rpcs", r.rpcs)
          .Add("events_per_rpc", r.events_per_rpc)
          .Add("resumes", r.kernel.resumes)
          .Add("direct_resumes", r.kernel.direct_resumes)
          .Add("coalesced_wakes", r.kernel.coalesced_wakes)
          .Add("elided_passes", r.kernel.elided_passes)
          .Add("requeued_passes", r.kernel.requeued_passes)
          .Add("trace_hash", std::to_string(r.trace_hash))
          .Add("sim_mops", r.sim_mops)
          .Add("wall_s", r.wall_s);
      json.Row(srow);
    }
  }
  return 0;
}

}  // namespace
}  // namespace flock::bench

int main(int argc, char** argv) { return flock::bench::Main(argc, argv); }
