// Figure 12 XL — node scalability beyond the paper's testbed.
//
// The paper stops at 23 client nodes (its hardware). With the sharded
// simulation kernel the same closed-loop echo world extends to 100+ simulated
// nodes and ~10k worker threads: --servers server nodes each serve a group of
// --clients/--servers client nodes (the grouped topology keeps per-server
// fan-in at the paper's scale while the *cluster* grows), and the kernel
// spreads nodes round-robin across --shards shards. The trace is
// shard-invariant, so the reported mops/latency are identical whatever
// --shards is; sharding only changes how long the figure takes on the host.
//
// Usage: fig12_xl [--servers=8] [--clients=96] [--threads=96]
//                 [--measure_ms=1] [--warmup_ms=1] [--shards=8] [--workers=0]
//                 [--payload=64] [--json=...]
#include <cstdint>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/histogram.h"
#include "src/flock/flock.h"

namespace flock::bench {
namespace {

// Per-client-node accounting: single-writer under sharding (all of a node's
// workers run on its shard), merged in node order after the run.
struct NodeStats {
  bool measuring = false;
  uint64_t completed = 0;
  Histogram latency;
};

sim::Proc XlWorker(verbs::Cluster& cluster, Connection* conn, FlockThread* thread,
                   uint32_t payload_bytes, NodeStats* stats, Nanos start_delay) {
  co_await sim::Delay(cluster.sim(), start_delay);  // de-synchronized start
  std::vector<uint8_t> payload(payload_bytes, 0x5a);
  std::vector<uint8_t> resp;
  for (;;) {
    const Nanos start = cluster.sim().Now();
    co_await conn->Call(*thread, 1, payload.data(), payload_bytes, &resp);
    if (stats->measuring) {
      stats->completed += 1;
      stats->latency.Record(cluster.sim().Now() - start);
    }
  }
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  const int servers = static_cast<int>(flags.Int("servers", 8));
  const int clients = static_cast<int>(flags.Int("clients", 96));
  const int threads = static_cast<int>(flags.Int("threads", 96));
  const uint32_t payload = static_cast<uint32_t>(flags.Int("payload", 64));
  const Nanos warmup = flags.Int("warmup_ms", 1) * kMillisecond;
  const Nanos measure = flags.Int("measure_ms", 1) * kMillisecond;
  const int shards = static_cast<int>(flags.Int("shards", 8));
  const int workers = static_cast<int>(flags.Int("workers", 0));
  JsonDump json(flags, "fig12_xl");
  flags.Finish();

  const int num_nodes = servers + clients;
  PrintBanner("Figure 12 XL: cluster scale beyond the paper's testbed");
  std::printf("%d nodes (%d servers, %d clients), %d threads/client = %d "
              "worker threads, %d shards\n",
              num_nodes, servers, clients, threads, clients * threads, shards);

  const WallTimer build_timer;
  verbs::Cluster cluster(verbs::Cluster::Config{.num_nodes = num_nodes,
                                                .cores_per_node = 34,
                                                .num_shards = shards,
                                                .num_workers = workers});
  FlockConfig config;
  std::vector<std::unique_ptr<FlockRuntime>> server_rts;
  for (int s = 0; s < servers; ++s) {
    server_rts.push_back(std::make_unique<FlockRuntime>(cluster, s, config));
    server_rts.back()->RegisterHandler(
        1, [](const uint8_t* req, uint32_t req_len, uint8_t* resp, uint32_t,
              Nanos* cpu) -> uint32_t {
          *cpu = 50;
          std::memcpy(resp, req, req_len);
          return req_len;
        });
    server_rts.back()->StartServer(32);
  }

  std::vector<std::unique_ptr<FlockRuntime>> client_rts;
  std::vector<NodeStats> stats(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    const int node = servers + c;
    auto rt = std::make_unique<FlockRuntime>(cluster, node, config);
    rt->StartClient();
    Connection* conn =
        rt->Connect(*server_rts[static_cast<size_t>(c % servers)],
                    static_cast<uint32_t>(threads));
    for (int t = 0; t < threads; ++t) {
      cluster.sim().Spawn(
          XlWorker(cluster, conn, rt->CreateThread(t % 32), payload,
                   &stats[static_cast<size_t>(c)],
                   (static_cast<Nanos>(c) * 7919 + t * 977) % (100 * kMicrosecond)),
          node);
    }
    client_rts.push_back(std::move(rt));
  }
  std::printf("world built in %.1f s\n", build_timer.Seconds());

  const WallTimer run_timer;
  cluster.sim().RunFor(warmup);
  for (NodeStats& s : stats) {
    s.measuring = true;
  }
  cluster.sim().RunFor(measure);

  uint64_t completed = 0;
  Histogram latency;
  TraceHash hash;
  for (const NodeStats& s : stats) {
    completed += s.completed;
    latency.Merge(s.latency);
    hash.Mix(s.completed);
  }
  for (int n = 0; n < num_nodes; ++n) {
    const verbs::Device::Stats& d = cluster.device(n).stats();
    hash.Mix(d.tx_msgs).Mix(d.rx_msgs).Mix(d.tx_bytes);
  }
  const double wall_s = run_timer.Seconds();
  const double mops = static_cast<double>(completed) /
                      (static_cast<double>(measure) / 1e9) / 1e6;
  const uint64_t events = cluster.sim().events_processed();
  std::printf("%9s %10s %10s %10s %12s %10s\n", "nodes", "mops", "p50 us",
              "p99 us", "events", "wall s");
  std::printf("%9d %10.1f %10.1f %10.1f %12lu %10.1f\n", num_nodes, mops,
              latency.Median() / 1e3, latency.P99() / 1e3,
              static_cast<unsigned long>(events), wall_s);
  json.Row({{"nodes", num_nodes},
            {"servers", servers},
            {"clients", clients},
            {"worker_threads", clients * threads},
            {"shards", shards},
            {"host_cpus", static_cast<int>(std::thread::hardware_concurrency())},
            {"mops", mops},
            {"p50_ns", latency.Median()},
            {"p99_ns", latency.P99()},
            {"events", events},
            {"completed", completed},
            {"trace_hash", std::to_string(hash.value())},
            {"wall_s", wall_s}});
  return 0;
}

}  // namespace
}  // namespace flock::bench

int main(int argc, char** argv) { return flock::bench::Main(argc, argv); }
