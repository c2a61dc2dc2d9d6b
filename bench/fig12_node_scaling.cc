// Figure 12 — node scalability (§8.4).
//
// Client *processes* scale from 23 to 368 (spawned across the 23 client
// nodes, up to 16 per node), against one server. Three configurations:
//   * 1 thr / 1 QP   — single-thread processes: no coalescing is possible
//                      (Flock's worst case; throughput rides the packet rate);
//   * 2 thr / 1 QP   — two threads share one lane (Flock sharing);
//   * 2 thr / 2 QPs  — two threads, dedicated lanes (native-RC-style).
// Paper result: 2thr/1QP beats 2thr/2QPs by 10–30% in throughput with
// similar p99 reductions — fewer QPs, better performance.
//
// Usage: fig12_node_scaling [--measure_ms=3] [--warmup_ms=2] [--shards=1]
//        [--workers=0]
//
// --shards runs the simulation kernel sharded (wall-clock only: the trace,
// and therefore every reported number, is bit-identical at any shard count);
// at the paper's full 24-node scale this is what makes the figure complete
// in minutes on a multi-core host.
#include <cstdio>

#include "bench/bench_util.h"
#include "bench/rpc_bench_lib.h"

int main(int argc, char** argv) {
  using namespace flock::bench;
  Flags flags(argc, argv);
  JsonDump json(flags, "fig12_node_scaling");
  const flock::Nanos warmup = flags.Int("warmup_ms", 2) * flock::kMillisecond;
  const flock::Nanos measure = flags.Int("measure_ms", 3) * flock::kMillisecond;
  const int shards = static_cast<int>(flags.Int("shards", 1));
  const int workers = static_cast<int>(flags.Int("workers", 0));
  flags.Finish();

  PrintBanner("Figure 12: node scalability, 64B RPC, 8 outstanding");
  std::printf("%9s | %17s | %17s | %17s\n", "#clients", "1thr/1QP  p50/p99",
              "2thr/1QP  p50/p99", "2thr/2QP  p50/p99");
  for (int clients : {23, 46, 92, 184, 368}) {
    const int processes_per_node = clients / 23;
    RpcBenchConfig config;
    config.num_clients = 23;
    config.processes_per_client = processes_per_node;
    config.outstanding = 8;
    config.req_bytes = 64;
    config.resp_bytes = 64;
    config.warmup = warmup;
    config.measure = measure;
    config.num_shards = shards;
    config.num_workers = workers;

    config.threads_per_client = 1;
    config.lanes_per_connection = 1;
    const RpcBenchResult one_one = RunFlockRpc(config);

    config.threads_per_client = 2;
    config.lanes_per_connection = 1;
    const RpcBenchResult two_one = RunFlockRpc(config);

    config.lanes_per_connection = 2;
    const RpcBenchResult two_two = RunFlockRpc(config);

    std::printf(
        "%9d | %6.1fM %4.0f/%4.0fus | %6.1fM %4.0f/%4.0fus | %6.1fM %4.0f/%4.0fus\n",
        clients, one_one.mops, one_one.p50_ns / 1e3, one_one.p99_ns / 1e3,
        two_one.mops, two_one.p50_ns / 1e3, two_one.p99_ns / 1e3, two_two.mops,
        two_two.p50_ns / 1e3, two_two.p99_ns / 1e3);
    json.Row({{"clients", clients}, {"mode", "1t1q"}, {"mops", one_one.mops},
              {"p50_ns", one_one.p50_ns}, {"p99_ns", one_one.p99_ns}});
    json.Row({{"clients", clients}, {"mode", "2t1q"}, {"mops", two_one.mops},
              {"p50_ns", two_one.p50_ns}, {"p99_ns", two_one.p99_ns}});
    json.Row({{"clients", clients}, {"mode", "2t2q"}, {"mops", two_two.mops},
              {"p50_ns", two_two.p50_ns}, {"p99_ns", two_two.p99_ns}});
    std::fflush(stdout);
  }
  return 0;
}
