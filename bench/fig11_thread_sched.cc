// Figure 11 — sender-side thread scheduling (§8.3.2).
//
// 23 clients x 32 threads; 10% of threads send large RPCs (512/768/1024 B),
// 90% send 64 B; responses are 64 B. Without sender-side scheduling, 2
// threads share a QP arbitrarily (head-of-line blocking); with it, the
// scheduler groups small-RPC threads together and isolates large payloads.
// Paper result: up to 1.5x throughput with similar latency.
//
// Usage: fig11_thread_sched [--measure_ms=3] [--warmup_ms=2]
#include <cstdio>

#include "bench/bench_util.h"
#include "bench/rpc_bench_lib.h"

int main(int argc, char** argv) {
  using namespace flock::bench;
  Flags flags(argc, argv);
  JsonDump json(flags, "fig11_thread_sched");
  const flock::Nanos warmup = flags.Int("warmup_ms", 2) * flock::kMillisecond;
  const flock::Nanos measure = flags.Int("measure_ms", 3) * flock::kMillisecond;
  flags.Finish();

  PrintBanner("Figure 11: sender-side thread scheduling, 10% large-payload threads");
  std::printf("%12s %16s %16s %10s\n", "large(B)", "without (Mops)", "with (Mops)",
              "speedup");
  for (uint32_t large : {512u, 768u, 1024u}) {
    RpcBenchConfig config;
    config.num_clients = 23;
    config.threads_per_client = 32;
    config.outstanding = 8;
    config.req_bytes = 64;
    config.resp_bytes = 64;
    config.large_thread_fraction = 0.10;
    config.large_req_bytes = large;
    config.warmup = warmup;
    config.measure = measure;
    // Threads share QPs 2:1 so placement matters (the paper's "without"
    // config shares a QP between two threads arbitrarily).
    config.lanes_per_connection = 16;

    config.flock.sender_thread_scheduling = false;
    const RpcBenchResult off = RunFlockRpc(config);
    config.flock.sender_thread_scheduling = true;
    const RpcBenchResult on = RunFlockRpc(config);

    std::printf("%12u %16.1f %16.1f %10.2f\n", large, off.mops, on.mops,
                off.mops > 0 ? on.mops / off.mops : 0.0);
    json.Row({{"large_threads", large},
              {"sched_off_mops", off.mops},
              {"sched_on_mops", on.mops}});
    std::fflush(stdout);
  }
  return 0;
}
