// Figure 10 — impact of coalescing (§8.3.1).
//
// 23 clients x 32 threads, 64 B RPCs; Flock with and without coalescing for
// 1/4/8 outstanding requests per thread. Paper result: coalescing delivers
// 1.4x / 1.7x / 1.7x with ~1.56 / ~1.7 / ~2.0 requests per message.
//
// Also sweeps the leader's combining bound (an ablation of the
// leader-progress bound design choice in §4.2).
//
// Usage: fig10_coalescing [--measure_ms=3] [--warmup_ms=2] [--bound_sweep=1]
#include <cstdio>

#include "bench/bench_util.h"
#include "bench/rpc_bench_lib.h"

int main(int argc, char** argv) {
  using namespace flock::bench;
  Flags flags(argc, argv);
  JsonDump json(flags, "fig10_coalescing");
  const flock::Nanos warmup = flags.Int("warmup_ms", 2) * flock::kMillisecond;
  const flock::Nanos measure = flags.Int("measure_ms", 3) * flock::kMillisecond;
  const bool bound_sweep = flags.Bool("bound_sweep", true);
  flags.Finish();

  PrintBanner("Figure 10: coalescing impact, 23 clients x 32 threads, 64B");
  std::printf("%12s %14s %14s %10s %10s\n", "outstanding", "no-coal Mops",
              "coal Mops", "speedup", "reqs/msg");
  for (int outstanding : {1, 4, 8}) {
    RpcBenchConfig config;
    config.num_clients = 23;
    config.threads_per_client = 32;
    config.outstanding = outstanding;
    config.warmup = warmup;
    config.measure = measure;

    config.flock.coalescing = false;
    const RpcBenchResult off = RunFlockRpc(config);
    config.flock.coalescing = true;
    const RpcBenchResult on = RunFlockRpc(config);

    std::printf("%12d %14.1f %14.1f %10.2f %10.2f\n", outstanding, off.mops, on.mops,
                off.mops > 0 ? on.mops / off.mops : 0.0, on.coalescing);
    json.Row({{"sweep", "coalescing"},
              {"outstanding", outstanding},
              {"off_mops", off.mops},
              {"on_mops", on.mops},
              {"coalescing", on.coalescing}});
    std::fflush(stdout);
  }

  if (bound_sweep) {
    PrintBanner("Ablation: leader combining bound (outstanding=8)");
    std::printf("%8s %10s %10s\n", "bound", "Mops", "reqs/msg");
    for (uint32_t bound : {1u, 2u, 4u, 8u, 16u, 32u}) {
      RpcBenchConfig config;
      config.num_clients = 23;
      config.threads_per_client = 32;
      config.outstanding = 8;
      config.warmup = warmup;
      config.measure = measure;
      config.flock.max_coalesce = bound;
      const RpcBenchResult result = RunFlockRpc(config);
      std::printf("%8u %10.1f %10.2f\n", bound, result.mops, result.coalescing);
      json.Row({{"sweep", "bound"},
                {"bound", bound},
                {"mops", result.mops},
                {"coalescing", result.coalescing}});
      std::fflush(stdout);
    }
  }
  return 0;
}
