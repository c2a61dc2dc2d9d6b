// Figures 6, 7, 8 — Flock vs eRPC-like UD RPC (§8.2).
//
// One server, 23 clients, 64 B request/response. Sweeps the number of
// application threads per client {1..48} for outstanding requests per thread
// {1, 4, 8}, reporting throughput (Fig. 6), median latency (Fig. 7) and 99th
// percentile latency (Fig. 8). Paper result: comparable at low thread
// counts; eRPC saturates at ~16 threads on server CPU; Flock scales via QP
// sharing + coalescing, 1.25–3.4x higher throughput.
//
// Usage: fig6_flock_vs_erpc [--measure_ms=3] [--warmup_ms=2] [--max_aqp=256]
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "bench/rpc_bench_lib.h"

int main(int argc, char** argv) {
  using namespace flock::bench;
  Flags flags(argc, argv);
  JsonDump json(flags, "fig6_flock_vs_erpc");
  const flock::Nanos warmup = flags.Int("warmup_ms", 2) * flock::kMillisecond;
  const flock::Nanos measure = flags.Int("measure_ms", 3) * flock::kMillisecond;
  const uint32_t max_aqp = static_cast<uint32_t>(flags.Int("max_aqp", 256));
  flags.Finish();

  const std::vector<int> thread_counts = {1, 2, 4, 8, 16, 32, 48};
  const std::vector<int> outstanding_levels = {1, 4, 8};

  for (int outstanding : outstanding_levels) {
    std::printf("\n==== Figs 6/7/8 (outstanding = %d): 23 clients, 64B RPC ====\n",
                outstanding);
    std::printf("%8s | %10s %9s %9s %7s %6s | %10s %9s %9s %9s\n", "thr/cli",
                "FLock Mops", "p50(us)", "p99(us)", "coal", "AQPs", "eRPC Mops",
                "p50(us)", "p99(us)", "lost");
    for (int threads : thread_counts) {
      RpcBenchConfig config;
      config.num_clients = 23;
      config.threads_per_client = threads;
      config.outstanding = outstanding;
      config.req_bytes = 64;
      config.resp_bytes = 64;
      config.warmup = warmup;
      config.measure = measure;
      config.flock.max_active_qps = max_aqp;

      const RpcBenchResult fl = RunFlockRpc(config);
      const RpcBenchResult ud = RunUdRpc(config);

      std::printf("%8d | %10.1f %9.1f %9.1f %7.2f %6u | %10.1f %9.1f %9.1f %9lu\n",
                  threads, fl.mops, fl.p50_ns / 1e3, fl.p99_ns / 1e3, fl.coalescing,
                  fl.active_qps, ud.mops, ud.p50_ns / 1e3, ud.p99_ns / 1e3,
                  static_cast<unsigned long>(ud.timeouts));
      json.Row({{"outstanding", outstanding},
                {"threads", threads},
                {"system", "flock"},
                {"mops", fl.mops},
                {"p50_ns", fl.p50_ns},
                {"p99_ns", fl.p99_ns},
                {"coalescing", fl.coalescing},
                {"active_qps", fl.active_qps}});
      json.Row({{"outstanding", outstanding},
                {"threads", threads},
                {"system", "erpc"},
                {"mops", ud.mops},
                {"p50_ns", ud.p50_ns},
                {"p99_ns", ud.p99_ns},
                {"server_cpu", ud.server_cpu},
                {"timeouts", ud.timeouts}});
      std::fflush(stdout);
    }
  }
  return 0;
}
