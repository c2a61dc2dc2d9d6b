// Figure 9 — QP-sharing approaches compared (§8.3.1).
//
// 23 clients, 64 B request/response, 8 outstanding per thread, all server
// cores handling requests. Four configurations:
//   * Flock      — Flock-synchronization-based sharing with QP scheduling;
//   * no sharing — dedicated QP per thread (two-RDMA-write RPC);
//   * FaRM 2/QP  — 2 threads share a QP under a spinlock;
//   * FaRM 4/QP  — 4 threads share a QP under a spinlock.
// Paper result: identical up to 8 threads; Flock >= 62% / 133% faster at
// 32 / 48 threads with 27% / 49% lower p99; lock sharing tracks no-sharing.
//
// Usage: fig9_sharing_modes [--measure_ms=3] [--warmup_ms=2]
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "bench/rpc_bench_lib.h"

int main(int argc, char** argv) {
  using namespace flock::bench;
  Flags flags(argc, argv);
  JsonDump json(flags, "fig9_sharing_modes");
  const flock::Nanos warmup = flags.Int("warmup_ms", 2) * flock::kMillisecond;
  const flock::Nanos measure = flags.Int("measure_ms", 3) * flock::kMillisecond;
  flags.Finish();

  PrintBanner("Figure 9: RPC throughput under QP sharing approaches (Mops/s)");
  std::printf("%8s %10s %12s %12s %12s | %12s %12s\n", "thr/cli", "FLock",
              "no-sharing", "FaRM 2t/QP", "FaRM 4t/QP", "FLock p99us",
              "no-shr p99us");
  for (int threads : {1, 2, 4, 8, 16, 32, 48}) {
    RpcBenchConfig config;
    config.num_clients = 23;
    config.threads_per_client = threads;
    config.outstanding = 8;
    config.req_bytes = 64;
    config.resp_bytes = 64;
    config.warmup = warmup;
    config.measure = measure;

    const RpcBenchResult fl = RunFlockRpc(config);

    config.threads_per_qp = 1;
    const RpcBenchResult none = RunRcRpc(config);
    config.threads_per_qp = 2;
    const RpcBenchResult farm2 = RunRcRpc(config);
    config.threads_per_qp = 4;
    const RpcBenchResult farm4 = RunRcRpc(config);

    std::printf("%8d %10.1f %12.1f %12.1f %12.1f | %12.1f %12.1f\n", threads,
                fl.mops, none.mops, farm2.mops, farm4.mops, fl.p99_ns / 1e3,
                none.p99_ns / 1e3);
    json.Row({{"threads", threads},
              {"flock_mops", fl.mops},
              {"no_sharing_mops", none.mops},
              {"farm2_mops", farm2.mops},
              {"farm4_mops", farm4.mops},
              {"flock_p99_ns", fl.p99_ns},
              {"no_sharing_p99_ns", none.p99_ns}});
    std::fflush(stdout);
  }
  return 0;
}
