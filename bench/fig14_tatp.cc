// Figure 14 — TATP over FlockTX vs the FaSST-like baseline (§8.5.2).
//
// Read-intensive OLTP (80% reads); 20 clients, 3 servers, 3-way replication,
// 19 submitting coroutines per thread. Paper result: FaSST saturates at ~4
// threads with sharply rising latency; FlockTX keeps scaling (≈1.9x / 2.4x at
// 8 / 16 threads) and FaSST suffers packet loss at high thread counts.
//
// Subscribers are scaled to 1M total (paper: 1M/server). KV
// access cost in the simulator is size-independent, but OCC *contention* is
// not — the default keeps hot-key conflict rates low, as in the paper.
//
// Usage: fig14_tatp [--measure_ms=3] [--warmup_ms=2] [--subscribers=30000]
#include <cstdio>

#include "bench/bench_util.h"
#include "bench/txn_bench_lib.h"
#include "src/workloads/tatp.h"

int main(int argc, char** argv) {
  using namespace flock::bench;
  Flags flags(argc, argv);
  JsonDump json(flags, "fig14_tatp");
  const uint64_t subscribers =
      static_cast<uint64_t>(flags.Int("subscribers", 1000000));
  const flock::Nanos warmup = flags.Int("warmup_ms", 2) * flock::kMillisecond;
  const flock::Nanos measure = flags.Int("measure_ms", 3) * flock::kMillisecond;
  flags.Finish();
  flock::workloads::Tatp tatp(subscribers);

  PrintBanner("Figure 14: TATP, 20 clients + 3 servers, 3-way replication");
  std::printf("%8s | %11s %9s %9s %7s | %11s %9s %9s %7s\n", "thr/cli",
              "FLockTX Mtps", "p50(us)", "p99(us)", "abrt%", "FaSST Mtps",
              "p50(us)", "p99(us)", "lost");
  for (int threads : {1, 2, 4, 8, 16}) {
    TxnBenchConfig config;
    config.threads_per_client = threads;
    config.keys_per_partition = subscribers * 4;
    config.warmup = warmup;
    config.measure = measure;
    config.populate = [&](const std::function<void(uint64_t)>& insert) {
      tatp.Populate(insert);
    };
    config.next = [&tatp](flock::Rng& rng) { return tatp.Next(rng); };

    std::fprintf(stderr, "[fig14] threads=%d flocktx...\n", threads);
    config.system = TxnSystem::kFlockTx;
    const TxnBenchResult fl = RunTxnBench(config);
    std::fprintf(stderr, "[fig14] threads=%d flocktx-lock...\n", threads);
    config.mode = flock::txn::TxMode::kLockOneSided;
    const TxnBenchResult lk = RunTxnBench(config);
    config.mode = flock::txn::TxMode::kOcc;
    std::fprintf(stderr, "[fig14] threads=%d fasst...\n", threads);
    config.system = TxnSystem::kFasst;
    const TxnBenchResult ud = RunTxnBench(config);

    const double fl_abort =
        fl.committed == 0
            ? 0.0
            : 100.0 * static_cast<double>(fl.aborts) /
                  static_cast<double>(fl.aborts + fl.committed);
    std::printf("%8d | %11.2f %9.1f %9.1f %6.1f%% | %11.2f %9.1f %9.1f %7lu\n",
                threads, fl.mtps, fl.p50_ns / 1e3, fl.p99_ns / 1e3, fl_abort,
                ud.mtps, ud.p50_ns / 1e3, ud.p99_ns / 1e3,
                static_cast<unsigned long>(ud.failed));
    json.Row({{"threads", threads}, {"system", "flocktx"}, {"mtps", fl.mtps},
              {"p50_ns", fl.p50_ns}, {"p99_ns", fl.p99_ns}, {"aborts", fl.aborts}});
    json.Row({{"threads", threads}, {"system", "flocktx_lock"}, {"mtps", lk.mtps},
              {"p50_ns", lk.p50_ns}, {"p99_ns", lk.p99_ns}, {"aborts", lk.aborts}});
    json.Row({{"threads", threads}, {"system", "fasst"}, {"mtps", ud.mtps},
              {"p50_ns", ud.p50_ns}, {"p99_ns", ud.p99_ns}, {"failed", ud.failed}});
    std::fflush(stdout);
  }
  return 0;
}
