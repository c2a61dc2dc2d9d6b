// Figure 15 — Smallbank over FlockTX vs the FaSST-like baseline (§8.5.2).
//
// Write-intensive (85% of transactions update keys; every write replicates
// 3-way), 4% of accounts receive 90% of accesses. Paper result: similar up to
// 2 threads; FlockTX up to 24% / 88% faster at 4 / 8 threads; FaSST loses
// packets at 16 threads.
//
// Accounts are scaled down 2x from the paper's 100k/thread: the 4%-hot/90%
// skew and the coordinator-to-hot-account ratio (what sets conflict rates)
// are preserved.
//
// Usage: fig15_smallbank [--measure_ms=3] [--warmup_ms=2] [--accounts_per_thread=5000]
#include <cstdio>

#include "bench/bench_util.h"
#include "bench/txn_bench_lib.h"
#include "src/workloads/smallbank.h"

int main(int argc, char** argv) {
  using namespace flock::bench;
  Flags flags(argc, argv);
  JsonDump json(flags, "fig15_smallbank");
  const uint64_t accounts_per_thread =
      static_cast<uint64_t>(flags.Int("accounts_per_thread", 50000));
  const flock::Nanos warmup = flags.Int("warmup_ms", 2) * flock::kMillisecond;
  const flock::Nanos measure = flags.Int("measure_ms", 3) * flock::kMillisecond;
  flags.Finish();

  PrintBanner("Figure 15: Smallbank, 20 clients + 3 servers, 3-way replication");
  std::printf("%8s | %11s %9s %9s %7s | %11s %9s %9s %7s\n", "thr/cli",
              "FLockTX Mtps", "p50(us)", "p99(us)", "abrt%", "FaSST Mtps",
              "p50(us)", "p99(us)", "lost");
  for (int threads : {1, 2, 4, 8, 16}) {
    const uint64_t accounts = accounts_per_thread * static_cast<uint64_t>(threads);
    flock::workloads::Smallbank bank(accounts);

    TxnBenchConfig config;
    config.threads_per_client = threads;
    config.keys_per_partition = accounts * 2;
    config.value_size = 16;
    config.warmup = warmup;
    config.measure = measure;
    config.populate = [&](const std::function<void(uint64_t)>& insert) {
      bank.Populate(insert);
    };
    config.next = [&bank](flock::Rng& rng) { return bank.Next(rng); };

    config.system = TxnSystem::kFlockTx;
    const TxnBenchResult fl = RunTxnBench(config);
    config.mode = flock::txn::TxMode::kLockOneSided;
    const TxnBenchResult lk = RunTxnBench(config);
    config.mode = flock::txn::TxMode::kOcc;
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
