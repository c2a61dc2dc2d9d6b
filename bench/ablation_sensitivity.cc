// Cost-model sensitivity ablation (beyond the paper's figures).
//
// The reproduction's claims are about *shapes*: Flock beats the UD baseline
// at high fan-in, and RC collapses past the NIC cache capacity. This bench
// perturbs the two most load-bearing calibrated constants — the NIC
// connection-cache capacity and the PCIe fetch latency — by 2x in both
// directions and re-runs the headline comparison (23 clients x 32 threads,
// outstanding 8). The *who-wins* conclusion must hold at every point; only
// knee positions may move.
//
// Usage: ablation_sensitivity [--measure_ms=2] [--warmup_ms=2]
#include <cstdio>

#include "bench/bench_util.h"
#include "bench/rpc_bench_lib.h"

int main(int argc, char** argv) {
  using namespace flock::bench;
  Flags flags(argc, argv);
  JsonDump json(flags, "ablation_sensitivity");
  const flock::Nanos warmup = flags.Int("warmup_ms", 2) * flock::kMillisecond;
  const flock::Nanos measure = flags.Int("measure_ms", 2) * flock::kMillisecond;
  flags.Finish();

  PrintBanner("Sensitivity: Flock vs eRPC at 23x32 threads under model perturbation");
  std::printf("%12s %12s | %10s %10s %8s\n", "cache(QPs)", "pcie(ns)", "FLock Mops",
              "eRPC Mops", "ratio");
  for (uint32_t cache : {384u, 768u, 1536u}) {
    for (flock::Nanos pcie : {450, 900, 1800}) {
      RpcBenchConfig config;
      config.num_clients = 23;
      config.threads_per_client = 32;
      config.outstanding = 8;
      config.warmup = warmup;
      config.measure = measure;
      flock::sim::CostModel cost;
      cost.nic_qp_cache_entries = cache;
      cost.nic_pcie_fetch = pcie;
      // Both worlds share the perturbed model via the cluster config.
      // (RunFlockRpc/RunUdRpc construct their own clusters; pass through.)
      config.cost = cost;

      const RpcBenchResult fl = RunFlockRpc(config);
      const RpcBenchResult ud = RunUdRpc(config);
      std::printf("%12u %12ld | %10.1f %10.1f %8.2f %s\n", cache,
                  static_cast<long>(pcie), fl.mops, ud.mops,
                  ud.mops > 0 ? fl.mops / ud.mops : 0.0,
                  fl.mops > ud.mops ? "" : "  <-- CONCLUSION FLIPPED");
      json.Row({{"qp_cache", cache}, {"pcie_fetch_ns", static_cast<int64_t>(pcie)},
                {"flock_mops", fl.mops}, {"erpc_mops", ud.mops}});
      std::fflush(stdout);
    }
  }
  return 0;
}
