// Figure 2 — the motivation experiment (§2.2).
//
//   (a) 16 B RDMA READs over RC from 22 client nodes into one server while
//       sweeping the total QP count: throughput peaks in the hundreds of QPs
//       and collapses once the server RNIC's connection cache thrashes.
//   (b) 16 B RPCs over UD while sweeping the number of senders: connection
//       state stays tiny, but the server's CPU (receive recycling, CQ
//       polling, per-packet software) saturates throughput with high remote
//       CPU utilization.
//
// Usage: fig2_qp_scaling [--measure_ms=3] [--warmup_ms=1]
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "bench/rpc_bench_lib.h"
#include "src/verbs/device.h"

namespace flock::bench {
namespace {

struct ReadShared {
  bool measuring = false;
  uint64_t completed = 0;
};

// One driver per QP: keeps `outstanding` 16 B READs in flight.
sim::Proc ReadDriver(verbs::Cluster& cluster, verbs::Qp* qp, verbs::Cq* cq,
                     uint64_t local_buf, uint64_t remote_addr, uint32_t rkey,
                     sim::Core& core, int outstanding, ReadShared* shared) {
  const sim::CostModel& cost = cluster.cost();
  auto post = [&](int i) {
    verbs::SendWr wr;
    wr.opcode = verbs::Opcode::kRead;
    wr.local_addr = local_buf + static_cast<uint64_t>(i) * 16;
    wr.length = 16;
    wr.remote_addr = remote_addr;
    wr.rkey = rkey;
    wr.signaled = true;
    FLOCK_CHECK(qp->PostSend(wr) == verbs::WcStatus::kSuccess);
  };
  co_await core.Work(static_cast<Nanos>(outstanding) * cost.cpu_wqe_prep +
                     cost.cpu_mmio_doorbell);
  for (int i = 0; i < outstanding; ++i) {
    post(i);
  }
  Nanos backoff = cost.cpu_cq_poll_empty;
  for (;;) {
    verbs::Completion wc;
    int done = 0;
    while (cq->Poll(&wc)) {
      ++done;
    }
    if (done > 0) {
      if (shared->measuring) {
        shared->completed += static_cast<uint64_t>(done);
      }
      co_await core.Work(static_cast<Nanos>(done) *
                             (cluster.cost().cpu_cqe_handle + cluster.cost().cpu_wqe_prep) +
                         cluster.cost().cpu_mmio_doorbell);
      for (int i = 0; i < done; ++i) {
        post(i);
      }
      backoff = cost.cpu_cq_poll_empty;
    } else {
      co_await core.Work(backoff);
      backoff = std::min<Nanos>(backoff * 2, 1000);
    }
  }
}

double RunRcReadPoint(int total_qps, Nanos warmup, Nanos measure, double* miss_ratio) {
  constexpr int kClients = 22;
  verbs::Cluster cluster(
      verbs::Cluster::Config{.num_nodes = 1 + kClients, .cores_per_node = 32});
  // One registered region on the server, all reads target it.
  const uint64_t region = cluster.mem(0).Alloc(4096);
  verbs::Cq* server_scq = cluster.device(0).CreateCq();
  verbs::Cq* server_rcq = cluster.device(0).CreateCq();
  verbs::Mr mr = cluster.device(0).RegisterMr(region, 4096);

  ReadShared shared;
  const int qps_per_client = std::max(1, total_qps / kClients);
  for (int c = 0; c < kClients; ++c) {
    const int node = 1 + c;
    for (int q = 0; q < qps_per_client; ++q) {
      verbs::Cq* scq = cluster.device(node).CreateCq();
      verbs::Cq* rcq = cluster.device(node).CreateCq();
      auto [cqp, sqp] = cluster.ConnectRc(node, scq, rcq, 0, server_scq, server_rcq);
      const uint64_t buf = cluster.mem(node).Alloc(16 * 8);
      cluster.sim().Spawn(ReadDriver(cluster, cqp, scq, buf, region, mr.rkey,
                                     cluster.cpu(node).core(q), /*outstanding=*/8,
                                     &shared));
    }
  }

  cluster.sim().RunFor(warmup);
  cluster.device(0).qp_cache().ResetStats();
  shared.measuring = true;
  cluster.sim().RunFor(measure);
  shared.measuring = false;
  *miss_ratio = cluster.device(0).qp_cache().MissRatio();
  return static_cast<double>(shared.completed) /
         (static_cast<double>(measure) / 1e9) / 1e6;
}

}  // namespace
}  // namespace flock::bench

int main(int argc, char** argv) {
  using namespace flock::bench;
  Flags flags(argc, argv);
  JsonDump json(flags, "fig2_qp_scaling");
  const flock::Nanos warmup = flags.Int("warmup_ms", 1) * flock::kMillisecond;
  const flock::Nanos measure = flags.Int("measure_ms", 3) * flock::kMillisecond;
  flags.Finish();

  PrintBanner("Figure 2(a): RDMA READ (RC) throughput vs #QPs, 22 clients, 16B");
  std::printf("%8s %12s %12s\n", "#QPs", "Mops/s", "cache-miss%");
  for (int qps : {22, 44, 88, 176, 352, 704, 1408, 2816}) {
    double miss = 0;
    const double mops = RunRcReadPoint(qps, warmup, measure, &miss);
    std::printf("%8d %12.1f %12.1f\n", qps, mops, miss * 100.0);
    json.Row({{"figure", "2a"}, {"qps", qps}, {"mops", mops}, {"miss_ratio", miss}});
  }

  PrintBanner("Figure 2(b): UD RPC throughput vs #senders, 22 clients, 16B");
  std::printf("%8s %12s %12s %12s\n", "#senders", "Mops/s", "srvCPU%", "timeouts");
  for (int senders : {22, 44, 88, 176, 352, 704, 1408, 2816}) {
    RpcBenchConfig config;
    config.num_clients = 22;
    config.threads_per_client = std::max(1, senders / 22);
    config.outstanding = 4;
    config.req_bytes = 16;
    config.resp_bytes = 16;
    config.handler_cpu = 20;
    config.ud_recv_pool = 256;  // no session flow control in the raw UD probe
    config.warmup = warmup;
    config.measure = measure;
    const RpcBenchResult result = RunUdRpc(config);
    std::printf("%8d %12.1f %12.1f %12lu\n", senders, result.mops,
                result.server_cpu * 100.0, static_cast<unsigned long>(result.timeouts));
    json.Row({{"figure", "2b"},
              {"senders", senders},
              {"mops", result.mops},
              {"server_cpu", result.server_cpu},
              {"timeouts", result.timeouts}});
  }
  return 0;
}
