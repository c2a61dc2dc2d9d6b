// Table 1 — RDMA operations and MTU sizes supported by each transport type.
//
// Probes the simulated verbs layer the way an application would: posting each
// verb on each transport and reporting whether the transport accepts it, plus
// the effective MTU behaviour (RC segments large payloads; UD rejects
// payloads beyond MTU - GRH).
#include <cstdio>

#include "bench/bench_util.h"
#include "src/verbs/device.h"

int main(int argc, char** argv) {
  using namespace flock;
  using namespace flock::verbs;
  bench::Flags flags(argc, argv);
  bench::JsonDump json(flags, "table1_transport_matrix");
  flags.Finish();
  bench::PrintBanner("Table 1: verbs / MTU capability matrix per transport");

  Cluster cluster(Cluster::Config{.num_nodes = 2});
  Cq* scq = cluster.device(0).CreateCq();
  Cq* rcq = cluster.device(0).CreateCq();
  Cq* pscq = cluster.device(1).CreateCq();
  Cq* prcq = cluster.device(1).CreateCq();

  auto [rc, rc_peer] = cluster.ConnectRc(0, scq, rcq, 1, pscq, prcq);
  Qp* uc = cluster.device(0).CreateQp(QpType::kUc, scq, rcq);
  Qp* uc_peer = cluster.device(1).CreateQp(QpType::kUc, pscq, prcq);
  uc->ConnectTo(1, uc_peer->qpn());
  Qp* ud = cluster.device(0).CreateQp(QpType::kUd, scq, rcq);
  Qp* ud_peer = cluster.device(1).CreateQp(QpType::kUd, pscq, prcq);

  const uint64_t buf = cluster.mem(0).Alloc(8192);
  const uint64_t rbuf = cluster.mem(1).Alloc(8192);
  Mr mr = cluster.device(1).RegisterMr(rbuf, 8192);

  auto probe = [&](Qp* qp, Opcode op) -> bool {
    SendWr wr;
    wr.opcode = op;
    wr.local_addr = buf;
    wr.length = 8;
    wr.remote_addr = rbuf;
    wr.rkey = mr.rkey;
    wr.dest_node = 1;
    wr.dest_qpn = ud_peer->qpn();
    return qp->PostSend(wr) == WcStatus::kSuccess;
  };
  auto mtu_probe = [&](Qp* qp, uint32_t len) -> bool {
    SendWr wr;
    wr.opcode = Opcode::kSend;
    wr.local_addr = buf;
    wr.length = len;
    wr.dest_node = 1;
    wr.dest_qpn = ud_peer->qpn();
    return qp->PostSend(wr) == WcStatus::kSuccess;
  };

  std::printf("%-10s %6s %8s %7s %10s %12s\n", "transport", "read", "atomic",
              "write", "send/recv", "payload>4KB");
  struct Row {
    const char* name;
    Qp* qp;
  } rows[] = {{"RC", rc}, {"UC", uc}, {"UD", ud}};
  for (const Row& row : rows) {
    const bool can_read = probe(row.qp, Opcode::kRead);
    const bool can_atomic =
        probe(row.qp, Opcode::kFetchAdd) && probe(row.qp, Opcode::kCmpSwap);
    const bool can_write = probe(row.qp, Opcode::kWrite);
    const bool can_send = probe(row.qp, Opcode::kSend);
    const bool big_payload = mtu_probe(row.qp, 8000);
    std::printf("%-10s %6s %8s %7s %10s %12s\n", row.name, can_read ? "yes" : "no",
                can_atomic ? "yes" : "no", can_write ? "yes" : "no",
                can_send ? "yes" : "no", big_payload ? "yes (2GB)" : "no (4KB)");
    json.Row({{"transport", row.name},
              {"read", can_read},
              {"atomic", can_atomic},
              {"write", can_write},
              {"send_recv", can_send},
              {"large_payload", big_payload}});
  }
  std::printf(
      "\nRC retransmits in hardware; UC/UD leave loss to software, and UD\n"
      "requires fragmentation + reassembly above %u-byte datagrams.\n",
      cluster.cost().mtu_bytes - 40);
  return 0;
}
