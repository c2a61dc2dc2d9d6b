// Deterministic fault injection for the simulated verbs stack (§7).
//
// Faults are scheduled in *simulated* time, so a seeded schedule reproduces
// the exact same failure interleaving run after run. Supported faults:
//
//   * QP kill — the QP transitions to the error state: queued WRs and posted
//     receives flush as kFlushError completions, in-flight WRs complete with
//     kFlushError, later posts are rejected with kQpError, and peers writing
//     to the dead QP see kRemoteInvalidQp (the observable outcome of RC
//     transport-retry exhaustion on real hardware).
//   * Transient send errors — the next N work requests leaving (node, qpn)
//     are dropped on the wire and complete with an injected status
//     (kRnrError / kRemoteAccessError), modeling recoverable transport noise.
//   * Node pause / kill — the node's NIC stops serving TX and RX (pause), or
//     additionally errors every QP on the node (kill).
//
// The injector is consulted from the device data path only through
// `armed()` / `Qp::in_error()` — plain bool loads, no extra simulation
// events — so a run that never arms a fault executes the bit-identical event
// sequence of a build without fault support (the reference-trace guarantee).
#ifndef FLOCK_VERBS_FAULT_H_
#define FLOCK_VERBS_FAULT_H_

#include <cstdint>
#include <vector>

#include "src/common/units.h"
#include "src/sim/simulator.h"
#include "src/verbs/types.h"

namespace flock::verbs {

class Cluster;

class FaultInjector {
 public:
  struct Stats {
    uint64_t qp_kills = 0;
    uint64_t injected_errors = 0;
    uint64_t node_pauses = 0;
    uint64_t node_kills = 0;
  };

  explicit FaultInjector(Cluster& cluster) : cluster_(cluster) {}

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // True once any fault has been requested (scheduled or immediate).
  bool armed() const { return armed_; }

  // ---- immediate actions ----
  void KillQp(int node, uint32_t qpn);
  // Errors every QP on the node and pauses it for good: QPs created or reset
  // there later start in error too (Device::MarkKilled).
  void KillNode(int node);
  void PauseNode(int node);
  void ResumeNode(int node);
  void InjectSendErrors(int node, uint32_t qpn, WcStatus status, uint32_t count);

  // ---- scheduled actions (`at` is absolute simulated time) ----
  void KillQpAt(Nanos at, int node, uint32_t qpn);
  void KillNodeAt(Nanos at, int node);
  void PauseNodeAt(Nanos at, int node, Nanos duration);
  void InjectSendErrorsAt(Nanos at, int node, uint32_t qpn, WcStatus status,
                          uint32_t count);

  // Device hook, called once per delivered WR (only while armed): returns the
  // status the transport should report, consuming one pending injected error
  // for (node, qpn) if any. A non-success return means the WR never reaches
  // the peer.
  WcStatus FilterSendStatus(int node, uint32_t qpn, WcStatus status);

  const Stats& stats() const { return stats_; }

 private:
  struct PendingError {
    int node = -1;
    uint32_t qpn = 0;
    WcStatus status = WcStatus::kSuccess;
    uint32_t remaining = 0;
  };

  // Marks the injector armed; checks the simulation is single-shard (fault
  // actions mutate foreign-node state without paying the fabric delay).
  void Arm();

  Nanos DelayUntil(Nanos at) const;
  sim::Proc DelayedKillQp(Nanos at, int node, uint32_t qpn);
  sim::Proc DelayedKillNode(Nanos at, int node);
  sim::Proc DelayedPauseNode(Nanos at, int node, Nanos duration);
  sim::Proc DelayedInjectSendErrors(Nanos at, int node, uint32_t qpn,
                                    WcStatus status, uint32_t count);

  Cluster& cluster_;
  bool armed_ = false;
  std::vector<PendingError> pending_errors_;
  Stats stats_;
};

}  // namespace flock::verbs

#endif  // FLOCK_VERBS_FAULT_H_
