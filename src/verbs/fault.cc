#include "src/verbs/fault.h"

#include "src/verbs/device.h"

namespace flock::verbs {

void FaultInjector::Arm() {
  // Fault injection mutates foreign-node state (QP kills, NIC pauses,
  // sender-side error filtering at the receiver) without paying the fabric
  // delay, which would race across shards. The fault benches and tests run
  // the sequential (one-shard) kernel, where this is sound.
  FLOCK_CHECK_EQ(cluster_.sim().num_shards(), 1)
      << "fault injection requires a single-shard simulation";
  armed_ = true;
}

void FaultInjector::KillQp(int node, uint32_t qpn) {
  Arm();
  // The flush completions land in the node's CQs: its parked pollers must
  // see them (DESIGN.md §7).
  cluster_.sim().TouchNode(node);
  Device& dev = cluster_.device(node);
  Qp* qp = dev.FindQp(qpn);
  if (qp != nullptr && !qp->in_error()) {
    dev.ErrorQp(*qp);
    stats_.qp_kills += 1;
  }
}

void FaultInjector::KillNode(int node) {
  Arm();
  cluster_.sim().TouchNode(node);  // see KillQp
  Device& dev = cluster_.device(node);
  dev.MarkKilled();
  for (uint32_t qpn = 1;; ++qpn) {
    Qp* qp = dev.FindQp(qpn);
    if (qp == nullptr) {
      break;
    }
    if (!qp->in_error()) {
      dev.ErrorQp(*qp);
      stats_.qp_kills += 1;
    }
  }
  dev.Pause();
  stats_.node_kills += 1;
}

void FaultInjector::PauseNode(int node) {
  Arm();
  cluster_.device(node).Pause();
  stats_.node_pauses += 1;
}

void FaultInjector::ResumeNode(int node) { cluster_.device(node).Resume(); }

void FaultInjector::InjectSendErrors(int node, uint32_t qpn, WcStatus status,
                                     uint32_t count) {
  FLOCK_CHECK(status != WcStatus::kSuccess);
  if (count == 0) {
    return;
  }
  Arm();
  pending_errors_.push_back(PendingError{node, qpn, status, count});
}

WcStatus FaultInjector::FilterSendStatus(int node, uint32_t qpn, WcStatus status) {
  if (status != WcStatus::kSuccess || pending_errors_.empty()) {
    return status;
  }
  for (size_t i = 0; i < pending_errors_.size(); ++i) {
    PendingError& pe = pending_errors_[i];
    if (pe.node == node && pe.qpn == qpn) {
      const WcStatus injected = pe.status;
      if (--pe.remaining == 0) {
        pending_errors_.erase(pending_errors_.begin() +
                              static_cast<ptrdiff_t>(i));
      }
      stats_.injected_errors += 1;
      return injected;
    }
  }
  return status;
}

Nanos FaultInjector::DelayUntil(Nanos at) const {
  const Nanos now = cluster_.sim().Now();
  return at > now ? at - now : 0;
}

void FaultInjector::KillQpAt(Nanos at, int node, uint32_t qpn) {
  Arm();
  cluster_.sim().Spawn(DelayedKillQp(at, node, qpn));
}

void FaultInjector::KillNodeAt(Nanos at, int node) {
  Arm();
  cluster_.sim().Spawn(DelayedKillNode(at, node));
}

void FaultInjector::PauseNodeAt(Nanos at, int node, Nanos duration) {
  Arm();
  cluster_.sim().Spawn(DelayedPauseNode(at, node, duration));
}

void FaultInjector::InjectSendErrorsAt(Nanos at, int node, uint32_t qpn,
                                       WcStatus status, uint32_t count) {
  Arm();
  cluster_.sim().Spawn(DelayedInjectSendErrors(at, node, qpn, status, count));
}

sim::Proc FaultInjector::DelayedKillQp(Nanos at, int node, uint32_t qpn) {
  co_await sim::Delay(cluster_.sim(), DelayUntil(at));
  KillQp(node, qpn);
}

sim::Proc FaultInjector::DelayedKillNode(Nanos at, int node) {
  co_await sim::Delay(cluster_.sim(), DelayUntil(at));
  KillNode(node);
}

sim::Proc FaultInjector::DelayedPauseNode(Nanos at, int node, Nanos duration) {
  co_await sim::Delay(cluster_.sim(), DelayUntil(at));
  PauseNode(node);
  co_await sim::Delay(cluster_.sim(), duration);
  ResumeNode(node);
}

sim::Proc FaultInjector::DelayedInjectSendErrors(Nanos at, int node, uint32_t qpn,
                                                 WcStatus status, uint32_t count) {
  co_await sim::Delay(cluster_.sim(), DelayUntil(at));
  InjectSendErrors(node, qpn, status, count);
}

}  // namespace flock::verbs
