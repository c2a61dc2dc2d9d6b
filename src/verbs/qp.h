// Queue pairs.
//
// A Qp owns its send/receive queues and transport-level validation (which
// verbs each transport supports — Table 1 of the paper); the Device drains
// the send queue in order, which preserves the per-QP ordering RC guarantees
// and that Flock's canary scheme depends on.
#ifndef FLOCK_VERBS_QP_H_
#define FLOCK_VERBS_QP_H_

#include "src/common/logging.h"
#include "src/common/pool.h"
#include "src/sim/sync.h"
#include "src/verbs/cq.h"
#include "src/verbs/types.h"

namespace flock::verbs {

class Device;

class Qp {
 public:
  Qp(Device& device, uint32_t qpn, QpType type, Cq* send_cq, Cq* recv_cq)
      : device_(device), qpn_(qpn), type_(type), send_cq_(send_cq), recv_cq_(recv_cq) {}

  Qp(const Qp&) = delete;
  Qp& operator=(const Qp&) = delete;

  uint32_t qpn() const { return qpn_; }
  QpType type() const { return type_; }
  Cq* send_cq() const { return send_cq_; }
  Cq* recv_cq() const { return recv_cq_; }

  // RC/UC: establish the one-to-one connection.
  void ConnectTo(int peer_node, uint32_t peer_qpn) {
    FLOCK_CHECK(type_ != QpType::kUd) << "UD QPs are connectionless";
    peer_node_ = peer_node;
    peer_qpn_ = peer_qpn;
  }

  bool connected() const { return peer_node_ >= 0; }
  int peer_node() const { return peer_node_; }
  uint32_t peer_qpn() const { return peer_qpn_; }

  // A QP in the error state accepts no new work; its queued WRs have been
  // flushed with kFlushError completions (see Device::ErrorQp). Mirrors
  // IBV_QPS_ERR — recovery means Device::ResetQp (the recycling pool's
  // reset→init→RTS shortcut) or recreating the QP.
  bool in_error() const { return in_error_; }

  // Incremented by Device::ResetQp. WRs are stamped with the epoch at post
  // time; the device drops any WR whose stamp no longer matches, so work
  // posted to a previous incarnation can never leak into the next session.
  uint32_t reset_epoch() const { return reset_epoch_; }

  // Validates the WR against the transport's capabilities and enqueues it for
  // the device's send engine. Returns kSuccess if accepted. The *CPU* cost of
  // posting (WQE build + doorbell) is charged by the caller.
  WcStatus PostSend(const SendWr& wr);

  // Batched post: one doorbell, many WRs (the Flock leader's linked WR list).
  // All-or-nothing: every WR is validated before any is enqueued, so a
  // mid-batch error never leaves earlier WRs silently posted. On failure the
  // status of the offending WR is returned and `failed_index` (if non-null)
  // receives its position; the caller may fix or re-stage the whole batch.
  // On success the batch is enqueued in order behind one doorbell kick.
  WcStatus PostSendBatch(const SendWr* wrs, size_t count,
                         size_t* failed_index = nullptr);

  void PostRecv(const RecvWr& wr) { recv_queue_.push_back(wr); }

  size_t send_queue_depth() const { return send_queue_.size(); }
  size_t recv_queue_depth() const { return recv_queue_.size(); }

 private:
  friend class Device;

  WcStatus Validate(const SendWr& wr) const;

  Device& device_;
  const uint32_t qpn_;
  const QpType type_;
  Cq* const send_cq_;
  Cq* const recv_cq_;

  int peer_node_ = -1;
  uint32_t peer_qpn_ = 0;

  // FifoRing, not std::deque: the send queue oscillates around a fixed depth
  // in steady state, and a deque would allocate/free a node each time the
  // queue drifts across a block boundary.
  FifoRing<SendWr> send_queue_;
  FifoRing<RecvWr> recv_queue_;
  // The send engine is a persistent per-QP process: spawned on the first
  // doorbell, it drains the whole run of queued WRs per wakeup and then parks
  // on engine_wake_ (no coroutine frame is built per doorbell).
  bool engine_running_ = false;
  bool engine_spawned_ = false;
  sim::OneShotEvent engine_wake_;
  bool in_error_ = false;
  uint32_t reset_epoch_ = 0;
};

}  // namespace flock::verbs

#endif  // FLOCK_VERBS_QP_H_
