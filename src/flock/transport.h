// The transport seam: the narrow post/poll surface every RPC stack in this
// repo (flock, udrpc, rcrpc) drives its QPs and CQs through.
//
// The mechanism modules above (combine, sched, dispatch, lane) never touch
// verbs::Qp / verbs::Cq directly for data-path work — they go through a
// TransportOps*, so a future real-ibverbs backend slots in underneath without
// touching any of them. The simulated verbs layer implements the interface as
// plain forwarders; dispatch is host-side only and leaves the event trace of
// a simulation untouched.
#ifndef FLOCK_FLOCK_TRANSPORT_H_
#define FLOCK_FLOCK_TRANSPORT_H_

#include <cstddef>
#include <cstdint>

#include "src/verbs/device.h"

namespace flock {

// Completions drained per ibv_poll_cq-style call: dispatcher and scheduler
// passes pull CQEs in batches of this size (stack array) instead of one Poll
// per completion. Matches the num_entries real dataplanes pass to poll_cq.
inline constexpr size_t kCqPollBatch = 32;

// Selective signaling (§7): one CQE per this many posted data-path writes.
inline constexpr uint64_t kSignalInterval = 16;

class TransportOps {
 public:
  virtual ~TransportOps() = default;

  // Posts one WR (rings one doorbell). The CPU cost of the WQE build and the
  // doorbell is charged by the caller, exactly as with ibv_post_send.
  virtual verbs::WcStatus Post(verbs::Qp& qp, const verbs::SendWr& wr) = 0;

  // Batched post: many WRs, one doorbell (a linked WR list). All-or-nothing;
  // see verbs::Qp::PostSendBatch for the failure contract.
  virtual verbs::WcStatus PostBatch(verbs::Qp& qp, const verbs::SendWr* wrs,
                                    size_t count) = 0;

  // Replenishes the receive queue.
  virtual void PostRecv(verbs::Qp& qp, const verbs::RecvWr& wr) = 0;

  // Vectorized CQE drain: pops up to `max` completions, returns the count.
  // CPU cost is charged by the caller, typically once per batch.
  virtual size_t PollBatch(verbs::Cq& cq, verbs::Completion* out,
                           size_t max) = 0;
};

// The simulated verbs backend: forwards straight to Qp/Cq.
class SimTransport final : public TransportOps {
 public:
  verbs::WcStatus Post(verbs::Qp& qp, const verbs::SendWr& wr) override {
    return qp.PostSend(wr);
  }
  verbs::WcStatus PostBatch(verbs::Qp& qp, const verbs::SendWr* wrs,
                            size_t count) override {
    return qp.PostSendBatch(wrs, count);
  }
  void PostRecv(verbs::Qp& qp, const verbs::RecvWr& wr) override {
    qp.PostRecv(wr);
  }
  size_t PollBatch(verbs::Cq& cq, verbs::Completion* out, size_t max) override {
    return cq.PollBatch(out, max);
  }
};

// The process-wide simulated backend instance. Stateless, so one is enough
// for every runtime on every simulated node.
TransportOps& SimTransportInstance();

}  // namespace flock

#endif  // FLOCK_FLOCK_TRANSPORT_H_
