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

#include "src/flock/ring.h"
#include "src/flock/wire.h"
#include "src/verbs/device.h"

namespace flock {

// Completions drained per ibv_poll_cq-style call: dispatcher and scheduler
// passes pull CQEs in batches of this size (stack array) instead of one Poll
// per completion. Matches the num_entries real dataplanes pass to poll_cq.
inline constexpr size_t kCqPollBatch = 32;

// Selective signaling (§7): one CQE per this many posted data-path writes.
inline constexpr uint64_t kSignalInterval = 16;

// Appends the RDMA writes that land one message in the peer's ring (§4.1):
// the wrap marker first when `resv` wrapped (encoded into the staging mirror
// here), then the message of `msg_len` bytes already encoded at resv.offset,
// signaled once per kSignalInterval posts on the lane. Both WRs carry
// `wr_id`. `Lane` is any ring-producer lane: it needs staging, staging_addr,
// remote_ring_addr, remote_ring_rkey and posts.
template <typename Lane>
void AppendRingWrite(Lane& lane, const RingProducer::Reservation& resv,
                     uint32_t msg_len, uint64_t canary, uint64_t wr_id,
                     verbs::SendWr* wrs, size_t* nwrs) {
  verbs::SendWr wr;
  wr.wr_id = wr_id;
  wr.opcode = verbs::Opcode::kWrite;
  wr.rkey = lane.remote_ring_rkey;
  if (resv.wrapped) {
    wire::EncodeWrapMarker(lane.staging + resv.marker_offset, canary);
    wr.local_addr = lane.staging_addr + resv.marker_offset;
    wr.length = wire::kWrapMarkerBytes;
    wr.remote_addr = lane.remote_ring_addr + resv.marker_offset;
    wr.signaled = false;
    wrs[(*nwrs)++] = wr;
  }
  wr.local_addr = lane.staging_addr + resv.offset;
  wr.length = msg_len;
  wr.remote_addr = lane.remote_ring_addr + resv.offset;
  lane.posts += 1;
  wr.signaled = (lane.posts % kSignalInterval) == 0;
  wrs[(*nwrs)++] = wr;
}

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
