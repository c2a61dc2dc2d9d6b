// Ring-write helpers shared by every RPC stack in this repo (flock, udrpc,
// rcrpc): the CQ poll batch, the selective-signaling interval and the WR
// builder that lands one message in a peer's ring. The stacks post and poll
// through verbs::Qp / verbs::Cq directly.
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

}  // namespace flock

#endif  // FLOCK_FLOCK_TRANSPORT_H_
