// Application-facing primitives shared by every RPC stack: registered
// threads, RPC handlers, and the awaitable handles for outstanding RPCs and
// one-sided memory operations. This is the bottom of the flock module stack —
// it knows nothing about lanes, scheduling or the runtime.
#ifndef FLOCK_FLOCK_THREAD_H_
#define FLOCK_FLOCK_THREAD_H_

#include <cstdint>
#include <functional>

#include "src/common/pool.h"
#include "src/common/rand.h"
#include "src/common/stats.h"
#include "src/common/units.h"
#include "src/sim/cpu.h"
#include "src/sim/sync.h"
#include "src/verbs/types.h"

namespace flock {

// An RPC handler runs on a server dispatcher core: consume `req`, produce a
// response in `resp` (capacity `resp_cap`), return its length, and report the
// application CPU it consumed via `cpu_cost` (simulated time).
using RpcHandler = std::function<uint32_t(const uint8_t* req, uint32_t req_len,
                                          uint8_t* resp, uint32_t resp_cap,
                                          Nanos* cpu_cost)>;

// A registered application thread. Threads are pinned to a simulated core and
// carry the per-thread state the paper's schedulers consume.
class FlockThread {
 public:
  FlockThread(int node, uint16_t id, sim::Core* core, uint64_t seed)
      : node_(node), id_(id), core_(core), rng_(seed) {}

  int node() const { return node_; }
  uint16_t id() const { return id_; }
  sim::Core& core() { return *core_; }
  Rng& rng() { return rng_; }

  uint32_t NextSeq() { return next_seq_++; }

  // Statistics for sender-side thread scheduling (§5.2, Algorithm 1).
  WindowedMedian<uint32_t, 32> req_size_median;
  IntervalCounter reqs_sent;
  IntervalCounter bytes_sent;
  int outstanding = 0;
  // 8-byte landing slot for atomic results (allocated by CreateThread).
  uint64_t atomic_slot = 0;

 private:
  int node_;
  uint16_t id_;
  sim::Core* core_;
  Rng rng_;
  uint32_t next_seq_ = 1;
};

// An outstanding RPC awaiting its response. Allocated from the client
// runtime's object pool (release with Connection::FreeRpc); the response
// payload stays inline for payloads up to SmallBuf's capacity, so a
// steady-state small RPC touches no general-purpose allocator.
struct PendingRpc {
  sim::OneShotEvent done_event;
  bool ok = true;
  uint16_t rpc_id = 0;
  uint32_t seq = 0;
  uint16_t thread_id = 0;
  Nanos submitted_at = 0;
  Nanos completed_at = 0;
  SmallBuf<128> response;

  // Scatter-gather path (DESIGN.md §16): optional caller-owned response
  // destination. When set, the dispatcher writes response bytes straight
  // into it (no SmallBuf heap block for MB responses) and records the final
  // length in response_len; a response longer than response_cap lands
  // clamped and fails the RPC. Segmented responses additionally track the
  // accumulation cursor and the lane the current chunk train arrives on, so
  // a duplicate train from a pre-retry incarnation on another lane is
  // ignored rather than interleaved.
  uint8_t* response_dst = nullptr;
  uint32_t response_cap = 0;
  uint32_t response_len = 0;
  uint32_t resp_assembled = 0;
  const void* resp_src = nullptr;

  // Failure handling: the retained request payload for retransmission, the
  // retry deadline, the lane currently accounting this RPC's in-flight slot,
  // and the number of retries attempted so far.
  SmallBuf<128> request;
  Nanos deadline = 0;
  uint32_t lane_index = 0;
  uint16_t retries = 0;

  bool done() const { return done_event.done(); }
};

// An outstanding one-sided memory/atomic operation. Lives in the submitting
// coroutine's frame; `next` links it into the lane's combining queue.
struct PendingMemOp {
  sim::OneShotEvent done_event;
  verbs::WcStatus status = verbs::WcStatus::kSuccess;
  verbs::SendWr wr;  // staged work request (leader links and posts, §6)
  sim::Core* owner_core = nullptr;
  PendingMemOp* next = nullptr;
};

// Remote memory region attached for one-sided operations (fl_attach_mreg).
struct RemoteMr {
  uint64_t addr = 0;
  uint64_t length = 0;
  uint32_t rkey = 0;
};

}  // namespace flock

#endif  // FLOCK_FLOCK_THREAD_H_
