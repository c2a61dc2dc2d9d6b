// Flock synchronization: thread combining (§4.2).
//
// Two layers live here. CombiningQueue is the MCS-style lock-free queue in
// which the thread at the head becomes the *leader* and combines the requests
// of the *followers* queued behind it (bounded, to guarantee leader
// progress), then hands leadership to the first follower it did not include.
// It is written with real std::atomic operations and is exercised by
// genuinely multithreaded stress tests (tests/combining_threads_test.cc).
//
// Inside the discrete-event simulation the same protocol is driven by
// coroutines (a single OS thread), with its synchronization *costs* charged
// from the CostModel: StageRpc enqueues onto a lane's intrusive combining
// queue, and the per-lane Pump plays the transient leader — copy-completion
// polling, message sealing, posting, and leadership handoff. The memop pump
// is the §6 equivalent for one-sided operations.
#ifndef FLOCK_FLOCK_COMBINE_H_
#define FLOCK_FLOCK_COMBINE_H_

#include <atomic>
#include <cstdint>

#include "src/common/logging.h"
#include "src/flock/lane.h"
#include "src/flock/thread.h"
#include "src/sim/task.h"

namespace flock {

class CombiningQueue {
 public:
  enum Status : uint32_t {
    kWaiting = 0,  // enqueued; leader has not processed it yet
    kLeader = 1,   // promoted: this thread must run the leader protocol
    kDone = 2,     // a leader combined and submitted this request
  };

  // One node per (thread, queue); reusable after completion.
  struct Node {
    std::atomic<Node*> next{nullptr};
    std::atomic<uint32_t> status{kWaiting};
    // Opaque request descriptor the leader combines (payload pointer, length,
    // sequence id... — whatever the embedding protocol needs).
    uint64_t payload = 0;

    void Reset() {
      next.store(nullptr, std::memory_order_relaxed);
      status.store(kWaiting, std::memory_order_relaxed);
    }
  };

  CombiningQueue() = default;
  CombiningQueue(const CombiningQueue&) = delete;
  CombiningQueue& operator=(const CombiningQueue&) = delete;

  // Enqueues `node` with a single atomic swap (the MCS step). Returns true if
  // the caller is the leader; false if it must WaitTurn().
  bool Enqueue(Node* node) {
    node->Reset();
    Node* prev = tail_.exchange(node, std::memory_order_acq_rel);
    if (prev == nullptr) {
      return true;
    }
    prev->next.store(node, std::memory_order_release);
    return false;
  }

  // Follower: spins until a leader processed this node (kDone) or promoted it
  // to leader (kLeader). Returns the terminal status.
  uint32_t WaitTurn(const Node* node) const {
    uint32_t status;
    while ((status = node->status.load(std::memory_order_acquire)) == kWaiting) {
#if defined(__x86_64__)
      __builtin_ia32_pause();
#endif
    }
    return status;
  }

  // Leader: gathers itself plus up to bound-1 queued followers, in order.
  // Returns the batch size (>= 1). `out[0]` is always `leader`.
  size_t Collect(Node* leader, Node** out, size_t bound) {
    FLOCK_CHECK_GE(bound, 1u);
    out[0] = leader;
    size_t n = 1;
    Node* current = leader;
    while (n < bound) {
      Node* next = current->next.load(std::memory_order_acquire);
      if (next == nullptr) {
        if (tail_.load(std::memory_order_acquire) == current) {
          break;  // genuinely the last node
        }
        // A successor swapped the tail but has not linked yet; it will.
        do {
          next = current->next.load(std::memory_order_acquire);
        } while (next == nullptr);
      }
      out[n++] = next;
      current = next;
    }
    return n;
  }

  // Leader: after submitting the combined batch, retires the batch nodes and
  // hands leadership to the first non-included follower (if any).
  void Finish(Node** batch, size_t n) {
    Node* last = batch[n - 1];
    Node* next = last->next.load(std::memory_order_acquire);
    if (next == nullptr) {
      Node* expected = last;
      if (tail_.compare_exchange_strong(expected, nullptr, std::memory_order_acq_rel)) {
        // Queue emptied.
        for (size_t i = 1; i < n; ++i) {
          batch[i]->status.store(kDone, std::memory_order_release);
        }
        return;
      }
      // Lost the race with an enqueuer: wait for its link.
      do {
        next = last->next.load(std::memory_order_acquire);
      } while (next == nullptr);
    }
    next->status.store(kLeader, std::memory_order_release);
    for (size_t i = 1; i < n; ++i) {
      batch[i]->status.store(kDone, std::memory_order_release);
    }
  }

  bool Empty() const { return tail_.load(std::memory_order_acquire) == nullptr; }

 private:
  std::atomic<Node*> tail_{nullptr};
};

namespace internal {

// fl_send_rpc staging: allocates the RPC handle, stages its request on the
// thread's lane as a chunk train (one TCQ enqueue per chunk, §4.2) and
// returns once the message carrying the last chunk is on the wire — the
// leader gathers the payload straight from the caller's slices into the
// staging ring (DESIGN.md §16). A request at or below
// FlockConfig::segment_threshold is a one-chunk train. `response_dst` /
// `response_cap`, when non-null, give the dispatcher a caller-owned buffer
// to land the response in (mandatory for responses too large for the
// inline SmallBuf to stay allocation-free); a longer response fails the
// RPC. Lazily-started Co: the public Connection::SendRpc forwards here
// without adding a coroutine frame.
sim::Co<PendingRpc*> StageRpc(ClientConnState& conn, FlockThread& thread,
                              uint16_t rpc_id, PayloadRef payload,
                              uint8_t* response_dst = nullptr,
                              uint32_t response_cap = 0);

// The one place an RPC gets its outcome (DESIGN.md §8): sets ok, counts a
// failure in ClientStats::failed_rpcs, stamps completed_at and fires
// done_event. With `ok`, the response assembled so far is the result: its
// length goes to response_len, and a response longer than a caller-owned
// response_cap fails the RPC. Aborts if `rpc` was already resolved.
// Callers take the RPC off the pending map and its thread's and lane's
// in-flight counts.
void ResolveRpc(ClientConnState& conn, PendingRpc* rpc, bool ok);

// The one chunk builder (DESIGN.md §16): makes the PendingSend for `chunk`
// of `rpc`'s request, appends it to `lane`'s combining queue and wakes the
// lane's pump; the leader's work is charged to `core`. `payload` holds the
// chunk's bytes. StageRpc gathers from them in place and raises `copied`
// after its copy work. With `retain` — a watchdog restage, whose source may
// be freed while the chunk is queued — the bytes are copied into the send's
// own buffer and the chunk is staged already copied.
PendingSend* StageChunk(ClientConnState& conn, ClientLane& lane,
                        const PendingRpc& rpc, sim::Core& core,
                        const wire::ChunkTrain& chunk, PayloadRef payload,
                        bool retain);

// Starts pumping `lane` if it is not already being pumped: first use spawns
// the persistent pump proc, later uses wake it from its parked state.
void WakePump(ClientConnState& conn, ClientLane& lane);

// The per-lane transient leader (§4.2): admits queued requests up to the
// combining bound, polls copy-completion flags, seals and posts the combined
// message, then releases the followers.
sim::Proc Pump(ClientConnState& conn, ClientLane& lane);

// One-sided operation staging (§6): links the WR into the lane's memop queue
// and awaits its completion event; the memop pump posts the chain.
sim::Co<verbs::WcStatus> SubmitMemOp(ClientConnState& conn, FlockThread& thread,
                                     verbs::SendWr wr);

// Leader for one-sided batches: links queued WRs and rings one doorbell.
sim::Proc MemPump(ClientConnState& conn, ClientLane& lane);

}  // namespace internal
}  // namespace flock

#endif  // FLOCK_FLOCK_COMBINE_H_
