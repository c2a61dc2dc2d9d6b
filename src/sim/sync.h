// Synchronization and queueing primitives for simulation processes.
//
//  * Condition  — waiters suspend until Notify; used for "response arrived",
//    "credit granted", "leadership handed over" style signals.
//  * FifoServer — a single server with a FIFO queue; models any serially
//    occupied resource: a NIC pipeline, a link, a CPU core, a PCIe engine.
//  * Semaphore  — counted FIFO resource; models bounded concurrency such as
//    outstanding PCIe reads.
//  * FifoMutex  — acquire/release lock with FIFO handoff; models the spinlock
//    in the FaRM-like QP-sharing baseline.
//
// Wakeups are batched (see DESIGN.md "Batched event delivery"): notify-style
// primitives queue their waiters on the Simulator and commit them as one
// batch per notify call (one drain event resumes all of them), and a
// FifoServer resumes the served process directly inside its completion event
// when nothing else is pending at the timestamp. Both transformations are
// order-preserving — every coroutine resumes at exactly the queue position a
// one-event-per-wake kernel would have given it — so simulated results are
// unchanged; only the event count (and therefore host wall-clock cost) drops.
// A notifier still never has a waiter run under its feet: waiters run after
// the current event returns.
#ifndef FLOCK_SIM_SYNC_H_
#define FLOCK_SIM_SYNC_H_

#include <coroutine>
#include <deque>
#include <vector>

#include "src/common/logging.h"
#include "src/common/units.h"
#include "src/sim/simulator.h"

namespace flock::sim {

// Single-waiter, single-shot completion event with no internal allocation.
// Used for per-operation state (an outstanding RPC or one-sided op has
// exactly one awaiter): Fire() marks the event done and schedules the waiter
// if one is parked; Wait() after Fire() resumes immediately. Reset() re-arms
// a recycled (pooled) parent object.
class OneShotEvent {
 public:
  bool done() const { return done_; }

  void Reset() {
    done_ = false;
    waiter_ = nullptr;
  }

  class Awaiter {
   public:
    explicit Awaiter(OneShotEvent& event) : event_(event) {}
    bool await_ready() const noexcept { return event_.done_; }
    void await_suspend(std::coroutine_handle<> handle) {
      FLOCK_CHECK(event_.waiter_ == nullptr)
          << "OneShotEvent supports a single waiter";
      event_.waiter_ = handle;
    }
    void await_resume() const noexcept {}

   private:
    OneShotEvent& event_;
  };

  Awaiter Wait() { return Awaiter(*this); }

  void Fire(Simulator& sim) {
    done_ = true;
    if (waiter_) {
      sim.ScheduleWake(waiter_);
      waiter_ = nullptr;
    }
  }

 private:
  bool done_ = false;
  std::coroutine_handle<> waiter_ = nullptr;
};

// Broadcast condition. Wait() suspends until the next Notify*() call.
class Condition {
 public:
  explicit Condition(Simulator& sim) : sim_(sim) {}

  Condition(const Condition&) = delete;
  Condition& operator=(const Condition&) = delete;

  class Awaiter {
   public:
    explicit Awaiter(Condition& cond) : cond_(cond) {}
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> handle) {
      cond_.waiters_.push_back(handle);
    }
    void await_resume() const noexcept {}

   private:
    Condition& cond_;
  };

  Awaiter Wait() { return Awaiter(*this); }

  // Wake coalescing: all waiters are queued as one batch and resumed by a
  // single drain event, so notifying N waiters costs one event instead of N
  // — at exactly the queue positions N individual resume events would have
  // had (their sequence numbers were consecutive). Which waiters wake is
  // still decided here, at notify time — a waiter arriving after NotifyAll()
  // waits for the next notify.
  void NotifyAll() {
    for (auto handle : waiters_) {
      sim_.QueueWake(handle);
    }
    waiters_.clear();
    sim_.CommitWakes();
  }

  void NotifyOne() {
    if (!waiters_.empty()) {
      sim_.ScheduleWake(waiters_.front());
      waiters_.erase(waiters_.begin());
    }
  }

  bool HasWaiters() const { return !waiters_.empty(); }

 private:
  Simulator& sim_;
  std::vector<std::coroutine_handle<>> waiters_;
};

// Single FIFO server: `co_await server.Serve(d)` waits for all earlier
// requests to finish, occupies the server for `d`, then resumes the caller.
//
// Serve(d, /*expedited=*/true) joins a second band drained ahead of the
// normal queue (still FIFO within the band, and never preempting the serve
// in progress). The wire model uses it for single-quantum messages under
// per-packet QP arbitration (CostModel::link_arb_quantum_bytes): on a real
// RNIC a one-packet message transmits after at most the packet in flight,
// not after every queued packet of every bulk train. Callers that never
// expedite get byte-for-byte the old single-queue behavior.
class FifoServer {
 public:
  explicit FifoServer(Simulator& sim) : sim_(sim) {}

  FifoServer(const FifoServer&) = delete;
  FifoServer& operator=(const FifoServer&) = delete;

  class Awaiter {
   public:
    Awaiter(FifoServer& server, Nanos duration, bool expedited)
        : server_(server), duration_(duration), expedited_(expedited) {}
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> handle) {
      server_.Enqueue(handle, duration_, expedited_);
    }
    void await_resume() const noexcept {}

   private:
    FifoServer& server_;
    Nanos duration_;
    bool expedited_;
  };

  Awaiter Serve(Nanos duration, bool expedited = false) {
    return Awaiter(*this, duration, expedited);
  }

  // An idle poller's pass (DESIGN.md §7): occupies the server for `duration`
  // like Serve, and — when the server is otherwise free — parks the caller
  // on the kernel instead of scheduling its completion, so the passes that
  // follow cost no events until something of the node changes. The pass
  // boundary at or after `wake_at` (if >= 0) always runs. The caller's pass
  // must have changed nothing; with `park` false it is a plain Serve.
  class IdleAwaiter {
   public:
    IdleAwaiter(FifoServer& server, Nanos duration, Nanos wake_at, bool park)
        : server_(server), duration_(duration), wake_at_(wake_at), park_(park) {}
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> handle) {
      if (park_) {
        server_.EnqueueIdle(handle, duration_, wake_at_);
      } else {
        server_.Enqueue(handle, duration_, false);
      }
    }
    void await_resume() const noexcept {}

   private:
    FifoServer& server_;
    Nanos duration_;
    Nanos wake_at_;
    bool park_;
  };

  IdleAwaiter ServeIdle(Nanos duration, Nanos wake_at, bool park) {
    return IdleAwaiter(*this, duration, wake_at, park);
  }

  bool busy() const { return busy_; }
  size_t queue_depth() const {
    return static_cast<size_t>(tail_ - head_) +
           static_cast<size_t>(exp_tail_ - exp_head_);
  }
  // Busy time elapsed up to Now(). StartNext books an item's whole duration
  // when its service begins, so a reading taken mid-item subtracts the part
  // not yet served. Like served(), exact whenever no poller is parked, i.e.
  // between runs (every run ends by re-queueing them, skipped passes charged).
  Nanos busy_time() const {
    return busy_ ? busy_time_ - (current_end_ - sim_.Now()) : busy_time_;
  }
  uint64_t served() const { return served_; }

 private:
  struct Item {
    std::coroutine_handle<> handle;
    Nanos duration;
  };

  // The queue is a power-of-two ring: FifoServer sits under every simulated
  // CPU/NIC occupancy, so enqueue/dequeue must not touch the allocator once
  // the ring has grown to the steady-state depth.
  void Enqueue(std::coroutine_handle<> handle, Nanos duration, bool expedited) {
    std::vector<Item>& ring = expedited ? exp_ring_ : ring_;
    uint64_t& head = expedited ? exp_head_ : head_;
    uint64_t& tail = expedited ? exp_tail_ : tail_;
    if (tail - head == ring.size()) {
      GrowRing(ring, head, tail);
    }
    ring[tail & (ring.size() - 1)] = Item{handle, duration < 0 ? 0 : duration};
    ++tail;
    if (!busy_) {
      StartNext();
    }
  }

  static void GrowRing(std::vector<Item>& ring, uint64_t head, uint64_t tail) {
    const size_t old_cap = ring.size();
    const size_t new_cap = old_cap == 0 ? 16 : old_cap * 2;
    std::vector<Item> grown(new_cap);
    for (uint64_t i = head; i != tail; ++i) {
      grown[i & (new_cap - 1)] = ring[i & (old_cap - 1)];
    }
    ring = std::move(grown);
  }

  void StartNext() {
    busy_ = true;
    if (exp_head_ != exp_tail_) {
      current_ = exp_ring_[exp_head_ & (exp_ring_.size() - 1)];
      ++exp_head_;
    } else {
      FLOCK_CHECK(head_ != tail_);
      current_ = ring_[head_ & (ring_.size() - 1)];
      ++head_;
    }
    busy_time_ += current_.duration;
    current_end_ = sim_.Now() + current_.duration;
    sim_.Schedule(current_.duration, &FifoServer::DoneTrampoline, this);
  }

  void EnqueueIdle(std::coroutine_handle<> handle, Nanos duration,
                   Nanos wake_at) {
    if (busy_ || duration <= 0) {
      Enqueue(handle, duration, false);  // behind other work: a plain serve
      return;
    }
    const Nanos now = sim_.Now();
    busy_ = true;
    current_ = Item{handle, duration};
    busy_time_ += duration;
    current_end_ = now + duration;
    // park_ is free: the poller is running, so it is not parked.
    park_.period = duration;
    park_.parked_at = now;
    park_.wake = wake_at < 0 ? -1 : park_.FirstPassAtOrAfter(wake_at);
    park_.handle = handle.address();
    park_.server = this;
    park_.done = &FifoServer::DoneTrampoline;
    park_.settle = &FifoServer::Settle;
    sim_.Park(&park_);
  }

  // The kernel re-queued the parked pass: charge the skipped passes (each a
  // completion plus a new service of the same duration) up to `due`.
  static void Settle(IdlePark* park, Nanos due, bool fired) {
    auto& self = *static_cast<FifoServer*>(park->server);
    const int64_t skipped = (due - park->parked_at) / park->period - 1;
    self.served_ += static_cast<uint64_t>(skipped);
    self.busy_time_ += skipped * park->period;
    self.current_end_ = due;
    if (fired) {
      FLOCK_CHECK(self.head_ == self.tail_ && self.exp_head_ == self.exp_tail_);
      ++self.served_;
      self.busy_ = false;
    }
  }

  static void DoneTrampoline(void* self) {
    static_cast<FifoServer*>(self)->Done();
  }

  void Done() {
    ++served_;
    const std::coroutine_handle<> finished = current_.handle;
    if (head_ != tail_ || exp_head_ != exp_tail_) {
      StartNext();
    } else {
      busy_ = false;
    }
    if (!sim_.SameTimePending()) {
      // Nothing else is queued at this timestamp *for this node*, so a
      // ScheduleResume(0) would make `finished` the very next event of this
      // node anyway: resuming it inline skips the queue round trip without
      // reordering anything. Same-time events of other nodes are causally
      // independent (cross-node influence costs at least the fabric's
      // minimum delay), so the predicate is node-local — which keeps the
      // decision, and the event count, identical across shard counts. (The
      // next service's completion was scheduled above, before user code
      // runs, so a waiter that re-enqueues observes a consistent server.)
      sim_.NoteDirectResume();
      finished.resume();
    } else {
      // Same-time events of this node are pending; an inline resume would
      // run `finished` ahead of them. Keep the order the unbatched kernel
      // had. The resume is still this pass: pushing it re-queues the node's
      // parked pollers only if one has a pass due now (DESIGN.md §7).
      sim_.ScheduleContinuation(finished);
    }
  }

  Simulator& sim_;
  bool busy_ = false;
  Item current_{};
  std::vector<Item> ring_;
  uint64_t head_ = 0;
  uint64_t tail_ = 0;
  std::vector<Item> exp_ring_;  // expedited band; empty unless callers opt in
  uint64_t exp_head_ = 0;
  uint64_t exp_tail_ = 0;
  Nanos busy_time_ = 0;
  Nanos current_end_ = 0;  // completion time of the item in service
  uint64_t served_ = 0;
  IdlePark park_;  // the parked pass, owned by the kernel while parked
};

// Counted FIFO semaphore. Models resources with bounded concurrency.
class Semaphore {
 public:
  Semaphore(Simulator& sim, int64_t permits) : sim_(sim), permits_(permits) {}

  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  class Awaiter {
   public:
    explicit Awaiter(Semaphore& sem) : sem_(sem) {}
    bool await_ready() const noexcept {
      if (sem_.permits_ > 0 && sem_.waiters_.empty()) {
        --sem_.permits_;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> handle) {
      sem_.waiters_.push_back(handle);
    }
    void await_resume() const noexcept {}

   private:
    Semaphore& sem_;
  };

  Awaiter Acquire() { return Awaiter(*this); }

  void Release() {
    if (!waiters_.empty()) {
      // Hand the permit to the oldest waiter, decided now; delivery rides the
      // shared wake drain so a burst of releases costs one event total.
      sim_.ScheduleWake(waiters_.front());
      waiters_.pop_front();
    } else {
      ++permits_;
    }
  }

  int64_t available() const { return permits_; }

 private:
  Simulator& sim_;
  int64_t permits_;
  std::deque<std::coroutine_handle<>> waiters_;
};

// FIFO mutex. The releasing process hands the lock directly to the oldest
// waiter, mirroring the queueing behaviour of a contended spinlock without
// burning simulated CPU in the waiters.
class FifoMutex {
 public:
  explicit FifoMutex(Simulator& sim) : sem_(sim, 1) {}

  Semaphore::Awaiter Acquire() { return sem_.Acquire(); }
  void Release() { sem_.Release(); }

 private:
  Semaphore sem_;
};

}  // namespace flock::sim

#endif  // FLOCK_SIM_SYNC_H_
