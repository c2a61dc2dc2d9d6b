// Discrete-event simulation kernel, shardable across OS threads.
//
// The Simulator owns a virtual clock and an event queue ordered by
// (time, insertion sequence); equal-time events fire in FIFO order, which
// makes every run bit-for-bit deterministic. An event is either a coroutine
// resumption or a raw (function pointer, argument) callback — the latter is
// used by resource models (FIFO servers) that do not want a coroutine frame
// per service completion.
//
// ---- Sharding (DESIGN.md §12) ----
//
// Every event belongs to a simulated *node*, and ConfigureSharding() groups
// nodes into shards. Each shard owns a complete private queue (now-FIFO,
// calendar, overflow heap), its own sequence counter, live-process list,
// per-source-node hop counters and kernel counters, so a shard executes a
// time window without touching any other shard's state. Windows are
// `lookahead` wide — the fabric's minimum cross-node delay — so a cross-node
// hop (ScheduleOnNode) sent inside window [T, T+W) can only land in a later
// window: intra-window execution is embarrassingly parallel, no null
// messages needed. There is no coordinator: each pool worker (the calling
// thread is worker 0) runs the same window loop over its own shards, meets
// the others at one spin barrier per window to agree on the next window
// start, and merges its own shards' per-(src,dst) mailboxes, which alternate
// by window parity. Merge order is the deterministic key (arrival time,
// source node, per-source hop sequence), which does not depend on the shard
// count — the same seed produces bit-identical traces on 1, 2, 4 or 8
// shards, and shards==1 *is* the sequential kernel. The pool has
// min(shards, hardware threads) workers; its size affects wall-clock only,
// never the trace.
//
// A Simulator without ConfigureSharding() (kernel unit tests, microbenches)
// runs exactly one shard with no window loop and no threads.
//
// Internally each shard queue is a calendar queue tuned for this workload
// (almost all delays are 0 ns or small CPU/NIC costs, with a thin tail of
// scheduler timers), rather than a binary heap:
//
//   * now-FIFO   — a drain vector of events at exactly the current time.
//     Zero-delay scheduling (condition notifies, symmetric transfers) is one
//     append; dequeue is one index increment. The FIFO holds events of a
//     single timestamp at a time, so FIFO order *is* (time, seq) order.
//   * calendar   — kNumBuckets one-nanosecond buckets covering the near
//     future. One bucket ⇔ one timestamp, and sequence numbers are assigned
//     monotonically, so append order inside a bucket is already seq order:
//     refill walks the bucket's list into the now-FIFO. Buckets are singly
//     linked lists threaded through one shared node pool, so the only growth
//     high-water mark is the *total* number of in-calendar events — once the
//     workload's peak is seen, pushes never allocate again. An occupancy
//     bitmap finds the next non-empty bucket with a few word scans.
//   * overflow heap — events beyond the calendar horizon (rare: periodic
//     scheduler timers) wait in a std::priority_queue and are merged by
//     (time, seq) with calendar batches at refill.
//
// See DESIGN.md "Simulator internals & performance" and bench/perf_smoke.cc
// for the measured effect.
//
// All simulated activity lives in Proc coroutines spawned on the Simulator.
// Live processes are tracked on an intrusive doubly-linked list threaded
// through their promises (one list per shard). Shutdown() (also run by the
// destructor) destroys every still-suspended process frame, so a bench can
// simply stop simulating mid-workload without draining in-flight operations.
//
// ---- Idle-pass parking (DESIGN.md §7) ----
//
// A busy-polling proc whose pass found nothing awaits Core::Idle instead of
// Core::Work. Its passes then stop being events: the shard records the
// poller as *parked* (IdlePark) and its passes continue virtually at
// parked_at + k * period. Before anything could change what a pass of the
// node sees, the node's parked pollers are re-queued at their next pass
// boundary, in the order the unparked kernel would have queued them, with
// the skipped passes charged to the core (DESIGN.md §7 lists the triggers;
// enum Unpark the positions). Every decision is node-local, so event counts
// stay shard-invariant.
#ifndef FLOCK_SIM_SIMULATOR_H_
#define FLOCK_SIM_SIMULATOR_H_

#include <algorithm>
#include <atomic>
#include <bit>
#include <coroutine>
#include <cstdint>
#include <memory>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/common/units.h"
#include "src/sim/task.h"

namespace flock::sim {

// One parked poller: its pass boundaries are parked_at + k * period, k >= 1.
// Embedded in the FifoServer of the poller's core, which fills the handles;
// the kernel owns it from Simulator::Park until the re-queue.
struct IdlePark {
  Nanos period = 0;     // cost of one idle pass
  Nanos parked_at = 0;  // instant of the pass that parked
  Nanos wake = -1;      // boundary whose pass must run, or -1
  uint64_t order = 0;   // park order on the shard (same-instant parks)
  int32_t node = 0;
  void* handle = nullptr;  // the poller's coroutine frame
  void* server = nullptr;  // completion event: done(server)
  void (*done)(void*) = nullptr;
  // Brings the server's counters to the re-queue point: passes before `due`
  // completed; `fired` = the completion at `due` (== now) completed too and
  // only the pass itself is pending.
  void (*settle)(IdlePark*, Nanos due, bool fired) = nullptr;

  Nanos FirstPassAtOrAfter(Nanos t) const {
    const Nanos first = parked_at + period;
    return t <= first ? first
                      : parked_at + (t - parked_at + period - 1) / period * period;
  }
  bool PassAt(Nanos t) const {
    return t > parked_at && (t - parked_at) % period == 0;
  }
};

class Simulator {
 public:
  // Spawn()/ScheduleOnNode() sentinel: tag with the node of the event that is
  // currently executing (node 0 outside event execution).
  static constexpr int kInheritNode = -1;
  static constexpr int kMaxShards = 64;

  Simulator() { shards_.push_back(std::make_unique<Shard>(this, 0, 1)); }
  ~Simulator() { Shutdown(); }

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // ---- sharding configuration ----
  //
  // Partitions nodes into `num_shards` queues (`node_shard[n]` = shard of
  // node n) advancing in windows of `lookahead` ns — the minimum delay of any
  // cross-node hop. Must be called before any event is scheduled. The worker
  // pool holds min(num_shards, hardware threads) OS threads unless
  // `num_workers` overrides it; the pool size never affects the trace.
  void ConfigureSharding(int num_shards, const std::vector<int>& node_shard,
                         Nanos lookahead, int num_workers = 0) {
    FLOCK_CHECK_GT(num_shards, 0);
    FLOCK_CHECK_LE(num_shards, kMaxShards);
    FLOCK_CHECK_GT(lookahead, 0) << "conservative lookahead must be positive";
    FLOCK_CHECK(events_processed() == 0 && live_proc_count() == 0 && Idle() &&
                Now() == 0)
        << "ConfigureSharding must run before any simulated activity";
    for (const int s : node_shard) {
      FLOCK_CHECK(s >= 0 && s < num_shards) << "bad shard id " << s;
    }
    node_shard_.assign(node_shard.begin(), node_shard.end());
    lookahead_ = lookahead;
    windowed_ = true;
    shards_.clear();
    for (int i = 0; i < num_shards; ++i) {
      shards_.push_back(std::make_unique<Shard>(this, i, num_shards));
      shards_.back()->hop_seq_.assign(node_shard.size(), 0);
    }
    const int hw = static_cast<int>(std::thread::hardware_concurrency());
    num_workers_ = num_workers > 0 ? num_workers
                                   : std::min(num_shards, std::max(1, hw));
    num_workers_ = std::min(num_workers_, num_shards);
    slots_ = std::make_unique<BarrierSlot[]>(static_cast<size_t>(num_workers_));
  }

  int num_shards() const { return static_cast<int>(shards_.size()); }
  int num_workers() const { return num_workers_; }
  Nanos lookahead() const { return lookahead_; }

  Nanos Now() const {
    const Shard* s = RunningShard();
    return s != nullptr ? s->now_ : shards_[0]->now_;
  }

  // Transfers ownership of the process frame to the simulator and schedules
  // its first resumption at the current time, homed on `node`'s shard. A
  // process spawned while an event is executing must home on the executing
  // shard (cross-shard injection mid-window would race; route it through a
  // hop instead).
  void Spawn(Proc&& proc, int node = kInheritNode) {
    Proc::Handle handle = proc.Release();
    FLOCK_CHECK(handle);
    Shard* cur = RunningShard();
    if (node == kInheritNode) {
      node = cur != nullptr ? cur->current_node_ : 0;
    }
    Shard& home = ShardOfNode(node);
    if (cur != nullptr) {
      FLOCK_CHECK(&home == cur) << "cross-shard Spawn mid-run (node " << node
                                << " lives on shard " << home.index_
                                << ", executing node " << cur->current_node_
                                << " on shard " << cur->index_ << " at t="
                                << cur->now_ << ")";
    }
    internal::ProcPromise& promise = handle.promise();
    promise.sim = this;
    promise.home_shard = home.index_;
    promise.live_prev = nullptr;
    promise.live_next = home.live_head_;
    if (home.live_head_ != nullptr) {
      home.live_head_->live_prev = &promise;
    }
    home.live_head_ = &promise;
    ++home.live_count_;
    home.PushNew(0, handle.address(), nullptr, static_cast<int32_t>(node));
  }

  // Schedules `handle` to be resumed `delay` from now, on the current node.
  void ScheduleResume(Nanos delay, std::coroutine_handle<> handle) {
    FLOCK_CHECK_GE(delay, 0);
    Shard& s = CurrentShard();
    s.PushNew(delay, handle.address(), nullptr, s.current_node_);
  }

  // Schedules `handle` to resume now, behind the events already queued, as
  // the continuation of the executing event: the resume of a parked pass's
  // completion is still that pass, so it leaves the node's other parked
  // pollers parked unless one has a pass due now (FifoServer::Done).
  void ScheduleContinuation(std::coroutine_handle<> handle) {
    Shard& s = CurrentShard();
    s.PushNew(0, handle.address(), nullptr, s.current_node_,
              s.cur_meta_ & kPassBit);
  }

  // Schedules `fn(arg)` to run `delay` from now, on the current node.
  void Schedule(Nanos delay, void (*fn)(void*), void* arg) {
    FLOCK_CHECK_GE(delay, 0);
    FLOCK_CHECK(fn != nullptr);
    Shard& s = CurrentShard();
    s.PushNew(delay, arg, fn, s.current_node_);
  }

  // Schedules `handle` to resume `delay` from now on `node` — the only way an
  // event crosses nodes (and therefore shards). Under sharding the delay must
  // be at least the configured lookahead (the fabric guarantees this: every
  // cross-node interaction pays at least the minimum wire delay), and the
  // handle travels through the per-(src,dst) mailbox of this window's parity,
  // which the destination shard's worker merges after the window barrier.
  // Merge key (arrival, src node, per-src hop seq) makes the destination
  // ordering independent of the shard count.
  void ScheduleOnNode(int node, Nanos delay, std::coroutine_handle<> handle) {
    FLOCK_CHECK_GE(delay, 0);
    Shard* cur = RunningShard();
    if (!windowed_) {
      Shard& s = cur != nullptr ? *cur : *shards_[0];
      s.PushNew(delay, handle.address(), nullptr, static_cast<int32_t>(node));
      return;
    }
    FLOCK_CHECK(cur != nullptr) << "cross-node hop outside event execution";
    FLOCK_CHECK_LT(static_cast<size_t>(node), node_shard_.size());
    FLOCK_CHECK_GE(delay, lookahead_)
        << "cross-node hop below the conservative lookahead";
    const int32_t src = cur->current_node_;
    const Nanos at = cur->now_ + delay;
    const auto dst = static_cast<size_t>(node_shard_[static_cast<size_t>(node)]);
    uint64_t& hop_seq = cur->hop_seq_[static_cast<size_t>(src)];
    cur->hop_out_[cur->parity_][dst].push_back(
        HopEntry{at, hop_seq++, src, static_cast<int32_t>(node), handle.address()});
    cur->earliest_hop_ = EarlierOf(cur->earliest_hop_, at);
  }

  // Runs events until all queues drain. Returns the number of events run.
  // (A parked poller polls forever, like an unparked one: with pollers alive
  // a windowed Run() never returns.)
  uint64_t Run() {
    const uint64_t n = RunLoop(-1);
    UnparkAll();
    return n;
  }

  // Runs events with time <= deadline; the clock lands on `deadline` even if
  // queues still have later events. Parked pollers go back into the queues,
  // so between runs every core's counters are exact and code may mutate
  // simulated state freely.
  uint64_t RunUntil(Nanos deadline) {
    const uint64_t n = RunLoop(deadline);
    for (auto& s : shards_) {
      if (s->now_ < deadline) {
        s->now_ = deadline;
      }
    }
    UnparkAll();
    return n;
  }

  uint64_t RunFor(Nanos duration) { return RunUntil(Now() + duration); }

  bool Idle() const {
    for (const auto& s : shards_) {
      if (s->size_ != 0) {
        return false;
      }
    }
    return true;
  }

  uint64_t events_processed() const { return Sum(&Shard::events_processed_); }
  size_t live_proc_count() const {
    size_t n = 0;
    for (const auto& s : shards_) {
      n += s->live_count_;
    }
    return n;
  }
  size_t queue_size() const {
    size_t n = 0;
    for (const auto& s : shards_) {
      n += s->size_;
    }
    return n;
  }

  // ---- kernel counters (see bench/perf_smoke and bench/sim_kernel) ----
  // Each shard counts privately mid-window; accessors sum at read time (reads
  // happen on the calling thread between runs, never mid-run).
  // Total coroutine resumptions, however delivered.
  uint64_t resumes() const { return Sum(&Shard::resumes_); }
  // Resumptions performed inline by a resource model (FifoServer completion)
  // instead of a schedule/dequeue round trip through the event queue.
  uint64_t direct_resumes() const { return Sum(&Shard::direct_resumes_); }
  // Waiters woken by a shared drain event (Condition::NotifyAll, Semaphore
  // release batches) rather than one scheduled event per waiter.
  uint64_t coalesced_wakes() const { return Sum(&Shard::coalesced_wakes_); }

  // Idle passes a parked poller skipped: with events_processed() this is how
  // much polling a run modelled.
  uint64_t elided_passes() const { return Sum(&Shard::elided_passes_); }
  // Parked passes the kernel put back into the queue as events.
  uint64_t requeued_passes() const { return Sum(&Shard::requeued_passes_); }

  // ---- idle-pass parking (DESIGN.md §7) ----
  //
  // Parks the poller described by `park` (period, parked_at, wake and the
  // handles filled by its FifoServer) on the executing event's node.
  void Park(IdlePark* park) { CurrentShard().Park(park); }

  // Announces a direct mutation of `node`'s state by the executing event
  // (ControlPlane::Call into its endpoint, a membership listener of its
  // runtime): the node's parked pollers are re-queued first, at the pass
  // boundaries the mutation leaves them. Outside event execution nothing is
  // parked. Pushing an event of `node` does this implicitly.
  void TouchNode(int node) {
    Shard* cur = RunningShard();
    if (cur == nullptr) {
      return;
    }
    FLOCK_CHECK(&ShardOfNode(node) == cur)
        << "direct mutation of node " << node << " from another shard";
    cur->Touch(static_cast<int32_t>(node), /*scan=*/true);
  }

  // Bookkeeping hook for sync primitives that resume coroutines without a
  // per-waiter event (src/sim/sync.h).
  void NoteDirectResume() {
    Shard& s = CurrentShard();
    ++s.resumes_;
    ++s.direct_resumes_;
  }

  // ---- wake coalescing ----
  //
  // A notify-style primitive that wakes N waiters in one call (NotifyAll, a
  // batched release) queues the handles with QueueWake() and seals the batch
  // with CommitWakes(): ONE zero-delay drain event then resumes all N, in
  // queue order. Because the N handles would have been scheduled back to back
  // (consecutive sequence numbers, nothing can interleave inside the notify
  // call), the drain runs them at exactly the positions N individual
  // ScheduleResume(0) events would have — batching changes the event count,
  // never the execution order. The drain holds only coroutine handles, never
  // a pointer to the notifying primitive, so a primitive may be destroyed
  // (e.g. it lives in a resumed waiter's frame) with a drain still pending.
  // Batches are per shard: waiters of one primitive always share the
  // notifier's node (and therefore its shard).
  void QueueWake(std::coroutine_handle<> handle) {
    Shard& s = CurrentShard();
    s.wake_batch_.push_back(handle.address());
    ++s.uncommitted_wakes_;
  }

  void CommitWakes() {
    Shard& s = CurrentShard();
    if (s.uncommitted_wakes_ == 0) {
      return;
    }
    s.wake_counts_.push_back(s.uncommitted_wakes_);
    s.uncommitted_wakes_ = 0;
    Schedule(0, &Simulator::WakeDrainTrampoline, &s);
  }

  // Single-waiter convenience (OneShotEvent::Fire, NotifyOne).
  void ScheduleWake(std::coroutine_handle<> handle) {
    QueueWake(handle);
    CommitWakes();
  }

  // True while events at the current timestamp are still pending *for the
  // node of the executing event*. Resource models use this to decide whether
  // an inline resume is order-equivalent to a ScheduleResume(0) (see
  // FifoServer::Done). The predicate is node-local, not queue-global: events
  // of other nodes at the same timestamp are causally independent (any
  // influence crosses the fabric, which costs at least the lookahead), so
  // only same-node events constrain the resume position. Keeping it node-
  // local is what makes the decision — and with it the event count —
  // identical across shard counts.
  //
  // A parked poller's pass due now counts as pending: the unparked kernel
  // would have its completion queued at this timestamp.
  bool SameTimePending() const {
    const Shard& s = CurrentShard();
    const Shard::NodeSlot& slot = s.node_slots_[static_cast<size_t>(s.current_node_)];
    return slot.fifo_pending > 0 || s.PassDueNow(s.current_node_);
  }

  // Destroys every live process frame and drops pending events. Safe to call
  // more than once. Must run while the objects referenced by process locals
  // are still alive (see Cluster in src/verbs).
  void Shutdown() {
    StopWorkers();
    shutting_down_ = true;
    for (auto& sp : shards_) {
      Shard& s = *sp;
      // Frames parked in finish mailboxes are still on their home live list;
      // the walk below destroys them. Hops in flight hold handles of frames
      // the walk destroys too, so the mailboxes just empty.
      for (int parity = 0; parity < 2; ++parity) {
        for (auto& q : s.finish_out_[parity]) {
          q.clear();
        }
        for (auto& q : s.hop_out_[parity]) {
          q.clear();
        }
      }
      // Destroying one frame can destroy child frames but never spawns procs.
      while (s.live_head_ != nullptr) {
        internal::ProcPromise* promise = s.live_head_;
        s.live_head_ = promise->live_next;
        if (s.live_head_ != nullptr) {
          s.live_head_->live_prev = nullptr;
        }
        std::coroutine_handle<internal::ProcPromise>::from_promise(*promise)
            .destroy();
      }
      s.live_count_ = 0;
      s.fifo_.clear();
      s.fifo_pos_ = 0;
      for (Shard::NodeSlot& slot : s.node_slots_) {
        slot.fifo_pending = 0;
        slot.parked.clear();
      }
      s.wake_batch_.clear();
      s.wake_drain_pos_ = 0;
      s.wake_counts_.clear();
      s.wake_counts_pos_ = 0;
      s.uncommitted_wakes_ = 0;
      for (size_t word = 0; word < kNumWords; ++word) {
        uint64_t bits = s.occupancy_[word];
        while (bits != 0) {
          const int bit = std::countr_zero(bits);
          bits &= bits - 1;
          Bucket& b = s.buckets_[(word << 6) + static_cast<size_t>(bit)];
          b.head = kNilNode;
          b.tail = kNilNode;
        }
        s.occupancy_[word] = 0;
      }
      s.parked_total_ = 0;
      s.wakers_.clear();
      s.wake_min_ = -1;
      s.nodes_.clear();
      s.free_node_ = kNilNode;
      s.calendar_count_ = 0;
      while (!s.overflow_.empty()) {
        s.overflow_.pop();
      }
      s.size_ = 0;
    }
    shutting_down_ = false;
  }

 private:
  friend struct internal::ProcFinalAwaiter;

  // 40 bytes: when `fn` is null, `ctx` is a coroutine frame address to
  // resume; otherwise the event runs fn(ctx). `node` is the simulated node
  // the event belongs to: pushes inherit the executing event's node, so every
  // event of a node runs on the shard that owns it. `meta` holds the push
  // time as at - pushed_at (clamped to kLagMask) and two flags: kPassBit
  // marks a re-queued parked pass, which does not un-park its node's other
  // pollers, and kRequeuedBit marks an event whose push time is the one the
  // unparked kernel would have given it rather than the actual push.
  struct Event {
    Nanos at;
    uint64_t seq;
    void* ctx;
    void (*fn)(void*);
    int32_t node;
    uint32_t meta = 0;
  };
  static constexpr uint32_t kPassBit = 1u << 31;
  static constexpr uint32_t kRequeuedBit = 1u << 30;
  static constexpr uint32_t kLagMask = kRequeuedBit - 1;

  static uint32_t Lag(Nanos lag) {
    return static_cast<uint32_t>(std::min<Nanos>(lag, kLagMask));
  }

  // Where a node's parked pollers stand when they are re-queued (Unpark).
  enum class Unpark {
    kBeforeEvent,  // before an event of the node runs or is pushed
    kAfterNow,     // after every event at now: hop merge, end of a run
    kWake,         // before the wake pass of one of them
    kCrossNode,    // inside another node's event that mutates this node
  };

  struct EventLater {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) {
        return a.at > b.at;
      }
      return a.seq > b.seq;
    }
  };

  // A cross-node hop parked in a mailbox until the window barrier. Ordered by
  // (at, src_node, hop_seq); the triple is unique and independent of both the
  // shard count and the shard→worker assignment.
  struct HopEntry {
    Nanos at;
    uint64_t hop_seq;  // per-source-node counter, not per-shard
    int32_t src_node;
    int32_t dst_node;
    void* ctx;  // coroutine frame address (hops are always resumes)
  };

  // Calendar geometry: 4096 one-nanosecond buckets cover ~4 us of lookahead,
  // which swallows every CPU/NIC/wire delay in the cost model (the largest
  // common short delays — PCIe fetches, MTU serialization, the 1 us
  // ring-stall retry — are ~1 us); only long timers (QP/thread scheduler
  // intervals, bench warmups) overflow to the heap. Events within the horizon
  // occupy distinct buckets, so a bucket never mixes timestamps. Keeping the
  // array small matters: the active window of buckets stays cache-resident.
  static constexpr size_t kBucketBits = 12;
  static constexpr size_t kNumBuckets = size_t{1} << kBucketBits;
  static constexpr size_t kNumWords = kNumBuckets / 64;
  static constexpr Nanos kHorizon = static_cast<Nanos>(kNumBuckets);
  static constexpr uint32_t kNilNode = UINT32_MAX;

  static size_t BucketOf(Nanos at) {
    return static_cast<size_t>(at) & (kNumBuckets - 1);
  }

  struct CalendarNode {
    Event event;
    uint32_t next = kNilNode;
  };

  struct Bucket {
    uint32_t head = kNilNode;
    uint32_t tail = kNilNode;
  };

  // One shard: a complete, self-contained event queue plus the live-process
  // list and counters of the nodes it owns. Only the worker that owns a shard
  // touches it; other workers read (and empty) only its outboxes of the
  // parity they are merging, which the owner does not write again until the
  // next barrier (ordering enforced by the barrier's acquire/release pairs).
  struct Shard {
    Shard(Simulator* owner, int index, int num_shards)
        : owner_(owner), index_(static_cast<uint32_t>(index)) {
      for (int parity = 0; parity < 2; ++parity) {
        hop_out_[parity].resize(static_cast<size_t>(num_shards));
        finish_out_[parity].resize(static_cast<size_t>(num_shards));
      }
    }

    // ---- now-FIFO drain vector (single timestamp at a time) ----
    //
    // Consumed events stay in the processed prefix until the whole batch
    // drains (the vector is cleared at the next refill, keeping its
    // capacity), so push is a plain append and pop an index increment.
    // NodeSlot::fifo_pending counts the *unconsumed* FIFO events per node,
    // maintained on push/pop/flush, so SameTimePending() is one array read.
    // Every event passes through the FIFO before it runs, so the executing
    // event's node always has a slot.

    bool FifoEmpty() const { return fifo_pos_ == fifo_.size(); }

    void FifoPush(const Event& event) {
      fifo_.push_back(event);
      ++Slot(event.node).fifo_pending;
    }

    // ---- enqueue ----

    void Push(const Event& event) {
      ++size_;
      if (event.at == now_) {
        // Invariant: buckets and overflow never hold events at the current
        // time (Refill drains the full timestamp batch), and the now-FIFO
        // holds a single timestamp, so appending preserves (time, seq) order.
        FifoPush(event);
        return;
      }
      if (event.at - now_ < kHorizon) {
        const size_t bucket = BucketOf(event.at);
        const uint32_t node = AllocNode(event);
        Bucket& b = buckets_[bucket];
        if (b.tail == kNilNode) {
          b.head = node;
        } else {
          nodes_[b.tail].next = node;
        }
        b.tail = node;
        occupancy_[bucket >> 6] |= uint64_t{1} << (bucket & 63);
        ++calendar_count_;
      } else {
        overflow_.push(event);
      }
    }

    static Nanos PushedAt(const Event& e) {
      return e.at - static_cast<Nanos>(e.meta & kLagMask);
    }

    // Queues a re-queued parked pass where the unparked kernel had it: behind
    // every queued event of its timestamp pushed at or before its (virtual)
    // push time, ahead of those pushed later. Its timestamp is within one
    // pass of now, so it never overflows the calendar.
    [[gnu::noinline]] void PushRequeued(const Event& event) {
      const Nanos pushed = PushedAt(event);
      ++size_;
      if (event.at == now_) {
        size_t i = fifo_.size();
        while (i > fifo_pos_ && PushedAt(fifo_[i - 1]) > pushed) {
          --i;
        }
        fifo_.insert(fifo_.begin() + static_cast<std::ptrdiff_t>(i), event);
        ++Slot(event.node).fifo_pending;
        return;
      }
      FLOCK_CHECK_LT(event.at - now_, kHorizon);
      const size_t bucket = BucketOf(event.at);
      uint32_t prev = kNilNode;
      uint32_t next = buckets_[bucket].head;
      while (next != kNilNode && PushedAt(nodes_[next].event) <= pushed) {
        prev = next;
        next = nodes_[next].next;
      }
      const uint32_t node = AllocNode(event);
      nodes_[node].next = next;
      Bucket& b = buckets_[bucket];
      (prev == kNilNode ? b.head : nodes_[prev].next) = node;
      if (next == kNilNode) {
        b.tail = node;
      }
      occupancy_[bucket >> 6] |= uint64_t{1} << (bucket & 63);
      ++calendar_count_;
    }

    // A push by simulated code (or setup code between runs): the target
    // node's parked pollers are re-queued first — the unparked kernel queued
    // their next completions before anything pushed now — and the event
    // records its push time. A pass's own continuation (kPassBit) is ordered
    // only against a parked pass due now, so only then does it re-queue. The
    // event is built in one piece: setting seq and meta on a copy the caller
    // built slowed every push measurably.
    void PushNew(Nanos delay, void* ctx, void (*fn)(void*), int32_t node,
                 uint32_t flags = 0) {
      if (parked_total_ != 0 && HasParked(node) &&
          ((flags & kPassBit) == 0 || PassDueNow(node))) {
        Touch(node, /*scan=*/false);
      }
      Push(Event{now_ + delay, next_seq_++, ctx, fn, node, Lag(delay) | flags});
    }

    uint32_t AllocNode(const Event& event) {
      uint32_t node = free_node_;
      if (node != kNilNode) {
        free_node_ = nodes_[node].next;
      } else {
        node = static_cast<uint32_t>(nodes_.size());
        nodes_.emplace_back();
      }
      nodes_[node].event = event;
      nodes_[node].next = kNilNode;
      return node;
    }

    // ---- refill: move the earliest timestamp batch into the now-FIFO ----

    // First occupied bucket at or after `start`, in ring order (ring order is
    // time order because live events span less than one calendar revolution —
    // the window loop advances now_ to each window's end, so events never
    // accumulate more than a horizon ahead of the scan start).
    size_t FirstOccupied(size_t start) const {
      size_t word = start >> 6;
      uint64_t bits = occupancy_[word] & (~uint64_t{0} << (start & 63));
      for (size_t scanned = 0; scanned <= kNumWords; ++scanned) {
        if (bits != 0) {
          return (word << 6) + static_cast<size_t>(std::countr_zero(bits));
        }
        word = (word + 1) & (kNumWords - 1);
        bits = occupancy_[word];
      }
      FLOCK_CHECK(false) << "occupancy bitmap and calendar_count_ disagree";
      return 0;
    }

    void Refill() {
      fifo_.clear();  // previous batch fully consumed; keep the capacity
      fifo_pos_ = 0;
      if (calendar_count_ == 0) {
        DrainOverflowBatch();
        return;
      }
      const size_t bucket = FirstOccupied(BucketOf(now_));
      Bucket& slot = buckets_[bucket];
      const Nanos bucket_at = nodes_[slot.head].event.at;  // one ts per bucket
      if (!overflow_.empty() && overflow_.top().at < bucket_at) {
        DrainOverflowBatch();
        return;
      }
      // Append order inside the bucket is seq order, so walking head-to-tail
      // yields the drain batch already in (time, seq) order. Nodes return to
      // the shared free list as they are copied out.
      uint32_t node = slot.head;
      while (node != kNilNode) {
        FifoPush(nodes_[node].event);
        const uint32_t next = nodes_[node].next;
        nodes_[node].next = free_node_;
        free_node_ = node;
        node = next;
        --calendar_count_;
      }
      slot.head = kNilNode;
      slot.tail = kNilNode;
      occupancy_[bucket >> 6] &= ~(uint64_t{1} << (bucket & 63));
      if (!overflow_.empty() && overflow_.top().at == bucket_at) {
        // Calendar and heap collide on one timestamp (rare): merge by seq.
        while (!overflow_.empty() && overflow_.top().at == bucket_at) {
          FifoPush(overflow_.top());
          overflow_.pop();
        }
        // Push order; a re-queued pass sits at its virtual push time.
        std::sort(fifo_.begin(), fifo_.end(), [](const Event& a, const Event& b) {
          const Nanos pa = PushedAt(a);
          const Nanos pb = PushedAt(b);
          return pa != pb ? pa < pb : a.seq < b.seq;
        });
      }
    }

    // Moves the earliest-timestamp batch from the overflow heap to the FIFO.
    // The heap pops equal-time events in seq order (EventLater tie-break).
    void DrainOverflowBatch() {
      FLOCK_CHECK(!overflow_.empty());
      const Nanos cut = overflow_.top().at;
      while (!overflow_.empty() && overflow_.top().at == cut) {
        FifoPush(overflow_.top());
        overflow_.pop();
      }
    }

    // Returns a refilled-but-unreachable batch (deadline passed) to the
    // calendar so later inserts keep ordering. The batch shares one timestamp
    // strictly after now_, so Push never routes back to the FIFO.
    void FlushFifo() {
      while (fifo_pos_ < fifo_.size()) {
        const Event event = fifo_[fifo_pos_++];
        --Slot(event.node).fifo_pending;
        --size_;  // Push re-counts it; the event keeps its original seq
        Push(event);
      }
      fifo_.clear();
      fifo_pos_ = 0;
    }

    // Earliest pending event time, or -1 if the shard is empty. Called by the
    // owning worker between windows to pick the next window start. A parked
    // poller's next pass counts: the unparked kernel has its completion
    // queued, so window boundaries stay those of the unparked kernel.
    Nanos NextEventAt() const {
      Nanos best = -1;
      if (!FifoEmpty()) {
        best = fifo_[fifo_pos_].at;  // e.g. a Spawn between runs
      } else {
        if (calendar_count_ != 0) {
          const size_t bucket = FirstOccupied(BucketOf(now_));
          best = nodes_[buckets_[bucket].head].event.at;
        }
        if (!overflow_.empty() && (best < 0 || overflow_.top().at < best)) {
          best = overflow_.top().at;
        }
      }
      if (parked_total_ != 0) {
        for (const NodeSlot& slot : node_slots_) {
          for (const IdlePark* p : slot.parked) {
            best = EarlierOf(best, p->FirstPassAtOrAfter(now_ + 1));
          }
        }
      }
      return best;
    }

    // Runs events with time <= deadline (every event if deadline < 0).
    uint64_t RunWindow(Nanos deadline) {
      uint64_t ran = 0;
      for (;;) {
        if (FifoEmpty() && size_ != 0) {
          Refill();
        }
        // A wake pass runs at its position: after every event at its instant
        // that is already queued (those were pushed before it parked).
        if (wake_min_ >= 0 && (FifoEmpty() || wake_min_ < fifo_[fifo_pos_].at)) {
          if (deadline >= 0 && wake_min_ > deadline) {
            if (!FifoEmpty() && fifo_[fifo_pos_].at > now_) {
              FlushFifo();
            }
            break;
          }
          if (!FifoEmpty()) {
            FlushFifo();  // a batch after the wake instant
          }
          now_ = wake_min_;
          Wake();
          continue;
        }
        if (FifoEmpty()) {
          break;
        }
        const Event& front = fifo_[fifo_pos_];
        if (deadline >= 0 && front.at > deadline) {
          if (front.at > now_) {
            FlushFifo();
          }
          break;
        }
        const Event event = front;
        ++fifo_pos_;
        NodeSlot& slot = node_slots_[static_cast<size_t>(event.node)];
        --slot.fifo_pending;
        --size_;
        FLOCK_CHECK_GE(event.at, now_);
        now_ = event.at;
        current_node_ = event.node;
        cur_meta_ = event.meta;
        if ((event.meta & kPassBit) == 0 && !slot.parked.empty()) {
          UnparkNode(event.node, Unpark::kBeforeEvent, nullptr);
        }
        ++ran;
        ++events_processed_;
        if (event.fn != nullptr) {
          event.fn(event.ctx);
        } else {
          ++resumes_;
          std::coroutine_handle<>::from_address(event.ctx).resume();
        }
      }
      // Land the shard clock on the window end: keeps every live event within
      // one calendar revolution of the bucket scan start, and the value is a
      // global window boundary, so it is identical across shard counts.
      if (deadline >= 0 && now_ < deadline) {
        now_ = deadline;
      }
      return ran;
    }

    // ---- idle-pass parking ----

    void Park(IdlePark* p) {
      p->node = current_node_;
      p->order = park_order_++;
      Slot(p->node).parked.push_back(p);
      ++parked_total_;
      if (p->wake >= 0) {
        wakers_.push_back(p);
        wake_min_ = EarlierOf(wake_min_, p->wake);
      }
    }

    // The executing event is about to push to, or mutate, `node`. Another
    // node's event is placed against the node's passes by its push time;
    // `scan` also rejects a re-queued pass of the node still pending now
    // whose virtual push instant equals that push time (an unresolvable
    // tie: the order inside that instant is not recorded).
    [[gnu::noinline]] void Touch(int32_t node, bool scan) {
      if (node == current_node_) {
        UnparkNode(node, Unpark::kBeforeEvent, nullptr);
        return;
      }
      if (scan) {
        for (size_t i = fifo_pos_; i < fifo_.size(); ++i) {
          const Event& e = fifo_[i];
          FLOCK_CHECK(e.node != node || (e.meta & kRequeuedBit) == 0 ||
                      PushedAt(e) != CurPushedAt())
              << "node " << node << " mutated at t=" << now_
              << " by an event pushed on the push instant of a re-queued pass";
        }
      }
      UnparkNode(node, Unpark::kCrossNode, nullptr);
    }

    // Both passes are due at one instant: does a's completion come first?
    // Its push instant is (instant - period), so the longer period was pushed
    // earlier. Equal periods share every instant since the later of the two
    // parks, where the one that parked later ran first (a queued event
    // precedes a parked pass); equal park instants keep park order.
    static bool CompletesFirst(const IdlePark& a, const IdlePark& b) {
      if (a.period != b.period) {
        return a.period > b.period;
      }
      if (a.parked_at != b.parked_at) {
        return a.parked_at > b.parked_at;
      }
      return a.order < b.order;
    }

    // Re-queues every parked poller of `node` (see Unpark for where they
    // stand), in the order the unparked kernel queued them: completions due
    // now, then passes whose completion already fired now (their resumes),
    // then later completions; each group in completion order.
    [[gnu::noinline]] void UnparkNode(int32_t node, Unpark rule, const IdlePark* waker) {
      if (!HasParked(node)) {
        return;
      }
      NodeSlot& slot = node_slots_[static_cast<size_t>(node)];
      std::vector<IdlePark*>& list = slot.parked;
      size_t due_now = 0;
      bool had_waker = false;
      for (const IdlePark* p : list) {
        due_now += p->PassAt(now_) ? 1 : 0;
        had_waker |= p->wake >= 0;
      }
      const bool node_pending = slot.fifo_pending > 0;
      std::vector<Requeue>& rq = requeue_scratch_;
      rq.clear();
      for (IdlePark* p : list) {
        Requeue r{p, p->FirstPassAtOrAfter(now_), false};
        if (r.due == now_) {
          switch (rule) {
            case Unpark::kBeforeEvent:
              break;  // parked passes follow every queued event
            case Unpark::kAfterNow:
              r.due += p->period;
              break;
            case Unpark::kWake:
              // Completions ahead of the wake pass fired with it pending, so
              // their passes were deferred behind it.
              r.fired = p != waker && CompletesFirst(*p, *waker);
              break;
            case Unpark::kCrossNode: {
              // The pass's completion was queued at now - period, the
              // mutating event at CurPushedAt().
              const Nanos queued = now_ - p->period;
              const Nanos pushed = CurPushedAt();
              FLOCK_CHECK_NE(pushed, queued)
                  << "node " << node << " mutated at t=" << now_
                  << " by an event pushed on a pass instant of its poller";
              if (pushed > queued) {
                if (due_now == 1 && !node_pending) {
                  r.due += p->period;  // resumed inline: the pass ran
                } else {
                  FLOCK_CHECK_LT(pushed, now_)
                      << "node " << node << " mutated at t=" << now_
                      << " by an event pushed at the same instant";
                  r.fired = true;  // its resume sits behind the mutation
                }
              }
              break;
            }
          }
        }
        rq.push_back(r);
      }
      parked_total_ -= list.size();
      list.clear();
      if (had_waker) {
        wakers_.erase(std::remove_if(wakers_.begin(), wakers_.end(),
                                     [node](const IdlePark* p) {
                                       return p->node == node;
                                     }),
                      wakers_.end());
        wake_min_ = -1;
        for (const IdlePark* p : wakers_) {
          wake_min_ = EarlierOf(wake_min_, p->wake);
        }
      }
      std::sort(rq.begin(), rq.end(), [](const Requeue& a, const Requeue& b) {
        if (a.due != b.due) {
          return a.due < b.due;
        }
        if (a.fired != b.fired) {
          return b.fired;
        }
        return CompletesFirst(*a.p, *b.p);
      });
      for (const Requeue& r : rq) {
        IdlePark& p = *r.p;
        elided_passes_ += static_cast<uint64_t>((r.due - p.parked_at) / p.period - 1);
        ++requeued_passes_;
        p.settle(&p, r.due, r.fired);
        if (r.fired) {
          PushRequeued(Event{now_, next_seq_++, p.handle, nullptr, node, kRequeuedBit});
        } else {
          PushRequeued(Event{r.due, next_seq_++, p.server, p.done, node,
                             kPassBit | kRequeuedBit | Lag(p.period)});
        }
      }
    }

    // Un-parks the node of the earliest wake pass, which is due now.
    [[gnu::noinline]] void Wake() {
      for (const IdlePark* p : wakers_) {
        if (p->wake == wake_min_) {
          UnparkNode(p->node, Unpark::kWake, p);
          return;
        }
      }
      FLOCK_CHECK(false) << "wake_min_ without a waker";
    }

    // A hop to `node` arriving at `at` is being merged (now_ is the window
    // end). A parked pass due at `at` whose completion the unparked kernel
    // queued by now precedes the hop, so the node must be re-queued; later
    // completions follow the hop, which a parked node gives for free.
    [[gnu::noinline]] void UnparkForHop(int32_t node, Nanos at) {
      if (!HasParked(node)) {
        return;
      }
      for (const IdlePark* p : Slot(node).parked) {
        if (p->PassAt(at) && at - p->period <= now_) {
          UnparkNode(node, Unpark::kAfterNow, nullptr);
          return;
        }
      }
    }

    void WakeDrain() {
      // Each drain event consumes exactly the handles of its own commit — a
      // waiter that notifies further waiters commits a new batch with its own
      // drain event, which keeps their resumption at the position fresh
      // ScheduleResume(0) events would have had.
      const uint32_t count = wake_counts_[wake_counts_pos_++];
      for (uint32_t i = 0; i < count; ++i) {
        ++resumes_;
        ++coalesced_wakes_;
        std::coroutine_handle<>::from_address(wake_batch_[wake_drain_pos_++])
            .resume();
      }
      if (wake_drain_pos_ == wake_batch_.size() && uncommitted_wakes_ == 0) {
        // Fully drained: reset the consumed prefixes, keeping capacity.
        wake_batch_.clear();
        wake_drain_pos_ = 0;
        wake_counts_.clear();
        wake_counts_pos_ = 0;
      }
    }

    Simulator* owner_;
    uint32_t index_;

    Nanos now_ = 0;
    uint64_t next_seq_ = 0;
    uint64_t events_processed_ = 0;
    uint64_t resumes_ = 0;
    uint64_t direct_resumes_ = 0;
    uint64_t coalesced_wakes_ = 0;
    uint64_t elided_passes_ = 0;
    uint64_t requeued_passes_ = 0;
    size_t size_ = 0;
    int32_t current_node_ = 0;
    uint32_t cur_meta_ = 0;   // meta of the executing event
    size_t parked_total_ = 0;  // parked pollers on the shard
    Nanos wake_min_ = -1;      // earliest wake pass among them, or -1

    std::vector<Event> fifo_;  // drain vector: [fifo_pos_, size) is pending
    size_t fifo_pos_ = 0;
    // Per node, the state every event of the node touches.
    struct NodeSlot {
      uint32_t fifo_pending = 0;  // unconsumed FIFO events
      std::vector<IdlePark*> parked;  // its parked pollers
    };
    std::vector<NodeSlot> node_slots_;

    NodeSlot& Slot(int32_t node) {
      const auto n = static_cast<size_t>(node);
      if (n >= node_slots_.size()) [[unlikely]] {
        node_slots_.resize(n + 1);
      }
      return node_slots_[n];
    }
    bool HasParked(int32_t node) const {
      const auto n = static_cast<size_t>(node);
      return n < node_slots_.size() && !node_slots_[n].parked.empty();
    }
    bool PassDueNow(int32_t node) const {
      const std::vector<IdlePark*>& list = node_slots_[static_cast<size_t>(node)].parked;
      return std::any_of(list.begin(), list.end(),
                         [this](const IdlePark* p) { return p->PassAt(now_); });
    }
    // Push time of the executing event.
    Nanos CurPushedAt() const {
      return now_ - static_cast<Nanos>(cur_meta_ & kLagMask);
    }

    // Wake batches: handles in commit order, one count per commit. Both
    // vectors drain by position and reset when empty, so steady state never
    // allocates.
    std::vector<void*> wake_batch_;
    size_t wake_drain_pos_ = 0;
    std::vector<uint32_t> wake_counts_;
    size_t wake_counts_pos_ = 0;
    uint32_t uncommitted_wakes_ = 0;

    Bucket buckets_[kNumBuckets];
    std::vector<CalendarNode> nodes_;  // shared node pool for all buckets
    uint32_t free_node_ = kNilNode;
    uint64_t occupancy_[kNumWords] = {};
    size_t calendar_count_ = 0;

    std::priority_queue<Event, std::vector<Event>, EventLater> overflow_;

    internal::ProcPromise* live_head_ = nullptr;
    size_t live_count_ = 0;

    // Outboxes, indexed by [window parity][destination shard]; SPSC by
    // construction (the shard appends mid-window, the destination's worker
    // empties them after the barrier, while the shard already fills the other
    // parity). Capacity is kept across windows, so steady state never
    // allocates.
    std::vector<std::vector<HopEntry>> hop_out_[2];
    std::vector<std::vector<internal::ProcPromise*>> finish_out_[2];
    uint32_t parity_ = 0;      // outbox parity of the window being run
    Nanos earliest_hop_ = -1;  // earliest arrival sent this window, or -1
    std::vector<uint64_t> hop_seq_;  // per-source-node hop counters (own nodes)
    std::vector<HopEntry> merge_scratch_;  // inbox merge buffer

    // ---- idle-pass parking state off the per-event path ----
    struct Requeue {
      IdlePark* p;
      Nanos due;
      bool fired;
    };
    std::vector<IdlePark*> wakers_;  // parked pollers with a wake pass
    uint64_t park_order_ = 0;
    std::vector<Requeue> requeue_scratch_;
  };

  static void WakeDrainTrampoline(void* shard) {
    static_cast<Shard*>(shard)->WakeDrain();
  }

  // The shard whose window the calling thread is currently executing, or null
  // outside event execution. thread_local so worker threads and concurrent
  // Simulators on other threads never observe each other.
  static Shard*& RunningShardSlot() {
    static thread_local Shard* slot = nullptr;
    return slot;
  }

  Shard* RunningShard() const {
    Shard* s = RunningShardSlot();
    return s != nullptr && s->owner_ == this ? s : nullptr;
  }

  // Routing for schedule calls: the executing shard mid-window, shard 0 from
  // the main thread outside execution (setup code between runs).
  Shard& CurrentShard() {
    Shard* s = RunningShard();
    return s != nullptr ? *s : *shards_[0];
  }
  const Shard& CurrentShard() const {
    const Shard* s = RunningShard();
    return s != nullptr ? *s : *shards_[0];
  }

  Shard& ShardOfNode(int node) {
    if (node_shard_.empty()) {
      return *shards_[0];
    }
    FLOCK_CHECK(node >= 0 && static_cast<size_t>(node) < node_shard_.size())
        << "node " << node << " outside the sharding map";
    return *shards_[static_cast<size_t>(node_shard_[static_cast<size_t>(node)])];
  }

  // Re-queues every parked poller after the last event at each shard's now
  // (end of a run; called between runs, on the calling thread).
  void UnparkAll() {
    for (auto& s : shards_) {
      for (size_t n = 0; s->parked_total_ != 0 && n < s->node_slots_.size(); ++n) {
        s->UnparkNode(static_cast<int32_t>(n), Unpark::kAfterNow, nullptr);
      }
    }
  }

  uint64_t Sum(uint64_t Shard::* field) const {
    uint64_t total = 0;
    for (const auto& s : shards_) {
      total += (*s).*field;
    }
    return total;
  }

  void OnProcFinished(std::coroutine_handle<internal::ProcPromise> handle) {
    internal::ProcPromise& promise = handle.promise();
    if (shutting_down_) {
      handle.destroy();
      return;
    }
    Shard* cur = RunningShard();
    Shard& home = *shards_[promise.home_shard];
    if (cur != nullptr && cur != &home) {
      // Finished on a foreign shard (e.g. an unreliable delivery that ends at
      // the receiver): park the frame; the home shard's worker unlinks and
      // destroys it after the window barrier, between its own windows.
      cur->finish_out_[cur->parity_][promise.home_shard].push_back(&promise);
      return;
    }
    UnlinkAndDestroy(home, promise);
  }

  void UnlinkAndDestroy(Shard& home, internal::ProcPromise& promise) {
    if (promise.live_prev != nullptr) {
      promise.live_prev->live_next = promise.live_next;
    } else {
      home.live_head_ = promise.live_next;
    }
    if (promise.live_next != nullptr) {
      promise.live_next->live_prev = promise.live_prev;
    }
    --home.live_count_;
    std::coroutine_handle<internal::ProcPromise>::from_promise(promise)
        .destroy();
  }

  // ---- window loop ----

  static Nanos EarlierOf(Nanos a, Nanos b) {
    return b >= 0 && (a < 0 || b < a) ? b : a;
  }

  uint64_t RunLoop(Nanos deadline) {
    if (!windowed_) {
      Shard& s = *shards_[0];
      RunningShardSlot() = &s;
      const uint64_t ran = s.RunWindow(deadline);
      RunningShardSlot() = nullptr;
      return ran;
    }
    const uint64_t before = events_processed();
    if (num_workers_ > 1) {
      if (workers_.empty()) {
        StartWorkers();
      }
      run_deadline_ = deadline;
      run_gen_.fetch_add(1, std::memory_order_release);
    }
    WindowLoop(0, deadline);
    return events_processed() - before;
  }

  // Worker w's share of one run: windows over shards w, w+P, w+2P, ... until
  // the global next event passes `deadline`. Every worker takes the same
  // window sequence, because each window start is the minimum the barrier
  // hands to all of them.
  void WindowLoop(size_t w, Nanos deadline) {
    const size_t stride = static_cast<size_t>(num_workers_);
    for (uint32_t parity = 0;; parity ^= 1) {
      // Before the merge, the earliest event a shard will hold is its own
      // next event or the earliest hop any shard sent it; the global minimum
      // over both equals the post-merge minimum, so window boundaries depend
      // only on the trace.
      Nanos earliest = -1;
      for (size_t i = w; i < shards_.size(); i += stride) {
        Shard& s = *shards_[i];
        earliest = EarlierOf(EarlierOf(earliest, s.NextEventAt()), s.earliest_hop_);
        s.earliest_hop_ = -1;
      }
      const Nanos next = Barrier(w, earliest);
      // Merge the inboxes of the window just run (the other parity). Senders
      // now fill `parity`, and refill this one only after the next barrier,
      // which this worker reaches only once its merge is done.
      for (size_t i = w; i < shards_.size(); i += stride) {
        MergeInbox(i, parity ^ 1);
      }
      if (next < 0 || (deadline >= 0 && next > deadline)) {
        break;
      }
      // Window [next, wend]: a hop from t >= next has arrival
      // t + lookahead > wend, so it cannot land inside this window.
      Nanos wend = next + lookahead_ - 1;
      if (deadline >= 0 && wend > deadline) {
        wend = deadline;
      }
      for (size_t i = w; i < shards_.size(); i += stride) {
        Shard& s = *shards_[i];
        s.parity_ = parity;
        RunningShardSlot() = &s;
        s.RunWindow(wend);
        RunningShardSlot() = nullptr;
      }
    }
    // The run ends only when every worker has merged its last inboxes.
    Barrier(w, -1);
  }

  // Delivers to shard `dst` the hops and foreign finishes that every shard
  // posted to it in the window of `parity`.
  void MergeInbox(size_t dst, uint32_t parity) {
    Shard& d = *shards_[dst];
    std::vector<HopEntry>& merge = d.merge_scratch_;
    merge.clear();
    for (const auto& src : shards_) {
      auto& box = src->hop_out_[parity][dst];
      merge.insert(merge.end(), box.begin(), box.end());
      box.clear();
    }
    std::sort(merge.begin(), merge.end(),
              [](const HopEntry& a, const HopEntry& b) {
                if (a.at != b.at) {
                  return a.at < b.at;
                }
                if (a.src_node != b.src_node) {
                  return a.src_node < b.src_node;
                }
                return a.hop_seq < b.hop_seq;
              });
    for (const HopEntry& h : merge) {
      if (d.parked_total_ != 0) {
        d.UnparkForHop(h.dst_node, h.at);
      }
      d.Push(Event{h.at, d.next_seq_++, h.ctx, nullptr, h.dst_node,
                   Lag(h.at - d.now_)});
    }
    for (const auto& src : shards_) {
      auto& fin = src->finish_out_[parity][dst];
      for (internal::ProcPromise* promise : fin) {
        UnlinkAndDestroy(d, *promise);
      }
      fin.clear();
    }
  }

  // ---- barrier and worker pool ----

  template <typename Pred>
  static void SpinUntil(Pred pred) {
    for (int spins = 0; !pred(); ++spins) {
      if (spins > 256) {
        std::this_thread::yield();
      }
    }
  }

  // Publishes worker w's earliest known time, waits until every worker has
  // published, and returns the minimum. The value slot alternates by
  // generation parity: a worker that leaves barrier g can publish g+1 before
  // a slower one has read g, but not g+2, which needs the slow one's g+1.
  Nanos Barrier(size_t w, Nanos earliest) {
    BarrierSlot& mine = slots_[w];
    const uint64_t gen = mine.gen.load(std::memory_order_relaxed) + 1;
    mine.earliest[gen & 1].store(earliest, std::memory_order_relaxed);
    mine.gen.store(gen, std::memory_order_release);
    Nanos next = -1;
    for (size_t v = 0; v < static_cast<size_t>(num_workers_); ++v) {
      const BarrierSlot& slot = slots_[v];
      SpinUntil([&] { return slot.gen.load(std::memory_order_acquire) >= gen; });
      next = EarlierOf(next, slot.earliest[gen & 1].load(std::memory_order_relaxed));
    }
    return next;
  }

  // Pool threads 1..P-1 park between runs; the calling thread is worker 0.
  void StartWorkers() {
    stop_workers_.store(false, std::memory_order_relaxed);
    const uint64_t seen = run_gen_.load(std::memory_order_relaxed);
    for (int w = 1; w < num_workers_; ++w) {
      workers_.emplace_back([this, w, seen] {
        for (uint64_t run = seen + 1;; ++run) {
          SpinUntil([&] { return run_gen_.load(std::memory_order_acquire) == run; });
          if (stop_workers_.load(std::memory_order_acquire)) {
            return;
          }
          WindowLoop(static_cast<size_t>(w), run_deadline_);
        }
      });
    }
  }

  void StopWorkers() {
    if (workers_.empty()) {
      return;
    }
    stop_workers_.store(true, std::memory_order_release);
    run_gen_.fetch_add(1, std::memory_order_release);
    for (std::thread& t : workers_) {
      t.join();
    }
    workers_.clear();
  }

  // One cache line per worker: its barrier generation and, per generation
  // parity, the earliest time it published.
  struct alignas(64) BarrierSlot {
    std::atomic<uint64_t> gen{0};
    std::atomic<Nanos> earliest[2] = {};
  };

  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<int32_t> node_shard_;  // empty → every node on shard 0
  Nanos lookahead_ = 0;
  bool windowed_ = false;
  bool shutting_down_ = false;
  int num_workers_ = 1;
  std::unique_ptr<BarrierSlot[]> slots_;

  std::vector<std::thread> workers_;
  std::atomic<uint64_t> run_gen_{0};
  std::atomic<bool> stop_workers_{false};
  Nanos run_deadline_ = 0;  // written before the run_gen_ release
};

namespace internal {

inline void ProcFinalAwaiter::await_suspend(
    std::coroutine_handle<ProcPromise> handle) noexcept {
  handle.promise().sim->OnProcFinished(handle);
}

}  // namespace internal

// Suspends the awaiting coroutine for `delay` of simulated time (same node).
class Delay {
 public:
  Delay(Simulator& sim, Nanos delay) : sim_(sim), delay_(delay) {}

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> handle) {
    sim_.ScheduleResume(delay_ < 0 ? 0 : delay_, handle);
  }
  void await_resume() const noexcept {}

 private:
  Simulator& sim_;
  Nanos delay_;
};

// Suspends the awaiting coroutine for `delay` and resumes it on `node` —
// the migration point of every cross-node interaction (switch transit, RC
// acknowledgements). Under sharding the delay must be at least the
// configured lookahead; see Simulator::ScheduleOnNode.
class HopToNode {
 public:
  HopToNode(Simulator& sim, int node, Nanos delay)
      : sim_(sim), node_(node), delay_(delay) {}

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> handle) {
    sim_.ScheduleOnNode(node_, delay_ < 0 ? 0 : delay_, handle);
  }
  void await_resume() const noexcept {}

 private:
  Simulator& sim_;
  int node_;
  Nanos delay_;
};

}  // namespace flock::sim

#endif  // FLOCK_SIM_SIMULATOR_H_
