// Coroutine types for the discrete-event simulator.
//
// Two shapes of coroutine exist in the simulation:
//
//  * Proc  — a fire-and-forget "process" (a simulated thread, a NIC engine, a
//    scheduler loop). Created suspended, registered with the Simulator via
//    Simulator::Spawn, destroyed either when it runs to completion or when the
//    Simulator shuts down.
//
//  * Co<T> — a lazily-started, value-returning subroutine awaited from inside
//    a Proc or another Co. Completion resumes the awaiting coroutine via
//    symmetric transfer, so arbitrarily deep call chains cost no stack.
//
// Exceptions are not used inside the simulation (error paths return status
// values); an exception escaping a coroutine is a bug and terminates.
#ifndef FLOCK_SIM_TASK_H_
#define FLOCK_SIM_TASK_H_

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <new>
#include <optional>
#include <utility>

namespace flock::sim {

class Simulator;

namespace internal {
struct ProcPromise;

// Size-class free-list recycler for coroutine frames.
//
// Frames churn at event rate — every RPC allocates a SendRpc frame, an
// AwaitResponse frame, and usually a Pump frame — so after warmup the same
// handful of frame sizes is allocated and freed millions of times. Promise
// types below route frame storage through this pool: a freed frame parks on
// the free list of its size class and the next coroutine of that size reuses
// it without touching the general-purpose allocator. Frames larger than
// kMaxPooledBytes (rare: big local arrays) fall through to operator new.
//
// The pool is thread_local: tests run several simulators on different
// threads concurrently, and a sharded simulation runs shards on a worker
// pool. A frame may be allocated on one worker and freed on another (a
// process migrated by a cross-node hop, or destroyed by the coordinator at
// shutdown); the block simply parks on the freeing thread's list — free
// lists hold untyped memory, not simulator state, so crossing pools is
// benign and, critically, never affects the simulated trace.
class FramePool {
 public:
  static constexpr size_t kGranuleBytes = 64;
  static constexpr size_t kMaxPooledBytes = 8192;
  static constexpr size_t kNumClasses = kMaxPooledBytes / kGranuleBytes + 1;

  static void* Alloc(size_t bytes) {
    if (bytes > kMaxPooledBytes) {
      return ::operator new(bytes);
    }
    FramePool& pool = Instance();
    const size_t cls = (bytes + kGranuleBytes - 1) / kGranuleBytes;
    void* block = pool.free_[cls];
    if (block != nullptr) {
      pool.free_[cls] = *static_cast<void**>(block);
      ++pool.hits_;
      return block;
    }
    ++pool.misses_;
    return ::operator new(cls * kGranuleBytes);
  }

  static void Free(void* block, size_t bytes) {
    if (bytes > kMaxPooledBytes || !alive()) {
      ::operator delete(block);
      return;
    }
    FramePool& pool = Instance();
    const size_t cls = (bytes + kGranuleBytes - 1) / kGranuleBytes;
    *static_cast<void**>(block) = pool.free_[cls];
    pool.free_[cls] = block;
  }

  // Frames served from a free list vs. from operator new (observability for
  // the allocation-free-hot-path tests).
  static uint64_t hits() { return Instance().hits_; }
  static uint64_t misses() { return Instance().misses_; }

  ~FramePool() {
    alive() = false;
    for (size_t cls = 0; cls < kNumClasses; ++cls) {
      void* block = free_[cls];
      while (block != nullptr) {
        void* next = *static_cast<void**>(block);
        ::operator delete(block);
        block = next;
      }
    }
  }

 private:
  FramePool() = default;

  static FramePool& Instance() {
    thread_local FramePool pool;
    return pool;
  }

  // Trivially-destructible flag that outlives the pool, so frames destroyed
  // during thread teardown (after ~FramePool) fall back to operator delete.
  static bool& alive() {
    thread_local bool is_alive = true;
    return is_alive;
  }

  void* free_[kNumClasses] = {};
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

// Inherit (or mirror) these operators in a promise_type to give its
// coroutine frames pooled storage.
struct FramePooled {
  static void* operator new(size_t bytes) { return FramePool::Alloc(bytes); }
  static void operator delete(void* block, size_t bytes) {
    FramePool::Free(block, bytes);
  }
};
}  // namespace internal

// Handle returned by a process coroutine. Ownership of the frame passes to
// the Simulator on Spawn; a Proc that is never spawned destroys its frame.
class [[nodiscard]] Proc {
 public:
  using promise_type = internal::ProcPromise;
  using Handle = std::coroutine_handle<internal::ProcPromise>;

  Proc() = default;
  explicit Proc(Handle handle) : handle_(handle) {}
  Proc(Proc&& other) noexcept : handle_(std::exchange(other.handle_, nullptr)) {}
  Proc& operator=(Proc&& other) noexcept {
    if (this != &other) {
      DestroyIfOwned();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  Proc(const Proc&) = delete;
  Proc& operator=(const Proc&) = delete;
  ~Proc() { DestroyIfOwned(); }

  Handle Release() { return std::exchange(handle_, nullptr); }

 private:
  void DestroyIfOwned() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }

  Handle handle_ = nullptr;
};

namespace internal {

struct ProcFinalAwaiter {
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<ProcPromise> handle) noexcept;
  void await_resume() const noexcept {}
};

struct ProcPromise : FramePooled {
  Simulator* sim = nullptr;
  // Shard the process was spawned on (the shard owning its node). A process
  // that runs its last event on a foreign shard — possible only via a
  // cross-node hop — is parked in that shard's finish mailbox of the current
  // window parity; after the window barrier the home shard's own worker
  // unlinks and destroys it, so a live list is only ever touched by the
  // worker that owns it.
  uint32_t home_shard = 0;
  // Intrusive doubly-linked list of live (spawned, not yet finished)
  // processes, threaded through the promise so the Simulator tracks
  // membership with pointer writes instead of a hash set.
  ProcPromise* live_prev = nullptr;
  ProcPromise* live_next = nullptr;

  Proc get_return_object() {
    return Proc(std::coroutine_handle<ProcPromise>::from_promise(*this));
  }
  std::suspend_always initial_suspend() noexcept { return {}; }
  ProcFinalAwaiter final_suspend() noexcept { return {}; }
  void return_void() {}
  void unhandled_exception() { std::terminate(); }
};

}  // namespace internal

// Value-returning subroutine. `co_await SomeCo(...)` starts the child and
// resumes the caller when the child co_returns.
template <typename T>
class [[nodiscard]] Co {
 public:
  struct promise_type : internal::FramePooled {
    std::coroutine_handle<> continuation;
    std::optional<T> value;

    Co get_return_object() {
      return Co(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    struct FinalAwaiter {
      bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<promise_type> handle) noexcept {
        auto continuation = handle.promise().continuation;
        return continuation ? continuation : std::noop_coroutine();
      }
      void await_resume() const noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }
    void return_value(T v) { value.emplace(std::move(v)); }
    void unhandled_exception() { std::terminate(); }
  };

  using Handle = std::coroutine_handle<promise_type>;

  explicit Co(Handle handle) : handle_(handle) {}
  Co(Co&& other) noexcept : handle_(std::exchange(other.handle_, nullptr)) {}
  Co(const Co&) = delete;
  Co& operator=(const Co&) = delete;
  Co& operator=(Co&&) = delete;
  ~Co() {
    if (handle_) {
      handle_.destroy();
    }
  }

  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> caller) noexcept {
    handle_.promise().continuation = caller;
    return handle_;
  }
  T await_resume() { return std::move(*handle_.promise().value); }

 private:
  Handle handle_;
};

// Spawning a *capturing lambda* coroutine directly is a lifetime trap: the
// captures live in the closure object, which usually dies long before the
// simulator first resumes the coroutine. RunClosure copies the closure into
// its own frame and drives it, so
//
//   sim.Spawn(RunClosure([&]() -> Co<void> { ... }));
//
// is safe no matter where the lambda was declared. (Plain coroutine
// *functions* are always safe — parameters are copied into the frame.)
template <typename Lambda>
Proc RunClosure(Lambda lambda) {
  co_await lambda();
}

template <>
class [[nodiscard]] Co<void> {
 public:
  struct promise_type : internal::FramePooled {
    std::coroutine_handle<> continuation;

    Co get_return_object() {
      return Co(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    struct FinalAwaiter {
      bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<promise_type> handle) noexcept {
        auto continuation = handle.promise().continuation;
        return continuation ? continuation : std::noop_coroutine();
      }
      void await_resume() const noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() { std::terminate(); }
  };

  using Handle = std::coroutine_handle<promise_type>;

  explicit Co(Handle handle) : handle_(handle) {}
  Co(Co&& other) noexcept : handle_(std::exchange(other.handle_, nullptr)) {}
  Co(const Co&) = delete;
  Co& operator=(const Co&) = delete;
  Co& operator=(Co&&) = delete;
  ~Co() {
    if (handle_) {
      handle_.destroy();
    }
  }

  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> caller) noexcept {
    handle_.promise().continuation = caller;
    return handle_;
  }
  void await_resume() {}

 private:
  Handle handle_;
};

}  // namespace flock::sim

#endif  // FLOCK_SIM_TASK_H_
