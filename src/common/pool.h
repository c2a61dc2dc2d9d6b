// Allocation-free hot-path building blocks: a slab-backed object pool with an
// intrusive free list, a small-buffer-optimized byte buffer with a free list
// for its grown heap blocks, and an open-addressed sequence-number map.
//
// The Flock data path allocates nothing in steady state (see DESIGN.md
// "Simulator internals & performance"): per-RPC objects come from Pool<T>,
// payloads up to SmallBuf's inline capacity stay inline, larger ones reuse
// blocks from a SmallBufFreeList, and outstanding-RPC lookup uses SeqSlotMap
// instead of a node-based hash map.
#ifndef FLOCK_COMMON_POOL_H_
#define FLOCK_COMMON_POOL_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "src/common/logging.h"

namespace flock {

// Fixed-type object pool. Objects live in slabs owned by the pool; freed
// objects park on a free list threaded intrusively through the freed slots
// themselves, so New()/Delete() in steady state is a pointer swap plus the
// object's constructor/destructor — no general-purpose allocator traffic.
//
// Delete() checks an in-use marker, so double-frees and frees of pointers
// that never came from a pool slot fail loudly instead of corrupting the
// free list. Objects still outstanding when the pool dies (in-flight
// operations of a simulation stopped mid-workload) are destroyed with it.
template <typename T>
class Pool {
 public:
  explicit Pool(size_t slab_objects = 64) : slab_objects_(slab_objects) {
    FLOCK_CHECK_GT(slab_objects_, 0u);
  }

  ~Pool() {
    for (auto& slab : slabs_) {
      for (size_t i = 0; i < slab_objects_; ++i) {
        if (slab[i].next == InUseMarker()) {
          reinterpret_cast<T*>(slab[i].storage)->~T();
        }
      }
    }
  }

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  template <typename... Args>
  T* New(Args&&... args) {
    Slot* slot = free_head_;
    if (slot != nullptr) {
      free_head_ = slot->next;
      ++reused_;
    } else {
      slot = Grow();
    }
    slot->next = InUseMarker();
    ++outstanding_;
    return new (slot->storage) T(std::forward<Args>(args)...);
  }

  void Delete(T* object) {
    if (object == nullptr) {
      return;
    }
    Slot* slot = SlotOf(object);
    FLOCK_CHECK(slot->next == InUseMarker())
        << "pool Delete of a pointer that is not a live pool object "
           "(double free or foreign pointer)";
    object->~T();
    slot->next = free_head_;
    free_head_ = slot;
    FLOCK_CHECK_GT(outstanding_, 0u);
    --outstanding_;
  }

  // Live objects currently handed out.
  size_t outstanding() const { return outstanding_; }
  // Total slots across all slabs.
  size_t capacity() const { return slabs_.size() * slab_objects_; }
  size_t slab_count() const { return slabs_.size(); }
  // Allocations served from the free list (steady state ⇒ all of them).
  uint64_t reused() const { return reused_; }

 private:
  struct Slot {
    Slot* next;
    alignas(alignof(T)) unsigned char storage[sizeof(T)];
  };

  static Slot* SlotOf(T* object) {
    return reinterpret_cast<Slot*>(reinterpret_cast<unsigned char*>(object) -
                                   offsetof(Slot, storage));
  }

  // Never a valid Slot* (unaligned); marks a slot as handed out.
  static Slot* InUseMarker() {
    return reinterpret_cast<Slot*>(uintptr_t{1});
  }

  Slot* Grow() {
    auto slab = std::make_unique<Slot[]>(slab_objects_);
    // Thread all but the returned slot onto the free list, keeping address
    // order so early allocations are cache-adjacent.
    for (size_t i = slab_objects_; i-- > 1;) {
      slab[i].next = free_head_;
      free_head_ = &slab[i];
    }
    Slot* first = &slab[0];
    slabs_.push_back(std::move(slab));
    return first;
  }

  size_t slab_objects_;
  Slot* free_head_ = nullptr;
  size_t outstanding_ = 0;
  uint64_t reused_ = 0;
  std::vector<std::unique_ptr<Slot[]>> slabs_;
};

// Byte buffer with inline storage for payloads up to kInline bytes. The
// RPC-path request/response payloads are almost always small (the paper's
// workloads are 16–128 B), so the common case never touches the heap; larger
// payloads fall back to a heap block grown geometrically.
template <size_t kInline = 128>
class SmallBuf {
 public:
  static constexpr size_t kInlineBytes = kInline;

  SmallBuf() = default;
  ~SmallBuf() { delete[] heap_; }

  SmallBuf(const SmallBuf&) = delete;
  SmallBuf& operator=(const SmallBuf&) = delete;

  // Movable so a payload can travel into a coroutine frame by value: a heap
  // block changes owner, inline contents are memcpy'd.
  SmallBuf(SmallBuf&& other) noexcept { MoveFrom(other); }
  SmallBuf& operator=(SmallBuf&& other) noexcept {
    if (this != &other) {
      delete[] heap_;
      MoveFrom(other);
    }
    return *this;
  }

  // Sets the size to `n` and returns the writable destination pointer.
  uint8_t* Resize(uint32_t n) {
    if (n > kInline && n > heap_capacity_) {
      delete[] heap_;
      heap_capacity_ = std::max(n, heap_capacity_ * 2);
      heap_ = new uint8_t[heap_capacity_];
    }
    size_ = n;
    return data();
  }

  void Assign(const uint8_t* src, uint32_t n) {
    std::memcpy(Resize(n), src, n);
  }

  // Appends `n` bytes, preserving existing contents across a heap growth
  // (Resize alone discards them when it reallocates). Used by segmented
  // response reassembly to accumulate chunks in arrival order.
  void Append(const uint8_t* src, uint32_t n) {
    const uint32_t old_size = size_;
    const uint64_t new_size = uint64_t{old_size} + n;
    FLOCK_CHECK_LE(new_size, uint64_t{UINT32_MAX});
    if (new_size > kInline && new_size > heap_capacity_) {
      const uint32_t new_cap =
          std::max(static_cast<uint32_t>(new_size), heap_capacity_ * 2);
      uint8_t* grown = new uint8_t[new_cap];
      std::memcpy(grown, data(), old_size);
      delete[] heap_;
      heap_ = grown;
      heap_capacity_ = new_cap;
    }
    const bool was_inline = old_size <= kInline;
    size_ = static_cast<uint32_t>(new_size);
    if (was_inline && size_ > kInline) {
      // The buffer just crossed into heap storage: carry the inline prefix.
      std::memcpy(heap_, inline_, old_size);
    }
    std::memcpy(data() + old_size, src, n);
  }

  void CopyTo(std::vector<uint8_t>* out) const {
    out->resize(size_);
    std::memcpy(out->data(), data(), size_);
  }

  uint8_t* data() { return size_ <= kInline ? inline_ : heap_; }
  const uint8_t* data() const { return size_ <= kInline ? inline_ : heap_; }
  uint32_t size() const { return size_; }
  // Whether Resize(n) would reuse existing storage (inline or retained heap
  // block) rather than allocate. Lets buffer recyclers pick a fitting block.
  bool FitsWithoutAlloc(uint32_t n) const {
    return n <= kInline || n <= heap_capacity_;
  }
  uint32_t heap_capacity() const { return heap_capacity_; }
  bool empty() const { return size_ == 0; }
  void clear() { size_ = 0; }
  bool inlined() const { return size_ <= kInline; }

 private:
  void MoveFrom(SmallBuf& other) noexcept {
    size_ = other.size_;
    heap_capacity_ = other.heap_capacity_;
    heap_ = other.heap_;
    if (size_ <= kInline) {
      std::memcpy(inline_, other.inline_, size_);
    }
    other.size_ = 0;
    other.heap_capacity_ = 0;
    other.heap_ = nullptr;
  }

  uint32_t size_ = 0;
  uint32_t heap_capacity_ = 0;
  uint8_t* heap_ = nullptr;
  uint8_t inline_[kInline];
};

// Recycled SmallBufs: a finished buffer parks here with its heap block, and
// Acquire hands back the best fit for the next payload, so streams of
// payloads above the inline threshold reach a steady-state population of
// blocks and then stop allocating. Best fit matters: a big block burned on
// a small payload leaves the next big payload only small blocks to grow.
template <size_t kInline>
class SmallBufFreeList {
 public:
  SmallBuf<kInline> Acquire(uint32_t len) {
    if (free_.empty()) {
      return SmallBuf<kInline>();
    }
    size_t pick = free_.size();
    for (size_t i = 0; i < free_.size(); ++i) {
      if (!free_[i].FitsWithoutAlloc(len)) {
        continue;
      }
      if (pick == free_.size() ||
          free_[i].heap_capacity() < free_[pick].heap_capacity()) {
        pick = i;
        if (free_[i].heap_capacity() == 0) {
          break;  // inline fit; nothing smaller exists
        }
      }
    }
    if (pick == free_.size()) {
      pick = free_.size() - 1;  // no fit: grow an existing block
    }
    SmallBuf<kInline> buf = std::move(free_[pick]);
    free_[pick] = std::move(free_.back());
    free_.pop_back();
    return buf;
  }

  void Recycle(SmallBuf<kInline>&& buf) {
    buf.clear();
    free_.push_back(std::move(buf));
  }

 private:
  std::vector<SmallBuf<kInline>> free_;
};

// Bounded-churn FIFO queue over a power-of-two ring. Unlike std::deque —
// which allocates and frees a block every time the queue drifts across a
// node boundary — the ring reaches its steady-state capacity once and then
// never touches the allocator again. Used for QP send/receive queues.
template <typename T>
class FifoRing {
 public:
  bool empty() const { return head_ == tail_; }
  size_t size() const { return static_cast<size_t>(tail_ - head_); }

  void push_back(const T& item) {
    if (tail_ - head_ == ring_.size()) {
      Grow();
    }
    ring_[tail_ & (ring_.size() - 1)] = item;
    ++tail_;
  }

  T& front() {
    FLOCK_CHECK(!empty());
    return ring_[head_ & (ring_.size() - 1)];
  }

  void pop_front() {
    FLOCK_CHECK(!empty());
    ++head_;
  }

 private:
  void Grow() {
    const size_t old_cap = ring_.size();
    const size_t new_cap = old_cap == 0 ? 16 : old_cap * 2;
    std::vector<T> grown(new_cap);
    for (uint64_t i = head_; i != tail_; ++i) {
      grown[i & (new_cap - 1)] = ring_[i & (old_cap - 1)];
    }
    ring_ = std::move(grown);
  }

  std::vector<T> ring_;
  uint64_t head_ = 0;
  uint64_t tail_ = 0;
};

// Open-addressed map from a monotonically increasing sequence number to a
// pointer. Linear probing with backward-shift deletion (no tombstones);
// identity hashing is ideal because live keys are a dense window of recent
// sequence numbers. Replaces unordered_map on the RPC response path.
//
// Key 0 is reserved (sequence numbers start at 1).
template <typename V>
class SeqSlotMap {
 public:
  void Insert(uint32_t seq, V* value) {
    FLOCK_CHECK_NE(seq, 0u);
    FLOCK_CHECK(value != nullptr);
    if (slots_.empty() || (size_ + 1) * 2 > slots_.size()) {
      Grow();
    }
    size_t i = seq & Mask();
    while (slots_[i].value != nullptr) {
      FLOCK_CHECK_NE(slots_[i].seq, seq) << "duplicate sequence number";
      i = (i + 1) & Mask();
    }
    slots_[i] = Slot{seq, value};
    ++size_;
  }

  // Removes and returns the entry for `seq`; nullptr if absent.
  V* Take(uint32_t seq) {
    if (slots_.empty()) {
      return nullptr;
    }
    size_t i = seq & Mask();
    while (slots_[i].value != nullptr) {
      if (slots_[i].seq == seq) {
        V* value = slots_[i].value;
        ShiftOut(i);
        --size_;
        return value;
      }
      i = (i + 1) & Mask();
    }
    return nullptr;
  }

  // Returns the entry for `seq` without removing it; nullptr if absent.
  // Segmented responses look the RPC up per chunk and only Take() it when
  // the final chunk lands.
  V* Find(uint32_t seq) const {
    if (slots_.empty()) {
      return nullptr;
    }
    size_t i = seq & Mask();
    while (slots_[i].value != nullptr) {
      if (slots_[i].seq == seq) {
        return slots_[i].value;
      }
      i = (i + 1) & Mask();
    }
    return nullptr;
  }

  size_t size() const { return size_; }
  size_t capacity() const { return slots_.size(); }

  // Visits every live entry (unspecified order). The callback must not
  // mutate the map — collect first, then Insert/Take (used by the RPC retry
  // watchdog to scan outstanding requests for expired deadlines).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (slot.value != nullptr) {
        fn(slot.seq, slot.value);
      }
    }
  }

 private:
  struct Slot {
    uint32_t seq = 0;
    V* value = nullptr;
  };

  size_t Mask() const { return slots_.size() - 1; }

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? 64 : old.size() * 2, Slot{});
    size_ = 0;
    for (const Slot& slot : old) {
      if (slot.value != nullptr) {
        size_t i = slot.seq & Mask();
        while (slots_[i].value != nullptr) {
          i = (i + 1) & Mask();
        }
        slots_[i] = slot;
        ++size_;
      }
    }
  }

  // Backward-shift deletion: walk the probe chain after the hole and move
  // back every entry whose home position precedes the hole.
  void ShiftOut(size_t hole) {
    size_t i = (hole + 1) & Mask();
    while (slots_[i].value != nullptr) {
      const size_t home = slots_[i].seq & Mask();
      if (((i - home) & Mask()) >= ((i - hole) & Mask())) {
        slots_[hole] = slots_[i];
        hole = i;
      }
      i = (i + 1) & Mask();
    }
    slots_[hole] = Slot{};
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
};

}  // namespace flock

#endif  // FLOCK_COMMON_POOL_H_
