// Per-node host memory.
//
// Every simulated node owns one flat byte space. "Addresses" handed to the
// verbs layer are offsets into this space, which plays the role of the
// virtual addresses an RDMA application registers: RDMA reads/writes between
// nodes copy real bytes between these spaces, so protocol code (ring buffers,
// canaries, message codecs) above the verbs layer runs against genuine
// memory, not token messages.
//
// Storage is chunked and grows on demand; pointers returned by At() stay
// valid forever because chunks are never reallocated. A single allocation
// must fit inside one chunk (4 MiB), which every buffer in this codebase
// satisfies by a wide margin.
#ifndef FLOCK_FABRIC_MEMORY_H_
#define FLOCK_FABRIC_MEMORY_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "src/common/logging.h"

namespace flock::fabric {

class MemorySpace {
 public:
  static constexpr size_t kChunkBytes = size_t{4} << 20;

  MemorySpace() = default;

  MemorySpace(const MemorySpace&) = delete;
  MemorySpace& operator=(const MemorySpace&) = delete;

  size_t capacity() const { return chunks_.size() * kChunkBytes; }
  size_t allocated() const { return next_; }

  // Bump allocation; simulated applications never free (they live for the
  // duration of one experiment, as the paper's do). An allocation never
  // straddles a chunk boundary so At(addr) is contiguous for its whole size.
  uint64_t Alloc(size_t size, size_t align = 64) {
    FLOCK_CHECK_GT(align, 0u);
    FLOCK_CHECK_LE(size, kChunkBytes) << "single allocation too large";
    size_t base = (next_ + align - 1) & ~(align - 1);
    if (size > 0 && ChunkIndex(base) != ChunkIndex(base + size - 1)) {
      base = (ChunkIndex(base) + 1) * kChunkBytes;  // start of next chunk
    }
    while (ChunkIndex(base + (size > 0 ? size - 1 : 0)) >= chunks_.size()) {
      // make_unique<T[]> value-initializes: the chunk arrives zeroed.
      chunks_.push_back(std::make_unique<uint8_t[]>(kChunkBytes));
    }
    next_ = base + size;
    high_water_ = next_ > high_water_ ? next_ : high_water_;
    return static_cast<uint64_t>(base);
  }

  uint8_t* At(uint64_t addr) {
    FLOCK_CHECK_LT(addr, capacity());
    return chunks_[ChunkIndex(addr)].get() + (addr % kChunkBytes);
  }
  const uint8_t* At(uint64_t addr) const {
    FLOCK_CHECK_LT(addr, capacity());
    return chunks_[ChunkIndex(addr)].get() + (addr % kChunkBytes);
  }

  bool Contains(uint64_t addr, size_t len) const {
    return addr + len <= capacity() && addr + len >= addr;
  }

  // Chunk-boundary-safe bulk copy into the space.
  void Write(uint64_t addr, const void* src, size_t len) {
    FLOCK_CHECK(Contains(addr, len));
    const uint8_t* from = static_cast<const uint8_t*>(src);
    while (len > 0) {
      const size_t in_chunk = kChunkBytes - (addr % kChunkBytes);
      const size_t n = len < in_chunk ? len : in_chunk;
      std::memcpy(At(addr), from, n);
      addr += n;
      from += n;
      len -= n;
    }
  }

  // Chunk-boundary-safe bulk copy out of the space.
  void Read(uint64_t addr, void* dst, size_t len) const {
    FLOCK_CHECK(Contains(addr, len));
    uint8_t* to = static_cast<uint8_t*>(dst);
    while (len > 0) {
      const size_t in_chunk = kChunkBytes - (addr % kChunkBytes);
      const size_t n = len < in_chunk ? len : in_chunk;
      std::memcpy(to, At(addr), n);
      addr += n;
      to += n;
      len -= n;
    }
  }

 private:
  static size_t ChunkIndex(uint64_t addr) { return addr / kChunkBytes; }

  std::vector<std::unique_ptr<uint8_t[]>> chunks_;
  // Address 0 is reserved as a null sentinel (work requests use local_addr 0
  // to mean "no local buffer"), so allocations start at 64.
  size_t next_ = 64;
  size_t high_water_ = 0;
};

}  // namespace flock::fabric

#endif  // FLOCK_FABRIC_MEMORY_H_
