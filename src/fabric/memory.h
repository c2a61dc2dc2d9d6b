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
//
// Each chunk is its own anonymous mapping, prefaulted whole when it is
// created, so every byte is zero and resident before the simulation touches
// it (DESIGN.md §7: a first-touch fault inside a measured window costs host
// time there).
#ifndef FLOCK_FABRIC_MEMORY_H_
#define FLOCK_FABRIC_MEMORY_H_

#include <sys/mman.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "src/common/logging.h"

namespace flock::fabric {

class MemorySpace {
 public:
  static constexpr size_t kChunkBytes = size_t{4} << 20;

  MemorySpace() = default;
  ~MemorySpace() {
    for (uint8_t* chunk : chunks_) {
      munmap(chunk, kChunkBytes);
    }
  }

  MemorySpace(const MemorySpace&) = delete;
  MemorySpace& operator=(const MemorySpace&) = delete;

  size_t capacity() const { return chunks_.size() * kChunkBytes; }

  // Bump allocation; simulated applications never free (they live for the
  // duration of one experiment, as the paper's do). An allocation never
  // straddles a chunk boundary so At(addr) is contiguous for its whole size.
  uint64_t Alloc(size_t size, size_t align = 64) {
    FLOCK_CHECK(align > 0 && (align & (align - 1)) == 0)
        << "alignment " << align << " is not a power of two";
    FLOCK_CHECK_LE(size, kChunkBytes) << "single allocation too large";
    size_t base = (next_ + align - 1) & ~(align - 1);
    if (size > 0 && ChunkIndex(base) != ChunkIndex(base + size - 1)) {
      base = (ChunkIndex(base) + 1) * kChunkBytes;  // start of next chunk
    }
    while (ChunkIndex(base + (size > 0 ? size - 1 : 0)) >= chunks_.size()) {
      chunks_.push_back(MapChunk());
    }
    next_ = base + size;
    return static_cast<uint64_t>(base);
  }

  uint8_t* At(uint64_t addr) {
    FLOCK_CHECK_LT(addr, capacity());
    return chunks_[ChunkIndex(addr)] + (addr % kChunkBytes);
  }
  const uint8_t* At(uint64_t addr) const {
    FLOCK_CHECK_LT(addr, capacity());
    return chunks_[ChunkIndex(addr)] + (addr % kChunkBytes);
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

  // One zeroed, resident chunk. MAP_POPULATE has the kernel fault in and
  // zero every page inside the mmap call, instead of one trap per page on
  // first touch. Pages it could not populate stay mapped and fault in as
  // zeroes later, so a chunk reads zero either way.
  static uint8_t* MapChunk() {
    void* chunk = mmap(nullptr, kChunkBytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_POPULATE, -1, 0);
    FLOCK_CHECK(chunk != MAP_FAILED) << "cannot map a memory chunk";
    return static_cast<uint8_t*>(chunk);
  }

  std::vector<uint8_t*> chunks_;
  // Address 0 is reserved as a null sentinel (work requests use local_addr 0
  // to mean "no local buffer"), so allocations start at 64.
  size_t next_ = 64;
};

}  // namespace flock::fabric

#endif  // FLOCK_FABRIC_MEMORY_H_
