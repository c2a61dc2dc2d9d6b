// Per-node host memory.
//
// Every simulated node owns one flat byte space. "Addresses" handed to the
// verbs layer are offsets into this space, which plays the role of the
// virtual addresses an RDMA application registers: RDMA reads/writes between
// nodes copy real bytes between these spaces, so protocol code (ring buffers,
// canaries, message codecs) above the verbs layer runs against genuine
// memory, not token messages.
//
// The space is one virtual reservation of kReserveBytes, made inaccessible
// and uncharged (PROT_NONE, MAP_NORESERVE) when the node is built. Alloc
// bumps a cursor and, when the cursor passes the committed end, commits just
// the new pages readable and writable and has the kernel prefault them, so
// every allocated byte is zero and resident before the simulation touches it
// (DESIGN.md §7: a first-touch fault inside a measured window costs host time
// there) and resident memory tracks the bytes handed out. The reservation
// never moves, so At() pointers stay valid for the space's lifetime and any
// allocation is contiguous.
#ifndef FLOCK_FABRIC_MEMORY_H_
#define FLOCK_FABRIC_MEMORY_H_

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>

#include "src/common/logging.h"

namespace flock::fabric {

class MemorySpace {
 public:
  // Address space reserved per node. The largest node measured holds about
  // 500 MB, so this leaves over 30x headroom, and ThreadSanitizer, which
  // leaves an application about 3.5 TB, still fits 221 of these in one
  // process (fig12_xl builds 104 nodes; 64 GiB would fit 53).
  static constexpr size_t kReserveBytes = size_t{16} << 30;

  MemorySpace() {
    void* base = mmap(nullptr, kReserveBytes, PROT_NONE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    FLOCK_CHECK(base != MAP_FAILED) << "cannot reserve simulated host memory";
    base_ = static_cast<uint8_t*>(base);
  }
  ~MemorySpace() { munmap(base_, kReserveBytes); }

  MemorySpace(const MemorySpace&) = delete;
  MemorySpace& operator=(const MemorySpace&) = delete;

  // Bytes from address 0 that are readable: every allocation so far, rounded
  // up to a whole page.
  size_t committed() const { return committed_; }

  // Bump allocation; simulated applications never free (they live for the
  // duration of one experiment, as the paper's do).
  uint64_t Alloc(size_t size, size_t align = 64) {
    FLOCK_CHECK(align > 0 && (align & (align - 1)) == 0)
        << "alignment " << align << " is not a power of two";
    const size_t base = (next_ + align - 1) & ~(align - 1);
    FLOCK_CHECK(base <= kReserveBytes && size <= kReserveBytes - base)
        << "simulated host memory exhausted: " << size << " bytes at " << base
        << " do not fit the " << kReserveBytes << "-byte reservation";
    next_ = base + size;
    if (next_ > committed_) {
      Commit(next_);
    }
    return static_cast<uint64_t>(base);
  }

  uint8_t* At(uint64_t addr) {
    FLOCK_CHECK_LT(addr, committed_);
    return base_ + addr;
  }
  const uint8_t* At(uint64_t addr) const {
    FLOCK_CHECK_LT(addr, committed_);
    return base_ + addr;
  }

  bool Contains(uint64_t addr, size_t len) const {
    return addr + len <= committed_ && addr + len >= addr;
  }

  void Write(uint64_t addr, const void* src, size_t len) {
    FLOCK_CHECK(Contains(addr, len));
    std::memcpy(base_ + addr, src, len);
  }

  void Read(uint64_t addr, void* dst, size_t len) const {
    FLOCK_CHECK(Contains(addr, len));
    std::memcpy(dst, base_ + addr, len);
  }

 private:
  // Maps [committed_, end rounded up to a page) over the reservation.
  // MAP_POPULATE has the kernel fault in and zero every new page inside the
  // mmap call instead of one trap per page on first touch; pages it could
  // not populate stay mapped and fault in as zeroes later.
  void Commit(size_t end) {
    static const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
    end = (end + page - 1) & ~(page - 1);
    void* at = mmap(base_ + committed_, end - committed_, PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS | MAP_FIXED | MAP_POPULATE, -1, 0);
    FLOCK_CHECK(at == base_ + committed_)
        << "cannot commit " << end - committed_ << " bytes of host memory";
    committed_ = end;
  }

  uint8_t* base_ = nullptr;
  size_t committed_ = 0;
  // Address 0 is reserved as a null sentinel (work requests use local_addr 0
  // to mean "no local buffer"), so allocations start at 64.
  size_t next_ = 64;
};

}  // namespace flock::fabric

#endif  // FLOCK_FABRIC_MEMORY_H_
