// Tests for fabric::MemorySpace, the per-node simulated host memory: one
// reservation per node whose pages are committed, zeroed and made resident
// exactly when Alloc hands them out. Allocations read zero, copies round-trip,
// pointers survive growth, allocations larger than any old chunk are
// contiguous, memory past the committed end is neither resident nor
// reachable, bad alignments and exhaustion are refused, and 128 spaces (more
// nodes than any bench builds) can be reserved at once.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "src/fabric/memory.h"

namespace flock::fabric {
namespace {

const size_t kPage = static_cast<size_t>(sysconf(_SC_PAGESIZE));

size_t RoundUpToPage(size_t n) { return (n + kPage - 1) / kPage * kPage; }

// How many of the pages in [p, p + len) are resident, per mincore on our own
// mapping. `p` must be page-aligned.
size_t ResidentPages(const uint8_t* p, size_t len) {
  std::vector<unsigned char> vec(RoundUpToPage(len) / kPage);
  EXPECT_EQ(mincore(const_cast<uint8_t*>(p), len, vec.data()), 0);
  size_t resident = 0;
  for (const unsigned char v : vec) {
    resident += v & 1;
  }
  return resident;
}

TEST(MemorySpaceTest, AllocationsReadZero) {
  MemorySpace mem;
  const uint64_t small = mem.Alloc(64);
  const uint64_t big = mem.Alloc(size_t{3} << 20, 4096);
  for (const uint64_t at : {small, small + 63, big, big + (size_t{3} << 19),
                            big + (size_t{3} << 20) - 1}) {
    EXPECT_EQ(*mem.At(at), 0) << "byte " << at;
  }
}

TEST(MemorySpaceTest, EveryAllocatedPageIsResidentAndTheNextIsNot) {
  MemorySpace mem;
  mem.Alloc(100);
  const size_t size = 5 * kPage + 100;  // six pages
  const uint64_t addr = mem.Alloc(size, kPage);
  const uint8_t* p = mem.At(addr);
  EXPECT_EQ(ResidentPages(p, size), 6u);
  // The first page after the committed end is reserved but not committed.
  EXPECT_EQ(ResidentPages(p + RoundUpToPage(size), kPage), 0u);
}

TEST(MemorySpaceTest, CommitsOnlyWholePagesItHandsOut) {
  MemorySpace mem;
  EXPECT_EQ(mem.committed(), 0u);
  mem.Alloc(100);
  EXPECT_EQ(mem.committed(), kPage);
  mem.Alloc(kPage - 200);  // still fits in page 0
  EXPECT_EQ(mem.committed(), kPage);
  mem.Alloc(2 * kPage);
  EXPECT_EQ(mem.committed(), 3 * kPage);
}

TEST(MemorySpaceTest, WriteReadRoundTrip) {
  MemorySpace mem;
  std::vector<uint8_t> out(10000);
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<uint8_t>(i * 7 + 1);
  }
  const uint64_t addr = mem.Alloc(out.size());
  mem.Write(addr, out.data(), out.size());
  std::vector<uint8_t> in(out.size());
  mem.Read(addr, in.data(), in.size());
  EXPECT_EQ(in, out);
  EXPECT_EQ(*mem.At(addr + 4000), out[4000]);
}

TEST(MemorySpaceTest, AllocationLargerThanFourMegabytesIsContiguous) {
  MemorySpace mem;
  const size_t size = size_t{9} << 20;
  const uint64_t addr = mem.Alloc(size);
  std::vector<uint8_t> out(size);
  for (size_t i = 0; i < size; ++i) {
    out[i] = static_cast<uint8_t>(i * 131 + (i >> 20));
  }
  mem.Write(addr, out.data(), size);
  std::vector<uint8_t> in(size);
  mem.Read(addr, in.data(), size);
  EXPECT_EQ(in, out);
  const uint8_t* p = mem.At(addr);
  for (const size_t off : {size_t{0}, (size_t{4} << 20) - 1, size_t{4} << 20,
                           (size_t{8} << 20) + 5, size - 1}) {
    EXPECT_EQ(mem.At(addr + off), p + off);
    EXPECT_EQ(p[off], out[off]) << "offset " << off;
  }
}

TEST(MemorySpaceTest, PointersStayValidAsTheSpaceGrows) {
  MemorySpace mem;
  const uint64_t addr = mem.Alloc(256);
  uint8_t* p = mem.At(addr);
  p[0] = 0xab;
  p[255] = 0xcd;
  mem.Alloc(size_t{5} << 20);
  mem.Alloc(size_t{5} << 20);
  EXPECT_GE(mem.committed(), size_t{10} << 20);
  EXPECT_EQ(mem.At(addr), p);
  EXPECT_EQ(p[0], 0xab);
  EXPECT_EQ(p[255], 0xcd);
}

// More spaces than fig12_xl's 104 nodes, all alive at once: the reservation
// size must leave room for every one of them, also under ThreadSanitizer,
// which leaves an application less address space.
TEST(MemorySpaceTest, HundredTwentyEightSpacesFitAtOnce) {
  constexpr int kSpaces = 128;
  auto spaces = std::make_unique<MemorySpace[]>(kSpaces);
  for (int i = 0; i < kSpaces; ++i) {
    const uint64_t addr = spaces[i].Alloc(1);
    *spaces[i].At(addr) = static_cast<uint8_t>(i);
  }
  for (int i = 0; i < kSpaces; ++i) {
    EXPECT_EQ(*spaces[i].At(64), static_cast<uint8_t>(i));
    EXPECT_EQ(spaces[i].committed(), kPage);
  }
}

TEST(MemorySpaceDeathTest, NonPowerOfTwoAlignDies) {
  MemorySpace mem;
  EXPECT_DEATH(mem.Alloc(64, 48), "not a power of two");
  EXPECT_DEATH(mem.Alloc(64, 0), "not a power of two");
}

TEST(MemorySpaceDeathTest, AtPastTheCommittedEndDies) {
  MemorySpace mem;
  mem.Alloc(100);
  EXPECT_DEATH(mem.At(mem.committed()), "addr < committed_");
  EXPECT_DEATH(MemorySpace().At(0), "addr < committed_");
}

TEST(MemorySpaceDeathTest, AllocPastTheReservationDies) {
  MemorySpace mem;
  // Allocations start at 64, so one byte more than what is left dies before
  // anything is committed.
  EXPECT_DEATH(mem.Alloc(MemorySpace::kReserveBytes - 63), "memory exhausted");
  EXPECT_DEATH(mem.Alloc(MemorySpace::kReserveBytes), "memory exhausted");
}

}  // namespace
}  // namespace flock::fabric
