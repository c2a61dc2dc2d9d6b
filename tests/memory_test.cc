// Tests for fabric::MemorySpace, the per-node simulated host memory: chunks
// arrive zeroed, copies cross chunk boundaries, pointers survive growth,
// allocations never straddle a chunk, and a bad alignment is refused. Every
// case stays within three 4 MiB chunks.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/fabric/memory.h"

namespace flock::fabric {
namespace {

constexpr size_t kChunk = MemorySpace::kChunkBytes;

// The bytes at the start, the 2 MiB midpoint and the end of the chunk that
// holds `addr`.
void ExpectChunkZero(const MemorySpace& mem, uint64_t addr) {
  const uint64_t start = addr - addr % kChunk;
  for (const uint64_t at : {start, start + kChunk / 2, start + kChunk - 1}) {
    EXPECT_EQ(*mem.At(at), 0) << "byte " << at;
  }
}

TEST(MemorySpaceTest, FreshChunksReadZero) {
  MemorySpace mem;
  const uint64_t first = mem.Alloc(64);
  EXPECT_EQ(mem.capacity(), kChunk);
  // Fill most of chunk 0, then force chunk 1 with an allocation that does
  // not fit in what is left.
  mem.Alloc(kChunk - 4096);
  const uint64_t second = mem.Alloc(8192);
  EXPECT_EQ(mem.capacity(), 2 * kChunk);
  EXPECT_EQ(second, kChunk);
  ExpectChunkZero(mem, first);
  ExpectChunkZero(mem, second);
}

TEST(MemorySpaceTest, WriteReadRoundTripAcrossChunkBoundary) {
  MemorySpace mem;
  // The 64 B null sentinel pushes a whole-chunk allocation to chunk 1, so
  // chunks 0 and 1 both exist.
  mem.Alloc(kChunk);
  ASSERT_EQ(mem.capacity(), 2 * kChunk);
  std::vector<uint8_t> out(10000);
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<uint8_t>(i * 7 + 1);
  }
  const uint64_t addr = kChunk - 4000;  // 4000 bytes before the boundary
  mem.Write(addr, out.data(), out.size());
  std::vector<uint8_t> in(out.size());
  mem.Read(addr, in.data(), in.size());
  EXPECT_EQ(in, out);
  EXPECT_EQ(*mem.At(kChunk - 1), out[3999]);
  EXPECT_EQ(*mem.At(kChunk), out[4000]);
}

TEST(MemorySpaceTest, PointersStayValidAsTheSpaceGrows) {
  MemorySpace mem;
  const uint64_t addr = mem.Alloc(256);
  uint8_t* p = mem.At(addr);
  p[0] = 0xab;
  p[255] = 0xcd;
  mem.Alloc(kChunk);  // grows by a chunk
  mem.Alloc(kChunk);  // and another
  EXPECT_EQ(mem.capacity(), 3 * kChunk);
  EXPECT_EQ(mem.At(addr), p);
  EXPECT_EQ(p[0], 0xab);
  EXPECT_EQ(p[255], 0xcd);
}

TEST(MemorySpaceTest, AllocationsNeverStraddleAChunk) {
  MemorySpace mem;
  for (size_t size : {size_t{1} << 20, size_t{3} << 20, size_t{1} << 20,
                      size_t{100}, size_t{2} << 20, size_t{4096}}) {
    const uint64_t addr = mem.Alloc(size, 4096);
    EXPECT_EQ(addr % 4096, 0u);
    EXPECT_EQ(addr / kChunk, (addr + size - 1) / kChunk)
        << size << " bytes at " << addr;
  }
  EXPECT_LE(mem.capacity(), 3 * kChunk);
}

TEST(MemorySpaceDeathTest, NonPowerOfTwoAlignDies) {
  MemorySpace mem;
  EXPECT_DEATH(mem.Alloc(64, 48), "not a power of two");
  EXPECT_DEATH(mem.Alloc(64, 0), "not a power of two");
}

}  // namespace
}  // namespace flock::fabric
