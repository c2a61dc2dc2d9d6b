// Verifies the "allocation-free hot path" property end to end: once a Flock
// client/server pair reaches steady state, completing RPCs with payloads at
// or below the inline-buffer threshold (128 B) performs ZERO heap
// allocations — per-RPC state comes from Pool<T>, coroutine frames from the
// thread-local FramePool, payload bytes stay in SmallBuf inline storage, and
// the simulator's calendar queue recycles its bucket vectors.
//
// The check instruments the global allocator: every operator new in the
// process bumps a counter, and the counter must not move across a measured
// window of several thousand RPCs.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>

#include <new>
#include <vector>

#include "src/flock/flock.h"

namespace {

uint64_t g_allocs = 0;  // simulation is single-threaded; plain counter is fine

}  // namespace

void* operator new(std::size_t size) {
  ++g_allocs;
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  ++g_allocs;
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}

// Not inlined: GCC would see std::free() take memory from operator new and
// warn (-Wmismatched-new-delete), though both replacements use malloc/free.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace flock {
namespace {

sim::Proc EchoWorker(Connection* conn, FlockThread* thread, uint64_t* done) {
  std::vector<uint8_t> payload(64, 1);
  std::vector<uint8_t> resp;  // hoisted: capacity is reused across calls
  for (;;) {
    co_await conn->Call(*thread, 1, payload.data(), 64, &resp);
    (*done)++;
  }
}

TEST(AllocTest, SteadyStateRpcsAreAllocationFree) {
  verbs::Cluster cluster(
      verbs::Cluster::Config{.num_nodes = 2, .cores_per_node = 34, .cost = {}});
  FlockConfig config;
  FlockRuntime server(cluster, 0, config);
  server.RegisterHandler(1, [](const uint8_t*, uint32_t, uint8_t* resp,
                               uint32_t, Nanos* cpu) -> uint32_t {
    *cpu = 50;
    std::memset(resp, 1, 64);
    return 64;
  });
  server.StartServer(4);
  FlockRuntime client(cluster, 1, config);
  client.StartClient();
  Connection* conn = client.Connect(server, 4);
  uint64_t done = 0;
  for (int t = 0; t < 8; ++t) {
    cluster.sim().Spawn(EchoWorker(conn, client.CreateThread(t), &done));
  }

  // Warm-up: pools grow their slabs, rings and calendar buckets reach their
  // steady-state capacities, the scheduler settles its assignment.
  cluster.sim().RunFor(2 * kMillisecond);
  ASSERT_GT(done, 0u);

  const uint64_t allocs_before = g_allocs;
  const uint64_t done_before = done;
  const uint64_t rpc_reused_before = client.rpc_pool().reused();

  cluster.sim().RunFor(2 * kMillisecond);

  const uint64_t rpcs = done - done_before;
  ASSERT_GT(rpcs, 1000u) << "window too small to be meaningful";
  // Every per-RPC object came from a pool free list...
  EXPECT_GE(client.rpc_pool().reused() - rpc_reused_before, rpcs);
  // ...and the process performed no heap allocation at all.
  EXPECT_EQ(g_allocs - allocs_before, 0u)
      << "heap allocations on the steady-state RPC path: "
      << (g_allocs - allocs_before) << " over " << rpcs << " RPCs";
}

sim::Proc ExtentWorker(Connection* conn, FlockThread* thread,
                       const std::vector<uint8_t>* extent,
                       std::vector<uint8_t>* resp, uint64_t* done) {
  const uint32_t len = static_cast<uint32_t>(extent->size());
  for (;;) {
    uint32_t resp_len = 0;
    co_await conn->Call(*thread, 1, PayloadRef(extent->data(), len),
                        resp->data(), len, &resp_len);
    (*done)++;
  }
}

// Steady-state extent transfers are allocation-free too (DESIGN.md §16): the
// request gathers zero-copy from the caller's buffer, chunk PendingSends
// come from the pool, the server's reassembly buffers are grown once and
// reused, and the response lands directly in the caller's buffer.
TEST(AllocTest, SteadyStateExtentsAreAllocationFree) {
  verbs::Cluster cluster(
      verbs::Cluster::Config{.num_nodes = 2, .cores_per_node = 34, .cost = {}});
  FlockConfig config;
  config.max_payload = 1024 * 1024;
  config.segment_threshold = 8 * 1024;
  FlockRuntime server(cluster, 0, config);
  server.RegisterHandler(1, [](const uint8_t* req, uint32_t len, uint8_t* resp,
                               uint32_t, Nanos* cpu) -> uint32_t {
    *cpu = 500;
    std::memcpy(resp, req, len);
    return len;
  });
  server.StartServer(4);
  FlockRuntime client(cluster, 1, config);
  client.StartClient();
  Connection* conn = client.Connect(server, 4);

  constexpr uint32_t kExtent = 256 * 1024;
  std::vector<uint8_t> extent(kExtent, 7);
  // Response buffers hoisted outside the workers: caller-owned, reused.
  std::vector<std::vector<uint8_t>> resps(2, std::vector<uint8_t>(kExtent));
  uint64_t done = 0;
  for (int t = 0; t < 2; ++t) {
    cluster.sim().Spawn(
        ExtentWorker(conn, client.CreateThread(t), &extent, &resps[t], &done));
  }

  // Warm-up: reassembly buffers grow to the extent size, pools fill.
  cluster.sim().RunFor(4 * kMillisecond);
  ASSERT_GT(done, 0u);

  const uint64_t allocs_before = g_allocs;
  const uint64_t done_before = done;

  cluster.sim().RunFor(4 * kMillisecond);

  const uint64_t extents = done - done_before;
  ASSERT_GT(extents, 4u) << "window too small to be meaningful";
  EXPECT_EQ(g_allocs - allocs_before, 0u)
      << "heap allocations on the steady-state extent path: "
      << (g_allocs - allocs_before) << " over " << extents << " extents";
}

sim::Proc MemOpWorker(Connection* conn, FlockThread* thread, uint64_t local,
                      uint64_t remote, RemoteMr mr, uint64_t* done) {
  for (uint64_t i = 0;; ++i) {
    const verbs::WcStatus status =
        i % 2 == 0 ? co_await conn->Read(*thread, local, remote, 64, mr)
                   : co_await conn->Write(*thread, local, remote, 64, mr);
    if (status == verbs::WcStatus::kSuccess) {
      (*done)++;
    }
  }
}

// One-sided reads and writes (§6) are allocation-free in steady state too:
// each op lives in its submitter's frame and the memop pump links every
// batch into a WR array the lane keeps across batches.
TEST(AllocTest, SteadyStateOneSidedOpsAreAllocationFree) {
  verbs::Cluster cluster(
      verbs::Cluster::Config{.num_nodes = 2, .cores_per_node = 34, .cost = {}});
  FlockConfig config;
  FlockRuntime server(cluster, 0, config);
  server.StartServer(4);
  FlockRuntime client(cluster, 1, config);
  client.StartClient();
  Connection* conn = client.Connect(server, 4);
  constexpr int kThreads = 8;
  const uint64_t remote = cluster.mem(0).Alloc(kThreads * 64, 64);
  const uint64_t local = cluster.mem(1).Alloc(kThreads * 64, 64);
  const RemoteMr mr = conn->AttachMreg(remote, kThreads * 64);
  uint64_t done = 0;
  for (int t = 0; t < kThreads; ++t) {
    cluster.sim().Spawn(MemOpWorker(conn, client.CreateThread(t),
                                    local + t * 64, remote + t * 64, mr, &done));
  }

  // Warm-up: pools, the pump's WR array and calendar buckets reach their
  // steady-state capacities.
  cluster.sim().RunFor(2 * kMillisecond);
  ASSERT_GT(done, 0u);

  const uint64_t allocs_before = g_allocs;
  const uint64_t done_before = done;

  cluster.sim().RunFor(2 * kMillisecond);

  const uint64_t ops = done - done_before;
  ASSERT_GT(ops, 1000u) << "window too small to be meaningful";
  EXPECT_EQ(g_allocs - allocs_before, 0u)
      << "heap allocations on the steady-state one-sided path: "
      << (g_allocs - allocs_before) << " over " << ops << " ops";
}

}  // namespace
}  // namespace flock
