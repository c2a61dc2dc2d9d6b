// Large-message segmentation (DESIGN.md §16): ReassemblyPool unit coverage,
// the per-chunk SeqSlotMap::Find lookup, and end-to-end multi-MB extents
// over the simulated RDMA stack — chunk trains both directions, mixed with
// small metadata traffic.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "src/common/pool.h"
#include "src/flock/flock.h"
#include "src/flock/segment.h"

namespace flock {
namespace {

using internal::ChunkTrainFor;
using internal::ReassemblyKey;
using internal::ReassemblyPool;
using internal::ReassemblyTimeout;
using internal::SegmentChunkBytes;
using wire::SegMark;

std::vector<uint8_t> Pattern(size_t n, uint32_t seed) {
  std::vector<uint8_t> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = static_cast<uint8_t>(seed * 131 + i * 7);
  }
  return v;
}

// ---------------------------------------------------------------------------
// ReassemblyPool
// ---------------------------------------------------------------------------

TEST(ReassemblyPoolTest, CompleteTrainRoundTrips) {
  ReassemblyPool pool;
  pool.Init(4, 64 * 1024);
  const ReassemblyKey key{&pool, 3, 42};
  auto bytes = Pattern(1000, 1);

  uint32_t complete_len = 0;
  EXPECT_EQ(pool.Feed(key, SegMark::kFirst, bytes.data(), 400, 10, &complete_len),
            nullptr);
  EXPECT_EQ(pool.in_use(), 1u);
  EXPECT_EQ(pool.Feed(key, SegMark::kMiddle, bytes.data() + 400, 400, 20,
                      &complete_len),
            nullptr);
  const uint8_t* out =
      pool.Feed(key, SegMark::kLast, bytes.data() + 800, 200, 30, &complete_len);
  ASSERT_NE(out, nullptr);
  ASSERT_EQ(complete_len, 1000u);
  EXPECT_EQ(std::memcmp(out, bytes.data(), 1000), 0);
  // Completion releases the entry; the buffer is kept for reuse.
  EXPECT_EQ(pool.in_use(), 0u);
  EXPECT_EQ(pool.completed(), 1u);
}

TEST(ReassemblyPoolTest, FirstChunkResetsStalePartial) {
  ReassemblyPool pool;
  pool.Init(2, 4096);
  const ReassemblyKey key{&pool, 1, 7};
  auto stale = Pattern(300, 2);
  auto fresh = Pattern(500, 3);
  uint32_t complete_len = 0;

  // A partial train (retransmit scenario: the tail chunks were lost).
  pool.Feed(key, SegMark::kFirst, stale.data(), 300, 0, &complete_len);
  // The watchdog resends the whole extent: kFirst must discard the partial.
  pool.Feed(key, SegMark::kFirst, fresh.data(), 250, 50, &complete_len);
  const uint8_t* out =
      pool.Feed(key, SegMark::kLast, fresh.data() + 250, 250, 60, &complete_len);
  ASSERT_NE(out, nullptr);
  ASSERT_EQ(complete_len, 500u);
  EXPECT_EQ(std::memcmp(out, fresh.data(), 500), 0);
  EXPECT_EQ(pool.resets(), 1u);
}

TEST(ReassemblyPoolTest, ContinuationWithoutFirstIsOrphan) {
  ReassemblyPool pool;
  pool.Init(2, 4096);
  auto bytes = Pattern(100, 4);
  uint32_t complete_len = 0;
  EXPECT_EQ(pool.Feed({&pool, 0, 1}, SegMark::kMiddle, bytes.data(), 100, 0,
                      &complete_len),
            nullptr);
  EXPECT_EQ(pool.Feed({&pool, 0, 1}, SegMark::kLast, bytes.data(), 100, 0,
                      &complete_len),
            nullptr);
  EXPECT_EQ(pool.orphans(), 2u);
  EXPECT_EQ(pool.in_use(), 0u);
}

TEST(ReassemblyPoolTest, OversizeTrainIsDropped) {
  ReassemblyPool pool;
  pool.Init(2, 256);  // max 256 assembled bytes
  auto bytes = Pattern(200, 5);
  uint32_t complete_len = 0;
  pool.Feed({&pool, 0, 9}, SegMark::kFirst, bytes.data(), 200, 0, &complete_len);
  // 200 + 200 > 256: the train is dropped and its entry released.
  EXPECT_EQ(pool.Feed({&pool, 0, 9}, SegMark::kMiddle, bytes.data(), 200, 0,
                      &complete_len),
            nullptr);
  EXPECT_EQ(pool.dropped_oversize(), 1u);
  EXPECT_EQ(pool.in_use(), 0u);
  // The rest of the (now orphaned) train is counted, not fatal.
  EXPECT_EQ(pool.Feed({&pool, 0, 9}, SegMark::kLast, bytes.data(), 56, 0,
                      &complete_len),
            nullptr);
  EXPECT_EQ(pool.orphans(), 1u);
}

TEST(ReassemblyPoolTest, PoolIsBounded) {
  ReassemblyPool pool;
  pool.Init(2, 4096);
  auto bytes = Pattern(64, 6);
  uint32_t complete_len = 0;
  pool.Feed({&pool, 0, 1}, SegMark::kFirst, bytes.data(), 64, 0, &complete_len);
  pool.Feed({&pool, 1, 2}, SegMark::kFirst, bytes.data(), 64, 0, &complete_len);
  // Third concurrent train: no free entry, chunk dropped.
  EXPECT_EQ(pool.Feed({&pool, 2, 3}, SegMark::kFirst, bytes.data(), 64, 0,
                      &complete_len),
            nullptr);
  EXPECT_EQ(pool.dropped_no_entry(), 1u);
  EXPECT_EQ(pool.in_use(), 2u);
}

TEST(ReassemblyPoolTest, ReclaimDropsIdlePartials) {
  ReassemblyPool pool;
  pool.Init(4, 4096);
  auto bytes = Pattern(64, 7);
  uint32_t complete_len = 0;
  pool.Feed({&pool, 0, 1}, SegMark::kFirst, bytes.data(), 64, 100, &complete_len);
  pool.Feed({&pool, 1, 2}, SegMark::kFirst, bytes.data(), 64, 900, &complete_len);
  EXPECT_EQ(pool.in_use(), 2u);
  // Timeout 500 at now=700: only the first partial (idle since 100) goes.
  EXPECT_EQ(pool.Reclaim(700, 500), 1u);
  EXPECT_EQ(pool.in_use(), 1u);
  // Its key is free again for a fresh train.
  pool.Feed({&pool, 0, 1}, SegMark::kFirst, bytes.data(), 64, 1000, &complete_len);
  EXPECT_EQ(pool.in_use(), 2u);
  EXPECT_EQ(pool.reclaimed(), 1u);
}

TEST(SegmentChunkBytesTest, ThresholdFlooredAt64) {
  FlockConfig config;
  // A chunk is threshold-sized, so a segmented payload (> threshold) spans
  // >= 2 chunks.
  config.segment_threshold = 4096;
  EXPECT_EQ(SegmentChunkBytes(config), 4096u);
  config.segment_threshold = 8 * 1024;
  EXPECT_EQ(SegmentChunkBytes(config), 8u * 1024);
  // Floored: a tiny threshold never degenerates into per-byte messages.
  config.segment_threshold = 1;
  EXPECT_EQ(SegmentChunkBytes(config), 64u);
}

// Below a 64 B threshold a chunk is still 64 B, so a payload between the
// threshold and one chunk travels whole: a one-chunk train marked kFirst would
// never complete on the server.
TEST(SegmentChunkBytesTest, PayloadWithinOneChunkIsNotSegmented) {
  FlockConfig config;
  config.segment_threshold = 16;
  wire::ChunkTrain small = ChunkTrainFor(config, 32);
  EXPECT_EQ(small.size(), 32u);
  EXPECT_EQ(wire::SegOf(small.data_len()), SegMark::kNone);
  small.Next();
  EXPECT_TRUE(small.done());

  wire::ChunkTrain large = ChunkTrainFor(config, 100);
  EXPECT_EQ(large.size(), 64u);
  EXPECT_EQ(wire::SegOf(large.data_len()), SegMark::kFirst);
  large.Next();
  EXPECT_EQ(large.size(), 36u);
  EXPECT_EQ(wire::SegOf(large.data_len()), SegMark::kLast);
  large.Next();
  EXPECT_TRUE(large.done());
}

TEST(ReassemblyTimeoutTest, DerivedFromWatchdog) {
  FlockConfig config;
  config.rpc_timeout = 100 * kMicrosecond;
  EXPECT_EQ(ReassemblyTimeout(config), 200 * kMicrosecond);
}

TEST(SeqSlotMapTest, FindDoesNotRemove) {
  SeqSlotMap<int> map;
  int a = 1, b = 2;
  map.Insert(10, &a);
  map.Insert(77, &b);
  // Per-chunk lookups leave the entry in place...
  EXPECT_EQ(map.Find(10), &a);
  EXPECT_EQ(map.Find(10), &a);
  EXPECT_EQ(map.Find(3), nullptr);
  // ...until the final chunk takes it.
  EXPECT_EQ(map.Take(10), &a);
  EXPECT_EQ(map.Find(10), nullptr);
  EXPECT_EQ(map.Find(77), &b);
}

// ---------------------------------------------------------------------------
// End-to-end extents
// ---------------------------------------------------------------------------

constexpr uint16_t kEchoRpc = 1;
constexpr uint16_t kChecksumRpc = 2;

uint32_t EchoHandler(const uint8_t* req, uint32_t len, uint8_t* resp,
                     uint32_t cap, Nanos* cpu) {
  FLOCK_CHECK_LE(len, cap);
  std::memcpy(resp, req, len);
  *cpu = 60;
  return len;
}

// Sums the request bytes: a large-upload handler with a small response.
uint32_t ChecksumHandler(const uint8_t* req, uint32_t len, uint8_t* resp,
                         uint32_t cap, Nanos* cpu) {
  FLOCK_CHECK_GE(cap, 8u);
  uint64_t sum = 0;
  for (uint32_t i = 0; i < len; ++i) {
    sum += req[i];
  }
  std::memcpy(resp, &sum, 8);
  *cpu = 200;
  return 8;
}

struct SegWorld {
  explicit SegWorld(uint32_t max_payload = 2 * 1024 * 1024)
      : cluster(verbs::Cluster::Config{.num_nodes = 2, .cores_per_node = 8}) {
    FlockConfig cfg;
    cfg.max_payload = max_payload;
    cfg.segment_threshold = 8 * 1024;
    server = std::make_unique<FlockRuntime>(cluster, 0, cfg);
    server->RegisterHandler(kEchoRpc, EchoHandler);
    server->RegisterHandler(kChecksumRpc, ChecksumHandler);
    server->StartServer(4);
    client = std::make_unique<FlockRuntime>(cluster, 1, cfg);
    client->StartClient();
  }

  verbs::Cluster cluster;
  std::unique_ptr<FlockRuntime> server;
  std::unique_ptr<FlockRuntime> client;
};

TEST(SegmentE2eTest, MegabyteEchoRoundTrips) {
  SegWorld world;
  Connection* conn = world.client->Connect(*world.server, 4);
  FlockThread* thread = world.client->CreateThread(0);

  constexpr uint32_t kExtent = 1024 * 1024;
  auto extent = Pattern(kExtent, 11);
  std::vector<uint8_t> resp(kExtent, 0);
  bool finished = false;
  auto app = [&]() -> sim::Co<void> {
    uint32_t resp_len = 0;
    const bool ok =
        co_await conn->Call(*thread, kEchoRpc, PayloadRef(extent.data(), kExtent),
                            resp.data(), kExtent, &resp_len);
    EXPECT_TRUE(ok);
    EXPECT_EQ(resp_len, kExtent);
    if (resp_len == kExtent) {
      EXPECT_EQ(std::memcmp(resp.data(), extent.data(), kExtent), 0);
    }
    finished = true;
  };
  world.cluster.sim().Spawn(sim::RunClosure(app));
  world.cluster.sim().RunFor(100 * kMillisecond);
  ASSERT_TRUE(finished);
  // The extent actually travelled as chunk trains, not one giant message.
  EXPECT_GT(world.server->server_stats().requests, 0u);
}

TEST(SegmentE2eTest, MultiSliceRequestGathersZeroCopy) {
  SegWorld world;
  Connection* conn = world.client->Connect(*world.server, 2);
  FlockThread* thread = world.client->CreateThread(0);

  // Composite request: metadata header + two body fragments, all caller-owned.
  auto head = Pattern(64, 1);
  auto body1 = Pattern(40 * 1024, 2);
  auto body2 = Pattern(24 * 1024, 3);
  PayloadRef req;
  req.Add(head.data(), static_cast<uint32_t>(head.size()));
  req.Add(body1.data(), static_cast<uint32_t>(body1.size()));
  req.Add(body2.data(), static_cast<uint32_t>(body2.size()));
  const uint32_t total = req.size();

  std::vector<uint8_t> flat(total);
  req.CopyTo(flat.data());
  std::vector<uint8_t> resp(total, 0);
  bool finished = false;
  auto app = [&]() -> sim::Co<void> {
    uint32_t resp_len = 0;
    const bool ok = co_await conn->Call(*thread, kEchoRpc, req, resp.data(),
                                        total, &resp_len);
    EXPECT_TRUE(ok);
    EXPECT_EQ(resp_len, total);
    if (resp_len == total) {
      EXPECT_EQ(std::memcmp(resp.data(), flat.data(), total), 0);
    }
    finished = true;
  };
  world.cluster.sim().Spawn(sim::RunClosure(app));
  world.cluster.sim().RunFor(100 * kMillisecond);
  ASSERT_TRUE(finished);
}

TEST(SegmentE2eTest, LargeUploadSmallResponse) {
  SegWorld world;
  Connection* conn = world.client->Connect(*world.server, 2);
  FlockThread* thread = world.client->CreateThread(0);

  constexpr uint32_t kExtent = 512 * 1024;
  auto extent = Pattern(kExtent, 21);
  uint64_t expect_sum = 0;
  for (uint32_t i = 0; i < kExtent; ++i) {
    expect_sum += extent[i];
  }
  bool finished = false;
  auto app = [&]() -> sim::Co<void> {
    uint8_t resp[8] = {};
    uint32_t resp_len = 0;
    const bool ok = co_await conn->Call(*thread, kChecksumRpc,
                                        PayloadRef(extent.data(), kExtent), resp,
                                        8, &resp_len);
    EXPECT_TRUE(ok);
    EXPECT_EQ(resp_len, 8u);
    uint64_t sum = 0;
    std::memcpy(&sum, resp, 8);
    EXPECT_EQ(sum, expect_sum);
    finished = true;
  };
  world.cluster.sim().Spawn(sim::RunClosure(app));
  world.cluster.sim().RunFor(100 * kMillisecond);
  ASSERT_TRUE(finished);
}

TEST(SegmentE2eTest, MixedSmallAndLargeTrafficAllCompletes) {
  SegWorld world;
  Connection* conn = world.client->Connect(*world.server, 4);

  // Three metadata threads hammering small echoes while one extent thread
  // streams megabyte reads: chunk interleaving must not starve either side.
  int small_done = 0;
  int large_done = 0;
  bool stop = false;
  for (int t = 0; t < 3; ++t) {
    FlockThread* thread = world.client->CreateThread(t);
    auto app = [&world, conn, thread, &small_done, &stop]() -> sim::Co<void> {
      std::vector<uint8_t> payload(128, static_cast<uint8_t>(thread->id()));
      std::vector<uint8_t> resp(128);
      while (!stop) {
        uint32_t resp_len = 0;
        const bool ok = co_await conn->Call(
            *thread, kEchoRpc, PayloadRef(payload.data(), 128), resp.data(),
            128, &resp_len);
        EXPECT_TRUE(ok);
        EXPECT_EQ(resp_len, 128u);
        ++small_done;
      }
    };
    world.cluster.sim().Spawn(sim::RunClosure(app));
  }
  FlockThread* big_thread = world.client->CreateThread(3);
  constexpr uint32_t kExtent = 1024 * 1024;
  auto extent = Pattern(kExtent, 31);
  std::vector<uint8_t> big_resp(kExtent);
  auto big_app = [&]() -> sim::Co<void> {
    for (int i = 0; i < 4; ++i) {
      uint32_t resp_len = 0;
      const bool ok = co_await conn->Call(*big_thread, kEchoRpc,
                                          PayloadRef(extent.data(), kExtent),
                                          big_resp.data(), kExtent, &resp_len);
      EXPECT_TRUE(ok);
      EXPECT_EQ(resp_len, kExtent);
      if (resp_len == kExtent) {
        EXPECT_EQ(std::memcmp(big_resp.data(), extent.data(), kExtent), 0);
      }
      ++large_done;
    }
    stop = true;
  };
  world.cluster.sim().Spawn(sim::RunClosure(big_app));
  world.cluster.sim().RunFor(500 * kMillisecond);
  EXPECT_EQ(large_done, 4);
  EXPECT_GT(small_done, 50);  // metadata traffic kept flowing throughout
  EXPECT_TRUE(stop);
}

TEST(SegmentE2eTest, SmallPayloadsBelowThresholdStayInline) {
  // With segmentation configured but all traffic below the threshold, the
  // path is the ordinary inline one — and the legacy vector-response Call
  // still works against a seg-configured peer.
  SegWorld world;
  Connection* conn = world.client->Connect(*world.server, 2);
  FlockThread* thread = world.client->CreateThread(0);

  int completed = 0;
  auto app = [&]() -> sim::Co<void> {
    std::vector<uint8_t> payload(256, 9);
    for (int i = 0; i < 200; ++i) {
      std::vector<uint8_t> resp;
      const bool ok =
          co_await conn->Call(*thread, kEchoRpc, payload.data(), 256, &resp);
      EXPECT_TRUE(ok);
      EXPECT_EQ(resp.size(), 256u);
      ++completed;
    }
  };
  world.cluster.sim().Spawn(sim::RunClosure(app));
  world.cluster.sim().RunFor(100 * kMillisecond);
  EXPECT_EQ(completed, 200);
}

TEST(SegmentE2eTest, DeterministicReplay) {
  auto run = []() -> uint64_t {
    SegWorld world;
    Connection* conn = world.client->Connect(*world.server, 2);
    FlockThread* thread = world.client->CreateThread(0);
    constexpr uint32_t kExtent = 256 * 1024;
    auto extent = Pattern(kExtent, 13);
    std::vector<uint8_t> resp(kExtent);
    int completed = 0;
    auto app = [&]() -> sim::Co<void> {
      for (int i = 0; i < 3; ++i) {
        uint32_t resp_len = 0;
        const bool ok = co_await conn->Call(*thread, kEchoRpc,
                                            PayloadRef(extent.data(), kExtent),
                                            resp.data(), kExtent, &resp_len);
        EXPECT_TRUE(ok);
        EXPECT_EQ(resp_len, kExtent);
        ++completed;
      }
    };
    world.cluster.sim().Spawn(sim::RunClosure(app));
    world.cluster.sim().RunFor(100 * kMillisecond);
    EXPECT_EQ(completed, 3);
    return world.cluster.sim().events_processed();
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace flock
