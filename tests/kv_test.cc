// Unit tests for the MICA-style KV store: CRUD, OCC lock/version protocol,
// replica apply, stable version addresses, and the client-side one-sided
// lookup path (fl_read + seqlock validation) over the simulated RDMA stack.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "src/kv/kvstore.h"
#include "src/kv/remote_kv.h"

namespace flock::kv {
namespace {

class KvTest : public ::testing::Test {
 protected:
  KvTest() : store_(mem_, 1024, 16) {}

  fabric::MemorySpace mem_;
  KvStore store_;
};

TEST_F(KvTest, InsertAndGet) {
  const char value[16] = "hello-value";
  ASSERT_TRUE(store_.Insert(42, value));
  char out[16] = {};
  uint64_t version = 0, addr = 0;
  ASSERT_TRUE(store_.Get(42, out, &version, &addr));
  EXPECT_STREQ(out, "hello-value");
  EXPECT_EQ(version, 2u);
  EXPECT_NE(addr, 0u);
}

TEST_F(KvTest, DuplicateInsertRejected) {
  const char value[16] = "v";
  ASSERT_TRUE(store_.Insert(1, value));
  EXPECT_FALSE(store_.Insert(1, value));
  EXPECT_EQ(store_.size(), 1u);
}

TEST_F(KvTest, MissingKeyGetFails) {
  uint64_t version = 0;
  EXPECT_FALSE(store_.Get(999, nullptr, &version, nullptr));
}

TEST_F(KvTest, LockBlocksReadersAndSecondLocker) {
  const char value[16] = "locked";
  ASSERT_TRUE(store_.Insert(7, value));
  uint64_t version = 0;
  ASSERT_TRUE(store_.TryLock(7, nullptr, &version));
  EXPECT_EQ(version, 2u);
  // OCC readers see the lock and fail.
  EXPECT_FALSE(store_.Get(7, nullptr, nullptr, nullptr));
  // Second lock attempt fails.
  EXPECT_FALSE(store_.TryLock(7, nullptr, nullptr));
  // Abort path: unlock without version bump.
  ASSERT_TRUE(store_.Unlock(7));
  ASSERT_TRUE(store_.Get(7, nullptr, &version, nullptr));
  EXPECT_EQ(version, 2u);
}

TEST_F(KvTest, CommitBumpsVersion) {
  const char v1[16] = "aaaa";
  const char v2[16] = "bbbb";
  ASSERT_TRUE(store_.Insert(5, v1));
  ASSERT_TRUE(store_.TryLock(5, nullptr, nullptr));
  ASSERT_TRUE(store_.UpdateAndUnlock(5, v2));
  char out[16] = {};
  uint64_t version = 0;
  ASSERT_TRUE(store_.Get(5, out, &version, nullptr));
  EXPECT_STREQ(out, "bbbb");
  EXPECT_EQ(version, 4u);  // 2 -> 4
}

TEST_F(KvTest, VersionAddrIsStableAcrossUpdates) {
  const char value[16] = "x";
  ASSERT_TRUE(store_.Insert(3, value));
  uint64_t addr1 = 0, addr2 = 0;
  ASSERT_TRUE(store_.Get(3, nullptr, nullptr, &addr1));
  ASSERT_TRUE(store_.TryLock(3, nullptr, nullptr));
  ASSERT_TRUE(store_.UpdateAndUnlock(3, value));
  ASSERT_TRUE(store_.Get(3, nullptr, nullptr, &addr2));
  EXPECT_EQ(addr1, addr2);
  // And the version word is readable directly from node memory (this is what
  // a remote one-sided validation read sees).
  uint64_t raw = 0;
  mem_.Read(addr1, &raw, 8);
  EXPECT_EQ(raw, 4u);
}

TEST_F(KvTest, ReplicaApplyInstallsVersionAndValue) {
  const char v1[16] = "old";
  const char v2[16] = "new";
  ASSERT_TRUE(store_.Insert(8, v1));
  ASSERT_TRUE(store_.ReplicaApply(8, 10, v2));
  char out[16] = {};
  uint64_t version = 0;
  ASSERT_TRUE(store_.Get(8, out, &version, nullptr));
  EXPECT_STREQ(out, "new");
  EXPECT_EQ(version, 10u);
}

TEST_F(KvTest, ManyKeysSurviveProbing) {
  char value[16];
  for (uint64_t k = 0; k < 700; ++k) {
    std::memcpy(value, &k, 8);
    ASSERT_TRUE(store_.Insert(k * 977 + 13, value));
  }
  EXPECT_EQ(store_.size(), 700u);
  for (uint64_t k = 0; k < 700; ++k) {
    char out[16] = {};
    ASSERT_TRUE(store_.Get(k * 977 + 13, out, nullptr, nullptr));
    uint64_t got = 0;
    std::memcpy(&got, out, 8);
    EXPECT_EQ(got, k);
  }
}

TEST_F(KvTest, SpansCoverRecords) {
  const char value[16] = "z";
  for (uint64_t k = 0; k < 100; ++k) {
    ASSERT_TRUE(store_.Insert(k, value));
  }
  ASSERT_FALSE(store_.spans().empty());
  uint64_t addr = 0;
  ASSERT_TRUE(store_.Get(50, nullptr, nullptr, &addr));
  bool covered = false;
  for (const auto& span : store_.spans()) {
    covered |= (addr >= span.addr && addr + 8 <= span.addr + span.length);
  }
  EXPECT_TRUE(covered);
}

// ---------------------------------------------------------------------------
// One-sided lookups: OneSidedReader against a KvStore living in the server
// node's registered memory, with RPC-side writers mutating underneath.
// ---------------------------------------------------------------------------

struct RemoteKvWorld {
  RemoteKvWorld()
      : cluster(verbs::Cluster::Config{.num_nodes = 2, .cores_per_node = 8}),
        store(cluster.mem(0), 256, 16) {
    FlockConfig cfg;
    server = std::make_unique<FlockRuntime>(cluster, 0, cfg);
    server->StartServer(2);
    client = std::make_unique<FlockRuntime>(cluster, 1, cfg);
    client->StartClient();
    conn = client->Connect(*server, 2);
    thread = client->CreateThread(0);
  }

  // Registers the store's spans and files every present key's record address
  // with the reader (standing in for the RPC address-learning channel).
  void Publish(OneSidedReader& reader, const std::vector<uint64_t>& keys) {
    std::vector<RemoteMr> mrs;
    for (const auto& span : store.spans()) {
      mrs.push_back(conn->AttachMreg(span.addr, span.length));
    }
    for (uint64_t key : keys) {
      uint64_t addr = 0;
      ASSERT_TRUE(store.Get(key, nullptr, nullptr, &addr));
      for (const auto& mr : mrs) {
        if (addr >= mr.addr && addr + 8 + store.value_size() <= mr.addr + mr.length) {
          reader.LearnAddr(key, addr, mr);
          break;
        }
      }
      ASSERT_TRUE(reader.KnowsAddr(key));
    }
  }

  verbs::Cluster cluster;
  KvStore store;
  std::unique_ptr<FlockRuntime> server;
  std::unique_ptr<FlockRuntime> client;
  Connection* conn = nullptr;
  FlockThread* thread = nullptr;
};

TEST(RemoteKvTest, OneSidedGetDeliversValueAndVersion) {
  RemoteKvWorld world;
  const char value[16] = "one-sided";
  ASSERT_TRUE(world.store.Insert(42, value));
  OneSidedReader reader(*world.conn, world.cluster.mem(1), 16);
  world.Publish(reader, {42});

  bool finished = false;
  auto app = [&]() -> sim::Co<void> {
    char out[16] = {};
    uint64_t version = 0;
    EXPECT_EQ(co_await reader.Get(*world.thread, 42, out, &version),
              OneSidedReader::Outcome::kOk);
    EXPECT_STREQ(out, "one-sided");
    EXPECT_EQ(version, 2u);
    // Unknown key: no cached address, caller must take the RPC path.
    EXPECT_EQ(co_await reader.Get(*world.thread, 999, out, &version),
              OneSidedReader::Outcome::kNoAddr);
    finished = true;
  };
  world.cluster.sim().Spawn(sim::RunClosure(app));
  world.cluster.sim().RunFor(10 * kMillisecond);
  EXPECT_TRUE(finished);
  EXPECT_EQ(reader.stats().ok, 1u);
  EXPECT_EQ(reader.stats().no_addr, 1u);
  // The lookup went over the wire as READs, not RPCs.
  EXPECT_GE(world.cluster.device(1).stats().tx_reads, 2u);
}

TEST(RemoteKvTest, LockedRecordIsRejectedUntilCommit) {
  RemoteKvWorld world;
  const char v1[16] = "before";
  const char v2[16] = "after";
  ASSERT_TRUE(world.store.Insert(7, v1));
  OneSidedReader reader(*world.conn, world.cluster.mem(1), 16);
  world.Publish(reader, {7});

  // Writer: lock the record, hold it (with torn garbage in the value bytes)
  // for 30 us of simulated time, then commit the real value.
  uint64_t record = 0;
  ASSERT_TRUE(world.store.Get(7, nullptr, nullptr, &record));
  auto writer = [&]() -> sim::Proc {
    uint64_t version = 0;
    FLOCK_CHECK(world.store.TryLock(7, nullptr, &version));
    const char garbage[16] = "TORNTORNTORN";
    world.cluster.mem(0).Write(record + 8, garbage, 16);
    co_await sim::Delay(world.cluster.sim(), 30 * kMicrosecond);
    FLOCK_CHECK(world.store.UpdateAndUnlock(7, v2));
  };

  bool finished = false;
  auto app = [&]() -> sim::Co<void> {
    char out[16] = {};
    uint64_t version = 0;
    // While the writer holds the lock, a bounded read attempt gives up
    // cleanly — and never exposes the torn bytes.
    EXPECT_EQ(co_await reader.Get(*world.thread, 7, out, &version,
                                  /*retry_limit=*/1),
              OneSidedReader::Outcome::kContended);
    // Retrying with a generous budget rides out the writer and must observe
    // the committed value, never the garbage.
    OneSidedReader::Outcome outcome = OneSidedReader::Outcome::kContended;
    while (outcome == OneSidedReader::Outcome::kContended) {
      outcome = co_await reader.Get(*world.thread, 7, out, &version, 8);
    }
    EXPECT_EQ(outcome, OneSidedReader::Outcome::kOk);
    EXPECT_STREQ(out, "after");
    EXPECT_EQ(version, 4u);
    finished = true;
  };
  world.cluster.sim().Spawn(writer());
  world.cluster.sim().Spawn(sim::RunClosure(app));
  world.cluster.sim().RunFor(10 * kMillisecond);
  EXPECT_TRUE(finished);
  EXPECT_GT(reader.stats().locked_retries, 0u);
}

// Concurrent one-sided readers vs a server-side writer churning the record:
// every accepted value is internally consistent (never the mid-install
// pattern), and versions only move forward.
TEST(RemoteKvTest, ConcurrentWriterNeverYieldsTornValue) {
  RemoteKvWorld world;
  char value[16] = {};
  std::memset(value, 1, sizeof(value));
  ASSERT_TRUE(world.store.Insert(3, value));
  OneSidedReader reader(*world.conn, world.cluster.mem(1), 16);
  world.Publish(reader, {3});
  uint64_t record = 0;
  ASSERT_TRUE(world.store.Get(3, nullptr, nullptr, &record));

  // Writer: every 5 us, lock + scribble garbage + hold 2 us + commit a
  // fresh all-bytes-equal pattern.
  auto writer = [&]() -> sim::Proc {
    for (int round = 2; round < 60; ++round) {
      co_await sim::Delay(world.cluster.sim(), 3 * kMicrosecond);
      FLOCK_CHECK(world.store.TryLock(3, nullptr, nullptr));
      char garbage[16];
      std::memset(garbage, 0xEE, sizeof(garbage));
      world.cluster.mem(0).Write(record + 8, garbage, 16);
      co_await sim::Delay(world.cluster.sim(), 2 * kMicrosecond);
      char next[16];
      std::memset(next, round & 0x7F, sizeof(next));
      FLOCK_CHECK(world.store.UpdateAndUnlock(3, next));
    }
  };

  int accepted = 0;
  uint64_t last_version = 0;
  auto reads = [&]() -> sim::Co<void> {
    for (int i = 0; i < 200; ++i) {
      char out[16] = {};
      uint64_t version = 0;
      const auto outcome =
          co_await reader.Get(*world.thread, 3, out, &version, 2);
      if (outcome == OneSidedReader::Outcome::kOk) {
        EXPECT_EQ(version & kLockBit, 0u);
        EXPECT_GE(version, last_version) << "version went backwards";
        last_version = version;
        for (int b = 1; b < 16; ++b) {
          EXPECT_EQ(out[b], out[0]) << "torn value escaped validation";
        }
        EXPECT_NE(static_cast<uint8_t>(out[0]), 0xEE)
            << "mid-install garbage escaped validation";
        ++accepted;
      }
    }
  };
  world.cluster.sim().Spawn(writer());
  world.cluster.sim().Spawn(sim::RunClosure(reads));
  world.cluster.sim().RunFor(20 * kMillisecond);
  EXPECT_GT(accepted, 100);
  // The schedule is engineered to collide: validation must actually have
  // rejected some attempts.
  EXPECT_GT(reader.stats().locked_retries + reader.stats().version_retries +
                reader.stats().contended,
            0u);
}

}  // namespace
}  // namespace flock::kv
