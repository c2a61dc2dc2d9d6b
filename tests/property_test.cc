// Parameterized property tests: invariants swept across configuration spaces
// with TEST_P / INSTANTIATE_TEST_SUITE_P.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <tuple>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/rand.h"
#include "src/ctrl/control_plane.h"
#include "src/ctrl/wire.h"
#include "src/flock/flock.h"
#include "src/flock/ring.h"
#include "src/flock/segment.h"
#include "src/flock/wire.h"
#include "src/kv/kvstore.h"
#include "src/kv/remote_kv.h"
#include "src/rnic/qp_cache.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"
#include "src/tenant/tenant.h"
#include "src/verbs/fault.h"

namespace flock {
namespace {

// ---------------------------------------------------------------------------
// Ring protocol: for any (ring size, payload size, batch pattern), every
// produced request is consumed exactly once, in order, bit-identical.
// ---------------------------------------------------------------------------

class RingProperty
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint32_t, uint32_t>> {};

TEST_P(RingProperty, LosslessInOrderDelivery) {
  const auto [ring_bytes, payload, max_batch] = GetParam();
  std::vector<uint8_t> ring(ring_bytes, 0);
  RingProducer producer(ring_bytes);
  RingConsumer consumer(ring.data(), ring_bytes);
  Rng rng(ring_bytes * 31 + payload * 7 + max_batch);

  uint32_t next_seq = 0;
  uint32_t verified = 0;
  uint64_t canary = 1;
  for (int round = 0; round < 3000; ++round) {
    const uint32_t n = 1 + static_cast<uint32_t>(rng.NextBelow(max_batch));
    const uint32_t msg_len = wire::MessageBytes(n, n * payload);
    RingProducer::Reservation resv;
    if (msg_len <= ring_bytes / 2 && producer.Reserve(msg_len, &resv)) {
      if (resv.wrapped) {
        wire::EncodeWrapMarker(ring.data() + resv.marker_offset, canary++);
      }
      wire::MessageEncoder enc(ring.data() + resv.offset, msg_len, canary++);
      std::vector<uint8_t> data(payload);
      for (uint32_t i = 0; i < n; ++i) {
        for (auto& b : data) {
          b = static_cast<uint8_t>(next_seq + i);
        }
        enc.Add(wire::ReqMeta{payload, 0, 0, next_seq + i}, data.data());
      }
      ASSERT_EQ(enc.Seal(consumer.consumed_report(), 0), msg_len);
      next_seq += n;
    }
    // Consume a random amount (possibly nothing) to vary producer/consumer lag.
    int to_consume = static_cast<int>(rng.NextBelow(3));
    wire::MsgHeader header;
    while (to_consume-- > 0 && consumer.Probe(&header) == wire::ProbeResult::kMessage) {
      std::vector<wire::ReqView> views(header.num_reqs);
      ASSERT_TRUE(wire::DecodeRequests(consumer.MessagePtr(), header, views.data()));
      for (const auto& view : views) {
        ASSERT_EQ(view.meta.seq, verified);
        for (uint32_t b = 0; b < payload; ++b) {
          ASSERT_EQ(view.data[b], static_cast<uint8_t>(verified));
        }
        ++verified;
      }
      consumer.Consume(header);
      producer.OnHeadUpdate(consumer.consumed_report());
    }
  }
  // Drain.
  wire::MsgHeader header;
  while (consumer.Probe(&header) == wire::ProbeResult::kMessage) {
    std::vector<wire::ReqView> views(header.num_reqs);
    ASSERT_TRUE(wire::DecodeRequests(consumer.MessagePtr(), header, views.data()));
    verified += header.num_reqs;
    consumer.Consume(header);
  }
  EXPECT_EQ(verified, next_seq);
  EXPECT_GT(verified, 1000u);
}

INSTANTIATE_TEST_SUITE_P(
    Rings, RingProperty,
    ::testing::Combine(::testing::Values(4096u, 65536u, 262144u),   // ring size
                       ::testing::Values(0u, 16u, 64u, 512u),       // payload
                       ::testing::Values(1u, 4u, 16u)));            // batch

// ---------------------------------------------------------------------------
// Wire codec under corruption: whatever bytes a remote peer scribbles into
// the ring, ProbeMessage/DecodeRequests either reject the message or yield
// request views that stay strictly inside the receive buffer. This is the
// fuzz companion to the overflow regressions in wire_test (a 0xFFFFFFF0
// data_len must not wrap the cursor past the buffer).
// ---------------------------------------------------------------------------

class WireFuzzProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WireFuzzProperty, CorruptedMessagesNeverEscapeBounds) {
  constexpr uint32_t kCap = 4096;
  Rng rng(GetParam());
  std::vector<uint8_t> buf(kCap, 0);
  std::vector<uint8_t> payload(256, 0xAB);
  uint64_t canary = 1;
  for (int round = 0; round < 4000; ++round) {
    // Start from a valid coalesced message so corruption hits live fields.
    const uint32_t n = 1 + static_cast<uint32_t>(rng.NextBelow(8));
    const uint32_t per_req = static_cast<uint32_t>(rng.NextBelow(256));
    const uint32_t msg_len = wire::MessageBytes(n, n * per_req);
    ASSERT_LE(msg_len, kCap);
    // Half the rounds start from a segmented message (chunk-train metas and
    // the kFlagSegment header flag), so corruption also hits mark bits and
    // the continuation flag.
    const bool segmented = rng.NextBelow(2) == 0;
    wire::MessageEncoder enc(buf.data(), kCap, canary++);
    for (uint32_t i = 0; i < n; ++i) {
      const auto mark = segmented ? static_cast<wire::SegMark>(rng.NextBelow(4))
                                  : wire::SegMark::kNone;
      enc.Add(wire::ReqMeta{wire::PackSegLen(mark, per_req), 0, 0, i},
              payload.data());
    }
    const auto flags = segmented ? wire::kFlagSegment : wire::HeaderFlags{};
    ASSERT_EQ(enc.Seal(0, 0, flags), msg_len);

    const uint32_t flips = 1 + static_cast<uint32_t>(rng.NextBelow(8));
    for (uint32_t f = 0; f < flips; ++f) {
      buf[rng.NextBelow(msg_len)] ^=
          static_cast<uint8_t>(1 + rng.NextBelow(255));
    }

    wire::MsgHeader header;
    if (wire::ProbeMessage(buf.data(), kCap, &header) ==
        wire::ProbeResult::kMessage) {
      ASSERT_GE(header.total_len, wire::kHeaderBytes + wire::kCanaryBytes);
      ASSERT_LE(header.total_len, kCap);
      std::vector<wire::ReqView> views(header.num_reqs);
      if (wire::DecodeRequests(buf.data(), header, views.data())) {
        for (uint32_t i = 0; i < header.num_reqs; ++i) {
          // On-wire bytes are the masked length: mark bits carry no data.
          ASSERT_GE(views[i].data, buf.data());
          ASSERT_LE(views[i].data + wire::SegLen(views[i].meta.data_len),
                    buf.data() + kCap);
        }
      }
    }
    std::memset(buf.data(), 0, msg_len);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireFuzzProperty,
                         ::testing::Values(uint64_t{1}, uint64_t{7},
                                           uint64_t{42}, uint64_t{1337},
                                           uint64_t{0xDEADBEEF}));

// ---------------------------------------------------------------------------
// Reassembly under chunk-train interleaving and garbage (DESIGN.md §16):
// whatever arrives — torn trains, duplicates, reordered continuations,
// orphans — the pool never crashes, never grows past its bound, and a final
// reclaim always drains every partial.
// ---------------------------------------------------------------------------

class SegmentFuzzProperty : public ::testing::TestWithParam<uint64_t> {};

// Well-formed trains on distinct keys, chunks randomly interleaved across
// keys but in-order within each (the per-lane FIFO guarantee): every train
// reassembles to exactly its payload.
TEST_P(SegmentFuzzProperty, InterleavedTrainsReassembleCorrectly) {
  Rng rng(GetParam());
  internal::ReassemblyPool pool;
  constexpr uint32_t kMaxBytes = 64 * 1024;
  pool.Init(8, kMaxBytes);

  struct Train {
    internal::ReassemblyKey key;
    std::vector<uint8_t> bytes;
    uint32_t offset = 0;  // next byte to send
    bool done = false;
  };
  int lanes[2];  // distinct stable addresses standing in for lane identities
  for (int round = 0; round < 50; ++round) {
    std::vector<Train> trains(1 + rng.NextBelow(6));
    const auto seq = static_cast<uint32_t>(100 + round);
    for (size_t t = 0; t < trains.size(); ++t) {
      trains[t].key = {&lanes[t % 2], static_cast<uint16_t>(t), seq};
      trains[t].bytes.resize(2 + rng.NextBelow(8000));
      for (size_t i = 0; i < trains[t].bytes.size(); ++i) {
        trains[t].bytes[i] = static_cast<uint8_t>(rng.NextBelow(256));
      }
    }
    size_t live = trains.size();
    Nanos now = 0;
    while (live > 0) {
      Train& train = trains[rng.NextBelow(trains.size())];
      if (train.done) {
        continue;
      }
      const uint32_t total = static_cast<uint32_t>(train.bytes.size());
      const uint32_t remain = total - train.offset;
      uint32_t len =
          std::min(remain, 1 + static_cast<uint32_t>(rng.NextBelow(2048)));
      if (train.offset == 0 && len == total) {
        len = total - 1;  // a segmented train always spans >= 2 chunks
      }
      const auto mark = train.offset == 0   ? wire::SegMark::kFirst
                        : len == remain ? wire::SegMark::kLast
                                        : wire::SegMark::kMiddle;
      uint32_t complete_len = 0;
      const uint8_t* out =
          pool.Feed(train.key, mark, train.bytes.data() + train.offset, len,
                    ++now, &complete_len);
      train.offset += len;
      if (train.offset == total) {
        ASSERT_NE(out, nullptr);
        ASSERT_EQ(complete_len, total);
        ASSERT_EQ(std::memcmp(out, train.bytes.data(), total), 0);
        train.done = true;
        --live;
      }
    }
    ASSERT_EQ(pool.in_use(), 0u);
  }
}

// Chunk soup: random marks, keys, lengths and reclaim points. Invariants:
// the pool never exceeds its entry bound, completed payloads never exceed
// max_bytes, the counters account for every chunk fed, and a final timeout-0
// reclaim leaves nothing live.
TEST_P(SegmentFuzzProperty, TornChunkSoupNeverCrashesOrLeaks) {
  Rng rng(GetParam() * 31 + 5);
  internal::ReassemblyPool pool;
  constexpr uint32_t kEntries = 4;
  constexpr uint32_t kMaxBytes = 4096;
  pool.Init(kEntries, kMaxBytes);
  std::vector<uint8_t> junk(2048, 0x5A);
  int lanes[2];
  Nanos now = 0;

  for (int round = 0; round < 20000; ++round) {
    now += rng.NextBelow(100);
    if (rng.NextBelow(64) == 0) {
      pool.Reclaim(now, rng.NextBelow(2000));
    }
    const internal::ReassemblyKey key{&lanes[rng.NextBelow(2)],
                                      static_cast<uint16_t>(rng.NextBelow(3)),
                                      static_cast<uint32_t>(rng.NextBelow(8))};
    // Marks skewed toward continuations so trains tear often; kNone (a
    // corrupt continuation flag at decode time) is fed too.
    const auto mark = static_cast<wire::SegMark>(rng.NextBelow(5) % 4);
    const uint32_t len = static_cast<uint32_t>(rng.NextBelow(junk.size() + 1));
    uint32_t complete_len = 0;
    const uint8_t* out = pool.Feed(key, mark, junk.data(), len, now, &complete_len);
    if (out != nullptr) {
      ASSERT_LE(complete_len, kMaxBytes);
    }
    ASSERT_LE(pool.in_use(), kEntries);
  }
  ASSERT_EQ(pool.chunks(), 20000u);
  // Every chunk was either absorbed into a train or rejected with a reason.
  ASSERT_GT(pool.completed() + pool.orphans() + pool.dropped_no_entry() +
                pool.dropped_oversize(),
            0u);
  pool.Reclaim(now + 1, 0);
  ASSERT_EQ(pool.in_use(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SegmentFuzzProperty,
                         ::testing::Values(uint64_t{3}, uint64_t{17},
                                           uint64_t{99}, uint64_t{4242}));

// ---------------------------------------------------------------------------
// FIFO server: total busy time equals the sum of service demands, and
// completion order equals arrival order, for any arrival pattern.
// ---------------------------------------------------------------------------

class FifoServerProperty : public ::testing::TestWithParam<int> {};

TEST_P(FifoServerProperty, ConservationAndOrder) {
  const int jobs = GetParam();
  sim::Simulator simulator;
  sim::FifoServer server(simulator);
  Rng rng(static_cast<uint64_t>(jobs));
  Nanos total_demand = 0;
  std::vector<int> completion_order;

  auto client = [](sim::Simulator& sim, sim::FifoServer& srv, Nanos arrive, Nanos dur,
                   int id, std::vector<int>* order) -> sim::Proc {
    co_await sim::Delay(sim, arrive);
    co_await srv.Serve(dur);
    order->push_back(id);
  };
  std::vector<Nanos> arrivals;
  for (int i = 0; i < jobs; ++i) {
    arrivals.push_back(static_cast<Nanos>(rng.NextBelow(1000)));
  }
  std::sort(arrivals.begin(), arrivals.end());
  for (int i = 0; i < jobs; ++i) {
    const Nanos duration = 1 + static_cast<Nanos>(rng.NextBelow(50));
    total_demand += duration;
    simulator.Spawn(client(simulator, server, arrivals[static_cast<size_t>(i)],
                           duration, i, &completion_order));
  }
  simulator.Run();
  EXPECT_EQ(server.busy_time(), total_demand);
  // Jobs arriving at distinct times complete in arrival order.
  ASSERT_EQ(completion_order.size(), static_cast<size_t>(jobs));
  for (int i = 0; i < jobs; ++i) {
    if (i > 0 && arrivals[static_cast<size_t>(i)] != arrivals[static_cast<size_t>(i - 1)]) {
      EXPECT_GT(completion_order[static_cast<size_t>(i)],
                completion_order[static_cast<size_t>(i - 1)] - jobs);
    }
  }
  EXPECT_GE(simulator.Now(), total_demand / jobs);
}

INSTANTIATE_TEST_SUITE_P(Fifo, FifoServerProperty, ::testing::Values(1, 7, 64, 256));

// ---------------------------------------------------------------------------
// QP cache: for both policies and any capacity, size never exceeds capacity,
// and a working set within capacity always hits after warmup.
// ---------------------------------------------------------------------------

class QpCacheProperty
    : public ::testing::TestWithParam<std::tuple<uint32_t, rnic::QpCache::Policy>> {};

TEST_P(QpCacheProperty, CapacityAndResidency) {
  const auto [capacity, policy] = GetParam();
  rnic::QpCache cache(capacity, policy);
  // Working set exactly at capacity: after one cold pass, everything hits.
  for (uint32_t q = 0; q < capacity; ++q) {
    cache.Touch(q);
  }
  cache.ResetStats();
  for (int round = 0; round < 10; ++round) {
    for (uint32_t q = 0; q < capacity; ++q) {
      EXPECT_TRUE(cache.Touch(q));
    }
  }
  EXPECT_EQ(cache.misses(), 0u);
  EXPECT_LE(cache.size(), capacity);

  // Oversubscribed working set: misses must appear; size stays capped.
  cache.ResetStats();
  for (int round = 0; round < 10; ++round) {
    for (uint32_t q = 0; q < capacity * 2; ++q) {
      cache.Touch(q);
    }
  }
  EXPECT_GT(cache.misses(), 0u);
  EXPECT_LE(cache.size(), capacity);
}

INSTANTIATE_TEST_SUITE_P(
    Caches, QpCacheProperty,
    ::testing::Combine(::testing::Values(4u, 64u, 768u),
                       ::testing::Values(rnic::QpCache::Policy::kLru,
                                         rnic::QpCache::Policy::kRandom)));

// ---------------------------------------------------------------------------
// Histogram: quantiles are within bucket resolution for any scale.
// ---------------------------------------------------------------------------

class HistogramProperty : public ::testing::TestWithParam<int64_t> {};

TEST_P(HistogramProperty, QuantileAccuracy) {
  const int64_t scale = GetParam();
  Histogram histogram;
  for (int64_t i = 1; i <= 10000; ++i) {
    histogram.Record(i * scale);
  }
  const double rel = 0.04;  // bucket resolution + interpolation slack
  EXPECT_NEAR(static_cast<double>(histogram.Median()),
              static_cast<double>(5000 * scale), static_cast<double>(5000 * scale) * rel);
  EXPECT_NEAR(static_cast<double>(histogram.P99()), static_cast<double>(9900 * scale),
              static_cast<double>(9900 * scale) * rel);
  EXPECT_EQ(histogram.count(), 10000u);
  EXPECT_EQ(histogram.min(), scale);
  EXPECT_EQ(histogram.max(), 10000 * scale);
}

INSTANTIATE_TEST_SUITE_P(Scales, HistogramProperty,
                         ::testing::Values(int64_t{1}, int64_t{13}, int64_t{1000},
                                           int64_t{1000000}));

// ---------------------------------------------------------------------------
// KV store: OCC version words only ever move forward and the lock bit is
// never leaked, across randomized operation mixes and store sizes.
// ---------------------------------------------------------------------------

class KvProperty : public ::testing::TestWithParam<std::tuple<size_t, uint32_t>> {};

TEST_P(KvProperty, VersionMonotonicityAndLockHygiene) {
  const auto [keys, value_size] = GetParam();
  fabric::MemorySpace mem;
  kv::KvStore store(mem, keys, value_size);
  std::vector<uint8_t> value(value_size, 1);
  std::vector<uint64_t> last_version(keys, 0);
  for (uint64_t k = 0; k < keys; ++k) {
    ASSERT_TRUE(store.Insert(k, value.data()));
    ASSERT_TRUE(store.PeekVersion(k, &last_version[k]));
  }
  Rng rng(keys * 131 + value_size);
  for (int op = 0; op < 20000; ++op) {
    const uint64_t k = rng.NextBelow(keys);
    const uint64_t roll = rng.NextBelow(3);
    if (roll == 0) {
      uint64_t version = 0;
      if (store.Get(k, value.data(), &version, nullptr)) {
        EXPECT_GE(version, last_version[k]);
        EXPECT_EQ(version & kv::kLockBit, 0u);
      }
    } else if (roll == 1) {
      if (store.TryLock(k, value.data(), nullptr)) {
        ASSERT_TRUE(store.UpdateAndUnlock(k, value.data()));
      }
    } else {
      if (store.TryLock(k, nullptr, nullptr)) {
        ASSERT_TRUE(store.Unlock(k));  // abort path: version unchanged
      }
    }
    uint64_t version = 0;
    ASSERT_TRUE(store.PeekVersion(k, &version));
    EXPECT_GE(version & ~kv::kLockBit, last_version[k] & ~kv::kLockBit);
    last_version[k] = version & ~kv::kLockBit;
    EXPECT_EQ(version & kv::kLockBit, 0u) << "lock leaked";
  }
}

INSTANTIATE_TEST_SUITE_P(Stores, KvProperty,
                         ::testing::Combine(::testing::Values(size_t{16}, size_t{1024}),
                                            ::testing::Values(8u, 40u, 128u)));

// ---------------------------------------------------------------------------
// One-sided seqlock protocol under randomized interleavings: a server-side
// writer locks, scribbles a detectable mid-install pattern, dwells a random
// time, then commits or aborts; concurrent one-sided readers with random
// retry budgets must never accept a torn value, a locked version, or a
// version that moves backwards — for any seed.
// ---------------------------------------------------------------------------

class RemoteKvFuzzProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RemoteKvFuzzProperty, RandomInterleavingsNeverLeakTornValues) {
  constexpr int kKeys = 8;
  constexpr uint32_t kValueSize = 16;
  Rng rng(GetParam());
  verbs::Cluster cluster(
      verbs::Cluster::Config{.num_nodes = 2, .cores_per_node = 8});
  kv::KvStore store(cluster.mem(0), 64, kValueSize);
  FlockConfig cfg;
  FlockRuntime server(cluster, 0, cfg);
  server.StartServer(2);
  FlockRuntime client(cluster, 1, cfg);
  client.StartClient();
  Connection* conn = client.Connect(server, 2);
  FlockThread* thread = client.CreateThread(0);

  std::vector<uint64_t> records(kKeys, 0);
  for (uint64_t k = 0; k < kKeys; ++k) {
    char value[kValueSize];
    std::memset(value, static_cast<int>(k + 1), sizeof(value));
    ASSERT_TRUE(store.Insert(k, value));
    ASSERT_TRUE(store.Get(k, nullptr, nullptr, &records[k]));
  }
  kv::OneSidedReader reader(*conn, cluster.mem(1), kValueSize);
  for (const auto& span : store.spans()) {
    RemoteMr mr = conn->AttachMreg(span.addr, span.length);
    for (uint64_t k = 0; k < kKeys; ++k) {
      if (records[k] >= mr.addr &&
          records[k] + 8 + kValueSize <= mr.addr + mr.length) {
        reader.LearnAddr(k, records[k], mr);
      }
    }
  }

  // Writer: random key, random dwell under the lock (with 0xEE garbage in
  // the value bytes), then commit a fresh pattern or abort (restoring the
  // pre-lock bytes, as a real aborting writer that never installed would).
  auto writer = [&]() -> sim::Proc {
    for (int round = 0; round < 150; ++round) {
      co_await sim::Delay(cluster.sim(),
                          static_cast<Nanos>(rng.NextBelow(8000)));
      const uint64_t k = rng.NextBelow(kKeys);
      char before[kValueSize];
      if (!store.TryLock(k, before, nullptr)) {
        continue;
      }
      char garbage[kValueSize];
      std::memset(garbage, 0xEE, sizeof(garbage));
      cluster.mem(0).Write(records[k] + 8, garbage, kValueSize);
      co_await sim::Delay(cluster.sim(),
                          static_cast<Nanos>(rng.NextBelow(4000)));
      if (rng.NextBelow(3) == 0) {
        cluster.mem(0).Write(records[k] + 8, before, kValueSize);
        FLOCK_CHECK(store.Unlock(k));
      } else {
        char next[kValueSize];
        std::memset(next, 1 + static_cast<int>(rng.NextBelow(0x7F)),
                    sizeof(next));
        FLOCK_CHECK(store.UpdateAndUnlock(k, next));
      }
    }
  };

  int accepted = 0;
  std::vector<uint64_t> last_version(kKeys, 0);
  auto reads = [&]() -> sim::Co<void> {
    for (int i = 0; i < 500; ++i) {
      const uint64_t k = rng.NextBelow(kKeys);
      const int budget = static_cast<int>(rng.NextBelow(4));
      char out[kValueSize] = {};
      uint64_t version = 0;
      const auto outcome = co_await reader.Get(*thread, k, out, &version, budget);
      if (outcome != kv::OneSidedReader::Outcome::kOk) {
        continue;
      }
      EXPECT_EQ(version & kv::kLockBit, 0u);
      EXPECT_GE(version, last_version[k]) << "version went backwards";
      last_version[k] = version;
      for (uint32_t b = 1; b < kValueSize; ++b) {
        EXPECT_EQ(out[b], out[0]) << "torn value escaped seqlock validation";
      }
      EXPECT_NE(static_cast<uint8_t>(out[0]), 0xEE)
          << "mid-install garbage escaped seqlock validation";
      ++accepted;
    }
  };
  cluster.sim().Spawn(writer());
  cluster.sim().Spawn(sim::RunClosure(reads));
  cluster.sim().RunFor(100 * kMillisecond);
  EXPECT_GT(accepted, 200);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RemoteKvFuzzProperty,
                         ::testing::Values(uint64_t{1}, uint64_t{7},
                                           uint64_t{42}, uint64_t{1337},
                                           uint64_t{0xDEADBEEF}));

// ---------------------------------------------------------------------------
// Control-plane handshake codec under hostile input: starting from a valid
// message of every type, arbitrary truncation and bit flips must either be
// rejected by the framing (magic/version/length/checksum) or decode to values
// that respect the codec's own bounds (lane counts, ring sizes). Never crash,
// never read past the buffer.
// ---------------------------------------------------------------------------

class CtrlFuzzProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CtrlFuzzProperty, MalformedHandshakesAreRejectedNotCrashed) {
  namespace cw = ctrl::wire;
  Rng rng(GetParam());
  uint8_t buf[cw::kMaxMessageBytes];
  for (int round = 0; round < 4000; ++round) {
    // Build a valid message of a random handshake type.
    uint32_t len = 0;
    const uint64_t nonce = rng.Next();
    switch (rng.NextBelow(7)) {
      case 0: {
        cw::ConnectRequest req;
        req.client_node = static_cast<int32_t>(rng.NextBelow(16));
        req.num_lanes = 1 + static_cast<uint32_t>(rng.NextBelow(cw::kMaxLanesPerMsg));
        req.ring_bytes = 1u << rng.NextInRange(6, 18);
        for (uint32_t i = 0; i < req.num_lanes; ++i) {
          req.lanes[i].qpn = static_cast<uint32_t>(rng.Next());
          req.lanes[i].resp_ring_addr = rng.Next();
        }
        len = cw::EncodeMessage(buf, sizeof(buf), cw::MsgType::kConnectRequest,
                                nonce, &req, cw::ConnectRequestBytes(req.num_lanes));
        break;
      }
      case 1: {
        cw::ConnectAccept acc;
        acc.conn_id = static_cast<uint32_t>(rng.Next());
        acc.num_lanes = 1 + static_cast<uint32_t>(rng.NextBelow(cw::kMaxLanesPerMsg));
        len = cw::EncodeMessage(buf, sizeof(buf), cw::MsgType::kConnectAccept,
                                nonce, &acc, cw::ConnectAcceptBytes(acc.num_lanes));
        break;
      }
      case 2: {
        cw::ReconnectRequest req;
        req.lane_index = static_cast<uint32_t>(rng.NextBelow(cw::kMaxLanesPerMsg));
        len = cw::EncodeMessage(buf, sizeof(buf), cw::MsgType::kReconnectRequest,
                                nonce, &req, sizeof(req));
        break;
      }
      case 3: {
        cw::ReconnectAccept acc;
        acc.grant_cumulative = static_cast<uint32_t>(rng.Next());
        len = cw::EncodeMessage(buf, sizeof(buf), cw::MsgType::kReconnectAccept,
                                nonce, &acc, sizeof(acc));
        break;
      }
      case 4: {
        cw::AddLaneRequest req;
        req.lane_index = static_cast<uint32_t>(rng.NextBelow(cw::kMaxLanesPerMsg));
        req.ring_bytes = 1u << rng.NextInRange(6, 18);
        len = cw::EncodeMessage(buf, sizeof(buf), cw::MsgType::kAddLaneRequest,
                                nonce, &req, sizeof(req));
        break;
      }
      case 5: {
        cw::DisconnectRequest req;
        req.conn_id = static_cast<uint32_t>(rng.Next());
        len = cw::EncodeMessage(buf, sizeof(buf), cw::MsgType::kDisconnectRequest,
                                nonce, &req, sizeof(req));
        break;
      }
      default:
        len = cw::EncodeReject(buf, sizeof(buf), nonce, cw::RejectReason::kUnknown);
        break;
    }
    ASSERT_LE(len, sizeof(buf));

    // Corrupt: truncate and/or flip bytes (sometimes neither — the valid
    // message must then decode cleanly).
    uint32_t fuzz_len = len;
    if (rng.NextBelow(3) == 0) {
      fuzz_len = static_cast<uint32_t>(rng.NextBelow(len + 1));
    }
    if (rng.NextBelow(3) != 0 && fuzz_len > 0) {
      const uint32_t flips = 1 + static_cast<uint32_t>(rng.NextBelow(8));
      for (uint32_t f = 0; f < flips; ++f) {
        buf[rng.NextBelow(fuzz_len)] ^= static_cast<uint8_t>(1 + rng.NextBelow(255));
      }
    }

    cw::MsgHeader h;
    if (!cw::DecodeHeader(buf, fuzz_len, &h)) {
      continue;  // framing rejected it — the required outcome for corruption
    }
    // Framing passed (no corruption, or flips the checksum failed to catch are
    // impossible — FNV over the body gates this): typed decoders must still
    // bound-check everything they accept.
    ASSERT_LE(h.body_len, fuzz_len - cw::kHeaderBytes);
    switch (static_cast<cw::MsgType>(h.type)) {
      case cw::MsgType::kConnectRequest: {
        cw::ConnectRequest out;
        if (cw::DecodeConnectRequest(h, buf, &out)) {
          ASSERT_GE(out.num_lanes, 1u);
          ASSERT_LE(out.num_lanes, cw::kMaxLanesPerMsg);
          ASSERT_GT(out.ring_bytes, 0u);
          ASSERT_EQ(h.body_len, cw::ConnectRequestBytes(out.num_lanes));
        }
        break;
      }
      case cw::MsgType::kConnectAccept: {
        cw::ConnectAccept out;
        if (cw::DecodeConnectAccept(h, buf, &out)) {
          ASSERT_GE(out.num_lanes, 1u);
          ASSERT_LE(out.num_lanes, cw::kMaxLanesPerMsg);
          ASSERT_EQ(h.body_len, cw::ConnectAcceptBytes(out.num_lanes));
        }
        break;
      }
      case cw::MsgType::kReconnectRequest: {
        cw::ReconnectRequest out;
        if (cw::DecodeReconnectRequest(h, buf, &out)) {
          ASSERT_LT(out.lane_index, cw::kMaxLanesPerMsg);
        }
        break;
      }
      case cw::MsgType::kAddLaneRequest: {
        cw::AddLaneRequest out;
        if (cw::DecodeAddLaneRequest(h, buf, &out)) {
          ASSERT_LT(out.lane_index, cw::kMaxLanesPerMsg);
          ASSERT_GT(out.ring_bytes, 0u);
        }
        break;
      }
      case cw::MsgType::kReconnectAccept:
      case cw::MsgType::kDisconnectRequest:
      case cw::MsgType::kDisconnectAccept:
      case cw::MsgType::kAddLaneAccept:
      case cw::MsgType::kReject:
      default: {
        // Fixed-size decoders: a size mismatch must be rejected.
        cw::Reject out;
        if (cw::DecodeReject(h, buf, &out)) {
          ASSERT_EQ(h.body_len, sizeof(cw::Reject));
        }
        break;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CtrlFuzzProperty,
                         ::testing::Values(uint64_t{1}, uint64_t{7},
                                           uint64_t{42}, uint64_t{1337},
                                           uint64_t{0xDEADBEEF}));

// ---------------------------------------------------------------------------
// Tenant identity under hostile input (DESIGN.md §15). Three surfaces:
//   1. the 12-bit data-plane stamp packs into header flags without touching
//      the low flag bits and roundtrips exactly;
//   2. a forged ConnectRequest tenant_id (> kMaxTenantId) must be rejected by
//      the typed decoder — corruption on top of that must never yield a
//      decoded id out of range. DisconnectRequest is a fixed-size decoder and
//      must reject any size mismatch;
//   3. the registry itself, hammered with random admissions/releases/grants
//      from registered, unregistered and forged ids, never crashes, never
//      lets an unknown id accrue state, and its live accounting matches a
//      shadow model exactly (quota charges can neither leak nor underflow).
// ---------------------------------------------------------------------------

class TenantFuzzProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TenantFuzzProperty, ForgedIdsRejectedAndAccountingNeverLeaks) {
  namespace cw = ctrl::wire;
  Rng rng(GetParam());
  uint8_t buf[cw::kMaxMessageBytes];

  // Shadow model for arm 3: per-tenant outstanding connection charges
  // (each element = lanes charged for that connection).
  tenant::TenantRegistry reg;
  std::vector<std::vector<uint32_t>> shadow(5);
  for (tenant::TenantId id = 1; id <= 4; ++id) {
    tenant::TenantPolicy p;
    p.weight = 1 + static_cast<uint32_t>(rng.NextBelow(4));
    p.max_connections = static_cast<uint32_t>(rng.NextBelow(4));  // 0=unlimited
    p.max_lanes = static_cast<uint32_t>(rng.NextBelow(12));
    p.credit_budget = static_cast<uint32_t>(rng.NextBelow(64));
    p.byte_quota = rng.NextBelow(2) ? 0 : 4096;
    reg.Register(id, p);
  }
  uint64_t now = 0;

  for (int round = 0; round < 4000; ++round) {
    switch (rng.NextBelow(4)) {
      case 0: {
        // Stamp roundtrip: low flag bits untouched, 12 bits recovered.
        const uint32_t id = static_cast<uint32_t>(rng.Next());
        const uint16_t flags = wire::PackTenantFlags(id);
        ASSERT_EQ(flags & 0xF, 0) << "stamp clobbered low flag bits";
        ASSERT_EQ(wire::TenantFromFlags(flags), id & wire::kMaxTenantStamp);
        const uint16_t noise = static_cast<uint16_t>(rng.Next());
        ASSERT_LE(wire::TenantFromFlags(noise), wire::kMaxTenantStamp);
        break;
      }
      case 1: {
        // ConnectRequest carrying a (sometimes forged) tenant id.
        cw::ConnectRequest req;
        req.client_node = static_cast<int32_t>(rng.NextBelow(16));
        req.num_lanes = 1 + static_cast<uint32_t>(rng.NextBelow(cw::kMaxLanesPerMsg));
        req.ring_bytes = 1u << rng.NextInRange(6, 18);
        const bool forged = rng.NextBelow(2) == 0;
        req.tenant_id = forged
                            ? tenant::kMaxTenantId + 1 +
                                  static_cast<uint32_t>(rng.NextBelow(1u << 20))
                            : static_cast<uint32_t>(
                                  rng.NextBelow(tenant::kMaxTenantId + 1));
        for (uint32_t i = 0; i < req.num_lanes; ++i) {
          req.lanes[i].qpn = static_cast<uint32_t>(rng.Next());
          req.lanes[i].resp_ring_addr = rng.Next();
        }
        const uint32_t len =
            cw::EncodeMessage(buf, sizeof(buf), cw::MsgType::kConnectRequest,
                              rng.Next(), &req, cw::ConnectRequestBytes(req.num_lanes));
        ASSERT_LE(len, sizeof(buf));
        uint32_t fuzz_len = len;
        const bool corrupted = rng.NextBelow(2) == 0;
        if (corrupted) {
          if (rng.NextBelow(3) == 0) {
            fuzz_len = static_cast<uint32_t>(rng.NextBelow(len + 1));
          }
          if (fuzz_len > 0) {
            const uint32_t flips = 1 + static_cast<uint32_t>(rng.NextBelow(8));
            for (uint32_t f = 0; f < flips; ++f) {
              buf[rng.NextBelow(fuzz_len)] ^=
                  static_cast<uint8_t>(1 + rng.NextBelow(255));
            }
          }
        }
        cw::MsgHeader h;
        if (!cw::DecodeHeader(buf, fuzz_len, &h)) break;
        cw::ConnectRequest out;
        const bool ok = cw::DecodeConnectRequest(h, buf, &out);
        if (ok) {
          // Whatever survives decode is a usable identity.
          ASSERT_LE(out.tenant_id, tenant::kMaxTenantId);
          ASSERT_LE(out.num_lanes, cw::kMaxLanesPerMsg);
        }
        if (!corrupted) {
          // Pristine frame: decode verdict is exactly the forgery check.
          ASSERT_EQ(ok, !forged)
              << "forged tenant_id " << req.tenant_id << " not rejected";
        }
        break;
      }
      case 2: {
        // DisconnectRequest: fixed-size decoder must reject size mismatches.
        cw::DisconnectRequest req;
        req.client_node = static_cast<int32_t>(rng.NextBelow(16));
        req.conn_id = static_cast<uint32_t>(rng.Next());
        const uint32_t len =
            cw::EncodeMessage(buf, sizeof(buf), cw::MsgType::kDisconnectRequest,
                              rng.Next(), &req, sizeof(req));
        uint32_t fuzz_len = len;
        if (rng.NextBelow(3) == 0) {
          fuzz_len = static_cast<uint32_t>(rng.NextBelow(len + 1));
        }
        if (rng.NextBelow(3) != 0 && fuzz_len > 0) {
          const uint32_t flips = 1 + static_cast<uint32_t>(rng.NextBelow(8));
          for (uint32_t f = 0; f < flips; ++f) {
            buf[rng.NextBelow(fuzz_len)] ^=
                static_cast<uint8_t>(1 + rng.NextBelow(255));
          }
        }
        cw::MsgHeader h;
        if (!cw::DecodeHeader(buf, fuzz_len, &h)) break;
        cw::DisconnectRequest out;
        if (cw::DecodeDisconnectRequest(h, buf, &out)) {
          ASSERT_EQ(h.body_len, sizeof(cw::DisconnectRequest));
        }
        break;
      }
      default: {
        // Registry hammer. Ids 1..4 registered; 5..8 unknown; one forged.
        const tenant::TenantId id = 1 + static_cast<tenant::TenantId>(
                                            rng.NextBelow(9));
        const bool known = id <= 4;
        switch (rng.NextBelow(6)) {
          case 0: {
            const uint32_t want = static_cast<uint32_t>(rng.NextBelow(8));
            const tenant::Admission v = reg.AdmitConnect(id, want);
            if (known && v.verdict == tenant::Admission::Verdict::kAdmit) {
              ASSERT_LE(v.lanes, want);
              shadow[id].push_back(v.lanes);
            }
            break;
          }
          case 1: {
            if (known && !shadow[id].empty()) {
              const size_t k = rng.NextBelow(shadow[id].size());
              reg.ReleaseConnection(id, shadow[id][k]);
              shadow[id].erase(shadow[id].begin() + static_cast<long>(k));
            } else {
              reg.ReleaseConnection(id, static_cast<uint32_t>(rng.NextBelow(4)));
            }
            break;
          }
          case 2: {
            // AddLane only ever rides an existing connection in the runtime,
            // so the hammer respects that precondition for known ids.
            if (known) {
              if (!shadow[id].empty() && reg.AdmitLane(id)) {
                shadow[id].back() += 1;
              }
            } else {
              ASSERT_TRUE(reg.AdmitLane(id)) << "unknown ids are unlimited";
            }
            break;
          }
          case 3: {
            const uint32_t want = static_cast<uint32_t>(rng.NextBelow(64));
            ASSERT_LE(reg.ClipGrant(id, want), want);
            break;
          }
          case 4: {
            reg.OnRequests(id, 1, rng.NextBelow(2048));
            reg.ChargeSent(id, rng.NextBelow(2048));
            if (!known) {
              ASSERT_EQ(reg.SendBudgetRemaining(id), UINT64_MAX);
            }
            break;
          }
          default: {
            now += 1 + rng.NextBelow(1000);
            reg.EndWindow(now);
            break;
          }
        }
        // Unknown ids never accrue state; known ids match the shadow exactly.
        ASSERT_EQ(reg.NumRegistered(), 4u);
        if (!known) {
          ASSERT_FALSE(reg.Registered(id));
          ASSERT_EQ(reg.LiveConnections(id), 0u);
          ASSERT_EQ(reg.LiveLanes(id), 0u);
        } else {
          uint32_t lanes = 0;
          for (uint32_t c : shadow[id]) lanes += c;
          ASSERT_EQ(reg.LiveConnections(id), shadow[id].size());
          ASSERT_EQ(reg.LiveLanes(id), lanes);
          ASSERT_LE(reg.ThrottleLevel(id), reg.throttle.max_level);
        }
        break;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TenantFuzzProperty,
                         ::testing::Values(uint64_t{1}, uint64_t{7},
                                           uint64_t{42}, uint64_t{1337},
                                           uint64_t{0xDEADBEEF}));

// ---------------------------------------------------------------------------
// Control-plane delivery guards: nonce replay, malformed frames and
// non-member destinations are all rejected (returning 0) and counted, without
// disturbing the endpoint.
// ---------------------------------------------------------------------------

namespace {
struct CountingEndpoint : ctrl::Endpoint {
  int delivered = 0;
  uint32_t OnCtrlMessage(const uint8_t* msg, uint32_t len, uint8_t* resp,
                         uint32_t resp_cap) override {
    ++delivered;
    ctrl::wire::MsgHeader h;
    if (!ctrl::wire::DecodeHeader(msg, len, &h)) {
      return 0;
    }
    return ctrl::wire::EncodeReject(resp, resp_cap, h.nonce,
                                    ctrl::wire::RejectReason::kUnknown);
  }
};
}  // namespace

TEST(CtrlPlaneGuardTest, ReplayMalformedAndNonMemberAreRejected) {
  namespace cw = ctrl::wire;
  verbs::Cluster cluster(verbs::Cluster::Config{.num_nodes = 2});
  ctrl::ControlPlane& cp = ctrl::ControlPlane::For(cluster);
  CountingEndpoint ep;
  cp.RegisterEndpoint(0, &ep);

  uint8_t msg[cw::kMaxMessageBytes];
  uint8_t resp[cw::kMaxMessageBytes];
  cw::DisconnectRequest req;
  const uint64_t nonce = cp.NextNonce();
  const uint32_t len = cw::EncodeMessage(msg, sizeof(msg),
                                         cw::MsgType::kDisconnectRequest, nonce,
                                         &req, sizeof(req));

  // First delivery passes; the identical frame (same nonce) is a replay.
  EXPECT_GT(cp.Call(0, msg, len, resp, sizeof(resp)), 0u);
  EXPECT_EQ(ep.delivered, 1);
  EXPECT_EQ(cp.Call(0, msg, len, resp, sizeof(resp)), 0u);
  EXPECT_EQ(ep.delivered, 1) << "a replayed nonce must never reach the endpoint";
  EXPECT_EQ(cp.stats().rejected_replay, 1u);

  // Malformed frame (corrupted body → checksum mismatch): rejected up front.
  const uint32_t len2 = cw::EncodeMessage(msg, sizeof(msg),
                                          cw::MsgType::kDisconnectRequest,
                                          cp.NextNonce(), &req, sizeof(req));
  msg[cw::kHeaderBytes] ^= 0xFF;
  EXPECT_EQ(cp.Call(0, msg, len2, resp, sizeof(resp)), 0u);
  EXPECT_EQ(ep.delivered, 1);
  EXPECT_GE(cp.stats().rejected_malformed, 1u);

  // Truncated frame.
  const uint32_t len3 = cw::EncodeMessage(msg, sizeof(msg),
                                          cw::MsgType::kDisconnectRequest,
                                          cp.NextNonce(), &req, sizeof(req));
  EXPECT_EQ(cp.Call(0, msg, len3 - 1, resp, sizeof(resp)), 0u);
  EXPECT_EQ(ep.delivered, 1);

  // Non-member destination.
  cp.Leave(0);
  const uint32_t len4 = cw::EncodeMessage(msg, sizeof(msg),
                                          cw::MsgType::kDisconnectRequest,
                                          cp.NextNonce(), &req, sizeof(req));
  EXPECT_EQ(cp.Call(0, msg, len4, resp, sizeof(resp)), 0u);
  EXPECT_EQ(ep.delivered, 1);
  EXPECT_GE(cp.stats().rejected_not_member, 1u);
  cp.Join(0);

  // No endpoint registered on node 1.
  const uint32_t len5 = cw::EncodeMessage(msg, sizeof(msg),
                                          cw::MsgType::kDisconnectRequest,
                                          cp.NextNonce(), &req, sizeof(req));
  EXPECT_EQ(cp.Call(1, msg, len5, resp, sizeof(resp)), 0u);
  EXPECT_GE(cp.stats().rejected_no_endpoint, 1u);

  cp.DeregisterEndpoint(0, &ep);
}


// ---------------------------------------------------------------------------
// Sender death under seeded faults (DESIGN.md §10). Each seed draws a QP kill
// (the client or the server half of either lane of a 2-lane tenant handle,
// or none), an idle gap below or above rpc_timeout with the kill inside it,
// and a resume. A sender is live or torn down, and nothing revives a
// torn-down one. At quiescence:
//   - every call resolved (ok + failed == issued);
//   - a gap below rpc_timeout recovered, through a reconnect when a QP died,
//     with no failed call;
//   - no call succeeded once its sender was torn down;
//   - the tenant's live connections equal its senders not torn down.
// ---------------------------------------------------------------------------

constexpr uint16_t kFaultEchoRpc = 1;

uint32_t FaultEchoHandler(const uint8_t* req, uint32_t len, uint8_t* resp,
                          uint32_t cap, Nanos* cpu) {
  const uint32_t n = std::min(len, cap);
  std::memcpy(resp, req, n);
  *cpu = 60;
  return n;
}

struct CallTally {
  int issued = 0;
  int ok = 0;
  int failed = 0;
  int ok_after_teardown = 0;  // ok answers while the server counted a teardown
};

sim::Proc TalliedEchoes(Connection* conn, FlockThread* thread, int count,
                        const FlockRuntime* server, CallTally* tally) {
  std::vector<uint8_t> resp;
  for (int i = 0; i < count; ++i) {
    tally->issued += 1;
    uint64_t payload = static_cast<uint64_t>(i);
    const bool ok = co_await conn->Call(
        *thread, kFaultEchoRpc, reinterpret_cast<const uint8_t*>(&payload), 8,
        &resp);
    if (!ok) {
      tally->failed += 1;
      continue;
    }
    tally->ok += 1;
    if (server->server_stats().dead_senders > 0) {
      tally->ok_after_teardown += 1;
    }
  }
}

class SenderDeathProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SenderDeathProperty, CallsResolveOnceAndTornDownSendersStayDead) {
  Rng rng(GetParam());
  FlockConfig cfg;
  cfg.rpc_timeout = 100 * kMicrosecond;
  verbs::Cluster cluster(
      verbs::Cluster::Config{.num_nodes = 2, .cores_per_node = 8});
  FlockRuntime server(cluster, 0, cfg);
  server.RegisterHandler(kFaultEchoRpc, FaultEchoHandler);
  server.StartServer(2);
  FlockRuntime client(cluster, 1, cfg);
  client.StartClient();
  tenant::TenantRegistry& tenants = ctrl::ControlPlane::For(cluster).tenants();
  tenants.Register(1, tenant::TenantPolicy{});
  Connection* conn = client.Connect(0, 2, /*tenant=*/1);
  ASSERT_NE(conn, nullptr);
  FlockThread* threads[2] = {client.CreateThread(0), client.CreateThread(1)};

  // kill: 0 none, else (kill - 1) / 2 picks the lane and its parity the half.
  const int kill = static_cast<int>(rng.NextBelow(5));
  const uint32_t kill_lane = static_cast<uint32_t>((kill - 1) / 2);
  const bool kill_server_half = kill > 0 && (kill - 1) % 2 == 1;
  const bool short_gap = rng.NextBelow(2) == 0;
  const Nanos gap =
      short_gap ? static_cast<Nanos>(rng.NextInRange(10, 80)) * kMicrosecond
                : static_cast<Nanos>(rng.NextInRange(150, 1000)) * kMicrosecond;
  const Nanos kill_at = static_cast<Nanos>(rng.NextBelow(gap));
  const int warm = static_cast<int>(rng.NextInRange(5, 20));
  const int resume = static_cast<int>(rng.NextInRange(5, 15));
  SCOPED_TRACE(::testing::Message()
               << "kill " << kill << " gap " << gap << " ns, kill at "
               << kill_at << " ns, " << warm << " warm, " << resume
               << " resumed calls per thread");

  CallTally before;
  for (FlockThread* t : threads) {
    cluster.sim().Spawn(TalliedEchoes(conn, t, warm, &server, &before));
  }
  // Step until the warm calls are done: the gap starts within one step of
  // the last call, so a short gap stays below rpc_timeout.
  for (int step = 0; before.ok + before.failed < 2 * warm && step < 1000;
       ++step) {
    cluster.sim().RunFor(5 * kMicrosecond);
  }
  ASSERT_EQ(before.ok, 2 * warm);

  cluster.sim().RunFor(kill_at);
  if (kill > 0) {
    const verbs::Qp& qp = *conn->lane(kill_lane).qp;
    if (kill_server_half) {
      cluster.fault().KillQp(/*node=*/0, qp.peer_qpn());
    } else {
      cluster.fault().KillQp(/*node=*/1, qp.qpn());
    }
  }
  cluster.sim().RunFor(gap - kill_at);

  CallTally after;
  for (FlockThread* t : threads) {
    cluster.sim().Spawn(TalliedEchoes(conn, t, resume, &server, &after));
  }
  cluster.sim().RunFor(200 * kMillisecond);

  const uint64_t dead = server.server_stats().dead_senders;
  EXPECT_EQ(after.issued, 2 * resume) << "a call never returned";
  EXPECT_EQ(after.ok + after.failed, after.issued);
  if (short_gap) {
    EXPECT_EQ(after.failed, 0);
    EXPECT_EQ(dead, 0u);
    if (kill > 0) {
      EXPECT_GE(conn->lane_reconnects(), 1u);
    }
  }
  EXPECT_EQ(after.ok_after_teardown, 0);
  EXPECT_LE(dead, 1u) << "a sender died twice";
  EXPECT_EQ(tenants.LiveConnections(1), 1u - dead);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SenderDeathProperty,
                         ::testing::Range(uint64_t{1}, uint64_t{51}));

}  // namespace
}  // namespace flock
