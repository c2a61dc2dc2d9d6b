// Edge-case and stress tests for the Flock runtime: the §4.3 worker-pool
// execution mode, ring wrap-around under large payloads, QP
// activation/deactivation churn, mixed RPC + one-sided traffic on the
// same lanes, coalesced responses that outgrow half the ring, and responses
// that outgrow the caller's buffer.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/flock/flock.h"

namespace flock {
namespace {

constexpr uint16_t kEchoRpc = 1;
constexpr uint16_t kFullRpc = 2;

uint32_t EchoHandler(const uint8_t* req, uint32_t len, uint8_t* resp, uint32_t cap,
                     Nanos* cpu) {
  FLOCK_CHECK_LE(len, cap);
  std::memcpy(resp, req, len);
  *cpu = 60;
  return len;
}

// Answers with a full `cap`-byte response filled with the request's first
// byte.
uint32_t FullHandler(const uint8_t* req, uint32_t len, uint8_t* resp, uint32_t cap,
                     Nanos* cpu) {
  FLOCK_CHECK_GE(len, 1u);
  std::memset(resp, req[0], cap);
  *cpu = 60;
  return cap;
}

sim::Proc EchoLoop(verbs::Cluster* cluster, Connection* conn, FlockThread* thread,
                   uint32_t bytes, int ops, int* completed) {
  std::vector<uint8_t> payload(bytes);
  for (int i = 0; i < ops; ++i) {
    for (uint32_t b = 0; b < bytes; ++b) {
      payload[b] = static_cast<uint8_t>(i + b + thread->id());
    }
    std::vector<uint8_t> resp;
    const bool ok = co_await conn->Call(*thread, kEchoRpc, payload.data(), bytes, &resp);
    EXPECT_TRUE(ok);
    EXPECT_EQ(resp.size(), bytes);
    if (resp.size() == bytes) {
      EXPECT_EQ(std::memcmp(resp.data(), payload.data(), bytes), 0)
          << "payload corrupted in flight";
    }
    ++(*completed);
  }
}

TEST(FlockWorkerPoolTest, HandlersRunOnWorkerCores) {
  verbs::Cluster cluster(verbs::Cluster::Config{.num_nodes = 2, .cores_per_node = 16});
  FlockConfig server_config;
  server_config.server_workers = 4;  // §4.3 application-managed pool
  FlockRuntime server(cluster, 0, server_config);
  server.RegisterHandler(kEchoRpc, EchoHandler);
  server.StartServer(4);

  FlockRuntime client(cluster, 1, FlockConfig{});
  client.StartClient();
  Connection* conn = client.Connect(server, 4);

  int completed = 0;
  for (int t = 0; t < 4; ++t) {
    cluster.sim().Spawn(
        EchoLoop(&cluster, conn, client.CreateThread(t), 64, 200, &completed));
  }
  cluster.sim().RunFor(100 * kMillisecond);
  EXPECT_EQ(completed, 800);
  EXPECT_EQ(server.server_stats().requests, 800u);
  // The worker cores (5..8) actually burned CPU.
  Nanos worker_busy = 0;
  for (int c = 5; c <= 8; ++c) {
    worker_busy += cluster.cpu(0).core(c).busy_time();
  }
  EXPECT_GT(worker_busy, 0);
}

TEST(FlockRingStressTest, LargePayloadsWrapSmallRings) {
  // 16 KB ring with 2 KB payloads: constant wrap markers, zeroing, and
  // head-slot flow control; every byte must round-trip intact.
  verbs::Cluster cluster(verbs::Cluster::Config{.num_nodes = 2, .cores_per_node = 8});
  FlockConfig config;
  config.ring_bytes = 16 * 1024;
  config.max_payload = 2048;
  config.credits = 4;  // renewal at half: every 2 messages
  FlockRuntime server(cluster, 0, config);
  server.RegisterHandler(kEchoRpc, EchoHandler);
  server.StartServer(4);
  FlockRuntime client(cluster, 1, config);
  client.StartClient();
  Connection* conn = client.Connect(server, 2);

  int completed = 0;
  for (int t = 0; t < 3; ++t) {
    cluster.sim().Spawn(
        EchoLoop(&cluster, conn, client.CreateThread(t), 2048, 150, &completed));
  }
  cluster.sim().RunFor(400 * kMillisecond);
  EXPECT_EQ(completed, 450);
}

TEST(FlockChurnTest, TrafficSurvivesActivationChurn) {
  // Two clients with a tiny MAX_AQP and alternating bursts: lanes activate
  // and deactivate repeatedly; every request must still complete.
  verbs::Cluster cluster(verbs::Cluster::Config{.num_nodes = 3, .cores_per_node = 8});
  FlockConfig server_config;
  server_config.max_active_qps = 3;
  FlockRuntime server(cluster, 0, server_config);
  server.RegisterHandler(kEchoRpc, EchoHandler);
  server.StartServer(4);

  std::vector<std::unique_ptr<FlockRuntime>> clients;
  int completed = 0;
  auto burst_worker = [](verbs::Cluster* cl, Connection* conn, FlockThread* thread,
                         int bursts, int* completed) -> sim::Proc {
    std::vector<uint8_t> payload(64, 1);
    for (int b = 0; b < bursts; ++b) {
      for (int i = 0; i < 20; ++i) {
        std::vector<uint8_t> resp;
        const bool ok = co_await conn->Call(*thread, kEchoRpc, payload.data(), 64, &resp);
        EXPECT_TRUE(ok);
        ++(*completed);
      }
      // Go quiet long enough to be declared dormant, then burst again.
      co_await sim::Delay(cl->sim(), 500 * kMicrosecond);
    }
  };
  for (int c = 0; c < 2; ++c) {
    clients.push_back(std::make_unique<FlockRuntime>(cluster, 1 + c, FlockConfig{}));
    clients.back()->StartClient();
    Connection* conn = clients.back()->Connect(server, 6);
    for (int t = 0; t < 3; ++t) {
      cluster.sim().Spawn(burst_worker(&cluster, conn, clients.back()->CreateThread(t),
                                       10, &completed));
    }
  }
  // The first few burst cycles: lanes have gone dormant and woken again.
  cluster.sim().RunFor(2 * kMillisecond);
  const uint64_t early_activations = server.server_stats().activations;
  cluster.sim().RunFor(398 * kMillisecond);
  EXPECT_EQ(completed, 2 * 3 * 10 * 20);
  EXPECT_GT(server.server_stats().deactivations, 0u);
  // Later bursts re-activate dormant lanes: the churn keeps going.
  EXPECT_GT(server.server_stats().activations, early_activations);
}

TEST(FlockMixedTest, RpcAndMemoryOpsShareLanes) {
  verbs::Cluster cluster(verbs::Cluster::Config{.num_nodes = 2, .cores_per_node = 8});
  FlockRuntime server(cluster, 0, FlockConfig{});
  server.RegisterHandler(kEchoRpc, EchoHandler);
  server.StartServer(4);
  FlockRuntime client(cluster, 1, FlockConfig{});
  client.StartClient();
  Connection* conn = client.Connect(server, 2);

  const uint64_t region = cluster.mem(0).Alloc(4096, 8);
  RemoteMr mr = conn->AttachMreg(region, 4096);

  int rpc_done = 0;
  uint64_t atomic_total = 0;
  auto mixed_worker = [](verbs::Cluster* cl, Connection* conn, FlockThread* thread,
                         RemoteMr mr, uint64_t region, int* rpc_done,
                         uint64_t* atomic_total) -> sim::Proc {
    std::vector<uint8_t> payload(48, 9);
    for (int i = 0; i < 200; ++i) {
      if (i % 3 == 0) {
        uint64_t old_value = 0;
        const verbs::WcStatus status =
            co_await conn->FetchAndAdd(*thread, region, 1, &old_value, mr);
        EXPECT_EQ(status, verbs::WcStatus::kSuccess);
        *atomic_total += 1;
      } else {
        std::vector<uint8_t> resp;
        const bool ok = co_await conn->Call(*thread, kEchoRpc, payload.data(), 48, &resp);
        EXPECT_TRUE(ok);
        ++(*rpc_done);
      }
    }
  };
  for (int t = 0; t < 4; ++t) {
    cluster.sim().Spawn(mixed_worker(&cluster, conn, client.CreateThread(t), mr, region,
                                     &rpc_done, &atomic_total));
  }
  cluster.sim().RunFor(200 * kMillisecond);
  EXPECT_EQ(rpc_done + static_cast<int>(atomic_total), 800);
  // The atomics all landed: the remote counter equals the op count.
  uint64_t counter = 0;
  cluster.mem(0).Read(region, &counter, 8);
  EXPECT_EQ(counter, atomic_total);
}

TEST(FlockWorkerPoolTest, PoolAndDispatcherModesAgree) {
  // The two §4.3 execution models must be semantically identical: same
  // requests, same responses, same totals.
  for (int workers : {0, 3}) {
    verbs::Cluster cluster(
        verbs::Cluster::Config{.num_nodes = 2, .cores_per_node = 16});
    FlockConfig server_config;
    server_config.server_workers = workers;
    FlockRuntime server(cluster, 0, server_config);
    server.RegisterHandler(kEchoRpc, EchoHandler);
    server.StartServer(4);
    FlockRuntime client(cluster, 1, FlockConfig{});
    client.StartClient();
    Connection* conn = client.Connect(server, 2);
    int completed = 0;
    for (int t = 0; t < 3; ++t) {
      cluster.sim().Spawn(
          EchoLoop(&cluster, conn, client.CreateThread(t), 128, 100, &completed));
    }
    cluster.sim().RunFor(100 * kMillisecond);
    EXPECT_EQ(completed, 300) << "workers=" << workers;
    EXPECT_EQ(server.server_stats().requests, 300u) << "workers=" << workers;
  }
}

TEST(FlockCoalescedResponseTest, FullSizeResponsesSplitAtHalfTheRing) {
  // max_coalesce requests in one message whose handlers each return
  // max_payload bytes. On the default config (16 x 8 KB plus headers) one
  // coalesced response would exceed ring_bytes / 2, so it leaves in two
  // messages; on a 32 KB ring only one 8 KB response fits per message.
  FlockConfig small_ring;
  small_ring.ring_bytes = 32 * 1024;
  for (const auto& [config, response_msgs] :
       {std::pair{FlockConfig{}, 2u}, std::pair{small_ring, 16u}}) {
    const int threads = static_cast<int>(config.max_coalesce);
    verbs::Cluster::Config cluster_config;  // two nodes
    cluster_config.cores_per_node = threads + 4;
    verbs::Cluster cluster(cluster_config);
    FlockRuntime server(cluster, 0, config);
    server.RegisterHandler(kFullRpc, FullHandler);
    server.StartServer(4);
    FlockRuntime client(cluster, 1, config);
    client.StartClient();
    Connection* conn = client.Connect(server, 1);

    // One request per thread, all issued at once: they share one lane, so
    // the combining leader seals them into one message.
    int completed = 0;
    for (int t = 0; t < threads; ++t) {
      FlockThread* thread = client.CreateThread(t);
      const uint32_t bytes = config.max_payload;
      auto app = [conn, thread, bytes, &completed]() -> sim::Co<void> {
        const uint8_t tag = static_cast<uint8_t>(thread->id() + 1);
        std::vector<uint8_t> resp;
        EXPECT_TRUE(co_await conn->Call(*thread, kFullRpc, &tag, 1, &resp));
        EXPECT_TRUE(resp == std::vector<uint8_t>(bytes, tag))
            << "thread " << thread->id() << ": response corrupted";
        ++completed;
      };
      cluster.sim().Spawn(sim::RunClosure(app));
    }
    cluster.sim().RunFor(10 * kMillisecond);
    const std::string where = "ring_bytes=" + std::to_string(config.ring_bytes);
    EXPECT_EQ(completed, threads) << where;
    EXPECT_EQ(server.server_stats().messages, 1u) << where;
    EXPECT_EQ(server.server_stats().requests, config.max_coalesce) << where;
    EXPECT_EQ(server.server_stats().responses_sent, response_msgs) << where;
    EXPECT_EQ(client.client_stats().retries, 0u) << where;
  }
}

// Echoes `len` bytes back into a caller buffer of `cap` bytes, with guard
// bytes behind it. A response longer than the buffer fails the call: the
// bytes land clamped, none past `cap`, and the RPC counts as failed.
void ExpectOverCapFails(const FlockConfig& config, uint32_t len, uint32_t cap) {
  verbs::Cluster cluster(verbs::Cluster::Config{.num_nodes = 2, .cores_per_node = 8});
  FlockRuntime server(cluster, 0, config);
  server.RegisterHandler(kEchoRpc, EchoHandler);
  server.StartServer(2);
  FlockRuntime client(cluster, 1, config);
  client.StartClient();
  Connection* conn = client.Connect(server, 1);
  FlockThread* thread = client.CreateThread(0);

  constexpr uint8_t kGuard = 0xEE;
  std::vector<uint8_t> request(len, 0x5A);
  std::vector<uint8_t> buf(cap + 64, kGuard);
  bool done = false, ok = true;
  uint32_t resp_len = 1;
  auto app = [&]() -> sim::Co<void> {
    ok = co_await conn->Call(*thread, kEchoRpc, PayloadRef(request.data(), len),
                             buf.data(), cap, &resp_len);
    done = true;
  };
  cluster.sim().Spawn(sim::RunClosure(app));
  cluster.sim().RunFor(10 * kMillisecond);

  ASSERT_TRUE(done);
  EXPECT_FALSE(ok) << len << " B response into a " << cap << " B buffer";
  EXPECT_EQ(resp_len, 0u);
  EXPECT_EQ(client.client_stats().failed_rpcs, 1u);
  EXPECT_EQ(client.client_stats().retries, 0u);
  EXPECT_EQ(std::vector<uint8_t>(buf.begin(), buf.begin() + cap),
            std::vector<uint8_t>(cap, 0x5A));
  EXPECT_EQ(std::vector<uint8_t>(buf.begin() + cap, buf.end()),
            std::vector<uint8_t>(64, kGuard))
      << "response bytes written past response_cap";
}

TEST(FlockResponseCapTest, OverCapInlineResponseFails) {
  ExpectOverCapFails(FlockConfig{}, /*len=*/64, /*cap=*/16);
}

TEST(FlockResponseCapTest, OverCapSegmentedResponseFails) {
  FlockConfig config;
  config.max_payload = 64 * 1024;
  config.segment_threshold = 4 * 1024;
  // Four chunks back into a buffer that holds a chunk and a half.
  ExpectOverCapFails(config, /*len=*/16 * 1024, /*cap=*/6 * 1024);
}

// With a threshold below the 64 B chunk floor, a 32 B echo fits one chunk
// and travels unsegmented both ways, so it completes without a retry.
TEST(FlockSegmentTest, PayloadWithinOneChunkBelowTinyThresholdCompletes) {
  FlockConfig config;
  config.segment_threshold = 16;
  verbs::Cluster cluster(verbs::Cluster::Config{.num_nodes = 2, .cores_per_node = 8});
  FlockRuntime server(cluster, 0, config);
  server.RegisterHandler(kEchoRpc, EchoHandler);
  server.StartServer(2);
  FlockRuntime client(cluster, 1, config);
  client.StartClient();
  Connection* conn = client.Connect(server, 1);
  int completed = 0;
  cluster.sim().Spawn(EchoLoop(&cluster, conn, client.CreateThread(0),
                               /*bytes=*/32, /*ops=*/1, &completed));
  cluster.sim().RunFor(10 * kMillisecond);
  EXPECT_EQ(completed, 1);
  EXPECT_EQ(client.client_stats().retries, 0u);
  EXPECT_EQ(client.client_stats().failed_rpcs, 0u);
}

}  // namespace
}  // namespace flock
