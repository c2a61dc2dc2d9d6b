// Multi-tenant service layer tests (DESIGN.md §15): registry unit behavior
// (admission accounting, credit clipping, weighted pool split, throttle state
// machine), admission control through the live handshake (accept / reject /
// degrade), weighted-fair contention under 2- and 3-tenant load with
// same-seed determinism at any shard count, throttle decay and recovery under
// sustained over-quota traffic, teardown reclamation, and the PR-7
// interaction: tenants churning through the QP-recycling pools must not
// inherit each other's quota debt.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "src/ctrl/control_plane.h"
#include "src/flock/flock.h"
#include "src/tenant/tenant.h"
#include "src/verbs/fault.h"

namespace flock {
namespace {

using tenant::Admission;
using tenant::TenantPolicy;
using tenant::TenantRegistry;

// ---------------------------------------------------------------------------
// Registry unit tests (pure bookkeeping, no simulator)
// ---------------------------------------------------------------------------

TEST(TenantRegistryTest, AdmissionChargesAndReleases) {
  TenantRegistry reg;
  TenantPolicy p;
  p.max_connections = 2;
  p.max_lanes = 6;
  reg.Register(7, p);

  const Admission a = reg.AdmitConnect(7, 4);
  EXPECT_EQ(a.verdict, Admission::Verdict::kAdmit);
  EXPECT_EQ(a.lanes, 4u);
  EXPECT_EQ(reg.LiveConnections(7), 1u);
  EXPECT_EQ(reg.LiveLanes(7), 4u);

  // Second connect wants 4 lanes but only 2 remain: degraded accept.
  const Admission b = reg.AdmitConnect(7, 4);
  EXPECT_EQ(b.verdict, Admission::Verdict::kAdmit);
  EXPECT_EQ(b.lanes, 2u);
  EXPECT_EQ(reg.CountersFor(7)->admission_degrades, 1u);
  EXPECT_EQ(reg.LiveLanes(7), 6u);

  // Third connect: over the connection ceiling, nothing charged.
  const Admission c = reg.AdmitConnect(7, 1);
  EXPECT_EQ(c.verdict, Admission::Verdict::kOverConnections);
  EXPECT_EQ(reg.CountersFor(7)->admission_rejects, 1u);
  EXPECT_EQ(reg.LiveConnections(7), 2u);

  reg.ReleaseConnection(7, 4);
  reg.ReleaseConnection(7, 2);
  EXPECT_EQ(reg.LiveConnections(7), 0u);
  EXPECT_EQ(reg.LiveLanes(7), 0u);
}

TEST(TenantRegistryTest, LaneCeilingRejectsWhenExhausted) {
  TenantRegistry reg;
  TenantPolicy p;
  p.max_lanes = 2;
  reg.Register(3, p);
  EXPECT_EQ(reg.AdmitConnect(3, 2).lanes, 2u);
  // All lanes held by the live connection: a new connect degrades to zero,
  // which is a reject (a handle with no lanes is useless).
  EXPECT_EQ(reg.AdmitConnect(3, 1).verdict, Admission::Verdict::kOverLanes);
  EXPECT_FALSE(reg.AdmitLane(3));
  reg.ReleaseConnection(3, 2);
  EXPECT_TRUE(reg.AdmitLane(3));
}

TEST(TenantRegistryTest, DefaultAndUnregisteredTenantsAreUnlimited) {
  TenantRegistry reg;
  const Admission a = reg.AdmitConnect(tenant::kDefaultTenant, 8);
  EXPECT_EQ(a.verdict, Admission::Verdict::kAdmit);
  EXPECT_EQ(a.lanes, 8u);
  EXPECT_EQ(reg.LiveConnections(tenant::kDefaultTenant), 0u);  // never charged
  EXPECT_EQ(reg.ClipGrant(tenant::kDefaultTenant, 32), 32u);
  EXPECT_TRUE(reg.SendAllowed(tenant::kDefaultTenant));
  EXPECT_EQ(reg.SendBudgetRemaining(tenant::kDefaultTenant), UINT64_MAX);
  // Releases for ids the registry never charged are no-ops, not underflows.
  reg.ReleaseConnection(99, 4);
}

TEST(TenantRegistryTest, ClipGrantChargesWindowBudget) {
  TenantRegistry reg;
  TenantPolicy p;
  p.credit_budget = 48;
  reg.Register(5, p);

  EXPECT_EQ(reg.ClipGrant(5, 32), 32u);
  EXPECT_EQ(reg.ClipGrant(5, 32), 16u);  // clipped: 16 left of 48
  EXPECT_EQ(reg.ClipGrant(5, 32), 0u);   // exhausted
  EXPECT_EQ(reg.CountersFor(5)->credit_stalls, 2u);

  // Window roll refills; the same instant rolls only once.
  reg.EndWindow(1000);
  EXPECT_EQ(reg.ClipGrant(5, 40), 40u);
  reg.EndWindow(1000);
  EXPECT_EQ(reg.ClipGrant(5, 40), 8u) << "same-instant roll must not refill";
}

TEST(TenantRegistryTest, WindowPoolSplitsByWeight) {
  TenantRegistry reg;
  TenantPolicy heavy;
  heavy.weight = 2;
  TenantPolicy light;
  light.weight = 1;
  reg.Register(1, heavy);
  reg.Register(2, light);
  reg.SetWindowCreditPool(300);
  reg.EndWindow(1);

  // 2:1 split of the 300-credit pool.
  EXPECT_EQ(reg.ClipGrant(1, 1000), 200u);
  EXPECT_EQ(reg.ClipGrant(2, 1000), 100u);
}

TEST(TenantRegistryTest, ThrottleDecaysAndRecovers) {
  TenantRegistry reg;
  TenantPolicy p;
  p.credit_budget = 64;
  p.byte_quota = 1000;
  reg.Register(9, p);

  // decay_after=2 consecutive over-quota windows per step.
  uint64_t now = 0;
  for (int w = 0; w < 4; ++w) {
    reg.OnRequests(9, 10, 5000);  // 5x over quota
    reg.EndWindow(++now);
  }
  EXPECT_EQ(reg.ThrottleLevel(9), 2u);
  EXPECT_EQ(reg.CountersFor(9)->throttle_events, 2u);
  EXPECT_EQ(reg.CountersFor(9)->over_quota_windows, 4u);
  // Budget decays with the level: 64 >> 2 = 16.
  EXPECT_EQ(reg.ClipGrant(9, 64), 16u);

  // recover_after=4 clean windows per recovery step.
  for (int w = 0; w < 8; ++w) {
    reg.EndWindow(++now);
  }
  EXPECT_EQ(reg.ThrottleLevel(9), 0u);
  EXPECT_EQ(reg.CountersFor(9)->throttle_recoveries, 2u);
  EXPECT_EQ(reg.ClipGrant(9, 64), 64u);
}

TEST(TenantRegistryTest, ThrottledBudgetNeverReachesZero) {
  TenantRegistry reg;
  TenantPolicy p;
  p.credit_budget = 4;
  p.byte_quota = 10;
  reg.Register(2, p);
  uint64_t now = 0;
  for (int w = 0; w < 40; ++w) {
    reg.OnRequests(2, 1, 1000);
    reg.EndWindow(++now);
  }
  EXPECT_EQ(reg.ThrottleLevel(2), reg.throttle.max_level);
  // 4 >> 6 would be zero; the floor keeps the tenant crawling, not dead.
  EXPECT_EQ(reg.ClipGrant(2, 8), 1u);
}

TEST(TenantRegistryTest, SendBudgetTracksWindowBytes) {
  TenantRegistry reg;
  TenantPolicy p;
  p.byte_quota = 1024;
  reg.Register(4, p);
  EXPECT_TRUE(reg.SendAllowed(4));
  EXPECT_EQ(reg.SendBudgetRemaining(4), 1024u);
  reg.ChargeSent(4, 1000);
  EXPECT_TRUE(reg.SendAllowed(4));
  EXPECT_EQ(reg.SendBudgetRemaining(4), 24u);
  reg.ChargeSent(4, 100);  // soft bound: the crossing batch still counts
  EXPECT_FALSE(reg.SendAllowed(4));
  EXPECT_EQ(reg.SendBudgetRemaining(4), 0u);
  reg.EndWindow(1);
  EXPECT_TRUE(reg.SendAllowed(4));
}

// ---------------------------------------------------------------------------
// Integration: admission through the live handshake
// ---------------------------------------------------------------------------

constexpr uint16_t kEchoRpc = 1;

uint32_t EchoHandler(const uint8_t* req, uint32_t len, uint8_t* resp,
                     uint32_t cap, Nanos* cpu) {
  FLOCK_CHECK_LE(len, cap);
  std::memcpy(resp, req, len);
  *cpu = 60;
  return len;
}

// A server plus N-1 clients, all on one config (the default unless given).
struct TenantWorld {
  static verbs::Cluster::Config MakeClusterConfig(int nodes, int num_shards,
                                                  int num_workers) {
    verbs::Cluster::Config c;
    c.num_nodes = nodes;
    c.cores_per_node = 8;
    c.num_shards = num_shards;
    c.num_workers = num_workers;
    return c;
  }

  explicit TenantWorld(int nodes = 3, FlockConfig cfg = FlockConfig{},
                       int num_shards = 1, int num_workers = 0)
      : cluster(MakeClusterConfig(nodes, num_shards, num_workers)) {
    server = std::make_unique<FlockRuntime>(cluster, 0, cfg);
    server->RegisterHandler(kEchoRpc, EchoHandler);
    server->StartServer(4);
    for (int n = 1; n < nodes; ++n) {
      clients.push_back(std::make_unique<FlockRuntime>(cluster, n, cfg));
      clients.back()->StartClient();
    }
  }

  TenantRegistry& tenants() {
    return ctrl::ControlPlane::For(cluster).tenants();
  }

  verbs::Cluster cluster;
  std::unique_ptr<FlockRuntime> server;
  std::vector<std::unique_ptr<FlockRuntime>> clients;
};

sim::Proc EchoLoop(Connection* conn, FlockThread* thread, int count,
                   int* ok_count, int* fail_count) {
  std::vector<uint8_t> resp;
  for (int i = 0; i < count; ++i) {
    uint64_t payload = static_cast<uint64_t>(i);
    const bool ok =
        co_await conn->Call(*thread, kEchoRpc,
                            reinterpret_cast<const uint8_t*>(&payload), 8, &resp);
    (ok ? *ok_count : *fail_count) += 1;
  }
}

// Fat-payload hot loop: moves enough bytes per scheduling window to trip a
// kilobyte-scale byte_quota (the 8-byte EchoLoop cannot).
sim::Proc FloodLoop(Connection* conn, FlockThread* thread, int count,
                    uint32_t payload_bytes, int* ok_count, int* fail_count) {
  std::vector<uint8_t> req(payload_bytes, 0xAB);
  std::vector<uint8_t> resp;
  for (int i = 0; i < count; ++i) {
    const bool ok = co_await conn->Call(*thread, kEchoRpc, req.data(),
                                        payload_bytes, &resp);
    (ok ? *ok_count : *fail_count) += 1;
  }
}

TEST(TenantAdmissionTest, AcceptRejectAndDegrade) {
  TenantWorld world;
  TenantPolicy bounded;
  bounded.max_connections = 1;
  bounded.max_lanes = 2;
  world.tenants().Register(1, bounded);

  // Unknown tenant: rejected outright, counted.
  EXPECT_EQ(world.clients[0]->Connect(0, 4, /*tenant=*/42), nullptr);
  EXPECT_EQ(world.tenants().unknown_rejects(), 1u);

  // Registered tenant asking for more lanes than its ceiling: degraded
  // accept — the handle comes back with the granted count, fully serviceable.
  Connection* conn = world.clients[0]->Connect(0, 4, /*tenant=*/1);
  ASSERT_NE(conn, nullptr);
  EXPECT_EQ(conn->num_lanes(), 2u);
  EXPECT_EQ(conn->tenant_id(), 1u);
  EXPECT_EQ(world.tenants().CountersFor(1)->admission_degrades, 1u);
  EXPECT_EQ(world.tenants().LiveLanes(1), 2u);

  // Second connect: over max_connections.
  EXPECT_EQ(world.clients[1]->Connect(0, 1, /*tenant=*/1), nullptr);
  EXPECT_EQ(world.tenants().CountersFor(1)->admission_rejects, 1u);

  // The degraded handle serves RPCs normally.
  int ok = 0, fail = 0;
  for (int t = 0; t < 4; ++t) {
    world.cluster.sim().Spawn(
        EchoLoop(conn, world.clients[0]->CreateThread(t), 200, &ok, &fail));
  }
  world.cluster.sim().RunFor(100 * kMillisecond);
  EXPECT_EQ(ok, 4 * 200);
  EXPECT_EQ(fail, 0);
  // Attribution reached the census and the stamp always matched.
  EXPECT_EQ(world.tenants().CountersFor(1)->rpcs, 4u * 200u);
  EXPECT_EQ(world.tenants().CountersFor(1)->stamp_mismatches, 0u);
}

TEST(TenantAdmissionTest, DefaultTenantAdmittedInFull) {
  TenantWorld world;
  Connection* conn = world.clients[0]->Connect(0, 4);
  ASSERT_NE(conn, nullptr);
  EXPECT_EQ(conn->num_lanes(), 4u);
  int ok = 0, fail = 0;
  world.cluster.sim().Spawn(
      EchoLoop(conn, world.clients[0]->CreateThread(0), 100, &ok, &fail));
  world.cluster.sim().RunFor(50 * kMillisecond);
  EXPECT_EQ(ok, 100);
  EXPECT_EQ(fail, 0);
}

sim::Proc ConnectAsyncInto(FlockRuntime* client, int server_node,
                           uint32_t lanes, tenant::TenantId tenant,
                           Connection** out, bool* done) {
  *out = co_await client->ConnectAsync(server_node, lanes, tenant);
  *done = true;
}

// Only a tenant admission verdict surfaces as nullptr; the handshake is
// still refused loudly for anything else.
TEST(TenantAdmissionTest, ConnectionCeilingReturnsNullFromBothConnects) {
  TenantWorld world;
  TenantPolicy one_conn;
  one_conn.max_connections = 1;
  world.tenants().Register(1, one_conn);
  ASSERT_NE(world.clients[0]->Connect(0, 2, /*tenant=*/1), nullptr);

  EXPECT_EQ(world.clients[1]->Connect(0, 2, /*tenant=*/1), nullptr);
  Connection* async_conn = nullptr;
  bool done = false;
  world.cluster.sim().Spawn(ConnectAsyncInto(world.clients[1].get(), 0, 2,
                                             /*tenant=*/1, &async_conn, &done));
  world.cluster.sim().RunFor(1 * kMillisecond);
  EXPECT_TRUE(done);
  EXPECT_EQ(async_conn, nullptr);
  EXPECT_EQ(world.tenants().CountersFor(1)->admission_rejects, 2u);
  EXPECT_EQ(world.tenants().LiveConnections(1), 1u);
}

TEST(TenantAdmissionDeathTest, ConnectToNodeWithoutServerAborts) {
  EXPECT_DEATH(
      {
        TenantWorld world(/*nodes=*/3);
        // Node 2 runs only a client: its control plane answers the handshake
        // with kServerNotStarted, which is no admission verdict.
        world.clients[0]->Connect(/*server_node=*/2, 2);
      },
      "rejected the handshake");
}

// ---------------------------------------------------------------------------
// Weighted-fair contention
// ---------------------------------------------------------------------------

struct ContendResult {
  std::vector<uint64_t> rpcs;  // per tenant id, index 0 unused
  uint64_t hash = 0;
};

// N tenants (ids 1..N) on separate client nodes hammer one server under a
// shared window credit pool. Returns per-tenant served-RPC counts plus an
// order-sensitive fingerprint for the determinism checks. The registry is
// cluster-global state touched from every node, so multi-shard runs serialize
// the shard workers (num_workers=1) — by the kernel's contract that cannot
// change the trace, and it keeps the registry single-threaded.
ContendResult RunWeightedContention(const std::vector<uint32_t>& weights,
                                    int num_shards) {
  const int tenants_n = static_cast<int>(weights.size());
  TenantWorld world(1 + tenants_n, FlockConfig{}, num_shards,
                    /*num_workers=*/num_shards > 1 ? 1 : 0);
  for (int i = 0; i < tenants_n; ++i) {
    TenantPolicy p;
    p.weight = weights[static_cast<size_t>(i)];
    world.tenants().Register(static_cast<tenant::TenantId>(i + 1), p);
  }
  // A pool small enough to be the bottleneck: fairness comes from grant
  // clipping, not from the clients' offered load.
  world.tenants().SetWindowCreditPool(96);

  std::vector<int> ok(static_cast<size_t>(tenants_n), 0);
  std::vector<int> fail(static_cast<size_t>(tenants_n), 0);
  for (int i = 0; i < tenants_n; ++i) {
    Connection* conn = world.clients[static_cast<size_t>(i)]->Connect(
        0, 4, static_cast<tenant::TenantId>(i + 1));
    EXPECT_NE(conn, nullptr);
    for (int t = 0; t < 4; ++t) {
      // Home each loop on its client's node: multi-shard runs require procs
      // to live on the shard whose node they drive.
      world.cluster.sim().Spawn(
          EchoLoop(conn, world.clients[static_cast<size_t>(i)]->CreateThread(t),
                   1 << 20, &ok[static_cast<size_t>(i)],
                   &fail[static_cast<size_t>(i)]),
          /*node=*/i + 1);
    }
  }
  world.cluster.sim().RunFor(40 * kMillisecond);

  ContendResult r;
  r.rpcs.assign(static_cast<size_t>(tenants_n) + 1, 0);
  bench::TraceHash h;
  for (int i = 1; i <= tenants_n; ++i) {
    const tenant::TenantCounters* c =
        world.tenants().CountersFor(static_cast<tenant::TenantId>(i));
    r.rpcs[static_cast<size_t>(i)] = c->rpcs;
    h.Mix(c->rpcs).Mix(c->bytes).Mix(c->credit_stalls).Mix(c->quota_stalls);
    h.Mix(static_cast<uint64_t>(ok[static_cast<size_t>(i - 1)]));
    h.Mix(static_cast<uint64_t>(fail[static_cast<size_t>(i - 1)]));
  }
  h.Mix(world.server->server_stats().requests);
  r.hash = h.value();
  return r;
}

TEST(TenantFairnessTest, TwoTenantWeightedSplit) {
  const ContendResult r = RunWeightedContention({2, 1}, /*num_shards=*/1);
  ASSERT_GT(r.rpcs[1], 0u);
  ASSERT_GT(r.rpcs[2], 0u);
  const double ratio =
      static_cast<double>(r.rpcs[1]) / static_cast<double>(r.rpcs[2]);
  // Weight 2:1 under a binding credit pool: the heavy tenant must get
  // measurably more, and the split must stay in the neighborhood of the
  // configured weights (grant clipping is per-lane, so it is not exact).
  EXPECT_GT(ratio, 1.4) << "weighted-fair layer had no effect";
  EXPECT_LT(ratio, 3.0) << "heavy tenant starved the light one";
}

TEST(TenantFairnessTest, ThreeTenantWeightedSplit) {
  const ContendResult r = RunWeightedContention({2, 1, 1}, /*num_shards=*/1);
  ASSERT_GT(r.rpcs[3], 0u);
  const double r12 =
      static_cast<double>(r.rpcs[1]) / static_cast<double>(r.rpcs[2]);
  const double r23 =
      static_cast<double>(r.rpcs[2]) / static_cast<double>(r.rpcs[3]);
  EXPECT_GT(r12, 1.3);
  EXPECT_LT(r12, 3.0);
  // The two weight-1 tenants see symmetric service.
  EXPECT_GT(r23, 0.75);
  EXPECT_LT(r23, 1.34);
}

TEST(TenantFairnessTest, SameSeedTraceIdenticalAcrossShardCounts) {
  const ContendResult base = RunWeightedContention({2, 1}, /*num_shards=*/1);
  for (const int shards : {2, 4}) {
    const ContendResult r = RunWeightedContention({2, 1}, shards);
    EXPECT_EQ(r.hash, base.hash) << "shards=" << shards;
    EXPECT_EQ(r.rpcs, base.rpcs) << "shards=" << shards;
  }
}

// ---------------------------------------------------------------------------
// Throttle under live over-quota traffic, then recovery
// ---------------------------------------------------------------------------

TEST(TenantThrottleTest, DecayUnderFloodThenRecovery) {
  TenantWorld world(2);
  TenantPolicy p;
  p.credit_budget = 256;
  p.byte_quota = 8 * 1024;  // ~8KB per 200us window, far below the flood
  world.tenants().Register(1, p);

  Connection* conn = world.clients[0]->Connect(0, 4, /*tenant=*/1);
  ASSERT_NE(conn, nullptr);
  int ok = 0, fail = 0;
  for (int t = 0; t < 4; ++t) {
    world.cluster.sim().Spawn(FloodLoop(conn, world.clients[0]->CreateThread(t),
                                        500, /*payload_bytes=*/512, &ok, &fail));
  }
  // Mid-flood: quota tripping, throttle decaying, grants being clipped.
  world.cluster.sim().RunFor(4 * kMillisecond);
  const tenant::TenantCounters& mid = *world.tenants().CountersFor(1);
  EXPECT_GT(mid.over_quota_windows, 0u) << "flood never tripped the quota";
  EXPECT_GT(mid.throttle_events, 0u) << "sustained over-quota did not decay";
  EXPECT_GT(world.tenants().ThrottleLevel(1), 0u);
  EXPECT_GT(mid.credit_stalls + mid.quota_stalls, 0u)
      << "throttle decayed but nothing was ever clipped or stalled";

  // The bounded loops drain under quota, then clean windows walk the level
  // back down. Throttling slows a tenant; it never fails its RPCs.
  world.cluster.sim().RunFor(150 * kMillisecond);
  const tenant::TenantCounters& after = *world.tenants().CountersFor(1);
  EXPECT_GT(after.throttle_recoveries, 0u);
  EXPECT_EQ(world.tenants().ThrottleLevel(1), 0u)
      << "idle tenant must recover fully";
  EXPECT_EQ(ok, 4 * 500);
  EXPECT_EQ(fail, 0);
}

// ---------------------------------------------------------------------------
// Teardown reclamation and PR-7 recycling interaction
// ---------------------------------------------------------------------------

TEST(TenantTeardownTest, CloseReclaimsConnectionsAndLanes) {
  TenantWorld world(3);
  TenantPolicy p;
  p.max_connections = 2;
  p.max_lanes = 8;
  world.tenants().Register(1, p);

  Connection* a = world.clients[0]->Connect(0, 4, /*tenant=*/1);
  Connection* b = world.clients[1]->Connect(0, 4, /*tenant=*/1);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(world.tenants().LiveConnections(1), 2u);
  EXPECT_EQ(world.tenants().LiveLanes(1), 8u);

  int ok = 0, fail = 0;
  world.cluster.sim().Spawn(
      EchoLoop(a, world.clients[0]->CreateThread(0), 100, &ok, &fail));
  world.cluster.sim().RunFor(20 * kMillisecond);
  EXPECT_EQ(ok, 100);

  world.clients[0]->CloseConnection(a);
  world.cluster.sim().RunFor(20 * kMillisecond);
  EXPECT_EQ(world.tenants().LiveConnections(1), 1u);
  EXPECT_EQ(world.tenants().LiveLanes(1), 4u);
  // Freed capacity is immediately admittable again.
  Connection* c = world.clients[0]->Connect(0, 4, /*tenant=*/1);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->num_lanes(), 4u);

  world.clients[0]->CloseConnection(c);
  world.clients[1]->CloseConnection(b);
  world.cluster.sim().RunFor(20 * kMillisecond);
  EXPECT_EQ(world.tenants().LiveConnections(1), 0u);
  EXPECT_EQ(world.tenants().LiveLanes(1), 0u);
}

// Dead-sender reclamation is the teardown Leave and disconnect run
// (DESIGN.md §10). An idle handle loses lane 0's QP; once the sender has a
// failed lane and has been quiet for rpc_timeout, the server tears it down:
// it errors the surviving QP, so the client learns on its next post, and
// releases the tenant's connection exactly once. Nothing revives it: the
// handle's later calls fail, its reconnect is refused, and the freed
// connection is admittable again.
TEST(TenantTeardownTest, IdleSenderWithKilledLaneIsTornDownForGood) {
  FlockConfig cfg;
  cfg.rpc_timeout = 100 * kMicrosecond;
  TenantWorld world(3, cfg);
  TenantPolicy one_conn;
  one_conn.max_connections = 1;
  world.tenants().Register(1, one_conn);

  Connection* conn = world.clients[0]->Connect(0, 2, /*tenant=*/1);
  ASSERT_NE(conn, nullptr);
  FlockThread* thread = world.clients[0]->CreateThread(0);
  int ok = 0, fail = 0;
  world.cluster.sim().Spawn(EchoLoop(conn, thread, 20, &ok, &fail));
  world.cluster.sim().RunFor(2 * kMillisecond);
  ASSERT_EQ(ok, 20);
  ASSERT_EQ(world.server->server_stats().dead_senders, 0u);

  world.cluster.fault().KillQp(/*node=*/1, conn->lane(0).qp->qpn());
  world.cluster.sim().RunFor(cfg.rpc_timeout + 2 * internal::kQpSchedInterval);
  EXPECT_EQ(world.server->server_stats().dead_senders, 1u);
  EXPECT_EQ(world.tenants().LiveConnections(1), 0u);
  EXPECT_EQ(world.tenants().LiveLanes(1), 0u);

  // The freed connection is admittable again.
  Connection* second = world.clients[1]->Connect(0, 2, /*tenant=*/1);
  EXPECT_NE(second, nullptr);
  EXPECT_EQ(world.tenants().LiveConnections(1), 1u);

  // The torn-down handle's calls all resolve, as failures: no reconnect
  // revives either lane.
  ok = fail = 0;
  world.cluster.sim().Spawn(EchoLoop(conn, thread, 5, &ok, &fail));
  world.cluster.sim().RunFor(100 * kMillisecond);
  EXPECT_EQ(ok + fail, 5) << "a call on the torn-down handle hung";
  EXPECT_EQ(ok, 0);
  EXPECT_EQ(conn->lane_reconnects(), 0u);
  EXPECT_EQ(conn->num_failed_lanes(), 2u);
  EXPECT_EQ(world.server->server_stats().dead_senders, 1u);
  EXPECT_EQ(world.tenants().LiveConnections(1), 1u);
}

TEST(TenantRecyclingTest, PooledLaneShellsCarryNoQuotaDebt) {
  TenantWorld world(2);

  // Tenant 1: tiny quotas, flooded until throttled. Tenant 2: clean slate.
  TenantPolicy abusive;
  abusive.credit_budget = 256;
  abusive.byte_quota = 8 * 1024;
  abusive.max_lanes = 4;
  world.tenants().Register(1, abusive);
  TenantPolicy clean;
  clean.max_lanes = 4;
  world.tenants().Register(2, clean);

  Connection* hot = world.clients[0]->Connect(0, 4, /*tenant=*/1);
  ASSERT_NE(hot, nullptr);
  int ok1 = 0, fail1 = 0;
  for (int t = 0; t < 4; ++t) {
    world.cluster.sim().Spawn(FloodLoop(hot, world.clients[0]->CreateThread(t),
                                        500, /*payload_bytes=*/512, &ok1,
                                        &fail1));
  }
  world.cluster.sim().RunFor(4 * kMillisecond);
  EXPECT_GT(world.tenants().ThrottleLevel(1), 0u) << "flood never throttled";

  // Drain, then orderly close: the disconnect handshake reclaims the
  // tenant's admission accounting and harvests the server-side shells.
  world.cluster.sim().RunFor(50 * kMillisecond);
  world.clients[0]->CloseConnection(hot);
  world.cluster.sim().RunFor(5 * kMillisecond);
  EXPECT_EQ(world.tenants().LiveLanes(1), 0u) << "teardown leaked lane charge";

  // Tenant 2 connects through the recycled shells the flood left behind.
  Connection* fresh = world.clients[0]->Connect(0, 4, /*tenant=*/2);
  ASSERT_NE(fresh, nullptr);
  EXPECT_GT(world.server->server_stats().qps_recycled, 0u)
      << "test did not exercise the recycling path";

  const uint64_t t1_rpcs_before = world.tenants().CountersFor(1)->rpcs;
  int ok2 = 0, fail2 = 0;
  for (int t = 4; t < 8; ++t) {
    world.cluster.sim().Spawn(EchoLoop(
        fresh, world.clients[0]->CreateThread(t), 2000, &ok2, &fail2));
  }
  world.cluster.sim().RunFor(60 * kMillisecond);

  // No inherited debt: tenant 2 is unbudgeted and unthrottled, its traffic
  // completes, and none of it is misattributed to the previous occupant.
  EXPECT_EQ(ok2, 4 * 2000);
  EXPECT_EQ(fail2, 0);
  EXPECT_EQ(world.tenants().ThrottleLevel(2), 0u);
  EXPECT_EQ(world.tenants().CountersFor(2)->credit_stalls, 0u);
  EXPECT_EQ(world.tenants().CountersFor(2)->quota_stalls, 0u);
  EXPECT_EQ(world.tenants().CountersFor(2)->stamp_mismatches, 0u);
  EXPECT_EQ(world.tenants().CountersFor(1)->rpcs, t1_rpcs_before)
      << "recycled lane still attributed to its previous tenant";
  EXPECT_EQ(world.tenants().CountersFor(2)->rpcs, static_cast<uint64_t>(ok2));
}

}  // namespace
}  // namespace flock
