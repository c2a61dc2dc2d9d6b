// Connection control plane tests (DESIGN.md §10): connect/accept handshake,
// QP re-establishment after a kill, membership leave/rejoin with AQP
// repartitioning, stale handles left by a rejoin, lazy lane growth on
// ConnectAsync handles, and same-seed determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "src/ctrl/control_plane.h"
#include "src/flock/flock.h"
#include "src/verbs/fault.h"

namespace flock {
namespace {

constexpr uint16_t kEchoRpc = 1;

uint32_t EchoHandler(const uint8_t* req, uint32_t len, uint8_t* resp,
                     uint32_t cap, Nanos* cpu) {
  FLOCK_CHECK_LE(len, cap);
  std::memcpy(resp, req, len);
  *cpu = 60;
  return len;
}

// A server plus N-1 clients wired for control-plane testing: clients carry a
// short rpc_timeout, so the reconnect path replays un-acked batches via the
// retry watchdog within the test's horizon.
struct CtrlWorld {
  explicit CtrlWorld(int nodes = 2, FlockConfig server_cfg = FlockConfig{},
                     FlockConfig client_cfg = DefaultClientConfig())
      : cluster(verbs::Cluster::Config{.num_nodes = nodes, .cores_per_node = 8}) {
    server = std::make_unique<FlockRuntime>(cluster, 0, server_cfg);
    server->RegisterHandler(kEchoRpc, EchoHandler);
    server->StartServer(4);
    for (int n = 1; n < nodes; ++n) {
      clients.push_back(std::make_unique<FlockRuntime>(cluster, n, client_cfg));
      clients.back()->StartClient();
    }
  }

  static FlockConfig DefaultClientConfig() {
    FlockConfig cfg;
    cfg.rpc_timeout = 100 * kMicrosecond;
    return cfg;
  }

  verbs::Cluster cluster;
  std::unique_ptr<FlockRuntime> server;
  std::vector<std::unique_ptr<FlockRuntime>> clients;
};

// `count` back-to-back echo calls, ending early once *stop (when given) is
// raised. `issued` (when given) counts calls started, so issued == ok + fail
// afterwards proves none was left hanging.
sim::Proc EchoLoop(Connection* conn, FlockThread* thread, int count,
                   int* ok_count, int* fail_count, const bool* stop = nullptr,
                   int* issued = nullptr) {
  std::vector<uint8_t> resp;
  for (int i = 0; i < count && (stop == nullptr || !*stop); ++i) {
    if (issued != nullptr) {
      *issued += 1;
    }
    uint64_t payload = static_cast<uint64_t>(i);
    const bool ok =
        co_await conn->Call(*thread, kEchoRpc,
                            reinterpret_cast<const uint8_t*>(&payload), 8, &resp);
    (ok ? *ok_count : *fail_count) += 1;
  }
}

sim::Proc ConnectAsyncInto(FlockRuntime* client, int server_node,
                           uint32_t lanes, Connection** out,
                           tenant::TenantId tenant = tenant::kDefaultTenant) {
  *out = co_await client->ConnectAsync(server_node, lanes, tenant);
}

// ---------------------------------------------------------------------------
// Connect/accept handshake
// ---------------------------------------------------------------------------

TEST(CtrlTest, HandshakeWiresLanesAndServesRpcs) {
  CtrlWorld world;
  // Node-id overload: the client knows nothing but the server's node number;
  // QPs, rings, rkeys and credits all arrive through the accept message.
  Connection* conn = world.clients[0]->Connect(/*server_node=*/0, 4);
  ASSERT_NE(conn, nullptr);
  EXPECT_EQ(conn->num_lanes(), 4u);
  EXPECT_EQ(conn->server_node(), 0);

  Connection::LaneStates states = conn->CountLaneStates();
  EXPECT_EQ(states.healthy, 4u);
  EXPECT_EQ(states.quarantined, 0u);
  EXPECT_EQ(states.retired, 0u);

  const ctrl::ControlPlane::Stats& cp = ctrl::ControlPlane::For(world.cluster).stats();
  EXPECT_GE(cp.calls, 1u);
  EXPECT_EQ(cp.rejected_malformed, 0u);
  EXPECT_EQ(cp.rejected_replay, 0u);

  int ok = 0, fail = 0;
  for (int t = 0; t < 4; ++t) {
    world.cluster.sim().Spawn(
        EchoLoop(conn, world.clients[0]->CreateThread(t), 200, &ok, &fail));
  }
  world.cluster.sim().RunFor(100 * kMillisecond);
  EXPECT_EQ(ok, 4 * 200);
  EXPECT_EQ(fail, 0);
}

// Sends one hand-encoded control request to `node` and returns the reason of
// the reject it is answered with (UINT32_MAX, and a test failure, if the
// answer is anything but a reject).
uint32_t RejectReasonOf(ctrl::ControlPlane& cp, int node, ctrl::wire::MsgType type,
                        const void* body, uint32_t body_len) {
  uint8_t msg[ctrl::wire::kMaxMessageBytes];
  uint8_t resp[ctrl::wire::kMaxMessageBytes];
  const uint32_t msg_len = ctrl::wire::EncodeMessage(
      msg, sizeof(msg), type, cp.NextNonce(), body, body_len);
  const uint32_t resp_len = cp.Call(node, msg, msg_len, resp, sizeof(resp));
  ctrl::wire::MsgHeader header;
  ctrl::wire::Reject reject;
  const bool is_reject = ctrl::wire::DecodeHeader(resp, resp_len, &header) &&
                         ctrl::wire::DecodeReject(header, resp, &reject);
  EXPECT_TRUE(is_reject) << "answered with message type " << header.type;
  return is_reject ? reject.reason : UINT32_MAX;
}

// Every reject reason the server's four handlers give a malformed or
// misaddressed request, or one naming a torn-down sender (kLaneBusy needs a
// lane mid-dispatch; the tenant reasons are tenant_test's). Node 0 serves
// one 2-lane handle of node 1; node 1 runs a runtime that never called
// StartServer.
TEST(CtrlTest, ServerRejectReasonsArePinned) {
  namespace cw = ctrl::wire;
  using R = cw::RejectReason;
  CtrlWorld world;
  ctrl::ControlPlane& cp = ctrl::ControlPlane::For(world.cluster);
  Connection* conn = world.clients[0]->Connect(*world.server, 2);
  ASSERT_NE(conn, nullptr);
  const uint32_t conn_id = conn->conn_id();
  const auto expect_reject = [&](const char* what, int node, cw::MsgType type,
                                 const void* body, uint32_t len, R reason) {
    EXPECT_EQ(RejectReasonOf(cp, node, type, body, len),
              static_cast<uint32_t>(reason))
        << what;
  };

  cw::ConnectRequest connect;
  connect.client_node = 1;
  connect.num_lanes = 1;
  connect.ring_bytes = FlockConfig{}.ring_bytes;
  expect_reject("connect: not started", 1, cw::MsgType::kConnectRequest,
                &connect, cw::ConnectRequestBytes(1), R::kServerNotStarted);
  connect.num_lanes = 0;
  expect_reject("connect: undecodable", 0, cw::MsgType::kConnectRequest,
                &connect, cw::ConnectRequestBytes(0), R::kUnknown);

  cw::ReconnectRequest reconnect;
  reconnect.client_node = 1;
  reconnect.conn_id = conn_id;
  expect_reject("reconnect: not started", 1, cw::MsgType::kReconnectRequest,
                &reconnect, sizeof(reconnect), R::kBadConnId);
  expect_reject("reconnect: undecodable", 0, cw::MsgType::kReconnectRequest,
                &reconnect, sizeof(reconnect) - 4, R::kUnknown);
  reconnect.lane_index = 2;
  expect_reject("reconnect: no such lane", 0, cw::MsgType::kReconnectRequest,
                &reconnect, sizeof(reconnect), R::kBadLane);
  reconnect.lane_index = 0;
  reconnect.client_node = 0;
  expect_reject("reconnect: wrong client node", 0,
                cw::MsgType::kReconnectRequest, &reconnect, sizeof(reconnect),
                R::kBadLane);
  reconnect.client_node = 1;
  reconnect.conn_id = conn_id + 1;
  expect_reject("reconnect: conn_id out of range", 0,
                cw::MsgType::kReconnectRequest, &reconnect, sizeof(reconnect),
                R::kBadConnId);

  cw::AddLaneRequest add;
  add.client_node = 1;
  add.conn_id = conn_id;
  add.lane_index = 2;
  add.ring_bytes = FlockConfig{}.ring_bytes;
  expect_reject("add-lane: not started", 1, cw::MsgType::kAddLaneRequest, &add,
                sizeof(add), R::kBadConnId);
  add.lane_index = 1;
  expect_reject("add-lane: out of sequence (taken)", 0,
                cw::MsgType::kAddLaneRequest, &add, sizeof(add), R::kBadLane);
  add.lane_index = 3;
  expect_reject("add-lane: out of sequence (gap)", 0,
                cw::MsgType::kAddLaneRequest, &add, sizeof(add), R::kBadLane);
  add.lane_index = 2;
  add.client_node = 0;
  expect_reject("add-lane: wrong client node", 0, cw::MsgType::kAddLaneRequest,
                &add, sizeof(add), R::kBadLane);
  add.client_node = 1;
  add.conn_id = conn_id + 1;
  expect_reject("add-lane: conn_id out of range", 0,
                cw::MsgType::kAddLaneRequest, &add, sizeof(add), R::kBadConnId);
  add.conn_id = conn_id;
  add.ring_bytes = 0;
  expect_reject("add-lane: undecodable", 0, cw::MsgType::kAddLaneRequest, &add,
                sizeof(add), R::kUnknown);

  cw::DisconnectRequest disconnect;
  disconnect.client_node = 1;
  disconnect.conn_id = conn_id;
  expect_reject("disconnect: not started", 1, cw::MsgType::kDisconnectRequest,
                &disconnect, sizeof(disconnect), R::kBadConnId);
  expect_reject("disconnect: undecodable", 0, cw::MsgType::kDisconnectRequest,
                &add, sizeof(add), R::kUnknown);
  disconnect.client_node = 0;
  expect_reject("disconnect: wrong client node", 0,
                cw::MsgType::kDisconnectRequest, &disconnect,
                sizeof(disconnect), R::kBadConnId);
  disconnect.client_node = 1;
  disconnect.conn_id = conn_id + 1;
  expect_reject("disconnect: conn_id out of range", 0,
                cw::MsgType::kDisconnectRequest, &disconnect,
                sizeof(disconnect), R::kBadConnId);

  expect_reject("unknown type", 0, cw::MsgType::kConnectAccept, &disconnect,
                sizeof(disconnect), R::kUnknown);

  // None of it touched the live handle.
  EXPECT_EQ(world.server->ServerLiveLanes(), 2u);
  EXPECT_EQ(world.server->server_stats().dead_senders, 0u);
  EXPECT_EQ(world.server->server_stats().lanes_added, 0u);
  EXPECT_EQ(world.server->server_stats().lane_reconnects, 0u);

  // A torn-down sender stays dead: its conn_id names no sender to reconnect
  // or grow, even with its slot still unused.
  world.clients[0]->CloseConnection(conn);
  ASSERT_EQ(world.server->server_stats().dead_senders, 1u);
  reconnect.conn_id = conn_id;
  reconnect.lane_index = 0;
  expect_reject("reconnect: torn-down sender", 0,
                cw::MsgType::kReconnectRequest, &reconnect, sizeof(reconnect),
                R::kBadConnId);
  add.conn_id = conn_id;
  add.lane_index = 0;
  add.ring_bytes = FlockConfig{}.ring_bytes;
  expect_reject("add-lane: torn-down sender", 0, cw::MsgType::kAddLaneRequest,
                &add, sizeof(add), R::kBadConnId);
  EXPECT_EQ(world.server->ServerLiveLanes(), 0u);
}

// ---------------------------------------------------------------------------
// QP kill → reconnect → full recovery
// ---------------------------------------------------------------------------

TEST(CtrlTest, QpKillReconnectsAndRestoresLane) {
  CtrlWorld world;
  Connection* conn = world.clients[0]->Connect(*world.server, 4);
  int ok = 0, fail = 0;
  for (int t = 0; t < 4; ++t) {
    world.cluster.sim().Spawn(
        EchoLoop(conn, world.clients[0]->CreateThread(t), 400, &ok, &fail));
  }
  world.cluster.fault().KillQpAt(200 * kMicrosecond, /*node=*/1,
                                 conn->lane(0).qp->qpn());
  world.cluster.sim().RunFor(200 * kMillisecond);

  EXPECT_EQ(ok + fail, 4 * 400);
  EXPECT_EQ(fail, 0) << "retry + reconnect must absorb a single QP kill";
  // Unlike the quarantine-only behaviour (fault_test expects 1 failed lane),
  // the reconnect daemon replaced the QP pair and revived the lane.
  EXPECT_EQ(conn->num_failed_lanes(), 0u);
  EXPECT_GE(conn->lane_reconnects(), 1u);
  Connection::LaneStates states = conn->CountLaneStates();
  EXPECT_EQ(states.healthy, 4u);
  EXPECT_EQ(states.quarantined, 0u);
  EXPECT_EQ(states.reconnecting, 0u);
  EXPECT_GE(world.clients[0]->client_stats().lane_reconnects, 1u);
  EXPECT_GE(world.server->server_stats().lane_reconnects, 1u);
  // Quarantine was still recorded before the revival.
  EXPECT_GE(world.clients[0]->client_stats().lane_failures, 1u);
}

// One census reading of a handle: its lane states and the two lane counts
// the public API reports.
struct Census {
  Connection::LaneStates states;
  uint32_t failed = 0;
  uint32_t active = 0;

  bool operator==(const Census& o) const {
    return states.healthy == o.states.healthy &&
           states.quarantined == o.states.quarantined &&
           states.reconnecting == o.states.reconnecting &&
           states.retired == o.states.retired && failed == o.failed &&
           active == o.active;
  }
};

Census TakeCensus(const Connection& conn) {
  return Census{conn.CountLaneStates(), conn.num_failed_lanes(),
                conn.num_active_lanes()};
}

// Reads the census every microsecond until `until`, keeping each reading
// that differs from the one before.
sim::Proc WatchCensus(sim::Simulator& sim, const Connection* conn, Nanos until,
                      std::vector<Census>* seen) {
  while (sim.Now() < until) {
    const Census c = TakeCensus(*conn);
    if (seen->empty() || !(seen->back() == c)) {
      seen->push_back(c);
    }
    co_await sim::Delay(sim, kMicrosecond);
  }
}

// The lane states move only as the lifecycle allows (DESIGN.md §10): two
// killed QPs are quarantined, the reconnect daemon takes them one at a time
// (one reconnecting while the other waits quarantined), every lane comes back
// healthy, and a close retires them all for good — a grant that reaches a
// retired lane's control slot late does not switch it back on.
TEST(CtrlTest, LaneCensusFollowsKillReconnectAndClose) {
  CtrlWorld world;
  Connection* conn = world.clients[0]->Connect(*world.server, 4);
  ASSERT_NE(conn, nullptr);
  int ok = 0, fail = 0;
  for (int t = 0; t < 4; ++t) {
    world.cluster.sim().Spawn(
        EchoLoop(conn, world.clients[0]->CreateThread(t), 400, &ok, &fail));
  }
  const uint32_t victim = conn->lane(0).qp->qpn();
  world.cluster.fault().KillQpAt(200 * kMicrosecond, /*node=*/1, victim);
  world.cluster.fault().KillQpAt(200 * kMicrosecond, /*node=*/1,
                                 conn->lane(1).qp->qpn());
  std::vector<Census> seen;
  world.cluster.sim().Spawn(
      WatchCensus(world.cluster.sim(), conn, 20 * kMillisecond, &seen));
  world.cluster.sim().RunFor(200 * kMillisecond);
  EXPECT_EQ(ok + fail, 4 * 400);
  EXPECT_EQ(fail, 0);

  const auto find = [&seen](size_t from, auto pred) {
    for (size_t i = from; i < seen.size(); ++i) {
      if (pred(seen[i])) {
        return i;
      }
    }
    return seen.size();
  };
  ASSERT_FALSE(seen.empty());
  EXPECT_EQ(seen.front().states.healthy, 4u);
  EXPECT_EQ(seen.front().failed, 0u);
  // Both lanes down: one reconnecting, the other quarantined behind it.
  const size_t both = find(0, [](const Census& c) {
    return c.states.quarantined == 1 && c.states.reconnecting == 1 &&
           c.states.healthy == 2 && c.failed == 2 && c.active <= 2;
  });
  ASSERT_LT(both, seen.size()) << "never saw one lane quarantined and one "
                                  "reconnecting";
  // The first revived; the second now reconnecting.
  const size_t second = find(both, [](const Census& c) {
    return c.states.quarantined == 0 && c.states.reconnecting == 1 &&
           c.states.healthy == 3 && c.failed == 1;
  });
  ASSERT_LT(second, seen.size());
  // Every sample counts each lane once, and only a healthy lane is active.
  for (const Census& c : seen) {
    EXPECT_EQ(c.states.healthy + c.states.quarantined + c.states.reconnecting,
              4u);
    EXPECT_EQ(c.states.retired, 0u);
    EXPECT_EQ(c.failed, c.states.quarantined + c.states.reconnecting);
    EXPECT_LE(c.active, c.states.healthy);
  }
  const Census revived = TakeCensus(*conn);
  EXPECT_EQ(revived.states.healthy, 4u);
  EXPECT_EQ(revived.failed, 0u);
  EXPECT_GE(revived.active, 1u);
  EXPECT_EQ(world.clients[0]->client_stats().lane_failures, 2u);
  EXPECT_EQ(conn->lane_reconnects(), 2u);

  world.clients[0]->CloseConnection(conn);
  const Census closed = TakeCensus(*conn);
  EXPECT_EQ(closed.states.retired, 4u);
  EXPECT_EQ(closed.states.healthy, 0u);
  EXPECT_EQ(closed.failed, 0u);
  EXPECT_EQ(closed.active, 0u);

  // A late grant: the slot says "active, 32 more credits".
  auto& lane = const_cast<internal::ClientLane&>(conn->lane(0));
  internal::CtrlSlot slot;
  slot.grant_cumulative = lane.grants_seen + 32;
  slot.active = 1;
  world.cluster.mem(1).Write(lane.ctrl_slot_addr, &slot, sizeof(slot));
  EXPECT_FALSE(internal::ApplyCtrlSlot(*lane.conn->env, lane));
  world.cluster.sim().RunFor(10 * kMillisecond);
  const Census after = TakeCensus(*conn);
  EXPECT_EQ(after.states.retired, 4u);
  EXPECT_EQ(after.active, 0u);
  EXPECT_EQ(after.failed, 0u);
  EXPECT_EQ(lane.credits, 0u);
}

TEST(CtrlTest, RepeatedKillsOnSameLaneKeepRecovering) {
  CtrlWorld world;
  Connection* conn = world.clients[0]->Connect(*world.server, 2);
  int ok = 0, fail = 0;
  // Enough traffic that the handle is still busy when the second kill lands
  // (an idle lane posts no sends, so a kill would go unnoticed until used).
  for (int t = 0; t < 2; ++t) {
    world.cluster.sim().Spawn(
        EchoLoop(conn, world.clients[0]->CreateThread(t), 8000, &ok, &fail));
  }
  // First kill, let the lane reconnect, then kill the lane the migrated
  // threads are now driving (an idle lane's death would go unnoticed).
  world.cluster.fault().KillQpAt(200 * kMicrosecond, /*node=*/1,
                                 conn->lane(0).qp->qpn());
  world.cluster.sim().RunFor(20 * kMillisecond);
  ASSERT_EQ(conn->num_failed_lanes(), 0u) << "first reconnect must finish";
  world.cluster.fault().KillQp(/*node=*/1, conn->lane(1).qp->qpn());
  world.cluster.sim().RunFor(400 * kMillisecond);

  EXPECT_EQ(ok + fail, 2 * 8000);
  EXPECT_EQ(fail, 0);
  EXPECT_EQ(conn->num_failed_lanes(), 0u);
  EXPECT_GE(conn->lane_reconnects(), 2u);
  EXPECT_GE(world.server->server_stats().lane_reconnects, 2u);
}

// Kernel events spent by 10 ms of idle simulated time once 2 threads have made
// 16,000 echo calls on a 2-lane handle; with `kill`, the calls ride out the
// two kills of RepeatedKillsOnSameLaneKeepRecovering. Idle dispatchers park
// (DESIGN.md §7), so what is left is mostly watchdog and liveness ticks.
// Event counts are deterministic.
uint64_t IdleEventsAfterEcho(bool kill) {
  CtrlWorld world;
  Connection* conn = world.clients[0]->Connect(*world.server, 2);
  int ok = 0, fail = 0;
  for (int t = 0; t < 2; ++t) {
    world.cluster.sim().Spawn(
        EchoLoop(conn, world.clients[0]->CreateThread(t), 8000, &ok, &fail));
  }
  if (kill) {
    world.cluster.fault().KillQpAt(200 * kMicrosecond, /*node=*/1,
                                   conn->lane(0).qp->qpn());
  }
  world.cluster.sim().RunFor(20 * kMillisecond);
  if (kill) {
    world.cluster.fault().KillQp(/*node=*/1, conn->lane(1).qp->qpn());
  }
  world.cluster.sim().RunFor(100 * kMillisecond);
  EXPECT_EQ(ok, 2 * 8000);
  EXPECT_EQ(conn->lane_reconnects(), kill ? 2u : 0u);
  EXPECT_EQ(conn->num_failed_lanes(), 0u);
  const uint64_t before = world.cluster.sim().events_processed();
  world.cluster.sim().RunFor(10 * kMillisecond);
  return world.cluster.sim().events_processed() - before;
}

TEST(CtrlTest, IdleHandleCostsFewEventsBeforeAndAfterKills) {
  EXPECT_LE(IdleEventsAfterEcho(/*kill=*/false), 200'000u);
  EXPECT_LE(IdleEventsAfterEcho(/*kill=*/true), 10'000u);
}

// ---------------------------------------------------------------------------
// Membership: leave reclaims for good, rejoin opens a new handle
// ---------------------------------------------------------------------------

TEST(CtrlTest, LeaveReclaimsSenderAndRepartitionsAqp) {
  // Cap the server at 2 active QPs so the §5 quota split is observable:
  // two clients with 2 lanes each → 1 active lane per sender.
  FlockConfig server_cfg;
  server_cfg.max_active_qps = 2;
  CtrlWorld world(/*nodes=*/3, server_cfg);
  Connection* victim = world.clients[0]->Connect(*world.server, 2);
  Connection* healthy = world.clients[1]->Connect(*world.server, 2);
  bool stop_victim = false;
  int v_issued = 0, v_ok = 0, v_fail = 0;
  int h_ok = 0, h_fail = 0;
  world.cluster.sim().Spawn(EchoLoop(victim, world.clients[0]->CreateThread(0),
                                     std::numeric_limits<int>::max(), &v_ok,
                                     &v_fail, &stop_victim, &v_issued));
  world.cluster.sim().Spawn(EchoLoop(healthy, world.clients[1]->CreateThread(0),
                                     4000, &h_ok, &h_fail));
  world.cluster.sim().RunFor(300 * kMicrosecond);

  ctrl::ControlPlane& cp = ctrl::ControlPlane::For(world.cluster);
  cp.Leave(/*node=*/1);
  EXPECT_FALSE(cp.IsMember(1));
  // Give the scheduler a few sweeps: the departed sender is reclaimed and its
  // AQP quota flows to the survivor (budget 2 → both healthy lanes active).
  world.cluster.sim().RunFor(5 * kMillisecond);
  EXPECT_GE(world.server->server_stats().dead_senders, 1u);
  EXPECT_EQ(victim->CountLaneStates().healthy, 0u)
      << "leave must quarantine every lane of the departed node";
  EXPECT_EQ(world.server->ServerLiveLanes(), 2u)
      << "the departed sender's lanes must be harvested, not kept live";
  EXPECT_EQ(world.server->ServerLanePool(), 2u);
  EXPECT_EQ(healthy->num_active_lanes(), 2u)
      << "the survivor inherits the departed sender's AQP quota";

  // Rejoin: the old handle stays dead. A new handle reuses the reclaimed
  // sender slot, draws the pooled shells, and wins back its AQP share.
  cp.Join(/*node=*/1);
  Connection* fresh = world.clients[0]->Connect(*world.server, 2);
  ASSERT_NE(fresh, nullptr);
  EXPECT_EQ(fresh->conn_id(), victim->conn_id());
  EXPECT_EQ(world.server->ServerSenderSlots(), 2u);
  EXPECT_EQ(world.server->ServerLanePool(), 0u);
  int f_ok = 0, f_fail = 0;
  world.cluster.sim().Spawn(EchoLoop(fresh, world.clients[0]->CreateThread(1),
                                     4000, &f_ok, &f_fail));
  stop_victim = true;
  world.cluster.sim().RunFor(400 * kMillisecond);

  EXPECT_EQ(h_ok, 4000) << "the healthy client must never be disturbed";
  EXPECT_EQ(h_fail, 0);
  EXPECT_EQ(f_ok, 4000);
  EXPECT_EQ(f_fail, 0);
  EXPECT_GT(v_ok, 0);
  EXPECT_GT(v_fail, 0) << "calls on the departed handle must fail, not revive";
  EXPECT_EQ(v_ok + v_fail, v_issued) << "a call on the old handle hung";
  EXPECT_EQ(victim->CountLaneStates().healthy, 0u);
  EXPECT_EQ(fresh->num_failed_lanes(), 0u);
  EXPECT_GE(fresh->num_active_lanes(), 1u)
      << "the new handle gets the rejoined node's AQP share back";
  EXPECT_EQ(world.server->server_stats().lane_reconnects, 0u);
  EXPECT_GE(cp.stats().leaves, 1u);
  EXPECT_GE(cp.stats().joins, 1u);
}

// The stale-handle tests below share one shape: the node leaves, rejoins and
// connects again, so the new handle lands in the old handle's sender slot.
// Every per-handle control message the old handle could still send —
// reconnect, add-lane, disconnect — would then name the new handle by
// (client_node, conn_id); the new handle must come through each untouched.

TEST(CtrlTest, StaleReconnectCannotHijackReusedSenderSlot) {
  CtrlWorld world;
  ctrl::ControlPlane& cp = ctrl::ControlPlane::For(world.cluster);
  Connection* old_conn = world.clients[0]->Connect(*world.server, 2);
  bool stop_old = false;
  int old_issued = 0, old_ok = 0, old_fail = 0;
  world.cluster.sim().Spawn(EchoLoop(old_conn, world.clients[0]->CreateThread(0),
                                     std::numeric_limits<int>::max(), &old_ok,
                                     &old_fail, &stop_old, &old_issued));
  world.cluster.sim().RunFor(300 * kMicrosecond);
  cp.Leave(/*node=*/1);
  world.cluster.sim().RunFor(2 * kMillisecond);
  ASSERT_GE(old_conn->num_failed_lanes(), 1u)
      << "the old handle's reconnect daemon needs a dead lane to chase";

  cp.Join(/*node=*/1);
  Connection* fresh = world.clients[0]->Connect(*world.server, 2);
  ASSERT_NE(fresh, nullptr);
  ASSERT_EQ(fresh->conn_id(), old_conn->conn_id());
  const uint64_t calls_before = cp.stats().calls;
  const uint64_t qps_before = world.clients[0]->client_stats().qps_created;
  int ok = 0, fail = 0;
  for (int t = 1; t <= 2; ++t) {
    world.cluster.sim().Spawn(
        EchoLoop(fresh, world.clients[0]->CreateThread(t), 1000, &ok, &fail));
  }
  stop_old = true;
  world.cluster.sim().RunFor(100 * kMillisecond);

  // Leave ended the old handle: its daemon neither sends nor builds QPs.
  EXPECT_EQ(cp.stats().calls, calls_before)
      << "the departed handle's daemon kept sending ReconnectRequests";
  EXPECT_EQ(world.clients[0]->client_stats().qps_created, qps_before)
      << "the departed handle's daemon kept creating QPs";
  EXPECT_EQ(ok, 2 * 1000);
  EXPECT_EQ(fail, 0);
  EXPECT_EQ(fresh->num_failed_lanes(), 0u);
  EXPECT_EQ(fresh->lane_reconnects(), 0u);
  EXPECT_EQ(world.server->server_stats().lane_reconnects, 0u)
      << "a stale handle's reconnect revived a lane of the new handle";
  EXPECT_EQ(old_ok + old_fail, old_issued) << "a call on the old handle hung";

  // The server's own guard: a ReconnectRequest carrying the old handle's
  // ring addresses is refused even though (conn_id, lane_index) match.
  ctrl::wire::ReconnectRequest req;
  req.client_node = 1;
  req.conn_id = fresh->conn_id();
  req.lane_index = 0;
  req.lane.resp_ring_addr = old_conn->lane(0).resp_ring_addr;
  req.lane.ctrl_slot_addr = old_conn->lane(0).ctrl_slot_addr;
  uint8_t msg[ctrl::wire::kMaxMessageBytes];
  uint8_t resp[ctrl::wire::kMaxMessageBytes];
  const uint32_t msg_len = ctrl::wire::EncodeMessage(
      msg, sizeof(msg), ctrl::wire::MsgType::kReconnectRequest, cp.NextNonce(),
      &req, sizeof(req));
  const uint32_t resp_len = cp.Call(0, msg, msg_len, resp, sizeof(resp));
  ctrl::wire::MsgHeader header;
  ctrl::wire::Reject reject;
  ASSERT_TRUE(ctrl::wire::DecodeHeader(resp, resp_len, &header));
  ASSERT_TRUE(ctrl::wire::DecodeReject(header, resp, &reject));
  EXPECT_EQ(reject.reason,
            static_cast<uint32_t>(ctrl::wire::RejectReason::kBadLane));
  EXPECT_EQ(world.server->server_stats().lane_reconnects, 0u);
}

TEST(CtrlTest, StaleCloseOfTenantHandleLeavesNewHandleIntact) {
  constexpr tenant::TenantId kTenant = 1;
  CtrlWorld world;
  ctrl::ControlPlane& cp = ctrl::ControlPlane::For(world.cluster);
  cp.RegisterTenant(kTenant, tenant::TenantPolicy{});
  Connection* old_conn = world.clients[0]->Connect(*world.server, 2, kTenant);
  ASSERT_NE(old_conn, nullptr);
  cp.Leave(/*node=*/1);
  cp.Join(/*node=*/1);
  Connection* fresh = world.clients[0]->Connect(*world.server, 2, kTenant);
  ASSERT_NE(fresh, nullptr);
  ASSERT_EQ(fresh->conn_id(), old_conn->conn_id());

  // CloseConnection normally sends a DisconnectRequest that names the handle
  // by conn_id — here, the new handle's.
  const uint64_t dead_before = world.server->server_stats().dead_senders;
  world.clients[0]->CloseConnection(old_conn);
  EXPECT_EQ(world.server->server_stats().dead_senders, dead_before)
      << "closing the stale handle tore down the new handle's sender";
  EXPECT_EQ(cp.tenants().LiveConnections(kTenant), 1u);
  EXPECT_EQ(world.server->ServerLiveLanes(), 2u);

  int ok = 0, fail = 0;
  for (int t = 0; t < 2; ++t) {
    world.cluster.sim().Spawn(
        EchoLoop(fresh, world.clients[0]->CreateThread(t), 500, &ok, &fail));
  }
  world.cluster.sim().RunFor(100 * kMillisecond);
  EXPECT_EQ(ok, 2 * 500);
  EXPECT_EQ(fail, 0);
  EXPECT_EQ(fresh->num_failed_lanes(), 0u);
}

// The same shape without a Leave: the server tears an idle handle down after
// it lost its QP (dead-sender reclamation, DESIGN.md §8), and the node's next
// connect reuses the slot. The old handle does not know, so it still sends
// an add-lane when a second thread uses it and a disconnect when it closes;
// both name the new handle by (client_node, conn_id), and the server refuses
// both because they carry the old handle's response-ring address.
TEST(CtrlTest, StaleAddLaneAndCloseAfterReclamationLeaveNewHandleIntact) {
  CtrlWorld world;
  FlockRuntime* client = world.clients[0].get();
  Connection* old_conn = nullptr;
  world.cluster.sim().Spawn(ConnectAsyncInto(client, 0, 2, &old_conn));
  world.cluster.sim().RunFor(1 * kMillisecond);
  ASSERT_NE(old_conn, nullptr);
  ASSERT_EQ(old_conn->num_lanes(), 1u);
  int ok = 0, fail = 0;
  world.cluster.sim().Spawn(
      EchoLoop(old_conn, client->CreateThread(0), 20, &ok, &fail));
  world.cluster.sim().RunFor(1 * kMillisecond);
  ASSERT_EQ(ok, 20);
  world.cluster.fault().KillQp(/*node=*/1, old_conn->lane(0).qp->qpn());
  world.cluster.sim().RunFor(2 * FlockConfig{}.rpc_timeout);
  ASSERT_EQ(world.server->server_stats().dead_senders, 1u);

  Connection* fresh = client->Connect(*world.server, 1);
  ASSERT_NE(fresh, nullptr);
  ASSERT_EQ(fresh->conn_id(), old_conn->conn_id());
  int old_ok = 0, old_fail = 0;
  world.cluster.sim().Spawn(
      EchoLoop(old_conn, client->CreateThread(1), 5, &old_ok, &old_fail));
  world.cluster.sim().RunFor(100 * kMillisecond);
  EXPECT_EQ(old_ok + old_fail, 5) << "a call on the old handle hung";
  EXPECT_EQ(world.server->server_stats().lanes_added, 0u)
      << "the old handle grew a lane onto the new handle's sender";
  client->CloseConnection(old_conn);
  EXPECT_EQ(world.server->server_stats().dead_senders, 1u)
      << "closing the old handle tore down the new handle's sender";
  EXPECT_EQ(world.server->ServerLiveLanes(), 1u);

  ok = fail = 0;
  world.cluster.sim().Spawn(
      EchoLoop(fresh, client->CreateThread(2), 200, &ok, &fail));
  world.cluster.sim().RunFor(100 * kMillisecond);
  EXPECT_EQ(ok, 200);
  EXPECT_EQ(fail, 0);
  EXPECT_EQ(fresh->num_failed_lanes(), 0u);
}

// ---------------------------------------------------------------------------
// Lazy lane bring-up: ConnectAsync builds lane 0, first use grows the rest
// ---------------------------------------------------------------------------

TEST(CtrlTest, AsyncHandleGrowsOneLanePerThread) {
  CtrlWorld world;
  FlockRuntime* client = world.clients[0].get();
  Connection* conn = nullptr;
  world.cluster.sim().Spawn(ConnectAsyncInto(client, 0, 4, &conn));
  world.cluster.sim().RunFor(1 * kMillisecond);
  ASSERT_NE(conn, nullptr);
  ASSERT_EQ(conn->num_lanes(), 1u) << "ConnectAsync builds only lane 0";

  int ok = 0, fail = 0;
  for (int t = 0; t < 3; ++t) {
    world.cluster.sim().Spawn(
        EchoLoop(conn, client->CreateThread(t), 200, &ok, &fail));
  }
  world.cluster.sim().RunFor(100 * kMillisecond);

  EXPECT_EQ(conn->num_lanes(), 3u) << "one lane per distinct thread";
  EXPECT_EQ(client->client_stats().lanes_added, 2u);
  EXPECT_EQ(world.server->server_stats().lanes_added, 2u);
  EXPECT_EQ(world.server->ServerLiveLanes(), 3u);
  EXPECT_EQ(ok, 3 * 200);
  EXPECT_EQ(fail, 0);
  EXPECT_EQ(conn->num_failed_lanes(), 0u);
}

TEST(CtrlTest, AsyncHandleAtTenantLaneCeilingKeepsServing) {
  constexpr tenant::TenantId kTenant = 1;
  CtrlWorld world;
  ctrl::ControlPlane& cp = ctrl::ControlPlane::For(world.cluster);
  tenant::TenantPolicy two_lanes;
  two_lanes.max_lanes = 2;
  cp.RegisterTenant(kTenant, two_lanes);
  FlockRuntime* client = world.clients[0].get();
  Connection* conn = nullptr;
  world.cluster.sim().Spawn(ConnectAsyncInto(client, 0, 4, &conn, kTenant));
  world.cluster.sim().RunFor(1 * kMillisecond);
  ASSERT_NE(conn, nullptr);

  // Four threads want four lanes; the second AddLane hits the ceiling
  // (kTenantOverLanes). The handle stops asking and keeps serving on two.
  int ok = 0, fail = 0, issued = 0;
  for (int t = 0; t < 4; ++t) {
    world.cluster.sim().Spawn(EchoLoop(conn, client->CreateThread(t), 200, &ok,
                                       &fail, nullptr, &issued));
  }
  world.cluster.sim().RunFor(100 * kMillisecond);

  EXPECT_EQ(conn->num_lanes(), 2u);
  EXPECT_EQ(world.server->server_stats().lanes_added, 1u);
  EXPECT_EQ(cp.tenants().CountersFor(kTenant)->admission_rejects, 1u)
      << "a refused handle must not keep asking for lanes";
  EXPECT_EQ(cp.tenants().LiveLanes(kTenant), 2u);
  EXPECT_EQ(client->ClientLanePool(), 1u)
      << "the refused lane's client half goes back to the pool";
  EXPECT_EQ(issued, 4 * 200);
  EXPECT_EQ(ok, 4 * 200) << "a call hung or failed at the lane ceiling";
  EXPECT_EQ(fail, 0);
}

// A 2-lane ConnectAsync handle: thread A's call runs on lane 0, then thread B
// starts growing lane 1 and the handle is closed `close_after` later. The
// AddLane exchange runs at +17 us (client qp_create, then kCtrlRtt) and the
// lane would be wired at +29 us (server qp_create).
struct CloseDuringGrowthResult {
  uint64_t qps_created = 0;
  size_t client_pool = 0;
  uint64_t server_lanes_added = 0;
  int ok = 0;
  int fail = 0;
};

CloseDuringGrowthResult RunCloseDuringGrowth(Nanos close_after) {
  CtrlWorld world;
  FlockRuntime* client = world.clients[0].get();
  Connection* conn = nullptr;
  world.cluster.sim().Spawn(ConnectAsyncInto(client, 0, 2, &conn));
  world.cluster.sim().RunFor(1 * kMillisecond);
  CloseDuringGrowthResult r;
  EXPECT_NE(conn, nullptr);
  if (conn == nullptr) {
    return r;
  }
  world.cluster.sim().Spawn(
      EchoLoop(conn, client->CreateThread(0), 1, &r.ok, &r.fail));
  world.cluster.sim().RunFor(1 * kMillisecond);
  world.cluster.sim().Spawn(
      EchoLoop(conn, client->CreateThread(1), 1, &r.ok, &r.fail));
  world.cluster.sim().RunFor(close_after);
  client->CloseConnection(conn);
  world.cluster.sim().RunFor(1 * kMillisecond);
  r.qps_created = client->client_stats().qps_created;
  r.client_pool = client->ClientLanePool();
  r.server_lanes_added = world.server->server_stats().lanes_added;
  return r;
}

TEST(CtrlTest, CloseBeforeAddLanePoolsTheClientHalf) {
  const CloseDuringGrowthResult r = RunCloseDuringGrowth(1 * kMicrosecond);
  EXPECT_EQ(r.server_lanes_added, 0u) << "closed before the AddLane exchange";
  EXPECT_EQ(r.qps_created, 2u);
  EXPECT_EQ(r.client_pool, 2u) << "the half-built lane's client half leaked";
  EXPECT_EQ(r.ok, 1);
  EXPECT_EQ(r.fail, 1) << "thread B's call must fail on the closed handle";
}

TEST(CtrlTest, CloseAfterAddLanePoolsTheClientHalf) {
  const CloseDuringGrowthResult r = RunCloseDuringGrowth(20 * kMicrosecond);
  EXPECT_EQ(r.server_lanes_added, 1u) << "closed after the AddLane exchange";
  EXPECT_EQ(r.qps_created, 2u);
  EXPECT_EQ(r.client_pool, 2u) << "the accepted lane's client half leaked";
  EXPECT_EQ(r.ok, 1);
  EXPECT_EQ(r.fail, 1) << "thread B's call must fail on the closed handle";
}

// A closed handle's lanes are pooled (their QPs gone) and detached from the
// watchdog, so nothing would ever resolve a call staged on one: every handle,
// eager or lazy, must fail it at once.
TEST(CtrlTest, CallOnClosedHandleFailsAtOnce) {
  CtrlWorld world;
  FlockRuntime* client = world.clients[0].get();
  Connection* conn = client->Connect(*world.server, 2);
  ASSERT_NE(conn, nullptr);
  client->CloseConnection(conn);
  int ok = 0, fail = 0;
  world.cluster.sim().Spawn(
      EchoLoop(conn, client->CreateThread(0), 1, &ok, &fail));
  world.cluster.sim().RunFor(1 * kMicrosecond);
  EXPECT_EQ(ok, 0);
  EXPECT_EQ(fail, 1) << "a call on a closed handle did not resolve at once";
}

sim::Proc ReadOnce(Connection* conn, FlockThread* thread, uint64_t local_addr,
                   RemoteMr mr, verbs::WcStatus* status, bool* done) {
  *status = co_await conn->Read(*thread, local_addr, mr.addr, 8, mr);
  *done = true;
}

TEST(CtrlTest, OneSidedOpOnClosedHandleFailsAtOnce) {
  CtrlWorld world;
  FlockRuntime* client = world.clients[0].get();
  Connection* conn = client->Connect(*world.server, 2);
  ASSERT_NE(conn, nullptr);
  const RemoteMr mr = conn->AttachMreg(world.cluster.mem(0).Alloc(64), 64);
  const uint64_t local = world.cluster.mem(1).Alloc(64);
  client->CloseConnection(conn);
  verbs::WcStatus status = verbs::WcStatus::kSuccess;
  bool done = false;
  world.cluster.sim().Spawn(
      ReadOnce(conn, client->CreateThread(0), local, mr, &status, &done));
  world.cluster.sim().RunFor(1 * kMicrosecond);
  EXPECT_TRUE(done) << "a read on a closed handle did not resolve at once";
  EXPECT_EQ(status, verbs::WcStatus::kQpError);
}

TEST(CtrlTest, StaleLazyHandleCannotGrowIntoNewHandle) {
  CtrlWorld world;
  ctrl::ControlPlane& cp = ctrl::ControlPlane::For(world.cluster);
  FlockRuntime* client = world.clients[0].get();
  Connection* old_conn = nullptr;
  world.cluster.sim().Spawn(ConnectAsyncInto(client, 0, 2, &old_conn));
  world.cluster.sim().RunFor(1 * kMillisecond);
  ASSERT_NE(old_conn, nullptr);
  ASSERT_EQ(old_conn->num_lanes(), 1u) << "lazy: only lane 0 at connect";
  cp.Leave(/*node=*/1);
  cp.Join(/*node=*/1);
  Connection* fresh = nullptr;
  world.cluster.sim().Spawn(ConnectAsyncInto(client, 0, 2, &fresh));
  world.cluster.sim().RunFor(1 * kMillisecond);
  ASSERT_NE(fresh, nullptr);
  ASSERT_EQ(fresh->conn_id(), old_conn->conn_id());

  // Two threads on the old handle ask for its second lane first: its
  // AddLane would name lane index 1 of the new handle's sender.
  int old_ok = 0, old_fail = 0;
  for (int t = 0; t < 2; ++t) {
    world.cluster.sim().Spawn(
        EchoLoop(old_conn, client->CreateThread(t), 5, &old_ok, &old_fail));
  }
  world.cluster.sim().RunFor(1 * kMillisecond);
  int ok = 0, fail = 0;
  for (int t = 2; t < 4; ++t) {
    world.cluster.sim().Spawn(
        EchoLoop(fresh, client->CreateThread(t), 500, &ok, &fail));
  }
  world.cluster.sim().RunFor(200 * kMillisecond);

  EXPECT_EQ(old_conn->num_lanes(), 1u) << "a departed handle must not grow";
  EXPECT_EQ(fresh->num_lanes(), 2u) << "the new handle's growth was refused";
  EXPECT_EQ(world.server->server_stats().lanes_added, 1u);
  EXPECT_EQ(ok, 2 * 500);
  EXPECT_EQ(fail, 0);
  EXPECT_EQ(fresh->num_failed_lanes(), 0u);
  EXPECT_EQ(old_ok + old_fail, 2 * 5) << "a call on the old handle hung";
}

TEST(CtrlTest, LeaveDuringAsyncConnectEndsTheHandle) {
  // The Leave lands after the server accepted the handshake but before
  // ConnectAsync returns (its simulated QP bring-up). The handle it returns
  // is already ended: closing it must not tear down the new handle that
  // took its slot.
  CtrlWorld world;
  ctrl::ControlPlane& cp = ctrl::ControlPlane::For(world.cluster);
  FlockRuntime* client = world.clients[0].get();
  Connection* old_conn = nullptr;
  world.cluster.sim().Spawn(ConnectAsyncInto(client, 0, 2, &old_conn));
  while (old_conn == nullptr && world.server->ServerSenderSlots() == 0) {
    world.cluster.sim().RunFor(kMicrosecond / 10);
  }
  ASSERT_EQ(old_conn, nullptr) << "no bring-up delay after the handshake";
  cp.Leave(/*node=*/1);
  cp.Join(/*node=*/1);
  world.cluster.sim().RunFor(1 * kMillisecond);
  ASSERT_NE(old_conn, nullptr);
  Connection* fresh = client->Connect(*world.server, 2);
  ASSERT_NE(fresh, nullptr);
  ASSERT_EQ(fresh->conn_id(), old_conn->conn_id());

  const uint64_t dead_before = world.server->server_stats().dead_senders;
  client->CloseConnection(old_conn);
  EXPECT_EQ(world.server->server_stats().dead_senders, dead_before)
      << "closing the stale handle tore down the new handle's sender";
  EXPECT_EQ(world.server->ServerLiveLanes(), 2u);
  int ok = 0, fail = 0;
  for (int t = 0; t < 2; ++t) {
    world.cluster.sim().Spawn(
        EchoLoop(fresh, client->CreateThread(t), 500, &ok, &fail));
  }
  world.cluster.sim().RunFor(100 * kMillisecond);
  EXPECT_EQ(ok, 2 * 500);
  EXPECT_EQ(fail, 0);
  EXPECT_EQ(fresh->num_failed_lanes(), 0u);
}

// ---------------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------------

struct KillRunResult {
  int ok = 0;
  int fail = 0;
  uint64_t events = 0;
  uint64_t lane_reconnects = 0;
  uint64_t client_retries = 0;
  uint64_t server_requests = 0;
  uint64_t server_reconnects = 0;
  Connection::LaneStates states;
};

KillRunResult RunKillScenario() {
  CtrlWorld world;
  Connection* conn = world.clients[0]->Connect(*world.server, 4);
  KillRunResult r;
  for (int t = 0; t < 4; ++t) {
    world.cluster.sim().Spawn(
        EchoLoop(conn, world.clients[0]->CreateThread(t), 300, &r.ok, &r.fail));
  }
  world.cluster.fault().KillQpAt(150 * kMicrosecond, /*node=*/1,
                                 conn->lane(0).qp->qpn());
  world.cluster.sim().RunFor(100 * kMillisecond);
  r.events = world.cluster.sim().events_processed();
  r.lane_reconnects = conn->lane_reconnects();
  r.client_retries = world.clients[0]->client_stats().retries;
  r.server_requests = world.server->server_stats().requests;
  r.server_reconnects = world.server->server_stats().lane_reconnects;
  r.states = conn->CountLaneStates();
  return r;
}


sim::Proc HoldCore(sim::Core* core, Nanos duration) {
  co_await core->Work(duration);
}

sim::Proc CallThenClose(FlockRuntime* client, Connection* conn,
                        FlockThread* thread, int* ok, bool* closed) {
  std::vector<uint8_t> resp;
  uint64_t payload = 7;
  if (co_await conn->Call(*thread, kEchoRpc,
                          reinterpret_cast<const uint8_t*>(&payload), 8,
                          &resp)) {
    *ok += 1;
  }
  // Step off the dispatcher's resume stack so the close harvests the lane.
  co_await sim::Delay(client->sim(), 1 * kMicrosecond);
  client->CloseConnection(conn);
  *closed = true;
}

TEST(CtrlTest, RenewalQueuedForHarvestedLaneIsDropped) {
  // Two credits: the first request already carries a credit renewal.
  FlockConfig cfg;
  cfg.credits = 2;
  CtrlWorld world(/*nodes=*/2, cfg, cfg);
  FlockRuntime* client = world.clients[0].get();
  Connection* conn = client->Connect(*world.server, 1);
  ASSERT_NE(conn, nullptr);

  // Hold the server's core 0, where the receiver scheduler polls renewals,
  // while the call completes and the close harvests the server lane: the
  // renewal's CQE is still queued when its lane loses its QP.
  world.cluster.sim().Spawn(
      HoldCore(&world.cluster.cpu(0).core(0), 100 * kMicrosecond));
  int ok = 0;
  bool closed = false;
  world.cluster.sim().Spawn(
      CallThenClose(client, conn, client->CreateThread(0), &ok, &closed));
  world.cluster.sim().RunFor(50 * kMicrosecond);
  ASSERT_TRUE(closed);
  ASSERT_EQ(ok, 1);
  ASSERT_EQ(world.server->ServerLiveLanes(), 0u) << "the lane was not harvested";
  ASSERT_EQ(world.server->server_stats().credit_renewals, 0u)
      << "the renewal was polled before the harvest";

  world.cluster.sim().RunFor(1 * kMillisecond);
  EXPECT_EQ(world.server->server_stats().credit_renewals, 0u);
  EXPECT_EQ(world.server->server_stats().lane_failures, 1u)
      << "only the teardown's own quarantine";

  // The harvested shell serves the next handle.
  Connection* next = client->Connect(*world.server, 1);
  ASSERT_NE(next, nullptr);
  EXPECT_EQ(world.server->server_stats().qps_recycled, 1u);
  int next_ok = 0, next_fail = 0;
  world.cluster.sim().Spawn(
      EchoLoop(next, client->CreateThread(1), 100, &next_ok, &next_fail));
  world.cluster.sim().RunFor(50 * kMillisecond);
  EXPECT_EQ(next_ok, 100);
  EXPECT_EQ(next_fail, 0);
}

// ---------------------------------------------------------------------------
// Ring reset of recycled lanes: only what the peer wrote is zeroed
// ---------------------------------------------------------------------------

// Bytes of `len` at `addr` on `node` that are not zero.
size_t NonZeroBytes(CtrlWorld& world, int node, uint64_t addr, uint32_t len) {
  const uint8_t* bytes = world.cluster.mem(node).At(addr);
  return static_cast<size_t>(std::count_if(bytes, bytes + len,
                                           [](uint8_t b) { return b != 0; }));
}

// Draws every pooled lane half with one eager connect and scans both rings
// of each drawn lane: the client's response ring and the server's request
// ring. Returns the handle.
Connection* DrawPooledAndScan(CtrlWorld& world, const char* after) {
  FlockRuntime& client = *world.clients[0];
  const size_t pooled = std::max(client.ClientLanePool(), world.server->ServerLanePool());
  EXPECT_GT(pooled, 0u) << after << ": nothing was pooled";
  const uint64_t recycled = client.client_stats().qps_recycled;
  Connection* conn =
      client.Connect(*world.server, static_cast<uint32_t>(std::max<size_t>(pooled, 1)));
  EXPECT_NE(conn, nullptr) << after;
  if (conn == nullptr) {
    return nullptr;
  }
  EXPECT_GT(client.client_stats().qps_recycled, recycled) << after;
  const uint32_t ring = client.config().ring_bytes;
  for (uint32_t i = 0; i < conn->num_lanes(); ++i) {
    const internal::ClientLane& lane = conn->lane(i);
    EXPECT_EQ(NonZeroBytes(world, 1, lane.resp_ring_addr, ring), 0u)
        << after << ": response ring of lane " << i;
    EXPECT_EQ(NonZeroBytes(world, 0, lane.remote_ring_addr, ring), 0u)
        << after << ": request ring of lane " << i;
  }
  return conn;
}

// Clean closes, a close with a response and with a request still unconsumed
// in a ring, a killed QP and its reconnect, and a Leave during lazy growth:
// after each, every pooled ring reads zero when it is drawn again, and clean
// closes zero less than a ring per draw.
TEST(CtrlTest, PooledRingsReadZeroAtEveryDraw) {
  CtrlWorld world;
  sim::Simulator& sim = world.cluster.sim();
  FlockRuntime& client = *world.clients[0];
  const uint32_t ring = client.config().ring_bytes;
  int ok = 0, fail = 0;

  // Clean close after echo traffic on two lanes.
  Connection* conn = client.Connect(*world.server, 2);
  ASSERT_NE(conn, nullptr);
  for (int t = 0; t < 2; ++t) {
    sim.Spawn(EchoLoop(conn, client.CreateThread(t), 50, &ok, &fail));
  }
  sim.RunFor(1 * kMillisecond);
  ASSERT_EQ(ok, 100);
  client.CloseConnection(conn);
  const uint64_t client_zeroed = client.client_stats().ring_bytes_zeroed;
  const uint64_t server_zeroed = world.server->server_stats().ring_bytes_zeroed;
  conn = DrawPooledAndScan(world, "clean close");
  ASSERT_NE(conn, nullptr);
  ASSERT_EQ(conn->num_lanes(), 2u);
  const uint64_t client_draw = client.client_stats().ring_bytes_zeroed - client_zeroed;
  const uint64_t server_draw =
      world.server->server_stats().ring_bytes_zeroed - server_zeroed;
  EXPECT_GT(client_draw, 0u) << "the responses were not counted";
  EXPECT_GT(server_draw, 0u) << "the requests were not counted";
  EXPECT_LT(client_draw, ring) << "clean-close draws zeroed whole rings";
  EXPECT_LT(server_draw, ring) << "clean-close draws zeroed whole rings";

  // Close with a response unconsumed: the client's response dispatcher
  // (its top core) is held while the call completes at the server.
  sim.Spawn(HoldCore(&world.cluster.cpu(1).core(7), 100 * kMicrosecond), 1);
  sim.Spawn(EchoLoop(conn, client.CreateThread(0), 1, &ok, &fail));
  sim.RunFor(50 * kMicrosecond);
  size_t left = 0;
  for (uint32_t i = 0; i < conn->num_lanes(); ++i) {
    left += NonZeroBytes(world, 1, conn->lane(i).resp_ring_addr, ring);
  }
  ASSERT_GT(left, 0u) << "no response waited in a ring";
  client.CloseConnection(conn);
  sim.RunFor(1 * kMillisecond);
  conn = DrawPooledAndScan(world, "close with a response in the ring");
  ASSERT_NE(conn, nullptr);

  // Close with a request unconsumed: the server's four request dispatchers
  // (cores 1-4) are held.
  for (int core = 1; core <= 4; ++core) {
    sim.Spawn(HoldCore(&world.cluster.cpu(0).core(core), 100 * kMicrosecond), 0);
  }
  sim.Spawn(EchoLoop(conn, client.CreateThread(0), 1, &ok, &fail));
  sim.RunFor(50 * kMicrosecond);
  left = 0;
  for (uint32_t i = 0; i < conn->num_lanes(); ++i) {
    left += NonZeroBytes(world, 0, conn->lane(i).remote_ring_addr, ring);
  }
  ASSERT_GT(left, 0u) << "no request waited in a ring";
  client.CloseConnection(conn);
  sim.RunFor(1 * kMillisecond);
  conn = DrawPooledAndScan(world, "close with a request in the ring");
  ASSERT_NE(conn, nullptr);

  // A killed QP, its reconnect resync, then a clean close.
  ok = 0;
  fail = 0;
  for (int t = 0; t < 2; ++t) {
    sim.Spawn(EchoLoop(conn, client.CreateThread(t), 200, &ok, &fail));
  }
  world.cluster.fault().KillQpAt(sim.Now() + 50 * kMicrosecond, /*node=*/1,
                                 conn->lane(0).qp->qpn());
  sim.RunFor(50 * kMillisecond);
  ASSERT_EQ(ok, 400);
  ASSERT_GE(conn->lane_reconnects(), 1u);
  client.CloseConnection(conn);
  conn = DrawPooledAndScan(world, "kill and reconnect");
  ASSERT_NE(conn, nullptr);
  client.CloseConnection(conn);

  // A Leave while a lazy handle grows its second lane.
  Connection* lazy = nullptr;
  sim.Spawn(ConnectAsyncInto(&client, 0, 2, &lazy), 1);
  sim.RunFor(1 * kMillisecond);
  ASSERT_NE(lazy, nullptr);
  ok = 0;
  fail = 0;
  sim.Spawn(EchoLoop(lazy, client.CreateThread(0), 1, &ok, &fail));
  sim.RunFor(1 * kMillisecond);
  ASSERT_EQ(ok, 1);
  sim.Spawn(EchoLoop(lazy, client.CreateThread(1), 1, &ok, &fail));
  sim.RunFor(20 * kMicrosecond);
  ASSERT_EQ(world.server->server_stats().lanes_added, 1u) << "growth not under way";
  ctrl::ControlPlane& cp = ctrl::ControlPlane::For(world.cluster);
  cp.Leave(/*node=*/1);
  cp.Join(/*node=*/1);
  sim.RunFor(1 * kMillisecond);
  client.CloseConnection(lazy);  // the departed handle's client halves
  EXPECT_NE(DrawPooledAndScan(world, "leave during lazy growth"), nullptr);
}

TEST(CtrlTest, ReconnectScenarioIsDeterministic) {
  KillRunResult a = RunKillScenario();
  KillRunResult b = RunKillScenario();
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.fail, b.fail);
  EXPECT_EQ(a.events, b.events) << "same seed must replay the same event count";
  EXPECT_EQ(a.lane_reconnects, b.lane_reconnects);
  EXPECT_EQ(a.client_retries, b.client_retries);
  EXPECT_EQ(a.server_requests, b.server_requests);
  EXPECT_EQ(a.server_reconnects, b.server_reconnects);
  EXPECT_EQ(a.states.healthy, b.states.healthy);
  EXPECT_EQ(a.states.quarantined, b.states.quarantined);
  EXPECT_EQ(a.states.retired, b.states.retired);
  EXPECT_GE(a.lane_reconnects, 1u) << "the scenario must actually reconnect";
}

// ---------------------------------------------------------------------------
// Nonce replay window: bounded forever, replays always rejected
// ---------------------------------------------------------------------------

// A bare endpoint answering every framing-valid call with its id, so the
// control plane's validation layer can be exercised without a runtime.
struct CountingEndpoint : ctrl::Endpoint {
  explicit CountingEndpoint(uint32_t id) : id(id) {}
  uint32_t OnCtrlMessage(const uint8_t*, uint32_t, uint8_t* resp,
                         uint32_t cap) override {
    FLOCK_CHECK_GE(cap, 4u);
    std::memcpy(resp, &id, 4);
    handled += 1;
    return 4;
  }
  uint32_t id;
  uint64_t handled = 0;
};

uint32_t CallWithNonce(ctrl::ControlPlane& cp, int node, uint64_t nonce,
                       uint8_t* resp) {
  ctrl::wire::DisconnectRequest body;
  uint8_t msg[ctrl::wire::kMaxMessageBytes];
  const uint32_t len = ctrl::wire::EncodeMessage(
      msg, sizeof(msg), ctrl::wire::MsgType::kDisconnectRequest, nonce, &body,
      sizeof(body));
  return cp.Call(node, msg, len, resp, ctrl::wire::kMaxMessageBytes);
}

TEST(CtrlTest, ReplayWindowStaysBoundedOver100kCalls) {
  verbs::Cluster cluster(
      verbs::Cluster::Config{.num_nodes = 2, .cores_per_node = 2});
  ctrl::ControlPlane& cp = ctrl::ControlPlane::For(cluster);
  CountingEndpoint ep(7);
  cp.RegisterEndpoint(1, &ep);
  uint8_t resp[ctrl::wire::kMaxMessageBytes];

  // 100k in-order calls: the window must never hold more than kNonceWindow
  // entries no matter how many nonces have been consumed (the regression was
  // an ever-growing seen-nonce set).
  size_t max_window = 0;
  uint64_t last_nonce = 0;
  for (int i = 0; i < 100000; ++i) {
    last_nonce = cp.NextNonce();
    ASSERT_NE(CallWithNonce(cp, 1, last_nonce, resp), 0u);
    max_window = std::max(max_window, cp.replay_window_entries());
  }
  EXPECT_EQ(ep.handled, 100000u);
  EXPECT_LE(max_window, ctrl::ControlPlane::kNonceWindow);

  // Out-of-order delivery (nonce pairs swapped) stays accepted and bounded.
  for (int i = 0; i < 1000; ++i) {
    const uint64_t a = cp.NextNonce();
    const uint64_t b = cp.NextNonce();
    ASSERT_NE(CallWithNonce(cp, 1, b, resp), 0u);
    ASSERT_NE(CallWithNonce(cp, 1, a, resp), 0u);
    max_window = std::max(max_window, cp.replay_window_entries());
  }
  EXPECT_LE(max_window, ctrl::ControlPlane::kNonceWindow);

  // Burned nonces (issued, never delivered — every rejected handshake does
  // this) leave permanent gaps; the watermark jump must still cap the window.
  for (int i = 0; i < 300; ++i) {
    cp.NextNonce();
  }
  for (int i = 0; i < 1000; ++i) {
    ASSERT_NE(CallWithNonce(cp, 1, cp.NextNonce(), resp), 0u);
    max_window = std::max(max_window, cp.replay_window_entries());
  }
  EXPECT_LE(max_window, ctrl::ControlPlane::kNonceWindow);

  // Replays reject: a just-used nonce and an ancient below-watermark one.
  const uint64_t replay_before = cp.stats().rejected_replay;
  EXPECT_EQ(CallWithNonce(cp, 1, last_nonce, resp), 0u);
  EXPECT_EQ(CallWithNonce(cp, 1, 1, resp), 0u);
  EXPECT_EQ(cp.stats().rejected_replay, replay_before + 2);
  cp.DeregisterEndpoint(1, &ep);
}

// ---------------------------------------------------------------------------
// Endpoint hand-off: the survivor answers when a co-located runtime dies
// ---------------------------------------------------------------------------

TEST(CtrlTest, EndpointHandOffPromotesSurvivor) {
  verbs::Cluster cluster(
      verbs::Cluster::Config{.num_nodes = 2, .cores_per_node = 2});
  ctrl::ControlPlane& cp = ctrl::ControlPlane::For(cluster);
  CountingEndpoint first(1), second(2);
  cp.RegisterEndpoint(1, &first);
  cp.RegisterEndpoint(1, &second);
  uint8_t resp[ctrl::wire::kMaxMessageBytes];

  // Registration order decides who answers; the second registrant must not
  // have displaced (or been dropped on the floor by) the first.
  ASSERT_EQ(CallWithNonce(cp, 1, cp.NextNonce(), resp), 4u);
  uint32_t answered = 0;
  std::memcpy(&answered, resp, 4);
  EXPECT_EQ(answered, 1u);

  // The hand-off bug: deregistering the active endpoint left the node dark
  // even though another runtime still lived there. The survivor must answer.
  cp.DeregisterEndpoint(1, &first);
  EXPECT_TRUE(cp.HasEndpoint(1));
  ASSERT_EQ(CallWithNonce(cp, 1, cp.NextNonce(), resp), 4u);
  std::memcpy(&answered, resp, 4);
  EXPECT_EQ(answered, 2u);
  EXPECT_EQ(second.handled, 1u);

  const uint64_t no_ep_before = cp.stats().rejected_no_endpoint;
  cp.DeregisterEndpoint(1, &second);
  EXPECT_FALSE(cp.HasEndpoint(1));
  EXPECT_EQ(CallWithNonce(cp, 1, cp.NextNonce(), resp), 0u);
  EXPECT_EQ(cp.stats().rejected_no_endpoint, no_ep_before + 1);
}

TEST(CtrlTest, CoLocatedRuntimesHandOffOnDestruction) {
  // Integration shape of the same bug: two runtimes sharing a node (bench
  // "processes") both register, and destroying the first — the one answering
  // the node's control traffic — must promote the second, not dead-end it.
  verbs::Cluster cluster(
      verbs::Cluster::Config{.num_nodes = 2, .cores_per_node = 8});
  ctrl::ControlPlane& cp = ctrl::ControlPlane::For(cluster);
  auto first = std::make_unique<FlockRuntime>(cluster, 1, FlockConfig{});
  auto second = std::make_unique<FlockRuntime>(cluster, 1, FlockConfig{});
  EXPECT_TRUE(cp.HasEndpoint(1));
  first.reset();
  EXPECT_TRUE(cp.HasEndpoint(1)) << "survivor runtime must keep answering";
  second.reset();
  EXPECT_FALSE(cp.HasEndpoint(1));
}

// ---------------------------------------------------------------------------
// Membership-listener reentrancy
// ---------------------------------------------------------------------------

TEST(CtrlTest, ListenerMayRemoveItselfMidNotification) {
  verbs::Cluster cluster(
      verbs::Cluster::Config{.num_nodes = 3, .cores_per_node = 2});
  ctrl::ControlPlane& cp = ctrl::ControlPlane::For(cluster);
  int self_calls = 0, other_calls = 0;
  uint64_t self_id = 0;
  self_id = cp.AddMembershipListener([&](int, bool) {
    self_calls += 1;
    cp.RemoveMembershipListener(self_id);  // destroys the running closure
  });
  cp.AddMembershipListener([&](int, bool) { other_calls += 1; });
  cp.Leave(1);
  cp.Join(1);
  EXPECT_EQ(self_calls, 1) << "removed itself after the first event";
  EXPECT_EQ(other_calls, 2) << "the other listener must see both events";
}

TEST(CtrlTest, ListenerMayAddListenersMidNotification) {
  verbs::Cluster cluster(
      verbs::Cluster::Config{.num_nodes = 3, .cores_per_node = 2});
  ctrl::ControlPlane& cp = ctrl::ControlPlane::For(cluster);
  int added_calls = 0;
  cp.AddMembershipListener([&](int, bool) {
    cp.AddMembershipListener([&](int, bool) { added_calls += 1; });
  });
  cp.Leave(1);  // adds one listener; must not invalidate the iteration
  EXPECT_EQ(added_calls, 0) << "snapshot: not fired for the current event";
  cp.Join(1);  // the listener added above fires now (and adds another)
  EXPECT_EQ(added_calls, 1);
}

TEST(CtrlTest, ListenerMayRejoinNodeFromCallback) {
  verbs::Cluster cluster(
      verbs::Cluster::Config{.num_nodes = 2, .cores_per_node = 2});
  ctrl::ControlPlane& cp = ctrl::ControlPlane::For(cluster);
  const uint64_t e0 = cp.epoch();
  bool rearmed = false;
  cp.AddMembershipListener([&](int node, bool joined) {
    if (!joined && !rearmed) {
      rearmed = true;
      cp.Join(node);  // nested notification from inside a notification
    }
  });
  cp.Leave(1);
  EXPECT_TRUE(cp.IsMember(1)) << "the callback's Join must have landed";
  EXPECT_EQ(cp.epoch(), e0 + 2) << "leave and nested join each bump";
}

// ---------------------------------------------------------------------------
// Batched membership epochs
// ---------------------------------------------------------------------------

TEST(CtrlTest, EpochBatchCoalescesAndSkipsNetNoops) {
  verbs::Cluster cluster(
      verbs::Cluster::Config{.num_nodes = 3, .cores_per_node = 2});
  ctrl::ControlPlane& cp = ctrl::ControlPlane::For(cluster);
  int notifications = 0, batch_ends = 0;
  cp.AddMembershipListener([&](int, bool) { notifications += 1; });
  cp.AddBatchEndListener([&] { batch_ends += 1; });

  const uint64_t e0 = cp.epoch();
  cp.BeginEpochBatch();
  cp.Leave(1);
  cp.Leave(2);
  cp.Join(1);  // node 1 nets out; node 2 is the window's only real change
  EXPECT_TRUE(cp.IsMember(1)) << "membership flips immediately inside a batch";
  EXPECT_FALSE(cp.IsMember(2));
  EXPECT_EQ(cp.epoch(), e0) << "epoch bump deferred to EndEpochBatch";
  EXPECT_EQ(notifications, 0);
  cp.EndEpochBatch();
  EXPECT_EQ(cp.epoch(), e0 + 1) << "one bump for the whole window";
  EXPECT_EQ(notifications, 1) << "only net-changed nodes notify";
  EXPECT_EQ(batch_ends, 1);
  EXPECT_EQ(cp.stats().epoch_batches, 1u);

  // A window whose changes fully cancel is invisible: no bump, no listeners.
  cp.BeginEpochBatch();
  cp.Leave(1);
  cp.Join(1);
  cp.EndEpochBatch();
  EXPECT_EQ(cp.epoch(), e0 + 1);
  EXPECT_EQ(notifications, 1);
  EXPECT_EQ(batch_ends, 1);
  EXPECT_EQ(cp.stats().epoch_batches, 1u);
}

// ---------------------------------------------------------------------------
// Churn: 1k+ Leave→Join→Connect cycles with QP recycling
// ---------------------------------------------------------------------------

struct ChurnResult {
  int ok = 0;
  int fail = 0;
  bool done = false;
  bool epochs_monotonic = true;
  uint64_t events = 0;
  uint64_t epoch = 0;
  uint64_t cp_calls = 0;
  uint64_t rejects = 0;
  uint64_t qps_created = 0;   // client + server
  uint64_t qps_recycled = 0;  // client + server
  size_t live_lanes = 0;
  size_t sender_slots = 0;
  size_t server_pool = 0;
  size_t client_pool = 0;
  size_t replay_window = 0;
};

sim::Proc ChurnDriver(verbs::Cluster& cluster, FlockRuntime& client,
                      FlockThread* thread, int cycles, ChurnResult* r) {
  ctrl::ControlPlane& cp = ctrl::ControlPlane::For(cluster);
  std::vector<uint8_t> resp;
  for (int c = 0; c < cycles; ++c) {
    const uint64_t epoch_before = cp.epoch();
    cp.Join(client.node());
    Connection* conn = co_await client.ConnectAsync(/*server_node=*/0, 2);
    uint64_t payload = static_cast<uint64_t>(c);
    const bool ok = co_await conn->Call(
        *thread, kEchoRpc, reinterpret_cast<const uint8_t*>(&payload), 8, &resp);
    (ok ? r->ok : r->fail) += 1;
    // Step off the dispatcher's resume stack so CloseConnection sees the
    // lane quiescent and harvests it into the recycling pool.
    co_await sim::Delay(cluster.sim(), 1 * kMicrosecond);
    client.CloseConnection(conn);
    cp.Leave(client.node());
    if (cp.epoch() != epoch_before + 2) {  // join + leave, exactly one each
      r->epochs_monotonic = false;
    }
  }
  r->done = true;
}

ChurnResult RunChurn(int cycles) {
  verbs::Cluster cluster(
      verbs::Cluster::Config{.num_nodes = 2, .cores_per_node = 8});
  ctrl::ControlPlane& cp = ctrl::ControlPlane::For(cluster);
  FlockRuntime server(cluster, 0, FlockConfig{});
  server.RegisterHandler(kEchoRpc, EchoHandler);
  server.StartServer(2);
  FlockRuntime client(cluster, 1, FlockConfig{});
  client.StartClient();
  FlockThread* thread = client.CreateThread(2);

  cp.Leave(1);  // the churning node starts outside the cluster
  ChurnResult r;
  cluster.sim().Spawn(ChurnDriver(cluster, client, thread, cycles, &r));
  while (!r.done && cluster.sim().Now() < 2000 * kMillisecond) {
    cluster.sim().RunFor(1 * kMillisecond);
  }
  r.events = cluster.sim().events_processed();
  r.epoch = cp.epoch();
  r.cp_calls = cp.stats().calls;
  r.rejects = cp.stats().rejected_malformed + cp.stats().rejected_replay +
              cp.stats().rejected_no_endpoint + cp.stats().rejected_not_member;
  r.qps_created =
      server.server_stats().qps_created + client.client_stats().qps_created;
  r.qps_recycled =
      server.server_stats().qps_recycled + client.client_stats().qps_recycled;
  r.live_lanes = server.ServerLiveLanes();
  r.sender_slots = server.ServerSenderSlots();
  r.server_pool = server.ServerLanePool();
  r.client_pool = client.ClientLanePool();
  r.replay_window = cp.replay_window_entries();
  return r;
}

TEST(CtrlTest, ThousandChurnCyclesLeakNothing) {
  ChurnResult r = RunChurn(1000);
  ASSERT_TRUE(r.done) << "churn wedged before finishing";
  EXPECT_EQ(r.ok, 1000);
  EXPECT_EQ(r.fail, 0);
  EXPECT_TRUE(r.epochs_monotonic)
      << "every Join/Leave must bump the epoch exactly once, in order";
  EXPECT_EQ(r.rejects, 0u) << "well-formed churn must never be rejected";
  // Zero stale-lane leaks: after the last Leave no server lane is live, the
  // sender slots were reused rather than grown per cycle, and the shell
  // pools hold only the storm's concurrent footprint.
  EXPECT_EQ(r.live_lanes, 0u);
  EXPECT_LE(r.sender_slots, 4u);
  EXPECT_LE(r.server_pool, 4u);
  EXPECT_LE(r.client_pool, 4u);
  // Recycling must carry the storm: a handful of fresh QPs bootstrap the
  // pools, everything after re-arms a recycled shell.
  EXPECT_LE(r.qps_created, 8u);
  EXPECT_GE(r.qps_recycled, 1990u);
  EXPECT_LE(r.replay_window, ctrl::ControlPlane::kNonceWindow);
}

TEST(CtrlTest, ChurnIsDeterministic) {
  ChurnResult a = RunChurn(300);
  ChurnResult b = RunChurn(300);
  ASSERT_TRUE(a.done);
  ASSERT_TRUE(b.done);
  EXPECT_EQ(a.events, b.events) << "same seed must replay the same trace";
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.epoch, b.epoch);
  EXPECT_EQ(a.cp_calls, b.cp_calls);
  EXPECT_EQ(a.qps_created, b.qps_created);
  EXPECT_EQ(a.qps_recycled, b.qps_recycled);
}

}  // namespace
}  // namespace flock
