// Fault-injection tests: QP kills, transient transport errors and node
// pauses against both the raw verbs layer and the full Flock runtime's
// failure handling (quarantine, retry, dead-sender reclamation).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "src/flock/flock.h"
#include "src/flock/sched/receiver.h"
#include "src/verbs/fault.h"

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

// Answers every request with a max_payload response.
uint32_t FullResponseHandler(const uint8_t*, uint32_t, uint8_t* resp, uint32_t cap,
                             Nanos* cpu) {
  std::memset(resp, 0x5a, cap);
  *cpu = 60;
  return cap;
}

// ---------------------------------------------------------------------------
// Verbs layer
// ---------------------------------------------------------------------------

TEST(VerbsFaultTest, KilledQpFlushesAndRejectsPosts) {
  verbs::Cluster cluster(verbs::Cluster::Config{.num_nodes = 2});
  verbs::Cq* scq0 = cluster.device(0).CreateCq();
  verbs::Cq* rcq0 = cluster.device(0).CreateCq();
  verbs::Cq* scq1 = cluster.device(1).CreateCq();
  verbs::Cq* rcq1 = cluster.device(1).CreateCq();
  auto [qp0, qp1] = cluster.ConnectRc(0, scq0, rcq0, 1, scq1, rcq1);

  const uint64_t src = cluster.mem(0).Alloc(64);
  const uint64_t dst = cluster.mem(1).Alloc(64);
  verbs::Mr mr = cluster.device(1).RegisterMr(dst, 64);

  verbs::SendWr wr;
  wr.wr_id = 1;
  wr.opcode = verbs::Opcode::kWrite;
  wr.local_addr = src;
  wr.length = 64;
  wr.remote_addr = dst;
  wr.rkey = mr.rkey;
  wr.signaled = true;
  ASSERT_EQ(qp0->PostSend(wr), verbs::WcStatus::kSuccess);

  // Kill before the simulator runs: the queued WR must flush, not deliver.
  cluster.fault().KillQp(0, qp0->qpn());
  EXPECT_TRUE(qp0->in_error());
  EXPECT_EQ(cluster.fault().stats().qp_kills, 1u);

  // Posts against the dead QP are rejected synchronously.
  wr.wr_id = 2;
  EXPECT_EQ(qp0->PostSend(wr), verbs::WcStatus::kQpError);

  cluster.sim().Run();

  verbs::Completion wc;
  ASSERT_TRUE(scq0->Poll(&wc));
  EXPECT_EQ(wc.wr_id, 1u);
  EXPECT_EQ(wc.status, verbs::WcStatus::kFlushError);
  EXPECT_FALSE(scq0->Poll(&wc));

  // The peer writing toward the dead QP observes a remote error.
  verbs::Mr mr0 = cluster.device(0).RegisterMr(src, 64);
  verbs::SendWr back;
  back.wr_id = 3;
  back.opcode = verbs::Opcode::kWrite;
  back.local_addr = dst;
  back.length = 64;
  back.remote_addr = src;
  back.rkey = mr0.rkey;
  back.signaled = true;
  ASSERT_EQ(qp1->PostSend(back), verbs::WcStatus::kSuccess);
  cluster.sim().Run();
  ASSERT_TRUE(scq1->Poll(&wc));
  EXPECT_EQ(wc.wr_id, 3u);
  EXPECT_EQ(wc.status, verbs::WcStatus::kRemoteInvalidQp);
}

// A killed node stays dead: a QP created (or recycled through ResetQp) on it
// afterwards starts in the error state and rejects posts, so a reconnect
// cannot revive lanes on the frozen NIC. Other nodes are unaffected.
TEST(VerbsFaultTest, QpsCreatedOrResetAfterNodeKillStartInError) {
  verbs::Cluster cluster(verbs::Cluster::Config{.num_nodes = 2});
  verbs::Cq* scq0 = cluster.device(0).CreateCq();
  verbs::Cq* rcq0 = cluster.device(0).CreateCq();
  verbs::Qp* before = cluster.device(0).CreateQp(verbs::QpType::kRc, scq0, rcq0);
  cluster.fault().KillNode(0);
  EXPECT_TRUE(before->in_error());

  verbs::Qp* fresh = cluster.device(0).CreateQp(verbs::QpType::kRc, scq0, rcq0);
  EXPECT_TRUE(fresh->in_error());
  verbs::SendWr wr;
  wr.opcode = verbs::Opcode::kWrite;
  EXPECT_EQ(fresh->PostSend(wr), verbs::WcStatus::kQpError);
  cluster.device(0).ResetQp(*before);
  EXPECT_TRUE(before->in_error());

  verbs::Cq* scq1 = cluster.device(1).CreateCq();
  verbs::Cq* rcq1 = cluster.device(1).CreateCq();
  EXPECT_FALSE(cluster.device(1).CreateQp(verbs::QpType::kRc, scq1, rcq1)->in_error());
}

TEST(VerbsFaultTest, InjectedErrorReportsErrorButDeliversPayload) {
  verbs::Cluster cluster(verbs::Cluster::Config{.num_nodes = 2});
  verbs::Cq* scq0 = cluster.device(0).CreateCq();
  verbs::Cq* rcq0 = cluster.device(0).CreateCq();
  verbs::Cq* scq1 = cluster.device(1).CreateCq();
  verbs::Cq* rcq1 = cluster.device(1).CreateCq();
  auto [qp0, qp1] = cluster.ConnectRc(0, scq0, rcq0, 1, scq1, rcq1);
  (void)qp1;

  const uint64_t src = cluster.mem(0).Alloc(8);
  const uint64_t dst = cluster.mem(1).Alloc(8);
  verbs::Mr mr = cluster.device(1).RegisterMr(dst, 8);
  const uint64_t value = 0x1122334455667788ULL;
  cluster.mem(0).Write(src, &value, 8);

  cluster.fault().InjectSendErrors(0, qp0->qpn(), verbs::WcStatus::kRnrError, 1);

  verbs::SendWr wr;
  wr.wr_id = 9;
  wr.opcode = verbs::Opcode::kWrite;
  wr.local_addr = src;
  wr.length = 8;
  wr.remote_addr = dst;
  wr.rkey = mr.rkey;
  wr.signaled = true;
  ASSERT_EQ(qp0->PostSend(wr), verbs::WcStatus::kSuccess);
  cluster.sim().Run();

  verbs::Completion wc;
  ASSERT_TRUE(scq0->Poll(&wc));
  EXPECT_EQ(wc.status, verbs::WcStatus::kRnrError);
  // Ack-loss model: the payload landed even though the completion errored.
  uint64_t out = 0;
  cluster.mem(1).Read(dst, &out, 8);
  EXPECT_EQ(out, value);
  EXPECT_EQ(cluster.fault().stats().injected_errors, 1u);

  // The error is consumed: the next post completes cleanly.
  wr.wr_id = 10;
  ASSERT_EQ(qp0->PostSend(wr), verbs::WcStatus::kSuccess);
  cluster.sim().Run();
  ASSERT_TRUE(scq0->Poll(&wc));
  EXPECT_EQ(wc.status, verbs::WcStatus::kSuccess);
  cluster.mem(1).Read(dst, &out, 8);
  EXPECT_EQ(out, value);
}

// One-sided ops under faults: READs and atomics flush on a killed QP and
// surface injected error CQEs, exactly like the send path — this is what the
// flock-level memop quarantine (and the one-sided data plane above it)
// relies on.
TEST(VerbsFaultTest, KilledQpFlushesReadsAndAtomics) {
  verbs::Cluster cluster(verbs::Cluster::Config{.num_nodes = 2});
  verbs::Cq* scq0 = cluster.device(0).CreateCq();
  verbs::Cq* rcq0 = cluster.device(0).CreateCq();
  verbs::Cq* scq1 = cluster.device(1).CreateCq();
  verbs::Cq* rcq1 = cluster.device(1).CreateCq();
  auto [qp0, qp1] = cluster.ConnectRc(0, scq0, rcq0, 1, scq1, rcq1);
  (void)qp1;

  const uint64_t local = cluster.mem(0).Alloc(16);
  const uint64_t remote = cluster.mem(1).Alloc(16);
  verbs::Mr mr = cluster.device(1).RegisterMr(remote, 16);
  const uint64_t zero = 0;
  cluster.mem(1).Write(remote, &zero, 8);

  verbs::SendWr read;
  read.wr_id = 1;
  read.opcode = verbs::Opcode::kRead;
  read.local_addr = local;
  read.length = 8;
  read.remote_addr = remote;
  read.rkey = mr.rkey;
  ASSERT_EQ(qp0->PostSend(read), verbs::WcStatus::kSuccess);

  verbs::SendWr cas;
  cas.wr_id = 2;
  cas.opcode = verbs::Opcode::kCmpSwap;
  cas.local_addr = local + 8;
  cas.length = 8;
  cas.remote_addr = remote;
  cas.rkey = mr.rkey;
  cas.compare = 0;
  cas.swap_or_add = 1;
  ASSERT_EQ(qp0->PostSend(cas), verbs::WcStatus::kSuccess);

  cluster.fault().KillQp(0, qp0->qpn());
  cluster.sim().Run();

  // Both queued one-sided WRs flush with an error CQE; the remote word is
  // untouched (the CAS never executed).
  verbs::Completion wc;
  ASSERT_TRUE(scq0->Poll(&wc));
  EXPECT_EQ(wc.wr_id, 1u);
  EXPECT_EQ(wc.status, verbs::WcStatus::kFlushError);
  ASSERT_TRUE(scq0->Poll(&wc));
  EXPECT_EQ(wc.wr_id, 2u);
  EXPECT_EQ(wc.status, verbs::WcStatus::kFlushError);
  uint64_t word = ~0ULL;
  cluster.mem(1).Read(remote, &word, 8);
  EXPECT_EQ(word, 0u);

  // Fresh posts against the dead QP are rejected synchronously.
  read.wr_id = 3;
  EXPECT_EQ(qp0->PostSend(read), verbs::WcStatus::kQpError);
  cas.wr_id = 4;
  EXPECT_EQ(qp0->PostSend(cas), verbs::WcStatus::kQpError);
}

TEST(VerbsFaultTest, InjectedErrorsSurfaceOnReadAndCmpSwap) {
  verbs::Cluster cluster(verbs::Cluster::Config{.num_nodes = 2});
  verbs::Cq* scq0 = cluster.device(0).CreateCq();
  verbs::Cq* rcq0 = cluster.device(0).CreateCq();
  verbs::Cq* scq1 = cluster.device(1).CreateCq();
  verbs::Cq* rcq1 = cluster.device(1).CreateCq();
  auto [qp0, qp1] = cluster.ConnectRc(0, scq0, rcq0, 1, scq1, rcq1);
  (void)qp1;

  const uint64_t local = cluster.mem(0).Alloc(8);
  const uint64_t remote = cluster.mem(1).Alloc(8);
  verbs::Mr mr = cluster.device(1).RegisterMr(remote, 8);

  cluster.fault().InjectSendErrors(0, qp0->qpn(), verbs::WcStatus::kRnrError, 2);

  verbs::SendWr read;
  read.wr_id = 11;
  read.opcode = verbs::Opcode::kRead;
  read.local_addr = local;
  read.length = 8;
  read.remote_addr = remote;
  read.rkey = mr.rkey;
  ASSERT_EQ(qp0->PostSend(read), verbs::WcStatus::kSuccess);
  cluster.sim().Run();

  verbs::Completion wc;
  ASSERT_TRUE(scq0->Poll(&wc));
  EXPECT_EQ(wc.wr_id, 11u);
  EXPECT_EQ(wc.status, verbs::WcStatus::kRnrError);

  verbs::SendWr cas;
  cas.wr_id = 12;
  cas.opcode = verbs::Opcode::kCmpSwap;
  cas.local_addr = local;
  cas.length = 8;
  cas.remote_addr = remote;
  cas.rkey = mr.rkey;
  cas.compare = 0;
  cas.swap_or_add = 7;
  ASSERT_EQ(qp0->PostSend(cas), verbs::WcStatus::kSuccess);
  cluster.sim().Run();
  ASSERT_TRUE(scq0->Poll(&wc));
  EXPECT_EQ(wc.wr_id, 12u);
  EXPECT_EQ(wc.status, verbs::WcStatus::kRnrError);
  EXPECT_EQ(cluster.fault().stats().injected_errors, 2u);

  // The burst is consumed and the QP stays healthy: the next read completes
  // cleanly (one-sided callers treat the errored status as "retry elsewhere",
  // so clean recovery on the same QP matters).
  read.wr_id = 13;
  ASSERT_EQ(qp0->PostSend(read), verbs::WcStatus::kSuccess);
  cluster.sim().Run();
  ASSERT_TRUE(scq0->Poll(&wc));
  EXPECT_EQ(wc.wr_id, 13u);
  EXPECT_EQ(wc.status, verbs::WcStatus::kSuccess);
}

// ---------------------------------------------------------------------------
// Flock runtime
// ---------------------------------------------------------------------------

struct FaultWorld {
  explicit FaultWorld(int nodes = 2)
      : cluster(verbs::Cluster::Config{.num_nodes = nodes, .cores_per_node = 8}) {
    FlockConfig server_cfg;
    server = std::make_unique<FlockRuntime>(cluster, 0, server_cfg);
    server->RegisterHandler(kEchoRpc, EchoHandler);
    server->StartServer(4);
    for (int n = 1; n < nodes; ++n) {
      FlockConfig client_cfg;
      client_cfg.rpc_timeout = 100 * kMicrosecond;
      clients.push_back(std::make_unique<FlockRuntime>(cluster, n, client_cfg));
      clients.back()->StartClient();
    }
  }

  verbs::Cluster cluster;
  std::unique_ptr<FlockRuntime> server;
  std::vector<std::unique_ptr<FlockRuntime>> clients;
};

sim::Proc EchoLoop(Connection* conn, FlockThread* thread, int count,
                   int* ok_count, int* fail_count, uint16_t rpc_id = kEchoRpc) {
  std::vector<uint8_t> resp;
  for (int i = 0; i < count; ++i) {
    uint64_t payload = static_cast<uint64_t>(i);
    const bool ok =
        co_await conn->Call(*thread, rpc_id,
                            reinterpret_cast<const uint8_t*>(&payload), 8, &resp);
    (ok ? *ok_count : *fail_count) += 1;
  }
}

TEST(FlockFaultTest, QpKillMidRunMigratesAndRecovers) {
  FaultWorld world;
  Connection* conn = world.clients[0]->Connect(*world.server, 4);
  int ok = 0, fail = 0;
  for (int t = 0; t < 4; ++t) {
    world.cluster.sim().Spawn(EchoLoop(conn, world.clients[0]->CreateThread(t), 400,
                                       &ok, &fail));
  }
  // Kill one client-side lane QP while traffic is in full flight.
  world.cluster.fault().KillQpAt(200 * kMicrosecond, /*node=*/1,
                                 conn->lane(0).qp->qpn());
  world.cluster.sim().RunFor(200 * kMillisecond);

  EXPECT_EQ(ok + fail, 4 * 400) << "every RPC must complete one way or another";
  EXPECT_EQ(fail, 0) << "surviving lanes + retry must absorb a single QP kill";
  EXPECT_EQ(conn->num_failed_lanes(), 0u) << "the killed lane must reconnect";
  EXPECT_GE(conn->lane_reconnects(), 1u);
  EXPECT_GE(world.clients[0]->client_stats().lane_failures, 1u);
  EXPECT_GE(world.server->server_stats().lane_failures, 1u);
}

TEST(FlockFaultTest, TransientErrorBurstIsAbsorbedWithoutQuarantine) {
  FaultWorld world;
  Connection* conn = world.clients[0]->Connect(*world.server, 2);
  int ok = 0, fail = 0;
  for (int t = 0; t < 2; ++t) {
    world.cluster.sim().Spawn(EchoLoop(conn, world.clients[0]->CreateThread(t), 200,
                                       &ok, &fail));
  }
  // Error a burst of completions on each lane (lost-ack model): the QPs stay
  // healthy and the data lands, so nothing may be quarantined or lost.
  world.cluster.fault().InjectSendErrorsAt(50 * kMicrosecond, /*node=*/1,
                                           conn->lane(0).qp->qpn(),
                                           verbs::WcStatus::kRnrError, 4);
  world.cluster.fault().InjectSendErrorsAt(80 * kMicrosecond, /*node=*/1,
                                           conn->lane(1).qp->qpn(),
                                           verbs::WcStatus::kRemoteAccessError, 4);
  world.cluster.sim().RunFor(100 * kMillisecond);

  EXPECT_EQ(ok, 2 * 200);
  EXPECT_EQ(fail, 0);
  EXPECT_EQ(conn->num_failed_lanes(), 0u) << "transient errors must not quarantine";
  EXPECT_EQ(world.clients[0]->client_stats().failed_rpcs, 0u);
  EXPECT_EQ(world.cluster.fault().stats().injected_errors, 8u);
}

// Drops one credit grant on lane 0 at `at`: the client books the next
// `credits` granted as already seen, so that grant write lands but adds
// nothing.
sim::Proc LoseNextGrant(verbs::Cluster* cluster, Connection* conn, uint32_t credits,
                        Nanos at) {
  co_await sim::Delay(cluster->sim(), at);
  const_cast<internal::ClientLane&>(conn->lane(0)).grants_seen += credits;
}

// Lost-grant recovery through the watchdog: with its grant lost, the lane
// sits with queued work, no credits and its renewal latched in flight, so
// the pump posts nothing. The first RPC retry to land on the lane re-sends
// the renewal, the server grants again, and every RPC completes without a
// lane failure. Nothing arms the fault injector: this is the same program
// that runs fault-free.
TEST(FlockFaultTest, LostGrantIsRecoveredByWatchdogRetry) {
  verbs::Cluster cluster(verbs::Cluster::Config{.num_nodes = 2, .cores_per_node = 8});
  FlockRuntime server(cluster, 0, FlockConfig{});
  server.RegisterHandler(kEchoRpc, EchoHandler);
  server.StartServer(4);
  // One request per message, so work queues behind the pump's batch.
  FlockConfig cfg;
  cfg.rpc_timeout = 100 * kMicrosecond;
  cfg.max_coalesce = 1;
  FlockRuntime client(cluster, 1, cfg);
  client.StartClient();
  Connection* conn = client.Connect(server, 1);
  int ok = 0, fail = 0;
  for (int t = 0; t < 4; ++t) {
    cluster.sim().Spawn(EchoLoop(conn, client.CreateThread(t), 300, &ok, &fail), 1);
  }
  cluster.sim().Spawn(LoseNextGrant(&cluster, conn, cfg.credits, 20 * kMicrosecond), 1);
  cluster.sim().RunFor(50 * kMillisecond);

  EXPECT_EQ(ok, 4 * 300);
  EXPECT_EQ(fail, 0);
  EXPECT_GE(client.client_stats().retries, 1u);
  EXPECT_EQ(conn->num_failed_lanes(), 0u);
}

TEST(FlockFaultTest, NodePauseDelaysButCompletes) {
  FaultWorld world;
  Connection* conn = world.clients[0]->Connect(*world.server, 2);
  int ok = 0, fail = 0;
  world.cluster.sim().Spawn(EchoLoop(conn, world.clients[0]->CreateThread(0), 300,
                                     &ok, &fail));
  // Freeze the server's NIC for 300us mid-run; traffic must resume after.
  world.cluster.fault().PauseNodeAt(400 * kMicrosecond, /*node=*/0,
                                    /*duration=*/300 * kMicrosecond);
  world.cluster.sim().RunFor(100 * kMillisecond);

  EXPECT_EQ(ok, 300);
  EXPECT_EQ(fail, 0);
  // The 300us freeze exceeds the 100us RPC timeout: the watchdog retries
  // in-flight RPCs into the frozen server, and the duplicates it creates are
  // absorbed as spurious responses once the node thaws.
  EXPECT_GE(world.clients[0]->client_stats().retries, 1u);
  EXPECT_GE(world.clients[0]->client_stats().spurious_responses, 1u);
  EXPECT_EQ(world.clients[0]->client_stats().failed_rpcs, 0u);
  EXPECT_EQ(world.cluster.fault().stats().node_pauses, 1u);
}

TEST(FlockFaultTest, AllLanesDeadFailsRpcsAndReclaimsSender) {
  FaultWorld world(/*nodes=*/3);  // node 1: victim client, node 2: healthy
  Connection* victim = world.clients[0]->Connect(*world.server, 2);
  Connection* healthy = world.clients[1]->Connect(*world.server, 2);
  int v_ok = 0, v_fail = 0, h_ok = 0, h_fail = 0;
  world.cluster.sim().Spawn(EchoLoop(victim, world.clients[0]->CreateThread(0), 60,
                                     &v_ok, &v_fail));
  world.cluster.sim().Spawn(EchoLoop(healthy, world.clients[1]->CreateThread(0), 500,
                                     &h_ok, &h_fail));
  // Kill the victim's entire node: every lane dies, nothing to migrate to.
  world.cluster.fault().KillNodeAt(50 * kMicrosecond, /*node=*/1);
  world.cluster.sim().RunFor(1000 * kMillisecond);

  // The victim's in-flight RPCs surface ok=false after retry exhaustion; the
  // workload coroutine keeps issuing (and failing) without ever crashing.
  EXPECT_EQ(v_ok + v_fail, 60);
  EXPECT_GT(v_fail, 0);
  EXPECT_EQ(victim->num_failed_lanes(), 2u);
  EXPECT_GT(world.clients[0]->client_stats().failed_rpcs, 0u);
  // The healthy client is unaffected.
  EXPECT_EQ(h_ok, 500);
  EXPECT_EQ(h_fail, 0);
  // The server tears the dead sender down.
  EXPECT_GE(world.server->server_stats().dead_senders, 1u);
  EXPECT_GE(world.server->server_stats().lane_failures, 2u);
}

// Quiet-sender liveness probe (DESIGN.md §8): a client finishes its calls,
// goes idle, and its node dies. The server has no traffic left to post on
// that sender's lanes, so only the Redistribute probe can notice: once the
// sender has been quiet for rpc_timeout, a signaled control-slot write
// completes in error, and the next sweep tears the sender down.
TEST(FlockFaultTest, IdleDeadClientIsReclaimedByLivenessProbe) {
  FaultWorld world;
  Connection* conn = world.clients[0]->Connect(*world.server, 2);
  int ok = 0, fail = 0;
  world.cluster.sim().Spawn(EchoLoop(conn, world.clients[0]->CreateThread(0), 50,
                                     &ok, &fail));
  // Idle for several sweeps first, so the dormant-sender deactivation write
  // lands while the client is still alive and cannot expose the death.
  world.cluster.sim().RunFor(2 * kMillisecond);
  ASSERT_EQ(ok, 50);
  ASSERT_EQ(world.server->server_stats().lane_failures, 0u);

  world.cluster.fault().KillNode(/*node=*/1);
  // The quiet clock started no later than the kill: the probe goes out at the
  // first sweep past rpc_timeout, and the sweep after it tears the sender
  // down.
  world.cluster.sim().RunFor(FlockConfig{}.rpc_timeout +
                             2 * internal::kQpSchedInterval);
  EXPECT_GE(world.server->server_stats().dead_senders, 1u);
  EXPECT_GE(world.server->server_stats().lane_failures, 2u);
}

// Response-ring stall probe (DESIGN.md §8): a client stops consuming its
// response ring and then dies while the server's only dispatcher is blocked
// waiting for space in that ring. The dispatcher re-posts the control slot
// signaled every 64 stalled polls; against the dead client that write fails,
// the lane is quarantined and the dispatcher drops the stuck responses and
// goes back to serving the healthy client — within one probe period plus a
// round trip, not after the rpc_timeout that the liveness probe needs.
TEST(FlockFaultTest, DispatcherStalledOnDeadClientRingRecoversQuickly) {
  verbs::Cluster cluster(verbs::Cluster::Config{.num_nodes = 3, .cores_per_node = 8});
  // A small ring that a few dozen outstanding max_payload responses fill,
  // with coalesced responses still bounded by half the ring.
  FlockConfig cfg;
  cfg.ring_bytes = 8 * 1024;
  cfg.max_payload = 512;
  cfg.max_coalesce = 4;
  FlockRuntime server(cluster, 0, cfg);
  server.RegisterHandler(kEchoRpc, EchoHandler);
  server.RegisterHandler(kFullRpc, FullResponseHandler);
  server.StartServer(1);  // one dispatcher serves both clients
  FlockRuntime victim(cluster, 1, cfg);
  victim.StartClient();
  FlockRuntime healthy(cluster, 2, cfg);
  healthy.StartClient();
  Connection* vconn = victim.Connect(server, 1);
  Connection* hconn = healthy.Connect(server, 1);

  int v_ok = 0, v_fail = 0, h_ok = 0, h_fail = 0;
  for (int t = 0; t < 24; ++t) {
    FlockThread* thread = victim.CreateThread(t % 4);
    cluster.sim().Spawn(EchoLoop(vconn, thread, 200, &v_ok, &v_fail, kFullRpc), 1);
  }
  cluster.sim().Spawn(EchoLoop(hconn, healthy.CreateThread(0), 2000, &h_ok, &h_fail), 2);

  // The victim stops consuming: its response dispatcher's core (the node's
  // top core) is taken by a long job, while its NIC keeps accepting writes.
  sim::Core& dispatcher_core = cluster.cpu(1).core(cluster.cpu(1).num_cores() - 1);
  auto hog = [&]() -> sim::Co<void> {
    co_await sim::Delay(cluster.sim(), 300 * kMicrosecond);
    co_await dispatcher_core.Work(100 * kMillisecond);
  };
  cluster.sim().Spawn(sim::RunClosure(hog), 1);
  cluster.sim().RunUntil(600 * kMicrosecond);
  ASSERT_GT(v_ok, 0);
  ASSERT_GT(h_ok, 0);
  ASSERT_EQ(server.server_stats().responses_dropped, 0u);
  // The ring is full and the dispatcher is stuck on it: the healthy client is
  // starved.
  const int h_before_kill = h_ok;
  cluster.sim().RunFor(50 * kMicrosecond);
  ASSERT_EQ(h_ok, h_before_kill) << "the dispatcher must be stalled before the kill";

  cluster.fault().KillNode(/*node=*/1);
  cluster.sim().RunFor(64 * kMicrosecond + 20 * kMicrosecond);
  EXPECT_GE(server.server_stats().responses_dropped, 1u);
  EXPECT_GE(server.server_stats().lane_failures, 1u);
  const int h_at_drop = h_ok;
  cluster.sim().RunFor(1 * kMillisecond);
  EXPECT_GT(h_ok, h_at_drop) << "the healthy client is served again";
  EXPECT_EQ(h_fail, 0);
}

// Killed lane mid-extent (DESIGN.md §16): a QP dies while a megabyte chunk
// train is in flight. The chunks already delivered sit as a partial in the
// server's reassembly pool — the reclamation sweep must free that entry —
// and the watchdog must retransmit the whole extent over a surviving lane,
// so the caller completes with correct bytes rather than hanging.
TEST(FlockFaultTest, QpKillMidExtentReclaimsPartialAndRetransmits) {
  verbs::Cluster cluster(
      verbs::Cluster::Config{.num_nodes = 2, .cores_per_node = 8});
  FlockConfig server_cfg;
  server_cfg.max_payload = 2 * 1024 * 1024;
  server_cfg.segment_threshold = 8 * 1024;
  // The server never starts a client role, so its rpc_timeout only sets the
  // derived reassembly timeout: 2 × 100 us = 200 us.
  server_cfg.rpc_timeout = 100 * kMicrosecond;
  auto server = std::make_unique<FlockRuntime>(cluster, 0, server_cfg);
  server->RegisterHandler(kEchoRpc, EchoHandler);
  server->StartServer(4);
  FlockConfig client_cfg = server_cfg;
  client_cfg.rpc_timeout = 300 * kMicrosecond;
  auto client = std::make_unique<FlockRuntime>(cluster, 1, client_cfg);
  client->StartClient();

  Connection* conn = client->Connect(*server, 2);
  FlockThread* thread = client->CreateThread(0);
  FlockThread* small_thread = client->CreateThread(1);

  constexpr uint32_t kExtent = 1024 * 1024;
  std::vector<uint8_t> extent(kExtent);
  for (uint32_t i = 0; i < kExtent; ++i) {
    extent[i] = static_cast<uint8_t>(i * 13 + 5);
  }
  std::vector<uint8_t> resp(kExtent);
  int extents_ok = 0;
  auto extent_app = [&]() -> sim::Co<void> {
    for (int i = 0; i < 3; ++i) {
      uint32_t resp_len = 0;
      const bool ok = co_await conn->Call(
          *thread, kEchoRpc, PayloadRef(extent.data(), kExtent), resp.data(),
          kExtent, &resp_len);
      EXPECT_TRUE(ok) << "extent " << i << " must survive the lane kill";
      EXPECT_EQ(resp_len, kExtent);
      if (ok && resp_len == kExtent) {
        EXPECT_EQ(std::memcmp(resp.data(), extent.data(), kExtent), 0);
        ++extents_ok;
      }
    }
  };
  // Concurrent small traffic: proves the reassembly disruption does not jam
  // the metadata path, and keeps lanes busy so dead-sender reclamation does
  // not kick in instead of per-lane recovery.
  int small_ok = 0, small_fail = 0;
  cluster.sim().Spawn(EchoLoop(conn, small_thread, 600, &small_ok, &small_fail));
  cluster.sim().Spawn(sim::RunClosure(extent_app));

  // Kill one client lane while the first extent's train is mid-flight. The
  // train takes ~128 chunks; at 30us some have landed, the rest never will.
  cluster.fault().KillQpAt(30 * kMicrosecond, /*node=*/1,
                           conn->lane(0).qp->qpn());
  cluster.sim().RunFor(400 * kMillisecond);

  EXPECT_EQ(extents_ok, 3) << "no stuck callers, bytes intact";
  EXPECT_EQ(small_ok + small_fail, 600);
  EXPECT_EQ(small_fail, 0);
  EXPECT_EQ(conn->num_failed_lanes(), 0u) << "the killed lane must reconnect";
  EXPECT_GE(conn->lane_reconnects(), 1u);
  EXPECT_GE(client->client_stats().retries, 1u);
  // The partial train stranded on the dead lane was reclaimed by timeout (or
  // displaced by the retransmit landing on the same lane); either way the
  // pool drained back to empty.
  const auto& pool = server->reassembly_pool();
  EXPECT_GT(pool.completed(), 0u);
  EXPECT_GE(pool.reclaimed() + pool.resets() + pool.orphans(), 1u);
  EXPECT_EQ(pool.in_use(), 0u);
}

// One-sided memops on a killed lane: the submitting coroutine gets an error
// status (never a hang), the lane is quarantined, and RPC traffic on the
// same connection heals onto the surviving lane — the contract the one-sided
// KV/index/txn paths rely on for their fall-back-to-RPC behavior. The RPCs
// resume immediately after the kill: a sender that stays quiet for
// rpc_timeout with a failed lane is torn down for good by the dead-sender
// rule (see AllLanesDeadFailsRpcsAndReclaimsSender), so the supported
// recovery path is live traffic, not idle-then-resume.
TEST(FlockFaultTest, MemOpOnKilledLaneErrorsQuarantinesAndRpcsSurvive) {
  FaultWorld world;
  Connection* conn = world.clients[0]->Connect(*world.server, 2);
  FlockThread* thread = world.clients[0]->CreateThread(0);

  const uint64_t remote = world.cluster.mem(0).Alloc(8, 8);
  const uint64_t value = 0x5ca1ab1eULL;
  world.cluster.mem(0).Write(remote, &value, 8);
  const uint64_t local = world.cluster.mem(1).Alloc(8, 8);
  const RemoteMr mr = conn->AttachMreg(remote, 8);

  enum class Step { kStart, kWarm, kKilled, kDone };
  Step step = Step::kStart;
  int ok = 0, fail = 0;
  auto memops = [&]() -> sim::Co<void> {
    // Warm read: proves the one-sided path works before the fault.
    EXPECT_EQ(co_await conn->Read(*thread, local, remote, 8, mr),
              verbs::WcStatus::kSuccess);
    uint64_t got = 0;
    world.cluster.mem(1).Read(local, &got, 8);
    EXPECT_EQ(got, value);
    step = Step::kWarm;

    // Wait for the host side to kill this thread's lane, then read again:
    // the op must complete with a fatal (non-success) status, not hang.
    while (step != Step::kKilled) {
      co_await sim::Delay(world.cluster.sim(), 10 * kMicrosecond);
    }
    EXPECT_NE(co_await conn->Read(*thread, local, remote, 8, mr),
              verbs::WcStatus::kSuccess);

    // The quarantine repaired the connection: a retried memop (now routed to
    // the surviving lane) succeeds.
    uint64_t scratch = 0;
    world.cluster.mem(1).Write(local, &scratch, 8);
    EXPECT_EQ(co_await conn->Read(*thread, local, remote, 8, mr),
              verbs::WcStatus::kSuccess);
    world.cluster.mem(1).Read(local, &got, 8);
    EXPECT_EQ(got, value);

    // RPCs on the same thread migrate to the surviving lane.
    for (int i = 0; i < 100; ++i) {
      uint64_t payload = value + static_cast<uint64_t>(i);
      std::vector<uint8_t> resp;
      const bool rpc_ok = co_await conn->Call(
          *thread, kEchoRpc, reinterpret_cast<const uint8_t*>(&payload), 8,
          &resp);
      if (rpc_ok && resp.size() == 8 &&
          std::memcmp(resp.data(), &payload, 8) == 0) {
        ++ok;
      } else {
        ++fail;
      }
    }
    step = Step::kDone;
  };
  world.cluster.sim().Spawn(sim::RunClosure(memops));

  world.cluster.sim().RunFor(1 * kMillisecond);
  ASSERT_EQ(step, Step::kWarm);
  world.cluster.fault().KillQp(/*node=*/1, conn->lane(0).qp->qpn());
  step = Step::kKilled;
  world.cluster.sim().RunFor(100 * kMillisecond);

  EXPECT_EQ(step, Step::kDone);
  EXPECT_EQ(conn->num_failed_lanes(), 0u) << "the killed lane must reconnect";
  EXPECT_GE(conn->lane_reconnects(), 1u);
  EXPECT_GE(world.clients[0]->client_stats().lane_failures, 1u);
  EXPECT_EQ(ok, 100);
  EXPECT_EQ(fail, 0);
}

}  // namespace
}  // namespace flock
