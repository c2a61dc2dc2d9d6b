#include "src/flock/lane.h"

#include <algorithm>
#include <cstring>

#include "src/ctrl/control_plane.h"

namespace flock {
namespace internal {

// ---------------------------------------------------------------------------
// Lane state transitions (DESIGN.md §10) and lane selection
// ---------------------------------------------------------------------------

void SetLaneActive(ClientLane& lane, bool active) {
  FLOCK_CHECK(!lane.quarantined());
  lane.state = active ? ClientLaneState::kActive : ClientLaneState::kInactive;
}

void QuarantineLane(ClientConnState& conn, ClientLane& lane) {
  if (lane.quarantined()) {
    return;
  }
  lane.state = ClientLaneState::kFailed;
  lane.credits = 0;
  lane.renew_in_flight = false;
  conn.client->stats.lane_failures += 1;
  // Remember which threads this lane was serving so a later reconnect can
  // send exactly those threads back. Pulling only the evacuees home keeps
  // every surviving lane's thread set — and with it the phase-aligned
  // coalescing those threads have built up — intact; a wholesale re-sort
  // would scramble the pairs and halve the coalescing degree permanently.
  lane.evacuated_tids.clear();
  for (size_t tid = 0; tid < conn.thread_lane.size(); ++tid) {
    if (conn.thread_lane[tid] == lane.index ||
        (tid < conn.desired_lane.size() && conn.desired_lane[tid] == lane.index)) {
      lane.evacuated_tids.push_back(static_cast<uint32_t>(tid));
    }
  }
  // Wake the pump so queued work migrates (or drains) off the dead lane.
  lane.send_ready.NotifyAll();
  conn.reconnect_cond->NotifyAll();  // kick the reconnect daemon
}

ClientLane& LaneFor(ClientConnState& conn, FlockThread& thread) {
  const size_t tid = thread.id();
  if (conn.thread_lane.size() <= tid) {
    conn.thread_lane.resize(tid + 1, UINT32_MAX);
  }
  uint32_t current = conn.thread_lane[tid];
  if (conn.desired_lane.size() <= tid) {
    conn.desired_lane.resize(tid + 1, UINT32_MAX);
  }
  const uint32_t desired = conn.desired_lane[tid];
  // Apply a pending migration only once all of the thread's outstanding
  // requests have completed (sequence-id safety, §5.2).
  if (desired != UINT32_MAX && desired != current && thread.outstanding == 0) {
    current = desired;
    conn.thread_lane[tid] = current;
  }
  if (current == UINT32_MAX ||
      (conn.lanes[current]->state != ClientLaneState::kActive &&
       thread.outstanding == 0)) {
    // Initial (or repair) assignment: spread over the active lanes.
    std::vector<uint32_t> active;
    for (uint32_t i = 0; i < conn.lanes.size(); ++i) {
      if (conn.lanes[i]->state == ClientLaneState::kActive) {
        active.push_back(i);
      }
    }
    if (active.empty()) {
      // Server guarantees >= 1 active in healthy operation, so this is
      // transient; prefer any surviving lane over a quarantined one (a
      // closed handle has none).
      for (uint32_t i = 0; !conn.closed && i < conn.lanes.size(); ++i) {
        if (!conn.lanes[i]->quarantined()) {
          active.push_back(i);
          break;
        }
      }
      if (active.empty()) {
        active.push_back(0);  // every lane dead: nowhere better to stage
      }
    }
    current = active[tid % active.size()];
    conn.thread_lane[tid] = current;
    conn.desired_lane[tid] = current;
  }
  return *conn.lanes[current];
}

void SetServerLaneActive(ServerLane& lane, bool active, ServerStats& stats) {
  FLOCK_CHECK(lane.state != ServerLaneState::kFailed);
  lane.state = active ? ServerLaneState::kActive : ServerLaneState::kInactive;
  (active ? stats.activations : stats.deactivations) += 1;
}

void QuarantineServerLane(ServerLane& lane, ServerStats& stats) {
  if (lane.state == ServerLaneState::kFailed) {
    return;
  }
  if (lane.state == ServerLaneState::kActive) {
    stats.deactivations += 1;
  }
  lane.state = ServerLaneState::kFailed;
  stats.lane_failures += 1;
}

void HandleSendError(const verbs::Completion& wc, ServerStats& stats) {
  switch (WrIdTag(wc.wr_id)) {
    case WrTag::kRpcWrite:
    case WrTag::kCtrl: {
      auto* lane = WrIdPtr<ClientLane>(wc.wr_id);
      // Ignore stale flushes from a QP that a reconnect already replaced, or
      // from a lane whose QP was harvested into the recycling pool (qp is
      // nullptr then — the lane is closed and must not be "re-quarantined",
      // which would bump failure counters for a teardown that already ran).
      if (lane->qp == nullptr ||
          (wc.qpn != 0 && wc.qpn != lane->qp->qpn())) {
        break;
      }
      if (IsFatalWcStatus(wc.status)) {
        QuarantineLane(*lane->conn, *lane);
      }
      // Transient statuses (RNR, remote access): the write was lost on the
      // wire; per-RPC timeouts retransmit whatever it carried.
      break;
    }
    case WrTag::kServerWrite:
    case WrTag::kServerCtrl: {
      auto* lane = WrIdPtr<ServerLane>(wc.wr_id);
      // A graveyard lane (qp harvested into the pool) is always stale here.
      const bool stale =
          lane->qp == nullptr || (wc.qpn != 0 && wc.qpn != lane->qp->qpn());
      if (!stale && IsFatalWcStatus(wc.status)) {
        QuarantineServerLane(*lane, stats);
      }
      if (WrIdTag(wc.wr_id) == WrTag::kServerWrite) {
        stats.responses_dropped += 1;  // that response is gone either way
      }
      break;
    }
    default:
      break;  // kMemOp handled by its own completion event; recvs never here
  }
}

// ---------------------------------------------------------------------------
// Lane resources: build, ring reset, release, wiring
// ---------------------------------------------------------------------------

namespace {

namespace cw = ctrl::wire;

// Draws the most recently released resources of matching geometry: LIFO
// keeps the hot ones hot. False when none are pooled.
template <typename Res>
bool DrawPooled(std::vector<Res>& pool, uint32_t ring_bytes, Res* out) {
  for (size_t i = pool.size(); i-- > 0;) {
    if (pool[i].ring_bytes == ring_bytes) {
      *out = pool[i];
      pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(i));
      return true;
    }
  }
  return false;
}

// Zeroes the bytes of the ring registered as `rkey` that the peer wrote
// since its last reset and returns how many that was. Nothing else makes a
// ring byte non-zero: the consumer writes only zeros (it zeroes what it
// consumes), and a previous reset left the ring all zero. A write of the old
// incarnation that lands later (the QP was reset or killed, not drained)
// widens the next span, so the next reset zeroes it.
uint64_t ZeroWritten(NodeEnv& env, uint32_t rkey) {
  const verbs::WrittenSpan span = env.device().mrs().TakeWritten(rkey);
  if (span.empty()) {
    return 0;
  }
  std::memset(env.mem().At(span.lo), 0, span.hi - span.lo);
  return span.hi - span.lo;
}

// The ring reset, one per side (DESIGN.md §10), shared by the pooled-lane
// draw and the reconnect resync: zeroes what the peer left in the ring this
// half consumes, so the fresh RingConsumer sees no ghost canaries from the
// previous incarnation, and its 8-byte slot, then restarts both ring cursors
// from zero. The client's slot is its control slot, so a dispatcher polling
// a still-unwired lane reads grant_cumulative == grants_seen == 0 (a no-op);
// the server's is its head slot, matching the client's zero-based response
// consumer.
void ResetRings(NodeEnv& env, ClientLane& lane, ClientStats& stats) {
  fabric::MemorySpace& mem = env.mem();
  stats.ring_bytes_zeroed += ZeroWritten(env, lane.resp_ring_rkey);
  std::memset(mem.At(lane.ctrl_slot_addr), 0, 8);
  *lane.resp_consumer = RingConsumer(mem.At(lane.resp_ring_addr), lane.ring_bytes);
  lane.req_producer = RingProducer(lane.ring_bytes);
}

void ResetRings(NodeEnv& env, ServerLane& lane, ServerStats& stats) {
  fabric::MemorySpace& mem = env.mem();
  stats.ring_bytes_zeroed += ZeroWritten(env, lane.req_ring_rkey);
  std::memset(mem.At(lane.head_slot_addr), 0, 8);
  *lane.req_consumer = RingConsumer(mem.At(lane.req_ring_addr), lane.ring_bytes);
  lane.resp_producer = RingProducer(lane.ring_bytes);
}

// Receives for the control write-with-imm messages a lane half takes.
void PostCtrlRecvs(NodeEnv& env, verbs::Qp& qp, uint64_t wr_id) {
  for (int r = 0; r < 16; ++r) {
    qp.PostRecv(verbs::RecvWr{wr_id, 0, 0});
  }
}

// The wiring a lane half advertises in its side of a handshake.
cw::ClientLaneInfo Advertise(const ClientLane& lane) {
  cw::ClientLaneInfo info;
  info.qpn = lane.qp->qpn();
  info.resp_ring_addr = lane.resp_ring_addr;
  info.resp_ring_rkey = lane.resp_ring_rkey;
  info.ctrl_slot_addr = lane.ctrl_slot_addr;
  info.ctrl_slot_rkey = lane.ctrl_slot_rkey;
  return info;
}

cw::ServerLaneInfo Advertise(const ServerLane& lane) {
  cw::ServerLaneInfo info;
  info.qpn = lane.qp->qpn();
  info.req_ring_addr = lane.req_ring_addr;
  info.req_ring_rkey = lane.req_ring_rkey;
  info.head_slot_addr = lane.head_slot_addr;
  info.head_slot_rkey = lane.head_slot_rkey;
  info.active = lane.state == ServerLaneState::kActive ? 1 : 0;
  info.credits = static_cast<uint32_t>(lane.credits_outstanding);
  return info;
}

// Applies a (connect/reconnect/add-lane) accept to the client lane: peer QP
// wiring, remote addresses, posted receives, bootstrap control slot, and the
// state the server gave it. This is how a lane enters service: built fresh,
// or revived from kReconnecting.
void WireClientLane(ClientLane& lane, const cw::ServerLaneInfo& info,
                    uint32_t grant_cumulative) {
  NodeEnv& env = *lane.conn->env;
  lane.qp->ConnectTo(lane.conn->server_node, info.qpn);
  lane.remote_ring_addr = info.req_ring_addr;
  lane.remote_ring_rkey = info.req_ring_rkey;
  lane.head_slot_remote_addr = info.head_slot_addr;
  lane.head_slot_rkey = info.head_slot_rkey;
  PostCtrlRecvs(env, *lane.qp, TagWrId(WrTag::kRecv, &lane));
  lane.state = info.active != 0 ? ClientLaneState::kActive
                                : ClientLaneState::kInactive;
  lane.credits = info.credits;
  lane.grants_seen = grant_cumulative;
  CtrlSlot bootstrap;
  bootstrap.grant_cumulative = grant_cumulative;
  bootstrap.active = info.active;
  env.mem().Write(lane.ctrl_slot_addr, &bootstrap, sizeof(bootstrap));
}

// Builds the server half of the next lane of sender `sender_key`, wired to
// the advertised client QP, and installs it in the sender's lanes, on a
// dispatcher (round robin over the live lanes) and in server.lanes. Pooled
// resources of matching geometry are reused (the QP was ResetQp'd at
// release, so anything still in flight from its previous incarnation
// epoch-drops in the fabric); otherwise fresh ones are created. Tenants
// (§15): the ServerLane object itself is always new, so tenant_id comes from
// the sender and deferred_grant starts at zero — no quota debt crosses a
// recycle (see tests/tenant_test.cc RecyclingNoDebt).
void AddServerLane(NodeEnv& env, ServerState& server, uint32_t sender_key,
                   uint32_t ring_bytes, const cw::ClientLaneInfo& in,
                   bool active, cw::ServerLaneInfo* out) {
  fabric::MemorySpace& smem = env.mem();
  SenderState& sender = server.senders[sender_key];
  ServerLaneRes res;
  const bool recycled = DrawPooled(server.lane_pool, ring_bytes, &res);
  if (!recycled) {
    res.qp = env.device().CreateQp(verbs::QpType::kRc, env.send_cq, env.recv_cq);
    res.ring_bytes = ring_bytes;
    // Server-local memory: the request ring and head slot the client
    // writes, the control-slot write source and the response staging
    // mirror. Fresh memory is zero, so nothing is reset.
    res.req_ring_addr = smem.Alloc(ring_bytes);
    res.req_ring_rkey = env.device().RegisterMr(res.req_ring_addr, ring_bytes).rkey;
    res.head_slot_addr = smem.Alloc(8, 8);
    res.head_slot_ptr = smem.At(res.head_slot_addr);
    res.head_slot_rkey = env.device().RegisterMr(res.head_slot_addr, 8).rkey;
    res.ctrl_src_addr = smem.Alloc(8, 8);
    res.ctrl_src_ptr = smem.At(res.ctrl_src_addr);
    res.staging_addr = smem.Alloc(ring_bytes);
    res.staging = smem.At(res.staging_addr);
  }
  auto sl = std::make_unique<ServerLane>(smem, res);
  if (recycled) {
    ResetRings(env, *sl, server.stats);
    server.stats.qps_recycled += 1;
  } else {
    server.stats.qps_created += 1;
  }
  sl->index = static_cast<uint32_t>(sender.lanes.size());
  sl->client_node = sender.client_node;
  sl->sender_key = sender_key;
  sl->tenant_id = sender.tenant_id;
  sl->qp->ConnectTo(sl->client_node, in.qpn);
  sl->ctrl_slot_remote_addr = in.ctrl_slot_addr;
  sl->ctrl_slot_rkey = in.ctrl_slot_rkey;
  sl->remote_ring_addr = in.resp_ring_addr;
  sl->remote_ring_rkey = in.resp_ring_rkey;
  PostCtrlRecvs(env, *sl->qp, TagWrId(WrTag::kServerRecv, sl.get()));
  sl->state = active ? ServerLaneState::kActive : ServerLaneState::kInactive;
  sl->credits_outstanding = active ? env.config->credits : 0;
  *out = Advertise(*sl);

  sender.lanes.push_back(sl.get());
  server
      .dispatcher_lanes[server.lanes.size() %
                        static_cast<size_t>(server.dispatcher_count)]
      .push_back(sl.get());
  server.lanes.push_back(std::move(sl));
}

// The server twin of ReleaseClientLane: resets the lane's QP, parks its
// resources whole in the pool, and moves the lane object from the live set
// to the graveyard. Graveyard objects are never destroyed or reused: the
// CQEs a teardown flushes (sends plus ~16 posted receives per lane) still
// carry wr_id pointers to them, and their qp == nullptr is what marks those
// completions stale.
void ReleaseServerLane(NodeEnv& env, ServerState& server, ServerLane* lane) {
  env.device().ResetQp(*lane->qp);
  server.lane_pool.push_back(static_cast<const ServerLaneRes&>(*lane));
  lane->qp = nullptr;
  for (auto& dlanes : server.dispatcher_lanes) {
    for (size_t i = 0; i < dlanes.size(); ++i) {
      if (dlanes[i] == lane) {
        dlanes.erase(dlanes.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
    }
  }
  for (size_t i = 0; i < server.lanes.size(); ++i) {
    if (server.lanes[i].get() == lane) {
      server.graveyard.push_back(std::move(server.lanes[i]));
      server.lanes.erase(server.lanes.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    }
  }
}

}  // namespace

std::unique_ptr<ClientLane> BuildClientLane(ClientConnState& conn,
                                            uint32_t index) {
  NodeEnv& env = *conn.env;
  fabric::MemorySpace& cmem = env.mem();
  ClientState& client = *conn.client;
  ClientLaneRes res;
  const bool recycled =
      DrawPooled(client.lane_pool, env.config->ring_bytes, &res);
  if (!recycled) {
    res.qp = env.device().CreateQp(verbs::QpType::kRc, env.send_cq, env.recv_cq);
    res.ring_bytes = env.config->ring_bytes;
    // Client-local memory: staging mirror for the request ring, head-slot
    // write source, the control slot the server RDMA-writes, and the
    // response ring. Fresh memory is zero, so nothing is reset.
    res.staging_addr = cmem.Alloc(res.ring_bytes);
    res.staging = cmem.At(res.staging_addr);
    res.head_src_addr = cmem.Alloc(8, 8);
    res.head_src_ptr = cmem.At(res.head_src_addr);
    res.ctrl_slot_addr = cmem.Alloc(8, 8);
    res.ctrl_slot_ptr = cmem.At(res.ctrl_slot_addr);
    res.ctrl_slot_rkey = env.device().RegisterMr(res.ctrl_slot_addr, 8).rkey;
    res.resp_ring_addr = cmem.Alloc(res.ring_bytes);
    res.resp_ring_rkey =
        env.device().RegisterMr(res.resp_ring_addr, res.ring_bytes).rkey;
  }
  auto cl = std::make_unique<ClientLane>(env.sim(), cmem, res);
  cl->index = index;
  cl->conn = &conn;
  if (recycled) {
    ResetRings(env, *cl, client.stats);
    client.stats.qps_recycled += 1;
  } else {
    client.stats.qps_created += 1;
  }
  return cl;
}

void ReleaseClientLane(ClientLane& lane) {
  lane.conn->env->device().ResetQp(*lane.qp);
  lane.conn->client->lane_pool.push_back(
      static_cast<const ClientLaneRes&>(lane));
  lane.qp = nullptr;
}

// ---------------------------------------------------------------------------
// Control-plane message handlers (server side, DESIGN.md §10)
// ---------------------------------------------------------------------------

namespace {

// Where a handler writes its one answer, under the request's nonce.
struct CtrlReply {
  uint8_t* buf;
  uint32_t cap;
  uint64_t nonce;

  uint32_t Reject(cw::RejectReason reason) const {
    return cw::EncodeReject(buf, cap, nonce, reason);
  }
  template <typename Body>
  uint32_t Accept(cw::MsgType type, const Body& body,
                  uint32_t len = sizeof(Body)) const {
    return cw::EncodeMessage(buf, cap, type, nonce, &body, len);
  }
};

// Revive: a reconnect handshake brings a quarantined server lane back
// active.
void ReviveServerLane(ServerLane& lane, ServerStats& stats) {
  FLOCK_CHECK(lane.state == ServerLaneState::kFailed);
  lane.state = ServerLaneState::kActive;
  stats.activations += 1;
}

// The sender a per-handle request (reconnect, add-lane, disconnect) names by
// conn_id, or nullptr when this node serves none by that id (kBadConnId).
// Whether it belongs to the requesting client node is each handler's check:
// they answer a mismatch with different reasons.
SenderState* FindSender(ServerState& server, uint32_t conn_id) {
  if (!server.started || conn_id >= server.senders.size()) {
    return nullptr;
  }
  return &server.senders[conn_id];
}

// Whether a per-handle request comes from the handle `sender` serves. A
// handle names itself by lane 0's response-ring address, which no other open
// handle of its node shares; a stale handle whose slot a newer handle of the
// node reused (after a Leave or a teardown it never heard of) names another.
bool NamesSender(const SenderState& sender, uint64_t handle_ring_addr) {
  return !sender.lanes.empty() &&
         sender.lanes[0]->remote_ring_addr == handle_ring_addr;
}

uint32_t HandleConnect(NodeEnv& env, ServerState& server,
                       const cw::MsgHeader& header, const uint8_t* msg,
                       const CtrlReply& reply) {
  cw::ConnectRequest req;
  if (!cw::DecodeConnectRequest(header, msg, &req)) {
    return reply.Reject(cw::RejectReason::kUnknown);
  }
  if (!server.started) {
    return reply.Reject(cw::RejectReason::kServerNotStarted);
  }

  // Tenant admission (DESIGN.md §15), before any server state is touched:
  // an unknown identity or a tenant at its connection ceiling rejects
  // outright; a tenant near its lane ceiling gets a degraded accept with
  // fewer lanes than requested. The default tenant is always admitted in
  // full. The registry lives on the control plane.
  tenant::TenantRegistry& reg = ctrl::ControlPlane::For(*env.cluster).tenants();
  if (req.tenant_id != tenant::kDefaultTenant &&
      !reg.Registered(req.tenant_id)) {
    reg.NoteUnknownTenant();
    return reply.Reject(cw::RejectReason::kUnknownTenant);
  }
  const tenant::Admission verdict =
      reg.AdmitConnect(req.tenant_id, req.num_lanes);
  if (verdict.verdict == tenant::Admission::Verdict::kOverConnections) {
    return reply.Reject(cw::RejectReason::kTenantOverConnections);
  }
  if (verdict.verdict == tenant::Admission::Verdict::kOverLanes) {
    return reply.Reject(cw::RejectReason::kTenantOverLanes);
  }
  const uint32_t granted_lanes = verdict.lanes;

  // Prefer a dead, fully-harvested sender slot over growing the array: under
  // churn every Leave strands one, and conn_ids (== slot indexes) would
  // otherwise grow without bound. A slot still holding lanes (quarantined
  // mid-service at teardown) is not reusable — its lane indexes are taken.
  uint32_t sender_key = static_cast<uint32_t>(server.senders.size());
  for (uint32_t i = 0; i < server.senders.size(); ++i) {
    if (server.senders[i].dead && server.senders[i].lanes.empty()) {
      sender_key = i;
      break;
    }
  }
  if (sender_key == server.senders.size()) {
    server.senders.push_back(SenderState{});
  } else {
    server.senders[sender_key] = SenderState{};
  }
  SenderState& sender = server.senders[sender_key];
  sender.client_node = req.client_node;
  sender.tenant_id = req.tenant_id;
  sender.quiet_since = env.sim().Now();
  // AdmitConnect charged one connection and `granted_lanes` lanes above;
  // record exactly what TearDownOneSender must release.
  sender.tenant_lanes_charged = granted_lanes;

  // Receiver-side initial allocation: a new client gets the average active-QP
  // share per *live* sender (§5.1), refined at the next redistribution.
  // Counting only live senders fixes the stale-quota bug: a reclaimed (dead)
  // sender used to dilute the share every later connection bootstrapped with.
  uint32_t live_senders = 0;
  for (const SenderState& s : server.senders) {
    live_senders += s.dead ? 0 : 1;
  }
  const uint32_t fair_share =
      std::max<uint32_t>(1, env.config->max_active_qps / live_senders);
  const uint32_t initially_active = std::min(granted_lanes, fair_share);

  const uint64_t created_before = server.stats.qps_created;
  const uint64_t recycled_before = server.stats.qps_recycled;
  cw::ConnectAccept accept;
  accept.conn_id = sender_key;
  accept.num_lanes = granted_lanes;
  for (uint32_t i = 0; i < granted_lanes; ++i) {
    AddServerLane(env, server, sender_key, req.ring_bytes, req.lanes[i],
                  i < initially_active, &accept.lanes[i]);
  }
  // Provenance so the async client charges the right setup cost (qp_create
  // vs qp_reset) for the server-side bring-up it just caused.
  accept.fresh_qps =
      static_cast<uint32_t>(server.stats.qps_created - created_before);
  accept.recycled_qps =
      static_cast<uint32_t>(server.stats.qps_recycled - recycled_before);
  return reply.Accept(cw::MsgType::kConnectAccept, accept,
                      cw::ConnectAcceptBytes(granted_lanes));
}

uint32_t HandleReconnect(NodeEnv& env, ServerState& server,
                         const cw::MsgHeader& header, const uint8_t* msg,
                         const CtrlReply& reply) {
  cw::ReconnectRequest req;
  if (!cw::DecodeReconnectRequest(header, msg, &req)) {
    return reply.Reject(cw::RejectReason::kUnknown);
  }
  SenderState* sender = FindSender(server, req.conn_id);
  if (sender == nullptr || sender->dead) {
    return reply.Reject(cw::RejectReason::kBadConnId);
  }
  if (sender->client_node != req.client_node ||
      req.lane_index >= sender->lanes.size()) {
    return reply.Reject(cw::RejectReason::kBadLane);
  }
  ServerLane& lane = *sender->lanes[req.lane_index];
  // The client-side rings survive a reconnect, so a genuine request
  // re-advertises exactly the addresses this lane was wired to. A mismatch is
  // a stale handle: its sender slot was torn down at Leave and reused by the
  // same node's next connect, and reviving it would hijack the new handle's
  // lane onto the old handle's QP.
  if (req.lane.resp_ring_addr != lane.remote_ring_addr ||
      req.lane.ctrl_slot_addr != lane.ctrl_slot_remote_addr) {
    return reply.Reject(cw::RejectReason::kBadLane);
  }
  if (lane.in_service) {
    // Mid-dispatch: the client retries after backoff rather than having its
    // rings re-based under the dispatcher.
    return reply.Reject(cw::RejectReason::kLaneBusy);
  }
  // The client is authoritative about its half being dead. If this side has
  // not noticed yet (no send completed in error), condemn it now so the
  // revival below starts from the quarantined state either way.
  QuarantineServerLane(lane, server.stats);

  // Fresh server QP wired to the client's fresh QP. The dead QP is abandoned
  // in place — qpns are never reused, so its late flushes are recognizably
  // stale (Completion::qpn) and ignored by the CQ pollers.
  verbs::Qp* fresh =
      env.device().CreateQp(verbs::QpType::kRc, env.send_cq, env.recv_cq);
  fresh->ConnectTo(req.client_node, req.lane.qpn);

  // Ring resync: both directions restart from sequence zero; the request
  // ring's canary-framed contents died with the old QP. The client mirrors
  // this before any sim event runs (ControlPlane::Call is synchronous), so
  // neither side can observe the other half-resynced.
  ResetRings(env, lane, server.stats);
  lane.qp = fresh;
  PostCtrlRecvs(env, *fresh, TagWrId(WrTag::kServerRecv, &lane));

  ReviveServerLane(lane, server.stats);
  lane.credits_outstanding = env.config->credits;
  lane.utilization = 0;
  lane.messages_at_last_sweep = lane.messages_handled;
  server.stats.lane_reconnects += 1;
  // A reconnect restarts the quiet clock: the client just proved it is alive.
  sender->quiet_since = env.sim().Now();

  cw::ReconnectAccept accept;
  accept.lane_index = req.lane_index;
  accept.credits = env.config->credits;
  // The grant counter is cumulative and survives the reconnect; the client
  // resyncs grants_seen to it so the delta stream stays consistent.
  accept.grant_cumulative = lane.grant_cumulative;
  accept.lane = Advertise(lane);
  return reply.Accept(cw::MsgType::kReconnectAccept, accept);
}

uint32_t HandleAddLane(NodeEnv& env, ServerState& server,
                       const cw::MsgHeader& header, const uint8_t* msg,
                       const CtrlReply& reply) {
  cw::AddLaneRequest req;
  if (!cw::DecodeAddLaneRequest(header, msg, &req)) {
    return reply.Reject(cw::RejectReason::kUnknown);
  }
  SenderState* sender = FindSender(server, req.conn_id);
  if (sender == nullptr || sender->dead) {
    return reply.Reject(cw::RejectReason::kBadConnId);
  }
  if (sender->client_node != req.client_node ||
      req.lane_index != sender->lanes.size() ||
      req.lane_index >= cw::kMaxLanesPerMsg) {
    // Lane indexes must stay aligned across both sides; out-of-sequence adds
    // (e.g. a replayed or reordered request) are refused.
    return reply.Reject(cw::RejectReason::kBadLane);
  }
  if (!NamesSender(*sender, req.handle_ring_addr)) {
    return reply.Reject(cw::RejectReason::kBadConnId);
  }

  // Lane growth is charged against the same tenant ceiling as the connect
  // handshake, so a tenant cannot route around admission via AddLane.
  if (!ctrl::ControlPlane::For(*env.cluster).tenants().AdmitLane(
          sender->tenant_id)) {
    return reply.Reject(cw::RejectReason::kTenantOverLanes);
  }
  sender->tenant_lanes_charged += 1;

  cw::AddLaneAccept accept;
  accept.lane_index = req.lane_index;
  const uint64_t recycled_before = server.stats.qps_recycled;
  AddServerLane(env, server, req.conn_id, req.ring_bytes, req.lane,
                /*active=*/true, &accept.lane);
  accept.recycled = server.stats.qps_recycled != recycled_before ? 1 : 0;
  server.stats.lanes_added += 1;
  return reply.Accept(cw::MsgType::kAddLaneAccept, accept);
}

// Orderly whole-handle close (DESIGN.md §15): tears down the named sender
// exactly like a membership leave would, so sender-slot and tenant admission
// accounting are reclaimed immediately.
uint32_t HandleDisconnect(NodeEnv& env, ServerState& server,
                          const cw::MsgHeader& header, const uint8_t* msg,
                          const CtrlReply& reply) {
  cw::DisconnectRequest req;
  if (!cw::DecodeDisconnectRequest(header, msg, &req)) {
    return reply.Reject(cw::RejectReason::kUnknown);
  }
  SenderState* sender = FindSender(server, req.conn_id);
  if (sender == nullptr || sender->client_node != req.client_node ||
      (!sender->dead && !NamesSender(*sender, req.handle_ring_addr))) {
    return reply.Reject(cw::RejectReason::kBadConnId);
  }
  cw::DisconnectAccept accept;
  accept.lanes_torn = static_cast<uint32_t>(sender->lanes.size());
  if (!sender->dead) {  // idempotent: a duplicate disconnect just re-acks
    TearDownOneSender(env, server, *sender);
  }
  return reply.Accept(cw::MsgType::kDisconnectAccept, accept);
}

}  // namespace

uint32_t HandleCtrlMessage(NodeEnv& env, ServerState& server,
                           const uint8_t* msg, uint32_t len, uint8_t* resp,
                           uint32_t resp_cap) {
  cw::MsgHeader header;
  if (!cw::DecodeHeader(msg, len, &header)) {
    return 0;  // ControlPlane::Call validated framing; belt and braces
  }
  const CtrlReply reply{resp, resp_cap, header.nonce};
  switch (static_cast<cw::MsgType>(header.type)) {
    case cw::MsgType::kConnectRequest:
      return HandleConnect(env, server, header, msg, reply);
    case cw::MsgType::kReconnectRequest:
      return HandleReconnect(env, server, header, msg, reply);
    case cw::MsgType::kAddLaneRequest:
      return HandleAddLane(env, server, header, msg, reply);
    case cw::MsgType::kDisconnectRequest:
      return HandleDisconnect(env, server, header, msg, reply);
    default:
      return reply.Reject(cw::RejectReason::kUnknown);
  }
}

void TearDownOneSender(NodeEnv& env, ServerState& server, SenderState& sender) {
  FLOCK_CHECK(!sender.dead);
  for (ServerLane* lane : sender.lanes) {
    if (lane->state != ServerLaneState::kFailed) {
      // Destroy the transport the way a real server tears down a departed
      // client's QPs: error it (flushing our posts) so the peer, if it is
      // still there, sees kRemoteInvalidQp on its next post.
      env.device().ErrorQp(*lane->qp);
      QuarantineServerLane(*lane, server.stats);
    }
  }
  sender.dead = true;
  server.stats.dead_senders += 1;
  ctrl::ControlPlane::For(*env.cluster)
      .tenants()
      .ReleaseConnection(sender.tenant_id, sender.tenant_lanes_charged);

  // Release every lane that is not mid-dispatch (DESIGN.md §13). A lane
  // handed to an RPC worker (in_service) stays quarantined in place; its
  // slot-blocking is why the connect handler's free-slot scan requires
  // lanes.empty().
  std::vector<ServerLane*> kept;
  for (ServerLane* lane : sender.lanes) {
    if (lane->in_service) {
      kept.push_back(lane);
    } else {
      ReleaseServerLane(env, server, lane);
    }
  }
  sender.lanes = std::move(kept);
}

bool TearDownSenders(NodeEnv& env, ServerState& server, int node) {
  if (!server.started) {
    return false;
  }
  bool touched = false;
  for (SenderState& sender : server.senders) {
    if (sender.client_node != node || sender.dead) {
      continue;
    }
    // A membership listener: runs in the event that called Leave, which
    // belongs to another node.
    env.sim().TouchNode(env.node);
    TearDownOneSender(env, server, sender);
    touched = true;
  }
  return touched;
}

// ---------------------------------------------------------------------------
// Client side of the control plane: one exchange, its four uses
// ---------------------------------------------------------------------------

namespace {

// The one client control exchange (DESIGN.md §10): encodes `req` under
// `nonce`, Calls the handle's server and decodes the answer. True when it
// decodes (through `decode`) as the expected accept, filled into *accept;
// otherwise false, with *reason the server's reject reason — kUnknown when
// there is no answer or it is not a reject. Callers draw `nonce` where their
// exchange takes its place in the cluster's nonce order: right before the
// exchange, or for AddLane before its kCtrlRtt delay.
template <typename Req, typename Accept>
bool CtrlExchange(const ClientConnState& conn, cw::MsgType type,
                  uint64_t nonce, const Req& req, uint32_t req_len,
                  bool (*decode)(const cw::MsgHeader&, const uint8_t*, Accept*),
                  Accept* accept, cw::RejectReason* reason) {
  uint8_t msg[cw::kMaxMessageBytes];
  uint8_t resp[cw::kMaxMessageBytes];
  const uint32_t msg_len =
      cw::EncodeMessage(msg, sizeof(msg), type, nonce, &req, req_len);
  const uint32_t resp_len = ctrl::ControlPlane::For(*conn.env->cluster)
                                .Call(conn.server_node, msg, msg_len, resp,
                                      sizeof(resp));
  *reason = cw::RejectReason::kUnknown;
  cw::MsgHeader header;
  if (!cw::DecodeHeader(resp, resp_len, &header)) {
    return false;
  }
  if (decode(header, resp, accept)) {
    return true;
  }
  cw::Reject rej;
  if (cw::DecodeReject(header, resp, &rej)) {
    *reason = static_cast<cw::RejectReason>(rej.reason);
  }
  return false;
}

// Begin/abandon reconnect: the reconnect daemon's transitions of a
// quarantined client lane (WireClientLane revives it).
void BeginReconnect(ClientLane& lane) {
  FLOCK_CHECK(lane.state == ClientLaneState::kFailed);
  lane.state = ClientLaneState::kReconnecting;
}

void AbandonReconnect(ClientLane& lane) {
  FLOCK_CHECK(lane.state == ClientLaneState::kReconnecting);
  lane.state = ClientLaneState::kFailed;
}

// Accelerates watchdog recovery of the RPCs accounted to a just-revived
// lane: their deadlines collapse to "now" so the next tick retransmits.
void ExpireLaneDeadlines(ClientConnState& conn, uint32_t lane_index) {
  const Nanos now = conn.env->sim().Now();
  for (auto& map : conn.pending) {
    map.ForEach([&](uint32_t, PendingRpc* rpc) {
      if (rpc->lane_index == lane_index) {
        rpc->deadline = std::min(rpc->deadline, now);
      }
    });
  }
}

}  // namespace

sim::Proc ReconnectDaemon(ClientConnState& conn) {
  ctrl::ControlPlane& cp = ctrl::ControlPlane::For(*conn.env->cluster);
  sim::Simulator& sim = conn.env->sim();
  Nanos backoff = kReconnectBackoff;
  for (;;) {
    if (conn.closed || conn.departed()) {
      co_return;  // CloseConnection or Leave: the handle never comes back
    }
    ClientLane* victim = nullptr;
    for (const auto& lane : conn.lanes) {
      if (lane->state == ClientLaneState::kFailed) {
        victim = lane.get();
        break;
      }
    }
    if (victim == nullptr) {
      backoff = kReconnectBackoff;
      co_await conn.reconnect_cond->Wait();
      continue;
    }

    BeginReconnect(*victim);
    co_await sim::Delay(sim, backoff);
    // The out-of-band channel is slow (RDMA-CM over TCP): one RTT of latency
    // charged up front, so everything from the gate below through the resync
    // runs without suspension — no pump or dispatcher can interleave.
    co_await sim::Delay(sim, kCtrlRtt);
    // Quiesce and membership gates: never resync rings under a pump or
    // dispatcher mid-pass, never revive a handle closed or ended by Leave
    // during the delays, and never handshake while either end is outside the
    // membership view.
    if (conn.closed || conn.departed() || !cp.IsMember(conn.env->node) ||
        !cp.IsMember(conn.server_node) ||
        victim->pump_running || victim->mem_pump_running ||
        victim->in_dispatch) {
      AbandonReconnect(*victim);
      backoff = std::min<Nanos>(backoff * 2, kReconnectBackoff * 256);
      continue;
    }

    // Fresh client QP on the shared CQs; the dead one is abandoned in place
    // (its qpn is never reused, so stale flushes are filtered by qpn).
    verbs::Qp* fresh = conn.env->device().CreateQp(
        verbs::QpType::kRc, conn.env->send_cq, conn.env->recv_cq);
    if (fresh->in_error()) {
      // This node was killed (Device::MarkKilled): its NIC never comes back,
      // so no handshake can give any lane a working QP.
      AbandonReconnect(*victim);
      co_return;
    }
    cw::ReconnectRequest req;
    req.client_node = conn.env->node;
    req.conn_id = conn.conn_id;
    req.lane_index = victim->index;
    req.lane.qpn = fresh->qpn();
    // Rings and rkeys are unchanged — the server kept its copies from the
    // connect handshake. The addresses are re-advertised so the server can
    // tell this handle from a newer one that reused its sender slot.
    req.lane.resp_ring_addr = victim->resp_ring_addr;
    req.lane.ctrl_slot_addr = victim->ctrl_slot_addr;
    cw::ReconnectAccept accept;
    cw::RejectReason reason;
    if (!CtrlExchange(conn, cw::MsgType::kReconnectRequest, cp.NextNonce(),
                      req, sizeof(req), cw::DecodeReconnectAccept, &accept,
                      &reason)) {
      AbandonReconnect(*victim);
      // The server no longer knows this handle (its slot was torn down, or
      // names another handle now): no retry can succeed, so stop for good.
      if (reason == cw::RejectReason::kBadConnId ||
          reason == cw::RejectReason::kBadLane) {
        co_return;
      }
      // Otherwise (busy, membership, malformed) retry after backoff. The
      // orphaned QP is abandoned; QPs are simulation-cheap and never reused.
      backoff = std::min<Nanos>(backoff * 2, kReconnectBackoff * 256);
      continue;
    }

    // Client-side resync, mirroring the server's handler before any sim
    // event can run: the ring reset, then credits and the cumulative-grant
    // resync from the accept.
    ResetRings(*conn.env, *victim, conn.client->stats);
    victim->qp = fresh;
    victim->renew_in_flight = false;
    victim->resp_bytes_since_send = 0;
    WireClientLane(*victim, accept.lane, accept.grant_cumulative);
    victim->reconnects += 1;
    conn.client->stats.lane_reconnects += 1;
    victim->send_ready.NotifyAll();
    // Un-acked RPCs accounted to this lane retransmit at the watchdog's next
    // tick instead of waiting out their full deadlines: this is how batches
    // lost with the dead QP are replayed onto the revived lane.
    ExpireLaneDeadlines(conn, victim->index);
    // Send the evacuated threads home. Without this the scheduler's
    // stability check keeps the migrated threads where the quarantine pushed
    // them (loads stay within its 2x tolerance) and the revived lane idles
    // forever, pinning steady-state throughput at the one-lane-short level.
    // Only the evacuees move: the surviving lanes' thread sets — and the
    // phase-aligned coalescing they carry — stay untouched.
    for (uint32_t tid : victim->evacuated_tids) {
      if (tid < conn.desired_lane.size()) {
        conn.desired_lane[tid] = victim->index;
      }
    }
    victim->evacuated_tids.clear();
    backoff = kReconnectBackoff;
  }
}

bool ConnectHandshake(ClientConnState& conn, Nanos* server_bringup,
                      cw::RejectReason* reject_reason) {
  NodeEnv& env = *conn.env;
  const uint32_t num_lanes = static_cast<uint32_t>(conn.lanes.size());

  cw::ConnectRequest req;
  req.client_node = env.node;
  req.num_lanes = num_lanes;
  req.ring_bytes = env.config->ring_bytes;
  req.tenant_id = conn.tenant_id;
  for (uint32_t i = 0; i < num_lanes; ++i) {
    req.lanes[i] = Advertise(*conn.lanes[i]);
  }
  cw::ConnectAccept accept;
  if (!CtrlExchange(conn, cw::MsgType::kConnectRequest,
                    ctrl::ControlPlane::For(*env.cluster).NextNonce(), req,
                    cw::ConnectRequestBytes(num_lanes), cw::DecodeConnectAccept,
                    &accept, reject_reason) ||
      accept.num_lanes > num_lanes) {
    return false;
  }
  conn.conn_id = accept.conn_id;
  conn.leaves_at_handshake = conn.client->leaves;
  if (accept.num_lanes < num_lanes) {
    // Degraded accept (tenant near its lane ceiling): release the surplus
    // client halves. They were never wired — no peer, no posted receives,
    // nothing in flight.
    for (uint32_t i = accept.num_lanes; i < num_lanes; ++i) {
      ReleaseClientLane(*conn.lanes[i]);
    }
    conn.lanes.resize(accept.num_lanes);
    conn.target_lanes = accept.num_lanes;
  }
  for (uint32_t i = 0; i < accept.num_lanes; ++i) {
    WireClientLane(*conn.lanes[i], accept.lanes[i], /*grant_cumulative=*/0);
  }
  *server_bringup = accept.fresh_qps * env.cost().qp_create +
                    accept.recycled_qps * env.cost().qp_reset;
  return true;
}

sim::Co<void> EnsureLaneSetup(ClientConnState& conn, FlockThread& thread) {
  NodeEnv& env = *conn.env;
  const sim::CostModel& cost = env.cost();
  sim::Simulator& sim = env.sim();
  ctrl::ControlPlane& cp = ctrl::ControlPlane::For(*env.cluster);

  // Count distinct threads touching this handle: the lazy-growth target is
  // min(target_lanes, threads seen so far) — one lane per thread until the
  // handle reaches the lane count an eager connect would have built.
  const size_t tid = thread.id();
  if (conn.thread_seen.size() <= tid) {
    conn.thread_seen.resize(tid + 1, 0);
  }
  if (conn.thread_seen[tid] == 0) {
    conn.thread_seen[tid] = 1;
    conn.threads_seen += 1;
  }

  const auto short_of_goal = [&conn] {
    return conn.lanes.size() <
           std::min(conn.target_lanes, std::max<uint32_t>(1, conn.threads_seen));
  };

  // One setup exchange at a time per connection; later arrivals park here and
  // re-check (the active setup may already have covered their thread).
  while (conn.setup_in_progress) {
    co_await conn.setup_cond->Wait();
  }
  if (conn.closed || !short_of_goal()) {
    co_return;
  }
  conn.setup_in_progress = true;

  // Lazy growth: materialize one deferred lane per additional distinct
  // thread via the AddLane handshake, up to the connect-time target. A
  // departed handle never grows: its conn_id may name a newer handle.
  while (!conn.closed && !conn.departed() && short_of_goal()) {
    const uint32_t index = static_cast<uint32_t>(conn.lanes.size());
    const uint64_t created_before = conn.client->stats.qps_created;
    auto lane = BuildClientLane(conn, index);
    co_await sim::Delay(sim, conn.client->stats.qps_created != created_before
                                 ? cost.qp_create
                                 : cost.qp_reset);
    cw::AddLaneRequest req;
    req.client_node = env.node;
    req.conn_id = conn.conn_id;
    req.lane_index = index;
    req.ring_bytes = env.config->ring_bytes;
    req.handle_ring_addr = conn.lanes[0]->resp_ring_addr;
    req.lane = Advertise(*lane);
    const uint64_t nonce = cp.NextNonce();
    co_await sim::Delay(sim, kCtrlRtt);
    cw::AddLaneAccept accept;
    cw::RejectReason reason;
    bool wired = false;
    if (!conn.closed && !conn.departed() &&
        CtrlExchange(conn, cw::MsgType::kAddLaneRequest, nonce, req,
                     sizeof(req), cw::DecodeAddLaneAccept, &accept, &reason)) {
      co_await sim::Delay(
          sim, accept.recycled != 0 ? cost.qp_reset : cost.qp_create);
      wired = !conn.closed;
    }
    if (!wired) {
      // Ended under the delays or the handshake, or refused (e.g. the
      // tenant's lane ceiling): the handle keeps serving on the lanes it has
      // and stops asking, and the client half goes back to the pool.
      ReleaseClientLane(*lane);
      conn.target_lanes = static_cast<uint32_t>(conn.lanes.size());
      break;
    }
    // Runs in the calling thread's event, which may belong to another node:
    // the response dispatchers are about to see one more lane.
    env.sim().TouchNode(env.node);
    WireClientLane(*lane, accept.lane, /*grant_cumulative=*/0);
    conn.lanes.push_back(std::move(lane));
    conn.client->stats.lanes_added += 1;
  }

  conn.setup_in_progress = false;
  conn.setup_cond->NotifyAll();
}

void SendDisconnect(ClientConnState& conn) {
  if (conn.departed()) {
    return;  // torn down at Leave; its conn_id may name a newer handle now
  }
  cw::DisconnectRequest req;
  req.client_node = conn.env->node;
  req.conn_id = conn.conn_id;
  req.handle_ring_addr = conn.lanes[0]->resp_ring_addr;
  cw::DisconnectAccept accept;
  cw::RejectReason reason;
  // Best effort: a sender already torn down re-acks, and a reject (server
  // gone, or the slot holds a newer handle) leaves this handle's sender, if
  // any, to the server's dead-sender rule.
  CtrlExchange(conn, cw::MsgType::kDisconnectRequest,
               ctrl::ControlPlane::For(*conn.env->cluster).NextNonce(), req,
               sizeof(req), cw::DecodeDisconnectAccept, &accept, &reason);
}

void CloseClientConn(ClientConnState& conn) {
  NodeEnv& env = *conn.env;
  conn.closed = true;

  for (auto& lane_ptr : conn.lanes) {
    ClientLane& lane = *lane_ptr;
    if (!lane.quarantined()) {
      SetLaneActive(lane, false);
    }
    lane.credits = 0;
    // Releasable only when nothing still references the transport half: no
    // pump mid-batch, no dispatcher mid-probe, nothing combined or in flight.
    // (Callers quiesce their threads before closing; a non-quiescent lane is
    // abandoned in place exactly like a quarantined one.)
    const bool quiescent = !lane.pump_running && !lane.mem_pump_running &&
                           !lane.in_dispatch && lane.inflight == 0 &&
                           lane.combine_head == nullptr &&
                           lane.memop_head == nullptr && !lane.quarantined() &&
                           lane.qp != nullptr;
    if (quiescent) {
      ReleaseClientLane(lane);
    } else if (lane.qp != nullptr && !lane.quarantined()) {
      // Not recyclable: error the QP so the server side sees the departure
      // (kRemoteInvalidQp on its next write) instead of a silent ghost.
      env.device().ErrorQp(*lane.qp);
    }
    lane.send_ready.NotifyAll();
  }

  // The client role never polls the recv CQ (client receives only ever
  // complete as teardown flushes), so each close would otherwise leak its
  // ~16 flushed receives per lane into the CQ ring forever. Drop this node's
  // client-recv flushes; anything else (a dual-role node's server-side
  // completions) is re-pushed in its original order.
  verbs::Cq& rcq = *env.recv_cq;
  const size_t depth = rcq.depth();
  verbs::Completion wc;
  for (size_t i = 0; i < depth; ++i) {
    if (!rcq.Poll(&wc)) {
      break;
    }
    if (WrIdTag(wc.wr_id) != WrTag::kRecv) {
      rcq.Push(wc);
    }
  }

  conn.setup_cond->NotifyAll();
  conn.reconnect_cond->NotifyAll();
}

}  // namespace internal
}  // namespace flock
