#include "src/flock/lane.h"

#include <algorithm>
#include <cstring>

#include "src/ctrl/control_plane.h"

namespace flock {
namespace internal {

// ---------------------------------------------------------------------------
// Quarantine and lane selection
// ---------------------------------------------------------------------------

void QuarantineLane(ClientConnState& conn, ClientLane& lane) {
  if (lane.failed) {
    return;
  }
  lane.failed = true;
  lane.active = false;
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
      (!conn.lanes[current]->active && thread.outstanding == 0)) {
    // Initial (or repair) assignment: spread over the active lanes.
    std::vector<uint32_t> active;
    for (uint32_t i = 0; i < conn.lanes.size(); ++i) {
      if (conn.lanes[i]->active) {
        active.push_back(i);
      }
    }
    if (active.empty()) {
      // Server guarantees >= 1 active in healthy operation, so this is
      // transient; prefer any surviving lane over a quarantined one.
      for (uint32_t i = 0; i < conn.lanes.size(); ++i) {
        if (!conn.lanes[i]->failed && !conn.lanes[i]->retired) {
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

void QuarantineServerLane(ServerLane& lane, ServerStats& stats) {
  if (lane.failed) {
    return;
  }
  lane.failed = true;
  if (lane.active) {
    lane.active = false;
    stats.deactivations += 1;
  }
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

// ---------------------------------------------------------------------------
// Building and wiring lane halves (fl_connect, reconnect, lazy add-lane)
// ---------------------------------------------------------------------------

std::unique_ptr<ClientLane> BuildClientLane(NodeEnv& env, ClientConnState& conn,
                                            uint32_t index,
                                            ctrl::wire::ClientLaneInfo* info) {
  fabric::MemorySpace& cmem = env.mem();
  const uint32_t ring_bytes = env.config->ring_bytes;
  ClientState& client = *conn.client;

  auto cl = std::make_unique<ClientLane>(env.sim(), ring_bytes);
  cl->copy_done = std::make_unique<sim::Condition>(env.sim());
  cl->sent_cond = std::make_unique<sim::Condition>(env.sim());
  cl->index = index;
  cl->conn = &conn;

  // Recycling (DESIGN.md §13): draw the most recently harvested shell of
  // matching geometry — LIFO keeps the hot shell hot. The reset QP and the
  // existing MRs come back as-is; the rings are zeroed so the fresh
  // RingConsumer sees no ghost canaries from the previous incarnation, and
  // the control slot is zeroed so a dispatcher polling the still-unwired lane
  // reads grant_cumulative == grants_seen == 0 (a no-op).
  bool recycled = false;
  for (size_t i = client.lane_pool.size(); i-- > 0;) {
    if (client.lane_pool[i].ring_bytes != ring_bytes) {
      continue;
    }
    const ClientLaneShell shell = client.lane_pool[i];
    client.lane_pool.erase(client.lane_pool.begin() +
                           static_cast<std::ptrdiff_t>(i));
    cl->qp = shell.qp;
    cl->staging_addr = shell.staging_addr;
    cl->staging = cmem.At(shell.staging_addr);
    cl->head_src_addr = shell.head_src_addr;
    cl->head_src_ptr = cmem.At(shell.head_src_addr);
    cl->ctrl_slot_addr = shell.ctrl_slot_addr;
    cl->ctrl_slot_ptr = cmem.At(shell.ctrl_slot_addr);
    cl->resp_ring_addr = shell.resp_ring_addr;
    cl->resp_ring_rkey = shell.resp_ring_rkey;
    cl->ctrl_slot_rkey = shell.ctrl_slot_rkey;
    std::memset(cmem.At(cl->resp_ring_addr), 0, ring_bytes);
    std::memset(cmem.At(cl->ctrl_slot_addr), 0, 8);
    cl->resp_consumer = std::make_unique<RingConsumer>(
        cmem.At(cl->resp_ring_addr), ring_bytes);
    client.stats.qps_recycled += 1;
    recycled = true;
    break;
  }
  if (!recycled) {
    cl->qp =
        env.device().CreateQp(verbs::QpType::kRc, env.send_cq, env.recv_cq);

    // Client-local memory: staging mirror for the request ring, head-slot
    // write source, the control slot the server RDMA-writes, and the
    // response ring.
    cl->staging_addr = cmem.Alloc(ring_bytes);
    cl->staging = cmem.At(cl->staging_addr);
    cl->head_src_addr = cmem.Alloc(8, 8);
    cl->head_src_ptr = cmem.At(cl->head_src_addr);
    cl->ctrl_slot_addr = cmem.Alloc(8, 8);
    cl->ctrl_slot_ptr = cmem.At(cl->ctrl_slot_addr);
    verbs::Mr ctrl_mr = env.device().RegisterMr(cl->ctrl_slot_addr, 8);
    cl->resp_ring_addr = cmem.Alloc(ring_bytes);
    verbs::Mr resp_mr = env.device().RegisterMr(cl->resp_ring_addr, ring_bytes);
    cl->resp_consumer = std::make_unique<RingConsumer>(
        cmem.At(cl->resp_ring_addr), ring_bytes);
    cl->resp_ring_rkey = resp_mr.rkey;
    cl->ctrl_slot_rkey = ctrl_mr.rkey;
    client.stats.qps_created += 1;
  }

  info->qpn = cl->qp->qpn();
  info->resp_ring_addr = cl->resp_ring_addr;
  info->resp_ring_rkey = cl->resp_ring_rkey;
  info->ctrl_slot_addr = cl->ctrl_slot_addr;
  info->ctrl_slot_rkey = cl->ctrl_slot_rkey;
  return cl;
}

void WireClientLane(NodeEnv& env, ClientLane& lane, int server_node,
                    const ctrl::wire::ServerLaneInfo& info,
                    uint32_t grant_cumulative) {
  lane.qp->ConnectTo(server_node, info.qpn);
  lane.remote_ring_addr = info.req_ring_addr;
  lane.remote_ring_rkey = info.req_ring_rkey;
  lane.head_slot_remote_addr = info.head_slot_addr;
  lane.head_slot_rkey = info.head_slot_rkey;
  // Receives for control write-with-imm messages.
  for (int r = 0; r < 16; ++r) {
    env.transport->PostRecv(*lane.qp,
                            verbs::RecvWr{TagWrId(WrTag::kRecv, &lane), 0, 0});
  }
  lane.active = info.active != 0;
  lane.credits = info.credits;
  lane.grants_seen = grant_cumulative;
  CtrlSlot bootstrap;
  bootstrap.grant_cumulative = grant_cumulative;
  bootstrap.active = info.active;
  env.mem().Write(lane.ctrl_slot_addr, &bootstrap, sizeof(bootstrap));
}

std::unique_ptr<ServerLane> BuildServerLane(NodeEnv& env, ServerState& server,
                                            uint32_t index,
                                            int client_node, uint32_t sender_key,
                                            uint32_t ring_bytes,
                                            const ctrl::wire::ClientLaneInfo& in,
                                            bool active,
                                            ctrl::wire::ServerLaneInfo* out) {
  fabric::MemorySpace& smem = env.mem();

  auto sl = std::make_unique<ServerLane>(ring_bytes);
  sl->index = index;
  sl->client_node = client_node;
  sl->sender_key = sender_key;

  // Recycling (DESIGN.md §13): reuse the most recently harvested shell of
  // matching geometry. The request ring is zeroed (no ghost canaries for the
  // fresh RingConsumer) and the head slot cleared to match the new client's
  // zero-based response consumer; the QP was reset at harvest, so anything
  // still in flight from its previous incarnation epoch-drops in the fabric.
  // Tenants (§15): the ServerLane object itself is always freshly
  // constructed — shells carry no tenant state, so tenant_id and
  // deferred_grant start zeroed and no quota debt crosses a recycle (see
  // tests/tenant_test.cc RecyclingNoDebt).
  bool recycled = false;
  for (size_t i = server.lane_pool.size(); i-- > 0;) {
    if (server.lane_pool[i].ring_bytes != ring_bytes) {
      continue;
    }
    const ServerLaneShell shell = server.lane_pool[i];
    server.lane_pool.erase(server.lane_pool.begin() +
                           static_cast<std::ptrdiff_t>(i));
    sl->qp = shell.qp;
    sl->req_ring_addr = shell.req_ring_addr;
    sl->req_ring_rkey = shell.req_ring_rkey;
    sl->head_slot_addr = shell.head_slot_addr;
    sl->head_slot_ptr = smem.At(shell.head_slot_addr);
    sl->head_slot_rkey = shell.head_slot_rkey;
    sl->ctrl_src_addr = shell.ctrl_src_addr;
    sl->ctrl_src_ptr = smem.At(shell.ctrl_src_addr);
    sl->staging_addr = shell.staging_addr;
    sl->staging = smem.At(shell.staging_addr);
    std::memset(smem.At(sl->req_ring_addr), 0, ring_bytes);
    std::memset(smem.At(sl->head_slot_addr), 0, 8);
    sl->req_consumer = std::make_unique<RingConsumer>(
        smem.At(sl->req_ring_addr), ring_bytes);
    server.stats.qps_recycled += 1;
    recycled = true;
    break;
  }
  if (!recycled) {
    sl->qp =
        env.device().CreateQp(verbs::QpType::kRc, env.send_cq, env.recv_cq);

    // Request ring lives here; the client advertised its response-side
    // memory.
    sl->req_ring_addr = smem.Alloc(ring_bytes);
    verbs::Mr req_mr = env.device().RegisterMr(sl->req_ring_addr, ring_bytes);
    sl->req_consumer =
        std::make_unique<RingConsumer>(smem.At(sl->req_ring_addr), ring_bytes);
    sl->req_ring_rkey = req_mr.rkey;
    sl->head_slot_addr = smem.Alloc(8, 8);
    sl->head_slot_ptr = smem.At(sl->head_slot_addr);
    verbs::Mr slot_mr = env.device().RegisterMr(sl->head_slot_addr, 8);
    sl->head_slot_rkey = slot_mr.rkey;
    sl->ctrl_src_addr = smem.Alloc(8, 8);
    sl->ctrl_src_ptr = smem.At(sl->ctrl_src_addr);
    sl->staging_addr = smem.Alloc(ring_bytes);
    sl->staging = smem.At(sl->staging_addr);
    server.stats.qps_created += 1;
  }
  sl->qp->ConnectTo(client_node, in.qpn);
  sl->ctrl_slot_remote_addr = in.ctrl_slot_addr;
  sl->ctrl_slot_rkey = in.ctrl_slot_rkey;
  sl->remote_ring_addr = in.resp_ring_addr;
  sl->remote_ring_rkey = in.resp_ring_rkey;

  for (int r = 0; r < 16; ++r) {
    env.transport->PostRecv(
        *sl->qp, verbs::RecvWr{TagWrId(WrTag::kServerRecv, sl.get()), 0, 0});
  }

  sl->active = active;
  sl->credits_outstanding = active ? env.config->credits : 0;

  out->qpn = sl->qp->qpn();
  out->req_ring_addr = sl->req_ring_addr;
  out->req_ring_rkey = sl->req_ring_rkey;
  out->head_slot_addr = sl->head_slot_addr;
  out->head_slot_rkey = sl->head_slot_rkey;
  out->active = active ? 1 : 0;
  out->credits = active ? env.config->credits : 0;
  return sl;
}

// ---------------------------------------------------------------------------
// Control-plane message handlers (server side, DESIGN.md §10)
// ---------------------------------------------------------------------------

uint32_t HandleConnectRequest(NodeEnv& env, ServerState& server,
                              const ctrl::wire::MsgHeader& header,
                              const uint8_t* msg, uint8_t* resp,
                              uint32_t resp_cap) {
  namespace cw = ctrl::wire;
  cw::ConnectRequest req;
  if (!cw::DecodeConnectRequest(header, msg, &req)) {
    return cw::EncodeReject(resp, resp_cap, header.nonce,
                            cw::RejectReason::kUnknown);
  }
  if (!server.started) {
    return cw::EncodeReject(resp, resp_cap, header.nonce,
                            cw::RejectReason::kServerNotStarted);
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
    return cw::EncodeReject(resp, resp_cap, header.nonce,
                            cw::RejectReason::kUnknownTenant);
  }
  const tenant::Admission verdict =
      reg.AdmitConnect(req.tenant_id, req.num_lanes);
  if (verdict.verdict == tenant::Admission::Verdict::kOverConnections) {
    return cw::EncodeReject(resp, resp_cap, header.nonce,
                            cw::RejectReason::kTenantOverConnections);
  }
  if (verdict.verdict == tenant::Admission::Verdict::kOverLanes) {
    return cw::EncodeReject(resp, resp_cap, header.nonce,
                            cw::RejectReason::kTenantOverLanes);
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
  // record exactly what teardown (or dead-sender reclamation) must release.
  sender.tenant_lanes_charged = granted_lanes;
  sender.tenant_charged = true;

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
    auto sl = BuildServerLane(env, server, i, req.client_node, sender_key,
                              req.ring_bytes, req.lanes[i],
                              i < initially_active, &accept.lanes[i]);
    sl->tenant_id = req.tenant_id;
    sender.lanes.push_back(sl.get());
    server
        .dispatcher_lanes[server.lanes.size() %
                          static_cast<size_t>(server.dispatcher_count)]
        .push_back(sl.get());
    server.lanes.push_back(std::move(sl));
  }
  // Provenance so the async client charges the right setup cost (qp_create
  // vs qp_reset) for the server-side bring-up it just caused.
  accept.fresh_qps =
      static_cast<uint32_t>(server.stats.qps_created - created_before);
  accept.recycled_qps =
      static_cast<uint32_t>(server.stats.qps_recycled - recycled_before);
  return cw::EncodeMessage(resp, resp_cap, cw::MsgType::kConnectAccept,
                           header.nonce, &accept,
                           cw::ConnectAcceptBytes(granted_lanes));
}

uint32_t HandleReconnectRequest(NodeEnv& env, ServerState& server,
                                const ctrl::wire::MsgHeader& header,
                                const uint8_t* msg, uint8_t* resp,
                                uint32_t resp_cap) {
  namespace cw = ctrl::wire;
  cw::ReconnectRequest req;
  if (!cw::DecodeReconnectRequest(header, msg, &req)) {
    return cw::EncodeReject(resp, resp_cap, header.nonce,
                            cw::RejectReason::kUnknown);
  }
  if (!server.started || req.conn_id >= server.senders.size()) {
    return cw::EncodeReject(resp, resp_cap, header.nonce,
                            cw::RejectReason::kBadConnId);
  }
  SenderState& sender = server.senders[req.conn_id];
  if (sender.client_node != req.client_node ||
      req.lane_index >= sender.lanes.size()) {
    return cw::EncodeReject(resp, resp_cap, header.nonce,
                            cw::RejectReason::kBadLane);
  }
  ServerLane& lane = *sender.lanes[req.lane_index];
  // The client-side rings survive a reconnect, so a genuine request
  // re-advertises exactly the addresses this lane was wired to. A mismatch is
  // a stale handle: its sender slot was torn down at Leave and reused by the
  // same node's next connect, and reviving it would hijack the new handle's
  // lane onto the old handle's QP.
  if (req.lane.resp_ring_addr != lane.remote_ring_addr ||
      req.lane.ctrl_slot_addr != lane.ctrl_slot_remote_addr) {
    return cw::EncodeReject(resp, resp_cap, header.nonce,
                            cw::RejectReason::kBadLane);
  }
  if (lane.in_service) {
    // Mid-dispatch: the client retries after backoff rather than having its
    // rings re-based under the dispatcher.
    return cw::EncodeReject(resp, resp_cap, header.nonce,
                            cw::RejectReason::kLaneBusy);
  }
  // The client is authoritative about its half being dead. If this side has
  // not noticed yet (no send completed in error), condemn it now so the
  // revival below starts from the quarantined state either way.
  if (!lane.failed) {
    QuarantineServerLane(lane, server.stats);
  }

  fabric::MemorySpace& smem = env.mem();
  const uint32_t ring_bytes = lane.resp_producer.size();

  // Fresh server QP wired to the client's fresh QP. The dead QP is abandoned
  // in place — qpns are never reused, so its late flushes are recognizably
  // stale (Completion::qpn) and ignored by the CQ pollers.
  verbs::Qp* fresh =
      env.device().CreateQp(verbs::QpType::kRc, env.send_cq, env.recv_cq);
  fresh->ConnectTo(req.client_node, req.lane.qpn);

  // Ring resync: both directions restart from sequence zero. The request ring
  // is zeroed (its canary-framed contents died with the old QP) and re-based;
  // the response producer restarts; the head slot is cleared to match the
  // client's fresh consumer. The client mirrors this before any sim event
  // runs (ControlPlane::Call is synchronous), so neither side can observe the
  // other half-resynced.
  std::memset(smem.At(lane.req_ring_addr), 0, ring_bytes);
  lane.req_consumer =
      std::make_unique<RingConsumer>(smem.At(lane.req_ring_addr), ring_bytes);
  lane.resp_producer = RingProducer(ring_bytes);
  const uint64_t zero = 0;
  smem.Write(lane.head_slot_addr, &zero, sizeof(zero));
  lane.qp = fresh;
  for (int r = 0; r < 16; ++r) {
    env.transport->PostRecv(
        *fresh, verbs::RecvWr{TagWrId(WrTag::kServerRecv, &lane), 0, 0});
  }

  lane.failed = false;
  lane.active = true;
  server.stats.activations += 1;
  lane.credits_outstanding = env.config->credits;
  lane.utilization = 0;
  lane.messages_at_last_sweep = lane.messages_handled;
  server.stats.lane_reconnects += 1;
  sender.dead = false;
  sender.functioning = true;
  // Shield the revived lane from dead-sender reclamation for two sweeps; it
  // has zero utilization by construction (the double-reclaim bug).
  sender.revive_grace = 2;
  sender.quiet_since = env.sim().Now();

  cw::ReconnectAccept accept;
  accept.lane_index = req.lane_index;
  accept.credits = env.config->credits;
  // The grant counter is cumulative and survives the reconnect; the client
  // resyncs grants_seen to it so the delta stream stays consistent.
  accept.grant_cumulative = lane.grant_cumulative;
  accept.lane.qpn = fresh->qpn();
  accept.lane.req_ring_addr = lane.req_ring_addr;
  accept.lane.req_ring_rkey = lane.req_ring_rkey;
  accept.lane.head_slot_addr = lane.head_slot_addr;
  accept.lane.head_slot_rkey = lane.head_slot_rkey;
  accept.lane.active = 1;
  accept.lane.credits = env.config->credits;
  return cw::EncodeMessage(resp, resp_cap, cw::MsgType::kReconnectAccept,
                           header.nonce, &accept, sizeof(accept));
}

uint32_t HandleAddLaneRequest(NodeEnv& env, ServerState& server,
                              const ctrl::wire::MsgHeader& header,
                              const uint8_t* msg, uint8_t* resp,
                              uint32_t resp_cap) {
  namespace cw = ctrl::wire;
  cw::AddLaneRequest req;
  if (!cw::DecodeAddLaneRequest(header, msg, &req)) {
    return cw::EncodeReject(resp, resp_cap, header.nonce,
                            cw::RejectReason::kUnknown);
  }
  if (!server.started || req.conn_id >= server.senders.size()) {
    return cw::EncodeReject(resp, resp_cap, header.nonce,
                            cw::RejectReason::kBadConnId);
  }
  SenderState& sender = server.senders[req.conn_id];
  if (sender.client_node != req.client_node ||
      req.lane_index != sender.lanes.size() ||
      req.lane_index >= cw::kMaxLanesPerMsg) {
    // Lane indexes must stay aligned across both sides; out-of-sequence adds
    // (e.g. a replayed or reordered request) are refused.
    return cw::EncodeReject(resp, resp_cap, header.nonce,
                            cw::RejectReason::kBadLane);
  }

  // Lane growth is charged against the same tenant ceiling as the connect
  // handshake, so a tenant cannot route around admission via AddLane.
  if (!ctrl::ControlPlane::For(*env.cluster).tenants().AdmitLane(
          sender.tenant_id)) {
    return cw::EncodeReject(resp, resp_cap, header.nonce,
                            cw::RejectReason::kTenantOverLanes);
  }
  sender.tenant_lanes_charged += 1;

  cw::AddLaneAccept accept;
  accept.lane_index = req.lane_index;
  const uint64_t recycled_before = server.stats.qps_recycled;
  auto sl = BuildServerLane(env, server, req.lane_index, req.client_node,
                            req.conn_id, req.ring_bytes, req.lane,
                            /*active=*/true, &accept.lane);
  sl->tenant_id = sender.tenant_id;
  accept.recycled = server.stats.qps_recycled != recycled_before ? 1 : 0;
  sender.lanes.push_back(sl.get());
  server
      .dispatcher_lanes[server.lanes.size() %
                        static_cast<size_t>(server.dispatcher_count)]
      .push_back(sl.get());
  server.lanes.push_back(std::move(sl));
  server.stats.lanes_added += 1;
  return cw::EncodeMessage(resp, resp_cap, cw::MsgType::kAddLaneAccept,
                           header.nonce, &accept, sizeof(accept));
}

void TearDownOneSender(NodeEnv& env, ServerState& server,
                       SenderState& sender) {
  for (ServerLane* lane : sender.lanes) {
    if (!lane->failed) {
      // Destroy the transport the way a real server tears down a departed
      // client's QPs: error it (flushing our posts) so the peer — should
      // the node come back before rejoining — sees kRemoteInvalidQp.
      env.device().ErrorQp(*lane->qp);
      QuarantineServerLane(*lane, server.stats);
    }
  }
  sender.dead = true;
  sender.functioning = false;
  sender.revive_grace = 0;
  server.stats.dead_senders += 1;
  // The departed client's tenant admission accounting is released here
  // exactly once — tenant_charged also guards the Redistribute dead-sender
  // reclamation path, so a sender reclaimed both ways releases once.
  if (sender.tenant_charged) {
    ctrl::ControlPlane::For(*env.cluster)
        .tenants()
        .ReleaseConnection(sender.tenant_id, sender.tenant_lanes_charged);
    sender.tenant_charged = false;
    sender.tenant_lanes_charged = 0;
  }

  // Harvest (DESIGN.md §13): strip each lane that is not mid-dispatch down
  // to its shell — reset QP, ring/slot addresses, rkeys — for the next
  // connect to reuse, and park the lane object in the graveyard. Graveyard
  // objects are never destroyed or reused: the CQEs just flushed (sends
  // plus ~16 posted receives per lane) still carry wr_id pointers to them,
  // and their qp == nullptr is what marks those completions stale. A lane
  // handed to an RPC worker (in_service) stays quarantined in place; its
  // slot-blocking is why the dead-sender scan above requires lanes.empty().
  std::vector<ServerLane*> kept;
  for (ServerLane* lane : sender.lanes) {
    if (lane->in_service) {
      kept.push_back(lane);
      continue;
    }
    env.device().ResetQp(*lane->qp);
    ServerLaneShell shell;
    shell.qp = lane->qp;
    shell.ring_bytes = lane->resp_producer.size();
    shell.req_ring_addr = lane->req_ring_addr;
    shell.head_slot_addr = lane->head_slot_addr;
    shell.ctrl_src_addr = lane->ctrl_src_addr;
    shell.staging_addr = lane->staging_addr;
    shell.req_ring_rkey = lane->req_ring_rkey;
    shell.head_slot_rkey = lane->head_slot_rkey;
    server.lane_pool.push_back(shell);
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
        server.lanes.erase(server.lanes.begin() +
                           static_cast<std::ptrdiff_t>(i));
        break;
      }
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

uint32_t HandleDisconnectRequest(NodeEnv& env, ServerState& server,
                                 const ctrl::wire::MsgHeader& header,
                                 const uint8_t* msg, uint8_t* resp,
                                 uint32_t resp_cap) {
  namespace cw = ctrl::wire;
  cw::DisconnectRequest req;
  if (!cw::DecodeDisconnectRequest(header, msg, &req)) {
    return cw::EncodeReject(resp, resp_cap, header.nonce,
                            cw::RejectReason::kUnknown);
  }
  if (!server.started || req.conn_id >= server.senders.size()) {
    return cw::EncodeReject(resp, resp_cap, header.nonce,
                            cw::RejectReason::kBadConnId);
  }
  SenderState& sender = server.senders[req.conn_id];
  if (sender.client_node != req.client_node) {
    return cw::EncodeReject(resp, resp_cap, header.nonce,
                            cw::RejectReason::kBadConnId);
  }
  cw::DisconnectAccept accept;
  accept.lanes_torn = static_cast<uint32_t>(sender.lanes.size());
  if (!sender.dead) {  // idempotent: a duplicate disconnect just re-acks
    TearDownOneSender(env, server, sender);
  }
  return cw::EncodeMessage(resp, resp_cap, cw::MsgType::kDisconnectAccept,
                           header.nonce, &accept, sizeof(accept));
}

// ---------------------------------------------------------------------------
// Client control-plane daemon: lane reconnection
// ---------------------------------------------------------------------------

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
      if (lane->failed) {
        victim = lane.get();
        break;
      }
    }
    if (victim == nullptr) {
      backoff = kReconnectBackoff;
      co_await conn.reconnect_cond->Wait();
      continue;
    }

    victim->reconnecting = true;
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
      victim->reconnecting = false;
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
      victim->reconnecting = false;
      co_return;
    }
    ctrl::wire::ReconnectRequest req;
    req.client_node = conn.env->node;
    req.conn_id = conn.conn_id;
    req.lane_index = victim->index;
    req.lane.qpn = fresh->qpn();
    // Rings and rkeys are unchanged — the server kept its copies from the
    // connect handshake. The addresses are re-advertised so the server can
    // tell this handle from a newer one that reused its sender slot.
    req.lane.resp_ring_addr = victim->resp_ring_addr;
    req.lane.ctrl_slot_addr = victim->ctrl_slot_addr;

    uint8_t msg[ctrl::wire::kMaxMessageBytes];
    uint8_t resp[ctrl::wire::kMaxMessageBytes];
    const uint32_t msg_len = ctrl::wire::EncodeMessage(
        msg, sizeof(msg), ctrl::wire::MsgType::kReconnectRequest,
        cp.NextNonce(), &req, sizeof(req));
    const uint32_t resp_len =
        cp.Call(conn.server_node, msg, msg_len, resp, sizeof(resp));

    ctrl::wire::MsgHeader resp_header;
    ctrl::wire::ReconnectAccept accept;
    if (resp_len == 0 ||
        !ctrl::wire::DecodeHeader(resp, resp_len, &resp_header) ||
        !ctrl::wire::DecodeReconnectAccept(resp_header, resp, &accept)) {
      victim->reconnecting = false;
      // The server no longer knows this handle (its slot was torn down, or
      // names another handle now): no retry can succeed, so stop for good.
      ctrl::wire::Reject rej;
      if (resp_len != 0 &&
          ctrl::wire::DecodeHeader(resp, resp_len, &resp_header) &&
          ctrl::wire::DecodeReject(resp_header, resp, &rej) &&
          (rej.reason ==
               static_cast<uint32_t>(ctrl::wire::RejectReason::kBadConnId) ||
           rej.reason ==
               static_cast<uint32_t>(ctrl::wire::RejectReason::kBadLane))) {
        co_return;
      }
      // Otherwise (busy, membership, malformed) retry after backoff. The
      // orphaned QP is abandoned; QPs are simulation-cheap and never reused.
      backoff = std::min<Nanos>(backoff * 2, kReconnectBackoff * 256);
      continue;
    }

    // Client-side resync, mirroring the server's handler before any sim
    // event can run: fresh response ring/consumer, request sequence state
    // from zero, credits and cumulative-grant resync from the accept.
    fabric::MemorySpace& cmem = conn.env->mem();
    const uint32_t ring_bytes = victim->req_producer.size();
    std::memset(cmem.At(victim->resp_ring_addr), 0, ring_bytes);
    victim->resp_consumer = std::make_unique<RingConsumer>(
        cmem.At(victim->resp_ring_addr), ring_bytes);
    victim->req_producer = RingProducer(ring_bytes);
    victim->qp = fresh;
    victim->failed = false;
    victim->renew_in_flight = false;
    victim->resp_bytes_since_send = 0;
    WireClientLane(*conn.env, *victim, conn.server_node, accept.lane,
                   accept.grant_cumulative);
    victim->reconnecting = false;
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

// ---------------------------------------------------------------------------
// Connection-storm path: deferred handshake, lazy lanes, close (DESIGN.md §13)
// ---------------------------------------------------------------------------

namespace {

// Strips an unreferenced client lane to its shell — ResetQp'd QP, ring/slot
// addresses, rkeys — and pools it for the next BuildClientLane. The lane
// object lives on with qp == nullptr, which marks its late CQEs stale.
void PoolClientShell(NodeEnv& env, ClientState& client, ClientLane& lane) {
  env.device().ResetQp(*lane.qp);
  client.lane_pool.push_back(
      ClientLaneShell{.qp = lane.qp,
                      .ring_bytes = lane.req_producer.size(),
                      .staging_addr = lane.staging_addr,
                      .head_src_addr = lane.head_src_addr,
                      .ctrl_slot_addr = lane.ctrl_slot_addr,
                      .resp_ring_addr = lane.resp_ring_addr,
                      .resp_ring_rkey = lane.resp_ring_rkey,
                      .ctrl_slot_rkey = lane.ctrl_slot_rkey});
  lane.qp = nullptr;
}

}  // namespace

bool ConnectHandshake(ClientConnState& conn, Nanos* server_bringup,
                      ctrl::wire::RejectReason* reject_reason) {
  NodeEnv& env = *conn.env;
  ctrl::ControlPlane& cp = ctrl::ControlPlane::For(*env.cluster);
  const uint32_t num_lanes = static_cast<uint32_t>(conn.lanes.size());

  ctrl::wire::ConnectRequest req;
  req.client_node = env.node;
  req.num_lanes = num_lanes;
  req.ring_bytes = env.config->ring_bytes;
  req.tenant_id = conn.tenant_id;
  for (uint32_t i = 0; i < num_lanes; ++i) {
    const ClientLane& lane = *conn.lanes[i];
    req.lanes[i].qpn = lane.qp->qpn();
    req.lanes[i].resp_ring_addr = lane.resp_ring_addr;
    req.lanes[i].resp_ring_rkey = lane.resp_ring_rkey;
    req.lanes[i].ctrl_slot_addr = lane.ctrl_slot_addr;
    req.lanes[i].ctrl_slot_rkey = lane.ctrl_slot_rkey;
  }

  uint8_t msg[ctrl::wire::kMaxMessageBytes];
  uint8_t resp[ctrl::wire::kMaxMessageBytes];
  const uint32_t msg_len = ctrl::wire::EncodeMessage(
      msg, sizeof(msg), ctrl::wire::MsgType::kConnectRequest, cp.NextNonce(),
      &req, ctrl::wire::ConnectRequestBytes(num_lanes));
  const uint32_t resp_len =
      cp.Call(conn.server_node, msg, msg_len, resp, sizeof(resp));

  ctrl::wire::MsgHeader resp_header;
  ctrl::wire::ConnectAccept accept;
  if (resp_len == 0 ||
      !ctrl::wire::DecodeHeader(resp, resp_len, &resp_header) ||
      !ctrl::wire::DecodeConnectAccept(resp_header, resp, &accept) ||
      accept.num_lanes == 0 || accept.num_lanes > num_lanes) {
    // Surface the server's reject reason (if the response decodes as one) so
    // callers can tell a tenant admission reject from a hard failure.
    *reject_reason = ctrl::wire::RejectReason::kUnknown;
    ctrl::wire::Reject rej;
    if (resp_len != 0 &&
        ctrl::wire::DecodeHeader(resp, resp_len, &resp_header) &&
        ctrl::wire::DecodeReject(resp_header, resp, &rej)) {
      *reject_reason = static_cast<ctrl::wire::RejectReason>(rej.reason);
    }
    return false;
  }
  conn.conn_id = accept.conn_id;
  conn.leaves_at_handshake = conn.client->leaves;
  if (accept.num_lanes < num_lanes) {
    // Degraded accept (tenant near its lane ceiling): drop the surplus client
    // halves. They were never wired — no peer, no posted receives, nothing in
    // flight — so their shells go straight back to the pool.
    for (uint32_t i = accept.num_lanes; i < num_lanes; ++i) {
      PoolClientShell(env, *conn.client, *conn.lanes[i]);
    }
    conn.lanes.resize(accept.num_lanes);
    conn.target_lanes = accept.num_lanes;
  }
  for (uint32_t i = 0; i < accept.num_lanes; ++i) {
    WireClientLane(env, *conn.lanes[i], conn.server_node, accept.lanes[i],
                   /*grant_cumulative=*/0);
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
    ctrl::wire::AddLaneRequest req;
    req.client_node = env.node;
    req.conn_id = conn.conn_id;
    req.lane_index = index;
    req.ring_bytes = env.config->ring_bytes;
    const uint64_t created_before = conn.client->stats.qps_created;
    auto lane = BuildClientLane(env, conn, index, &req.lane);
    co_await sim::Delay(sim, conn.client->stats.qps_created != created_before
                                 ? cost.qp_create
                                 : cost.qp_reset);

    uint8_t msg[ctrl::wire::kMaxMessageBytes];
    uint8_t resp[ctrl::wire::kMaxMessageBytes];
    const uint32_t msg_len = ctrl::wire::EncodeMessage(
        msg, sizeof(msg), ctrl::wire::MsgType::kAddLaneRequest, cp.NextNonce(),
        &req, sizeof(req));
    co_await sim::Delay(sim, kCtrlRtt);
    if (conn.closed || conn.departed()) {
      break;  // ended under the delays: the unwired client half is abandoned
    }
    const uint32_t resp_len =
        cp.Call(conn.server_node, msg, msg_len, resp, sizeof(resp));
    ctrl::wire::MsgHeader resp_header;
    ctrl::wire::AddLaneAccept accept;
    if (resp_len == 0 ||
        !ctrl::wire::DecodeHeader(resp, resp_len, &resp_header) ||
        !ctrl::wire::DecodeAddLaneAccept(resp_header, resp, &accept)) {
      // Refused (e.g. the tenant's lane ceiling): the handle keeps serving on
      // the lanes it has and stops asking. The unwired client half goes back
      // to the pool, like a degraded accept's surplus.
      PoolClientShell(env, *conn.client, *lane);
      conn.target_lanes = static_cast<uint32_t>(conn.lanes.size());
      break;
    }
    co_await sim::Delay(sim,
                        accept.recycled != 0 ? cost.qp_reset : cost.qp_create);
    if (conn.closed) {
      break;  // closed under the handshake: the wired lane is abandoned
    }
    // Runs in the calling thread's event, which may belong to another node:
    // the response dispatchers are about to see one more lane.
    env.sim().TouchNode(env.node);
    WireClientLane(env, *lane, conn.server_node, accept.lane,
                   /*grant_cumulative=*/0);
    conn.lanes.push_back(std::move(lane));
    conn.client->stats.lanes_added += 1;
  }

  conn.setup_in_progress = false;
  conn.setup_cond->NotifyAll();
}

void CloseClientConn(ClientConnState& conn) {
  NodeEnv& env = *conn.env;
  conn.closed = true;

  for (auto& lane_ptr : conn.lanes) {
    ClientLane& lane = *lane_ptr;
    lane.retired = true;
    lane.active = false;
    lane.credits = 0;
    // Harvestable only when nothing still references the transport half: no
    // pump mid-batch, no dispatcher mid-probe, nothing combined or in flight.
    // (Callers quiesce their threads before closing; a non-quiescent lane is
    // abandoned in place exactly like a quarantined one.)
    const bool quiescent = !lane.pump_running && !lane.mem_pump_running &&
                           !lane.in_dispatch && lane.inflight == 0 &&
                           lane.combine_head == nullptr &&
                           lane.memop_head == nullptr && !lane.failed &&
                           lane.qp != nullptr;
    if (quiescent) {
      PoolClientShell(env, *conn.client, lane);
    } else if (lane.qp != nullptr && !lane.failed) {
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

  if (conn.setup_cond != nullptr) {
    conn.setup_cond->NotifyAll();
  }
  conn.reconnect_cond->NotifyAll();
}

}  // namespace internal
}  // namespace flock
