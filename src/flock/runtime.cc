// Orchestration only: construction, role startup (proc spawning), the
// connect handshake's client half, and thin Connection forwarders into the
// mechanism modules (combine, sched, watchdog, dispatch, lane).
#include "src/flock/runtime.h"

#include <algorithm>
#include <utility>

#include "src/flock/combine.h"
#include "src/flock/dispatch.h"
#include "src/flock/segment.h"

namespace flock {

using internal::ClientLane;
using internal::WrTag;

// ---------------------------------------------------------------------------
// FlockRuntime: construction and roles
// ---------------------------------------------------------------------------

FlockRuntime::FlockRuntime(verbs::Cluster& cluster, int node, const FlockConfig& config)
    : cluster_(cluster), node_(node), config_(config) {
  FLOCK_CHECK_GT(config_.rpc_timeout, 0)
      << "rpc_timeout must be positive: every RPC needs a retry deadline";
  if (config_.segment_threshold > 0) {
    // Segmentation constraints (DESIGN.md §16): the 24-bit ctrl-slot head
    // report must disambiguate ring positions, and one full chunk message
    // (hence any inline payload at or below the threshold) must satisfy the
    // ring's len <= size/2 reservation bound.
    FLOCK_CHECK_LT(config_.ring_bytes, 1u << 24)
        << "segment_threshold requires ring_bytes < 2^24 (ctrl-slot head "
           "reports are 24-bit truncated cumulatives)";
    FLOCK_CHECK_LE(
        wire::MessageBytes64(1, internal::SegmentChunkBytes(config_)),
        uint64_t{config_.ring_bytes} / 2)
        << "segment_threshold too large for ring_bytes";
  } else {
    // Without chunking, every payload must fit a single ring reservation.
    FLOCK_CHECK_LE(wire::MessageBytes64(1, config_.max_payload),
                   uint64_t{config_.ring_bytes} / 2)
        << "max_payload needs segmentation (set segment_threshold) or a "
           "bigger ring";
  }
  send_cq_ = cluster_.device(node_).CreateCq();
  recv_cq_ = cluster_.device(node_).CreateCq();
  rng_state_ ^= 0x1234567ull * static_cast<uint64_t>(node + 1);
  env_.cluster = &cluster_;
  env_.node = node_;
  env_.config = &config_;
  env_.send_cq = send_cq_;
  env_.recv_cq = recv_cq_;
  env_.rng_state = &rng_state_;
  // Every runtime answers on the cluster's control plane (DESIGN.md §10):
  // servers accept connect/reconnect handshakes there, and registration makes
  // the node addressable before StartServer decides its role. Co-located
  // runtimes (bench "processes" sharing a node) all register: the first
  // answers the node's control traffic, and when it is destroyed the control
  // plane promotes the next survivor. The old "register only if vacant"
  // scheme left the node dark after its first runtime died even though
  // others were still serving on it (the endpoint hand-off bug).
  ctrl::ControlPlane& cp = ctrl::ControlPlane::For(cluster_);
  cp.RegisterEndpoint(node_, this);
  // Client half of the membership feed: this node's Leave ends every handle
  // handshaken before it (ClientConnState::departed), so they stop sending
  // per-handle control messages. Like the server half, a plain callback: no
  // procs, no events.
  client_listener_id_ =
      cp.AddMembershipListener([this](int changed_node, bool joined) {
        if (!joined && changed_node == node_) {
          client_.leaves += 1;
        }
      });
}

FlockRuntime::~FlockRuntime() {
  ctrl::ControlPlane& cp = ctrl::ControlPlane::For(cluster_);
  cp.DeregisterEndpoint(node_, this);
  cp.RemoveMembershipListener(client_listener_id_);
  if (membership_listener_id_ != 0) {
    cp.RemoveMembershipListener(membership_listener_id_);
  }
  if (batch_end_listener_id_ != 0) {
    cp.RemoveBatchEndListener(batch_end_listener_id_);
  }
}

void FlockRuntime::RegisterHandler(uint16_t rpc_id, RpcHandler handler) {
  FLOCK_CHECK(server_.FindHandler(rpc_id) == nullptr)
      << "duplicate handler for rpc " << rpc_id;
  server_.handlers.emplace_back(rpc_id, std::move(handler));
}

void FlockRuntime::StartServer(int dispatcher_cores) {
  FLOCK_CHECK(!server_.started);
  FLOCK_CHECK_GT(dispatcher_cores, 0);
  server_.started = true;
  if (config_.segment_threshold > 0) {
    server_.reassembly.Init(internal::kReassemblyEntries, config_.max_payload);
  }
  server_.dispatcher_count = dispatcher_cores;
  server_.dispatcher_lanes.resize(static_cast<size_t>(dispatcher_cores));
  server_.work_ready = std::make_unique<sim::Condition>(cluster_.sim());
  for (int i = 0; i < dispatcher_cores; ++i) {
    cluster_.sim().Spawn(internal::RequestDispatcher(env_, server_, i), node_);
  }
  // §4.3: optionally, an application-managed pool of RPC workers executes the
  // handlers; the dispatchers then only detect and route messages.
  for (int i = 0; i < config_.server_workers; ++i) {
    cluster_.sim().Spawn(internal::RpcWorker(env_, server_, i), node_);
  }
  cluster_.sim().Spawn(receiver_.Run(env_, server_), node_);
  // Membership feed (§5.1 meets §10): a client node leaving tears its senders
  // down and repartitions the AQP budget right away instead of waiting for
  // dead-sender reclamation to notice. Registration is a plain callback —
  // no proc, no events — so fault-free traces are unchanged.
  ctrl::ControlPlane& cp = ctrl::ControlPlane::For(cluster_);
  membership_listener_id_ = cp.AddMembershipListener(
      [this](int changed_node, bool joined) {
        if (!joined && changed_node != node_ &&
            internal::TearDownSenders(env_, server_, changed_node)) {
          // Inside a batched epoch window (DESIGN.md §13) the repartition is
          // deferred: N coalesced leaves cost one Redistribute, not N.
          if (ctrl::ControlPlane::For(cluster_).InEpochBatch()) {
            redistribute_pending_ = true;
          } else {
            receiver_.Redistribute(env_, server_);
          }
        }
      });
  batch_end_listener_id_ = cp.AddBatchEndListener([this]() {
    if (redistribute_pending_) {
      redistribute_pending_ = false;
      cluster_.sim().TouchNode(node_);
      receiver_.Redistribute(env_, server_);
    }
  });
}

void FlockRuntime::StartClient() {
  FLOCK_CHECK(!client_.started);
  client_.started = true;
  for (int i = 0; i < config_.response_dispatchers; ++i) {
    cluster_.sim().Spawn(
        internal::ResponseDispatcher(env_, client_, server_.stats, i), node_);
  }
  cluster_.sim().Spawn(sender_sched_.Run(env_, client_), node_);
  cluster_.sim().Spawn(watchdog_.Run(env_, client_), node_);
}

FlockThread* FlockRuntime::CreateThread(int core) {
  const uint16_t id = static_cast<uint16_t>(client_.threads.size());
  client_.threads.push_back(std::make_unique<FlockThread>(
      node_, id, &cluster_.cpu(node_).core(core), SplitMix64(rng_state_)));
  client_.threads.back()->atomic_slot = cluster_.mem(node_).Alloc(8, 8);
  return client_.threads.back().get();
}

uint32_t FlockRuntime::ActiveServerLanes() const {
  uint32_t n = 0;
  for (const auto& lane : server_.lanes) {
    n += lane->state == internal::ServerLaneState::kActive ? 1 : 0;
  }
  return n;
}

double FlockRuntime::MeanServerCoalescing() const {
  uint64_t msgs = 0, reqs = 0;
  for (const auto& lane : server_.lanes) {
    msgs += lane->messages_handled;
    reqs += lane->requests_handled;
  }
  return msgs == 0 ? 0.0 : static_cast<double>(reqs) / static_cast<double>(msgs);
}

// ---------------------------------------------------------------------------
// fl_connect: client half of the handshake (the server half is in lane.cc)
// ---------------------------------------------------------------------------

Connection* FlockRuntime::Connect(FlockRuntime& server, uint32_t lanes,
                                  tenant::TenantId tenant) {
  FLOCK_CHECK(server.server_.started)
      << "call StartServer() on the remote node before fl_connect";
  return Connect(server.node_, lanes, tenant);
}

Connection* FlockRuntime::Connect(int server_node, uint32_t lanes,
                                  tenant::TenantId tenant) {
  // Setup phase: every lane up front, and no simulated time. The control
  // plane is synchronous and event-free, so the data-path trace of a
  // fault-free run is byte-identical to a statically wired setup.
  Nanos bringup = 0;
  return AdmitHandle(OpenHandle(server_node, lanes, lanes, tenant, &bringup),
                     &bringup);
}

sim::Co<Connection*> FlockRuntime::ConnectAsync(int server_node,
                                                uint32_t lanes,
                                                tenant::TenantId tenant) {
  // Runtime phase: only lane 0 now; EnsureLaneSetup builds the rest on first
  // use. The client's QP bring-up and one control-plane round trip come
  // before the handshake, the server's bring-up after it.
  Nanos bringup = 0;
  auto conn = OpenHandle(server_node, lanes, /*eager=*/1, tenant, &bringup);
  co_await sim::Delay(cluster_.sim(), bringup + internal::kCtrlRtt);
  Connection* handle = AdmitHandle(std::move(conn), &bringup);
  if (handle != nullptr) {
    co_await sim::Delay(cluster_.sim(), bringup);
  }
  co_return handle;
}

std::unique_ptr<Connection> FlockRuntime::OpenHandle(int server_node,
                                                     uint32_t lanes,
                                                     uint32_t eager,
                                                     tenant::TenantId tenant,
                                                     Nanos* bringup) {
  // The handshake advertises every lane in one message.
  lanes = std::min(lanes, ctrl::wire::kMaxLanesPerMsg);
  FLOCK_CHECK_GT(lanes, 0u);
  auto conn = std::make_unique<Connection>();
  internal::ClientConnState& st = conn->state_;
  st.env = &env_;
  st.client = &client_;
  st.server_node = server_node;
  st.target_lanes = lanes;
  st.tenant_id = tenant;
  st.reconnect_cond = std::make_unique<sim::Condition>(cluster_.sim());
  st.setup_cond = std::make_unique<sim::Condition>(cluster_.sim());

  // Client halves first: QPs, rings, MRs — their coordinates travel in the
  // connect request. Bring-up is priced by provenance: pooled resources are a
  // cheap ResetQp transition, a fresh QP the full create.
  const uint64_t created_before = client_.stats.qps_created;
  const uint64_t recycled_before = client_.stats.qps_recycled;
  for (uint32_t i = 0; i < std::min(eager, lanes); ++i) {
    st.lanes.push_back(internal::BuildClientLane(st, i));
  }
  *bringup =
      (client_.stats.qps_created - created_before) * cluster_.cost().qp_create +
      (client_.stats.qps_recycled - recycled_before) * cluster_.cost().qp_reset;
  return conn;
}

Connection* FlockRuntime::AdmitHandle(std::unique_ptr<Connection> conn,
                                      Nanos* bringup) {
  internal::ClientConnState& st = conn->state_;
  ctrl::wire::RejectReason reason = ctrl::wire::RejectReason::kUnknown;
  if (!internal::ConnectHandshake(st, bringup, &reason)) {
    // Tenant admission control refusing a handle is a legitimate outcome
    // surfaced as nullptr; any other reject is a hard failure. The unwired
    // lanes have posted nothing, so closing (which releases them) and
    // destroying them is safe.
    FLOCK_CHECK(ctrl::wire::IsAdmissionReject(reason))
        << "fl_connect: node " << st.server_node
        << " rejected the handshake (is StartServer running there?)";
    internal::CloseClientConn(st);
    return nullptr;
  }
  cluster_.sim().Spawn(internal::ReconnectDaemon(st), node_);
  connections_.push_back(std::move(conn));
  // The caller's event may belong to another node: the response dispatchers
  // of this one are about to see a new connection (DESIGN.md §7).
  cluster_.sim().TouchNode(node_);
  client_.conns.push_back(&connections_.back()->state_);
  return connections_.back().get();
}

void FlockRuntime::CloseConnection(Connection* conn) {
  internal::ClientConnState& st = conn->state_;
  if (st.closed) {
    return;
  }
  // Orderly disconnect (DESIGN.md §15): the server reclaims the sender slot
  // and the tenant's admission accounting now, not whenever dead-sender
  // detection happens to notice the departed QPs.
  internal::SendDisconnect(st);
  cluster_.sim().TouchNode(node_);  // see AdmitHandle
  internal::CloseClientConn(st);
  // Detach from the client procs' iteration set. The handle itself stays in
  // connections_: stale CQEs and parked coroutines may still hold pointers
  // into its lanes, which are never destroyed (only their resources recycle).
  for (size_t i = 0; i < client_.conns.size(); ++i) {
    if (client_.conns[i] == &st) {
      client_.conns.erase(client_.conns.begin() +
                          static_cast<std::ptrdiff_t>(i));
      break;
    }
  }
}

// ---------------------------------------------------------------------------
// Connection: thin facade over the mechanism modules
// ---------------------------------------------------------------------------

uint32_t Connection::num_active_lanes() const {
  uint32_t n = 0;
  for (const auto& lane : state_.lanes) {
    n += lane->state == internal::ClientLaneState::kActive ? 1 : 0;
  }
  return n;
}

uint32_t Connection::num_failed_lanes() const {
  uint32_t n = 0;
  for (const auto& lane : state_.lanes) {
    n += lane->quarantined() ? 1 : 0;
  }
  return n;
}

uint64_t Connection::messages_sent() const {
  uint64_t n = 0;
  for (const auto& lane : state_.lanes) {
    n += lane->messages_sent;
  }
  return n;
}

uint64_t Connection::requests_sent() const {
  uint64_t n = 0;
  for (const auto& lane : state_.lanes) {
    n += lane->requests_sent;
  }
  return n;
}

void Connection::BatchHistogram(uint64_t out[33]) const {
  for (const auto& lane : state_.lanes) {
    for (int i = 0; i < 33; ++i) {
      out[i] += lane->batch_histogram[i];
    }
  }
}

double Connection::MeanCoalescing() const {
  const uint64_t msgs = messages_sent();
  return msgs == 0 ? 0.0
                   : static_cast<double>(requests_sent()) / static_cast<double>(msgs);
}

Connection::LaneStates Connection::CountLaneStates() const {
  LaneStates s;
  for (const auto& lane : state_.lanes) {
    if (state_.closed) {
      s.retired += 1;
    } else if (lane->state == internal::ClientLaneState::kReconnecting) {
      s.reconnecting += 1;
    } else if (lane->state == internal::ClientLaneState::kFailed) {
      s.quarantined += 1;
    } else {
      s.healthy += 1;
    }
  }
  return s;
}

uint64_t Connection::lane_reconnects() const {
  uint64_t n = 0;
  for (const auto& lane : state_.lanes) {
    n += lane->reconnects;
  }
  return n;
}

sim::Co<PendingRpc*> Connection::SendRpc(FlockThread& thread, uint16_t rpc_id,
                                         const uint8_t* data, uint32_t len) {
  // Plain forwarder: Co is lazily started, so this adds no coroutine frame
  // (and no trace-visible event) over calling StageRpc directly.
  return internal::StageRpc(state_, thread, rpc_id, PayloadRef(data, len));
}

sim::Co<PendingRpc*> Connection::SendRpc(FlockThread& thread, uint16_t rpc_id,
                                         const PayloadRef& payload,
                                         uint8_t* response_dst,
                                         uint32_t response_cap) {
  return internal::StageRpc(state_, thread, rpc_id, payload, response_dst,
                            response_cap);
}

sim::Co<bool> Connection::AwaitResponse(FlockThread& thread, PendingRpc* rpc) {
  co_await rpc->done_event.Wait();
  FLOCK_CHECK(rpc->done());
  co_await thread.core().Work(state_.env->cost().cpu_cqe_handle);
  co_return rpc->ok;
}

void Connection::FreeRpc(PendingRpc* rpc) {
  internal::ClientState& client = *state_.client;
  if (rpc->request.heap_capacity() > 0) {
    client.request_bufs.Recycle(std::move(rpc->request));
  }
  client.rpc_pool.Delete(rpc);
}

sim::Co<bool> Connection::Call(FlockThread& thread, uint16_t rpc_id,
                               const uint8_t* data, uint32_t len,
                               std::vector<uint8_t>* response) {
  PendingRpc* rpc = co_await SendRpc(thread, rpc_id, data, len);
  const bool ok = co_await AwaitResponse(thread, rpc);
  if (ok && response != nullptr) {
    rpc->response.CopyTo(response);
  }
  FreeRpc(rpc);
  co_return ok;
}

sim::Co<bool> Connection::Call(FlockThread& thread, uint16_t rpc_id,
                               const PayloadRef& request, uint8_t* response_dst,
                               uint32_t response_cap, uint32_t* response_len) {
  PendingRpc* rpc =
      co_await SendRpc(thread, rpc_id, request, response_dst, response_cap);
  const bool ok = co_await AwaitResponse(thread, rpc);
  if (response_len != nullptr) {
    *response_len = ok ? rpc->response_len : 0;
  }
  FreeRpc(rpc);
  co_return ok;
}

// ---------------------------------------------------------------------------
// Connection: one-sided memory and atomic operations (§6)
// ---------------------------------------------------------------------------

RemoteMr Connection::AttachMreg(uint64_t remote_addr, uint64_t length) {
  verbs::Mr mr =
      state_.env->cluster->device(state_.server_node).RegisterMr(remote_addr, length);
  return RemoteMr{remote_addr, length, mr.rkey};
}

sim::Co<verbs::WcStatus> Connection::Read(FlockThread& thread, uint64_t local_addr,
                                          uint64_t remote_addr, uint32_t length,
                                          const RemoteMr& mr) {
  verbs::SendWr wr;
  wr.opcode = verbs::Opcode::kRead;
  wr.local_addr = local_addr;
  wr.length = length;
  wr.remote_addr = remote_addr;
  wr.rkey = mr.rkey;
  return internal::SubmitMemOp(state_, thread, wr);
}

sim::Co<verbs::WcStatus> Connection::Write(FlockThread& thread, uint64_t local_addr,
                                           uint64_t remote_addr, uint32_t length,
                                           const RemoteMr& mr) {
  verbs::SendWr wr;
  wr.opcode = verbs::Opcode::kWrite;
  wr.local_addr = local_addr;
  wr.length = length;
  wr.remote_addr = remote_addr;
  wr.rkey = mr.rkey;
  return internal::SubmitMemOp(state_, thread, wr);
}

sim::Co<verbs::WcStatus> Connection::FetchAndAdd(FlockThread& thread,
                                                 uint64_t remote_addr, uint64_t add,
                                                 uint64_t* old_value,
                                                 const RemoteMr& mr,
                                                 uint64_t result_addr) {
  const uint64_t slot = result_addr != 0 ? result_addr : thread.atomic_slot;
  verbs::SendWr wr;
  wr.opcode = verbs::Opcode::kFetchAdd;
  wr.local_addr = slot;
  wr.length = 8;
  wr.remote_addr = remote_addr;
  wr.rkey = mr.rkey;
  wr.swap_or_add = add;
  const verbs::WcStatus status = co_await internal::SubmitMemOp(state_, thread, wr);
  if (status == verbs::WcStatus::kSuccess && old_value != nullptr) {
    state_.env->mem().Read(slot, old_value, 8);
  }
  co_return status;
}

sim::Co<verbs::WcStatus> Connection::CompareAndSwap(FlockThread& thread,
                                                    uint64_t remote_addr,
                                                    uint64_t expected,
                                                    uint64_t desired,
                                                    uint64_t* old_value,
                                                    const RemoteMr& mr,
                                                    uint64_t result_addr) {
  const uint64_t slot = result_addr != 0 ? result_addr : thread.atomic_slot;
  verbs::SendWr wr;
  wr.opcode = verbs::Opcode::kCmpSwap;
  wr.local_addr = slot;
  wr.length = 8;
  wr.remote_addr = remote_addr;
  wr.rkey = mr.rkey;
  wr.compare = expected;
  wr.swap_or_add = desired;
  const verbs::WcStatus status = co_await internal::SubmitMemOp(state_, thread, wr);
  if (status == verbs::WcStatus::kSuccess && old_value != nullptr) {
    state_.env->mem().Read(slot, old_value, 8);
  }
  co_return status;
}

// ---------------------------------------------------------------------------
// Control plane entry point (handlers live in lane.cc)
// ---------------------------------------------------------------------------

uint32_t FlockRuntime::OnCtrlMessage(const uint8_t* msg, uint32_t len,
                                     uint8_t* resp, uint32_t resp_cap) {
  return internal::HandleCtrlMessage(env_, server_, msg, len, resp, resp_cap);
}

}  // namespace flock
