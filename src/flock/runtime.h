// The Flock runtime: connection handles, zero-copy coalesced RPC, symbiotic
// send-recv scheduling, and one-sided memory/atomic operations (§3–§7).
//
// One FlockRuntime exists per simulated node and can play the client role
// (Connect + SendRpc/Read/Write/atomics), the server role (RegisterHandler +
// StartServer), or both.
//
// This header is the public API and orchestration layer only. The mechanisms
// live in per-module headers beneath it (DESIGN.md §11): lane lifecycle in
// lane.h, thread combining in combine.h, credit/thread scheduling in sched/,
// retransmission in watchdog.h, request/response dispatch in dispatch.h, all
// over the verbs layer.
//
// Table 2 mapping:
//   fl_connect        → FlockRuntime::Connect
//   fl_attach_mreg    → Connection::AttachMreg
//   fl_send_rpc       → Connection::SendRpc (async) / Call (send + await)
//   fl_recv_res       → Connection::AwaitResponse
//   fl_reg_handler    → FlockRuntime::RegisterHandler
//   fl_recv_rpc       → server request dispatchers (StartServer)
//   fl_send_res       → server request dispatchers (automatic response)
//   fl_read           → Connection::Read
//   fl_write          → Connection::Write
//   fl_fetch_and_add  → Connection::FetchAndAdd
//   fl_cmp_and_swap   → Connection::CompareAndSwap
#ifndef FLOCK_FLOCK_RUNTIME_H_
#define FLOCK_FLOCK_RUNTIME_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/pool.h"
#include "src/common/units.h"
#include "src/ctrl/control_plane.h"
#include "src/flock/config.h"
#include "src/flock/lane.h"
#include "src/flock/sched/receiver.h"
#include "src/flock/sched/sender.h"
#include "src/flock/thread.h"
#include "src/flock/transport.h"
#include "src/flock/watchdog.h"
#include "src/verbs/device.h"

namespace flock {

class FlockRuntime;

// A connection handle: one per (client node, server node) pair, multiplexing
// this node's threads over an internally managed set of RC QPs. The handle is
// a thin facade over internal::ClientConnState; the mechanism modules
// (combine, sched, watchdog, dispatch, lane) do the actual work.
class Connection {
 public:
  // fl_send_rpc: stages the request into the assigned lane's combining queue
  // (one atomic swap on the calling thread's core; the payload is gathered
  // zero-copy from the caller's memory when the message is sealed) and
  // returns an awaitable handle. Does not wait for the network.
  sim::Co<PendingRpc*> SendRpc(FlockThread& thread, uint16_t rpc_id,
                               const uint8_t* data, uint32_t len);

  // Scatter-gather form (DESIGN.md §16): the request is a PayloadRef over
  // caller-owned slices (valid until SendRpc's Co completes). When
  // `response_dst` is non-null the response lands directly in it instead of
  // the handle's inline buffer — required for MB-range responses to stay
  // allocation-free — and its length goes to rpc->response_len. A response
  // longer than `response_cap` fails the RPC: it lands clamped to the
  // buffer and AwaitResponse returns false.
  sim::Co<PendingRpc*> SendRpc(FlockThread& thread, uint16_t rpc_id,
                               const PayloadRef& payload,
                               uint8_t* response_dst = nullptr,
                               uint32_t response_cap = 0);

  // fl_recv_res: awaits and consumes the response for `rpc`. Returns false if
  // the RPC failed. The response payload is in rpc->response (or the
  // response_dst passed to SendRpc); the caller must release `rpc` with
  // FreeRpc (the Call conveniences below do both steps).
  sim::Co<bool> AwaitResponse(FlockThread& thread, PendingRpc* rpc);

  // Returns an RPC handle obtained from SendRpc to the runtime's pool.
  void FreeRpc(PendingRpc* rpc);

  // fl_send_rpc + fl_recv_res in one step.
  sim::Co<bool> Call(FlockThread& thread, uint16_t rpc_id, const uint8_t* data,
                     uint32_t len, std::vector<uint8_t>* response);

  // Scatter-gather Call (DESIGN.md §16): request slices from caller memory,
  // response into a caller buffer. `*response_len` (if non-null) receives
  // the response size, or 0 if the call failed. A response longer than
  // `response_cap` fails the call (counted in failed_rpcs).
  sim::Co<bool> Call(FlockThread& thread, uint16_t rpc_id,
                     const PayloadRef& request, uint8_t* response_dst,
                     uint32_t response_cap, uint32_t* response_len);

  // fl_attach_mreg: registers [addr, addr+len) of the *server's* memory for
  // one-sided access through this connection.
  RemoteMr AttachMreg(uint64_t remote_addr, uint64_t length);

  // One-sided operations (§6). All complete when the hardware acknowledges.
  sim::Co<verbs::WcStatus> Read(FlockThread& thread, uint64_t local_addr,
                                uint64_t remote_addr, uint32_t length,
                                const RemoteMr& mr);
  sim::Co<verbs::WcStatus> Write(FlockThread& thread, uint64_t local_addr,
                                 uint64_t remote_addr, uint32_t length,
                                 const RemoteMr& mr);
  // For the atomics, `result_addr` is the local landing slot for the old
  // value; 0 means the thread's built-in atomic_slot. A coroutine that can
  // have an atomic in flight while OTHER coroutines on the same FlockThread
  // issue atomics must bring its own slot, or a racing completion overwrites
  // the shared slot before the old value is read back.
  sim::Co<verbs::WcStatus> FetchAndAdd(FlockThread& thread, uint64_t remote_addr,
                                       uint64_t add, uint64_t* old_value,
                                       const RemoteMr& mr,
                                       uint64_t result_addr = 0);
  sim::Co<verbs::WcStatus> CompareAndSwap(FlockThread& thread, uint64_t remote_addr,
                                          uint64_t expected, uint64_t desired,
                                          uint64_t* old_value, const RemoteMr& mr,
                                          uint64_t result_addr = 0);

  int server_node() const { return state_.server_node; }
  // Tenant identity this handle presented at fl_connect (DESIGN.md §15).
  tenant::TenantId tenant_id() const { return state_.tenant_id; }
  // True once CloseConnection ran. Calls and one-sided ops on a closed
  // handle fail at once: the call resolves with ok == false, the op with
  // verbs::WcStatus::kQpError.
  bool closed() const { return state_.closed; }
  uint32_t num_lanes() const { return static_cast<uint32_t>(state_.lanes.size()); }
  uint32_t num_active_lanes() const;
  uint32_t num_failed_lanes() const;
  const internal::ClientLane& lane(uint32_t i) const { return *state_.lanes[i]; }
  // The sender key the server filed this handle under (control-plane id).
  uint32_t conn_id() const { return state_.conn_id; }

  // Per-lane state rollup for introspection/bench output. A lane is healthy
  // when neither failed nor retired; `reconnecting` counts the failed lanes
  // the reconnect daemon is actively mid-handshake on.
  struct LaneStates {
    uint32_t healthy = 0;
    uint32_t quarantined = 0;
    uint32_t reconnecting = 0;
    uint32_t retired = 0;
  };
  LaneStates CountLaneStates() const;
  // Total successful lane revivals on this handle.
  uint64_t lane_reconnects() const;

  // Aggregate client-side stats.
  uint64_t messages_sent() const;
  uint64_t requests_sent() const;
  double MeanCoalescing() const;
  // Aggregated distribution of leader batch sizes across lanes (index = size).
  void BatchHistogram(uint64_t out[33]) const;

 private:
  friend class FlockRuntime;

  // The mechanism-facing state. The handle is heap-allocated and never
  // destroyed before the runtime, so &state_ (and the lane back-pointers into
  // it) stay stable for the simulation's lifetime.
  internal::ClientConnState state_;
};

class FlockRuntime : public ctrl::Endpoint {
 public:
  FlockRuntime(verbs::Cluster& cluster, int node, const FlockConfig& config);
  ~FlockRuntime();

  FlockRuntime(const FlockRuntime&) = delete;
  FlockRuntime& operator=(const FlockRuntime&) = delete;

  // ---- server role ----
  // fl_reg_handler.
  void RegisterHandler(uint16_t rpc_id, RpcHandler handler);
  // Starts `dispatcher_cores` request dispatchers (cores 1..n; core 0 runs
  // the QP scheduler) and the receiver-side QP scheduler (§5.1).
  void StartServer(int dispatcher_cores);

  // ---- client role ----
  // fl_connect, setup phase: builds the connection handle with all `lanes`
  // through the control-plane connect/accept handshake (QPs, rings, MR rkey
  // exchange, credit bootstrap), in zero simulated time. The overload taking
  // a runtime is the common case; the node-id form is what the handshake
  // actually needs and exists for callers that only know the server's node.
  // `tenant` is the identity the handle presents (DESIGN.md §15): the
  // default tenant is always admitted; a registered tenant may be refused by
  // admission control (unknown tenant, connection or lane ceiling), in which
  // case Connect returns nullptr. Any other reject (e.g. no StartServer on
  // that node) is a hard failure.
  Connection* Connect(FlockRuntime& server, uint32_t lanes,
                      tenant::TenantId tenant = tenant::kDefaultTenant);
  Connection* Connect(int server_node, uint32_t lanes,
                      tenant::TenantId tenant = tenant::kDefaultTenant);
  // fl_connect, runtime phase (DESIGN.md §13): the same handshake, but only
  // lane 0 is built now; each further distinct thread that uses the handle
  // adds a lane through the AddLane handshake, up to `lanes`. Unlike the
  // setup-phase Connect, this charges simulated time for the QP bring-up on
  // both sides (CostModel::qp_create / qp_reset by provenance) and one
  // internal::kCtrlRtt for the handshake. A tenant admission reject
  // co_returns nullptr, like Connect; a refused AddLane leaves the handle
  // serving on the lanes it has.
  sim::Co<Connection*> ConnectAsync(
      int server_node, uint32_t lanes,
      tenant::TenantId tenant = tenant::kDefaultTenant);
  // Closes a handle: tells the server, retires every lane, releases the
  // quiescent ones into the recycling pool, and detaches the connection from
  // the client procs. The handle object itself stays alive (stale CQEs may
  // still reference its lanes); later calls on it fail at once (closed()).
  void CloseConnection(Connection* conn);
  // Registers an application thread pinned to `core`.
  FlockThread* CreateThread(int core);
  // Starts the response dispatcher(s) and the sender-side thread scheduler.
  void StartClient();

  // ---- introspection ----
  verbs::Cluster& cluster() { return cluster_; }
  int node() const { return node_; }
  const FlockConfig& config() const { return config_; }
  const ServerStats& server_stats() const { return server_.stats; }
  const ClientStats& client_stats() const { return client_.stats; }
  sim::Simulator& sim() { return cluster_.sim(); }
  const sim::CostModel& cost() const { return cluster_.cost(); }
  uint32_t ActiveServerLanes() const;
  double MeanServerCoalescing() const;
  // Hot-path object pools (observability for allocation-free-path tests).
  const Pool<PendingRpc>& rpc_pool() const { return client_.rpc_pool; }
  // Server-side segment reassembly counters (observability for tests).
  const internal::ReassemblyPool& reassembly_pool() const {
    return server_.reassembly;
  }
  const Pool<internal::PendingSend>& send_pool() const { return client_.send_pool; }
  // Connection-storm census (DESIGN.md §13): live server lanes, released
  // lane objects parked in the graveyard, pooled lane resources on each
  // side, and sender slots — the churn tests assert all of these stay
  // bounded.
  size_t ServerLiveLanes() const { return server_.lanes.size(); }
  size_t ServerGraveyardLanes() const { return server_.graveyard.size(); }
  size_t ServerLanePool() const { return server_.lane_pool.size(); }
  size_t ClientLanePool() const { return client_.lane_pool.size(); }
  size_t ServerSenderSlots() const { return server_.senders.size(); }

  // ---- control plane (DESIGN.md §10) ----
  // Dispatches a validated control-plane message to the matching handler
  // (lane.h). Called synchronously by ControlPlane::Call on the destination.
  uint32_t OnCtrlMessage(const uint8_t* msg, uint32_t len, uint8_t* resp,
                         uint32_t resp_cap) override;

 private:
  friend class Connection;

  // The connect body shared by Connect and ConnectAsync. OpenHandle creates
  // the handle and builds its first `eager` client halves; *bringup gets
  // their QP bring-up time. AdmitHandle runs the handshake: an admission
  // reject closes the handle and returns nullptr, any other reject aborts.
  // An accepted handle gets its reconnect daemon and is published; *bringup
  // gets the server's QP bring-up time.
  std::unique_ptr<Connection> OpenHandle(int server_node, uint32_t lanes,
                                         uint32_t eager, tenant::TenantId tenant,
                                         Nanos* bringup);
  Connection* AdmitHandle(std::unique_ptr<Connection> conn, Nanos* bringup);

  verbs::Cluster& cluster_;
  const int node_;
  FlockConfig config_;

  // Shared CQs (one set per node; dispatchers and schedulers drain them).
  verbs::Cq* send_cq_ = nullptr;
  verbs::Cq* recv_cq_ = nullptr;

  // Per-node RNG stream (canaries, thread seeds); env_.rng_state aliases it.
  uint64_t rng_state_ = 0x9E3779B97F4A7C15ull;

  // The environment and role states the mechanism modules operate on.
  internal::NodeEnv env_;
  internal::ServerState server_;
  internal::ClientState client_;

  // Scheduler/watchdog engines (scratch-carrying; procs spawned by Start*).
  internal::ReceiverSched receiver_;
  internal::SenderSched sender_sched_;
  internal::Watchdog watchdog_;

  // Membership listener handles: the client half registered by the
  // constructor, the server half by StartServer; both removed by the
  // destructor (the control plane outlives this runtime).
  uint64_t client_listener_id_ = 0;
  uint64_t membership_listener_id_ = 0;
  // Batched membership epochs (DESIGN.md §13): teardowns inside a batch set
  // the pending flag instead of repartitioning per event; the batch-end
  // listener runs the one deferred Redistribute.
  uint64_t batch_end_listener_id_ = 0;
  bool redistribute_pending_ = false;

  // Client connection handles, in connect order (client_.conns aliases them).
  std::vector<std::unique_ptr<Connection>> connections_;
};

}  // namespace flock

#endif  // FLOCK_FLOCK_RUNTIME_H_
