// Lane state and lifecycle: the client and server halves of one QP lane, the
// per-connection / per-role state containers the mechanism modules operate
// on, and the control-plane lifecycle (handshake build/wire, quarantine,
// reconnect, lazy add-lane, close and membership teardown).
//
// Layering (DESIGN.md §11): lane sits directly above the verbs layer.
// Everything here is mechanism-module internal; the public API wrapping it
// lives in runtime.h.
#ifndef FLOCK_FLOCK_LANE_H_
#define FLOCK_FLOCK_LANE_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/common/pool.h"
#include "src/common/stats.h"
#include "src/common/units.h"
#include "src/ctrl/wire.h"
#include "src/flock/config.h"
#include "src/flock/ring.h"
#include "src/flock/segment.h"
#include "src/flock/thread.h"
#include "src/flock/transport.h"
#include "src/flock/wire.h"
#include "src/sim/cpu.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"
#include "src/tenant/tenant.h"
#include "src/verbs/device.h"

namespace flock {

// Receiver-side (server-role) counters.
struct ServerStats {
  uint64_t qps_created = 0;   // server-half lanes built on a fresh QP
  uint64_t qps_recycled = 0;  // server-half lanes drawn from the recycling pool
  uint64_t requests = 0;
  uint64_t messages = 0;
  uint64_t responses_sent = 0;
  uint64_t credit_renewals = 0;
  uint64_t redistributions = 0;
  uint64_t activations = 0;
  uint64_t deactivations = 0;
  uint64_t lane_failures = 0;  // server lanes quarantined
  uint64_t dead_senders = 0;   // senders torn down (TearDownOneSender)
  uint64_t responses_dropped = 0;  // responses lost to a dead lane
  uint64_t lane_reconnects = 0;    // server lanes revived via control plane
  uint64_t lanes_added = 0;        // AddLane handshakes accepted
  uint64_t ring_bytes_zeroed = 0;  // request-ring bytes the ring resets zeroed
};

// Client-side failure-handling counters.
struct ClientStats {
  uint64_t qps_created = 0;   // client-half lanes built on a fresh QP
  uint64_t qps_recycled = 0;  // client-half lanes drawn from the recycling pool
  uint64_t lane_failures = 0;       // client lanes quarantined
  uint64_t retries = 0;             // RPC retransmissions staged
  uint64_t failed_rpcs = 0;         // RPCs surfaced with ok=false
  uint64_t spurious_responses = 0;  // responses with no outstanding request
  uint64_t lane_reconnects = 0;     // client lanes revived via control plane
  uint64_t lanes_added = 0;         // lazy lanes grown via AddLane
  uint64_t ring_bytes_zeroed = 0;   // response-ring bytes the ring resets zeroed
};

namespace internal {

// One chunk of a request, staged in a lane's combining queue (an unsegmented
// request is a one-chunk train). Mirrors the TCQ protocol: a thread first
// *enqueues* (one atomic swap), then copies its payload into the combining
// buffer and raises `copied`; the leader polls these copy-completion flags
// before sealing the message (§4.2). Made only by StageChunk and freed by
// the pump's ReleaseSends; `next` threads it into the lane's combining
// queue and the leader's batch.
struct PendingSend {
  wire::ReqMeta meta;
  // Scatter-gather view of the chunk's bytes (DESIGN.md §16). On the submit
  // path it references caller-owned memory — the submitting coroutine blocks
  // on sent_flag until the leader has gathered the bytes into the staging
  // ring, so the single copy of the payload is that gather. A watchdog
  // restage has no blocked caller to keep the source alive, so it copies
  // into `retained` and points the slices there.
  PayloadRef payload;
  SmallBuf<128> retained;
  sim::Core* owner_core = nullptr;  // leader work is charged here
  bool copied = false;
  // Set when the pump drops a chunk whose submitting coroutine is still
  // mid-copy (`copied == false`): that coroutine still writes through the
  // pointer, so it frees the handle after its copy work instead.
  bool dropped = false;
  // Raised (and signalled through the lane's sent_cond) once the message
  // containing the request's last chunk has been posted. fl_send_rpc returns
  // only then: a lone thread is always its own leader and posts
  // synchronously, so its back-to-back requests never coalesce with each
  // other (§8.5.2: "coroutines of a single thread do not coalesce").
  bool* sent_flag = nullptr;
  // Condition to notify alongside sent_flag. Normally the staging lane's
  // sent_cond, but after a failed-lane migration the posting lane differs
  // from the one the submitting coroutine is parked on, so the waker travels
  // with the request. nullptr when no one waits (earlier chunks, restages).
  sim::Condition* sent_cond = nullptr;
  PendingSend* next = nullptr;
};

// Control message types carried in write-with-imm immediates (client→server;
// server→client control flows through RDMA-written per-lane control slots,
// which unlike datagram-style imms cannot be dropped by receive exhaustion).
enum class CtrlType : uint32_t {
  kRenewRequest = 0,  // client → server: {lane, median coalescing degree}
};

// Server→client per-lane control slot, RDMA-written by the QP scheduler and
// polled by the client's response dispatcher. The grant counter is
// cumulative, so a re-written slot never loses a grant.
struct CtrlSlot {
  uint32_t grant_cumulative = 0;
  uint8_t active = 0;
  uint8_t pad[3] = {};
};
static_assert(sizeof(CtrlSlot) == 8);

// With segmentation on (DESIGN.md §16), the three pad bytes carry the low
// 24 bits of the server's request-ring consumed counter. A pure-chunk upload
// generates no response messages, so without an out-of-band head report the
// client's request producer would never learn about freed ring space and the
// stream would deadlock once the ring filled. 24 bits disambiguate any delta
// up to 16 MB of ring consumption between two observations (enforced by
// requiring ring_bytes < 2^24 when segmentation is enabled); the slot stays
// 8 bytes, so flags-off control-slot writes are byte-identical.
inline void PackCtrlSlotHead(CtrlSlot* slot, uint32_t consumed_report) {
  slot->pad[0] = static_cast<uint8_t>(consumed_report);
  slot->pad[1] = static_cast<uint8_t>(consumed_report >> 8);
  slot->pad[2] = static_cast<uint8_t>(consumed_report >> 16);
}

inline uint32_t CtrlSlotHead24(const CtrlSlot& slot) {
  return static_cast<uint32_t>(slot.pad[0]) |
         (static_cast<uint32_t>(slot.pad[1]) << 8) |
         (static_cast<uint32_t>(slot.pad[2]) << 16);
}

inline uint32_t PackCtrl(CtrlType type, uint32_t lane, uint32_t value) {
  FLOCK_CHECK_LT(lane, 1u << 13);
  FLOCK_CHECK_LT(value, 1u << 16);
  return (static_cast<uint32_t>(type) << 29) | (lane << 16) | value;
}

inline void UnpackCtrl(uint32_t imm, CtrlType* type, uint32_t* lane, uint32_t* value) {
  *type = static_cast<CtrlType>(imm >> 29);
  *lane = (imm >> 16) & 0x1fff;
  *value = imm & 0xffff;
}

// wr_id tagging so shared CQs can route completions. Client- and server-role
// posts carry distinct tags: a node can play both roles on the same shared
// CQs, and error completions must resolve to the right lane type
// (ClientLane* vs ServerLane*) to quarantine the right object.
enum class WrTag : uint64_t {
  kRpcWrite = 0,     // client: coalesced message / wrap marker writes
  kMemOp = 1,        // PendingMemOp*
  kCtrl = 2,         // client: control write-with-imm / head-slot writes
  kRecv = 3,         // client: ClientLane* on posted receives
  kServerWrite = 4,  // server: response message / wrap marker writes
  kServerCtrl = 5,   // server: control-slot writes
  kServerRecv = 6,   // server: ServerLane* on posted receives
};

// Statuses that condemn the QP (and with it the lane): flushes and vanished
// peers never heal on their own. RNR/remote-access errors are treated as
// transient — the payload may be lost, but per-RPC timeouts recover it.
inline bool IsFatalWcStatus(verbs::WcStatus status) {
  return status == verbs::WcStatus::kFlushError ||
         status == verbs::WcStatus::kQpError ||
         status == verbs::WcStatus::kRemoteInvalidQp;
}

inline uint64_t TagWrId(WrTag tag, const void* ptr) {
  const uint64_t p = reinterpret_cast<uint64_t>(ptr);
  FLOCK_CHECK_EQ(p & 0x7u, 0u);
  return p | static_cast<uint64_t>(tag);
}

inline WrTag WrIdTag(uint64_t wr_id) { return static_cast<WrTag>(wr_id & 0x7u); }

template <typename T>
T* WrIdPtr(uint64_t wr_id) {
  return reinterpret_cast<T*>(wr_id & ~0x7ull);
}

// ---- lane resources (DESIGN.md §13) ----
//
// The transport resources of one lane half: its QP, the ring geometry, the
// node-local ring/slot/staging memory with cached At() pointers, and the MR
// rkeys covering it. A lane holds them as its base; teardown releases them
// whole into a per-node recycling pool, the QP reset via Device::ResetQp so
// anything in flight from the old incarnation is epoch-dropped. MemorySpace
// never frees, so under churn they must be reused or the footprint grows
// without bound. Pools are LIFO stacks matched by ring_bytes: resources of
// another geometry stay pooled for a later matching build.

// Client half: the request ring's staging mirror, the head-slot write
// source, the control slot the server RDMA-writes, and the response ring.
struct ClientLaneRes {
  verbs::Qp* qp = nullptr;
  uint32_t ring_bytes = 0;
  uint8_t* staging = nullptr;
  uint64_t staging_addr = 0;
  // Out-of-band head reporting: the dispatcher RDMA-writes the cumulative
  // consumed count of the response ring from here into a server-side slot.
  uint64_t head_src_addr = 0;
  uint8_t* head_src_ptr = nullptr;
  uint64_t ctrl_slot_addr = 0;
  const uint8_t* ctrl_slot_ptr = nullptr;  // the dispatcher polls this every pass
  uint64_t resp_ring_addr = 0;
  uint32_t resp_ring_rkey = 0;
  uint32_t ctrl_slot_rkey = 0;
};

// Server half: the request ring, the head slot the client's dispatcher
// writes, the control-slot write source, and the response staging mirror.
struct ServerLaneRes {
  verbs::Qp* qp = nullptr;
  uint32_t ring_bytes = 0;
  uint64_t req_ring_addr = 0;
  uint64_t head_slot_addr = 0;
  const uint8_t* head_slot_ptr = nullptr;
  uint64_t ctrl_src_addr = 0;
  uint8_t* ctrl_src_ptr = nullptr;
  uint8_t* staging = nullptr;
  uint64_t staging_addr = 0;
  uint32_t req_ring_rkey = 0;
  uint32_t head_slot_rkey = 0;
};

struct ClientConnState;

// ---- lane lifecycle states (DESIGN.md §10) ----
//
// One state per lane half, changed only by the transitions in lane.cc; the
// other modules read it. "Retired" is the handle's `closed`, not a state.
enum class ClientLaneState : uint8_t {
  kActive,        // healthy and switched on by the server's QP scheduler
  kInactive,      // healthy, switched off (§5.1): drains, then migrates work
  kFailed,        // quarantined: the QP errored; work migrates off the lane
  kReconnecting,  // quarantined, and the reconnect daemon is mid-handshake
};

enum class ServerLaneState : uint8_t {
  kActive,    // granted credits, counted against MAX_AQP
  kInactive,  // switched off by Redistribute: no grants
  kFailed,    // quarantined: no dispatch, grants or reactivation
};

// ---- client side of one QP lane ----
struct ClientLane : ClientLaneRes {
  ClientLane(sim::Simulator& sim, fabric::MemorySpace& mem,
             const ClientLaneRes& res)
      : ClientLaneRes(res),
        req_producer(res.ring_bytes),
        resp_consumer(std::make_unique<RingConsumer>(mem.At(res.resp_ring_addr),
                                                     res.ring_bytes)),
        send_ready(sim),
        copy_done(std::make_unique<sim::Condition>(sim)),
        sent_cond(std::make_unique<sim::Condition>(sim)) {}

  uint32_t index = 0;
  ClientConnState* conn = nullptr;

  // Request path: local staging mirror → RDMA write → server request ring.
  RingProducer req_producer;
  uint64_t remote_ring_addr = 0;
  uint32_t remote_ring_rkey = 0;

  // The server-side slot the head reports land in.
  uint64_t head_slot_remote_addr = 0;
  uint32_t head_slot_rkey = 0;

  // Response path: server writes into this client-local ring.
  std::unique_ptr<RingConsumer> resp_consumer;

  // Credits and activation (receiver-side QP scheduling, §5.1).
  uint64_t credits = 0;
  ClientLaneState state = ClientLaneState::kActive;
  // Failed or reconnecting. Queued work and threads migrate to surviving
  // lanes, in-flight RPCs recover via retry, and the connection's reconnect
  // daemon revives the lane through the control plane.
  bool quarantined() const {
    return state == ClientLaneState::kFailed ||
           state == ClientLaneState::kReconnecting;
  }
  // A response dispatcher is between its probe of this lane's rings and the
  // matching consume; the reconnect daemon must not resync state under it.
  bool in_dispatch = false;
  // Times this lane was revived through the control plane.
  uint64_t reconnects = 0;
  // Thread ids this lane was serving when it was quarantined; the reconnect
  // daemon steers exactly these threads back on revival so the surviving
  // lanes' phase-aligned coalescing groups stay intact.
  std::vector<uint32_t> evacuated_tids;
  // A renewal request is unacked until a grant arrives. If the request or
  // the grant-slot write is lost, the lane starves at zero credits until a
  // retry lands here and re-sends the renewal (RetryPendingRpc).
  bool renew_in_flight = false;
  sim::Condition send_ready;  // credits or ring space became available
  uint32_t grants_seen = 0;  // cumulative grants already applied

  // Flock synchronization state (§4.2). The combining queue is an intrusive
  // FIFO threaded through the pool-allocated PendingSends.
  PendingSend* combine_head = nullptr;
  PendingSend* combine_tail = nullptr;
  // The pump (transient leader) is a persistent per-lane process: spawned on
  // the lane's first request, it parks on pump_wake when the combining queue
  // drains instead of exiting, so enqueuing a request never rebuilds the
  // (large) pump coroutine frame. pump_running means "actively pumping".
  bool pump_running = false;
  bool pump_spawned = false;
  sim::OneShotEvent pump_wake;
  std::unique_ptr<sim::Condition> copy_done;  // follower copy-completion flags
  std::unique_ptr<sim::Condition> sent_cond;  // "your message was posted"

  // Metrics reported to the receiver.
  WindowedMedian<uint32_t, 64> coalesce_degree;
  uint64_t batch_histogram[33] = {};  // distribution of combined batch sizes
  uint64_t posts = 0;  // for selective signaling
  uint64_t messages_sent = 0;
  uint64_t requests_sent = 0;

  // One-sided operations (§6): intrusive FIFO through the PendingMemOps.
  PendingMemOp* memop_head = nullptr;
  PendingMemOp* memop_tail = nullptr;
  bool mem_pump_running = false;
  // The memop pump's batch of WRs: capacity persists across batches, so
  // steady-state one-sided ops allocate nothing.
  std::vector<verbs::SendWr> memop_wrs;

  // Bytes of responses consumed since we last sent anything on this lane;
  // beyond a threshold the dispatcher pushes a head update out of band so the
  // server's view of the response ring never goes permanently stale (§4.1's
  // "the sender rarely reads" fallback, push- instead of pull-based).
  uint64_t resp_bytes_since_send = 0;

  // Segmentation only (DESIGN.md §16): full 32-bit cumulative request-ring
  // consumed counter, reconstructed from piggyback heads and the 24-bit
  // control-slot reports (see PackCtrlSlotHead). Unused with flags off.
  uint32_t seg_req_consumed = 0;

  // Outstanding requests per lane (migration safety, §5.2).
  uint64_t inflight = 0;
};

// ---- server side of one QP lane ----
struct ServerLane : ServerLaneRes {
  ServerLane(fabric::MemorySpace& mem, const ServerLaneRes& res)
      : ServerLaneRes(res),
        req_consumer(std::make_unique<RingConsumer>(mem.At(res.req_ring_addr),
                                                    res.ring_bytes)),
        resp_producer(res.ring_bytes) {}

  uint32_t index = 0;       // lane index within its connection
  int client_node = -1;
  uint32_t sender_key = 0;  // index into ServerState::senders

  // Request ring (server-local memory, written by the client).
  std::unique_ptr<RingConsumer> req_consumer;

  // Response path: server staging mirror → RDMA write → client response ring.
  RingProducer resp_producer;
  uint64_t remote_ring_addr = 0;
  uint32_t remote_ring_rkey = 0;

  // Control slot on the client that this server lane writes.
  uint64_t ctrl_slot_remote_addr = 0;
  uint32_t ctrl_slot_rkey = 0;
  uint32_t grant_cumulative = 0;  // total credits ever granted on this lane

  // Receiver-side scheduling state (§5.1). kFailed: the QP errored (flush
  // on our posts, or the client side vanished); excluded from dispatch,
  // credit grants and redistribution until a control-plane reconnect
  // revives it.
  ServerLaneState state = ServerLaneState::kActive;
  uint64_t credits_outstanding = 0;  // granted minus (estimated) consumed
  uint64_t utilization = 0;          // U_ij: Σ reported degrees this interval
  uint64_t posts = 0;
  uint64_t messages_handled = 0;
  uint64_t requests_handled = 0;
  uint64_t messages_at_last_sweep = 0;  // stall-safety for pending grants
  bool in_service = false;  // handed to an RPC worker (worker-pool mode)

  // Segmentation only (DESIGN.md §16): request-ring bytes consumed since the
  // head was last reported to the client (piggybacked on a response or
  // packed into a control-slot write). Once it exceeds ring_bytes / 4 the
  // dispatcher pushes a control-slot write so a pure-chunk upload (which
  // produces no response messages) cannot deadlock the client's producer.
  uint64_t seg_bytes_since_report = 0;

  // ---- tenants (DESIGN.md §15) ----
  // Identity registered at handshake time; authoritative over the data-plane
  // stamp. Always set fresh by the connect/reconnect/add-lane paths — lane
  // resources drawn from the recycling pool carry no tenant state.
  tenant::TenantId tenant_id = tenant::kDefaultTenant;
  // Credits the weighted-fair layer withheld from renewals on this lane
  // (tenant over its window budget); paid out of fresh budget at the next
  // scheduler windows, oldest lanes first.
  uint32_t deferred_grant = 0;
};

// Per-client-node aggregation at the server (sender i in §5.1).
struct SenderState {
  int client_node = -1;
  std::vector<ServerLane*> lanes;
  uint64_t utilization = 0;  // U_i
  // Torn down (TearDownOneSender, its only writer): out of the
  // QP-scheduling budget for good. Nothing revives a dead sender; a later
  // connect may reuse its slot once its lanes are released.
  bool dead = false;
  // The quiet clock: the last sweep that saw this sender move traffic, or its
  // connect or reconnect handshake. Redistribute probes a sender quiet for
  // rpc_timeout and tears one down that has also lost a lane.
  Nanos quiet_since = 0;
  // The last liveness probe: probes repeat once per rpc_timeout of quiet
  // without restarting the quiet clock.
  Nanos probed_at = 0;
  // ---- tenants (DESIGN.md §15) ----
  // Identity this sender's connect handshake presented, and the lanes charged
  // for it, which TearDownOneSender releases with the connection.
  tenant::TenantId tenant_id = tenant::kDefaultTenant;
  uint32_t tenant_lanes_charged = 0;
};

// ---- per-node / per-connection state containers ----

// The per-node environment every mechanism module runs against: the cluster,
// the node identity, the shared CQs, and the runtime's RNG stream. One
// NodeEnv per FlockRuntime; the pointers alias the runtime's own members
// (notably rng_state: client canaries, thread seeds and server canaries must
// draw from one per-node stream, in program order).
struct NodeEnv {
  verbs::Cluster* cluster = nullptr;
  int node = -1;
  const FlockConfig* config = nullptr;
  verbs::Cq* send_cq = nullptr;
  verbs::Cq* recv_cq = nullptr;
  uint64_t* rng_state = nullptr;

  sim::Simulator& sim() const { return cluster->sim(); }
  const sim::CostModel& cost() const { return cluster->cost(); }
  fabric::MemorySpace& mem() const { return cluster->mem(node); }
  verbs::Device& device() const { return cluster->device(node); }
  sim::Cpu& cpu() const { return cluster->cpu(node); }
};

struct ClientConnState;

// Client-role state of one node: threads, stats, hot-path pools, and the
// registry of connection states the client procs iterate.
struct ClientState {
  ClientStats stats;
  std::vector<std::unique_ptr<FlockThread>> threads;
  // Push order == connect order; entries alias Connection-owned state and
  // stay valid for the runtime's lifetime (handles are never destroyed).
  std::vector<ClientConnState*> conns;
  bool started = false;
  // This node's Leave count, bumped by the runtime's membership listener.
  uint64_t leaves = 0;
  // Hot-path object pools (per node; the simulation is single-threaded).
  Pool<PendingRpc> rpc_pool;
  Pool<PendingSend> send_pool;
  // Heap blocks of retained requests above the inline bytes: a PendingRpc's
  // destructor would free its block every call, so FreeRpc parks it here.
  SmallBufFreeList<128> request_bufs;
  // Recycling pool (DESIGN.md §13): filled by ReleaseClientLane, drawn by
  // BuildClientLane.
  std::vector<ClientLaneRes> lane_pool;
};

// The per-connection state behind one Connection handle: one per
// (client node, server node) pair, multiplexing threads over a set of lanes.
struct ClientConnState {
  NodeEnv* env = nullptr;
  ClientState* client = nullptr;
  int server_node = -1;
  uint32_t conn_id = 0;
  // Kicked by QuarantineLane and CloseClientConn; waited on by the handle's
  // reconnect daemon.
  std::unique_ptr<sim::Condition> reconnect_cond;
  std::vector<std::unique_ptr<ClientLane>> lanes;
  // ---- connection-storm fields (DESIGN.md §13) ----
  // Lane count the handle ultimately wants. Connect builds them all;
  // ConnectAsync builds only lane 0, and EnsureLaneSetup grows toward this
  // on first use while lanes.size() < target_lanes (the lazy-lane gate). A
  // growth step that ends without a new lane clamps it to the lanes the
  // handle has.
  uint32_t target_lanes = 0;
  // An EnsureLaneSetup handshake is in flight; later callers park on
  // setup_cond instead of racing a second handshake.
  bool setup_in_progress = false;
  std::unique_ptr<sim::Condition> setup_cond;
  // Closed by CloseConnection: lanes released, detached from client procs.
  // Calls and one-sided ops staged on a closed handle fail at once.
  bool closed = false;
  // ClientState::leaves when the handshake succeeded.
  uint64_t leaves_at_handshake = 0;
  // Ended by a Leave of this client node since the handshake (DESIGN.md
  // §10): every server tore the handle's sender down and may give its slot —
  // and so its conn_id — to the node's next connect. The handle never sends
  // another per-handle control message (reconnect, add-lane, disconnect),
  // which would land on that newer handle. Its data path is untouched:
  // in-flight RPCs resolve through the failed lanes and the retry watchdog.
  // Comparing counts rather than flagging open handles at Leave also covers
  // a Leave that lands after the handshake but before the handle is
  // published (ConnectAsync's bring-up delay).
  bool departed() const { return client->leaves != leaves_at_handshake; }
  // Distinct thread ids that have sent on this handle (lazy growth signal).
  std::vector<uint8_t> thread_seen;
  uint32_t threads_seen = 0;
  // thread id → lane index; `desired` is written by the thread scheduler and
  // applied by LaneFor once the thread has drained its outstanding requests.
  std::vector<uint32_t> thread_lane;
  std::vector<uint32_t> desired_lane;
  // Outstanding RPCs, seq → rpc, one open-addressed map per thread id.
  std::vector<SeqSlotMap<PendingRpc>> pending;
  // ---- tenants (DESIGN.md §15) ----
  // Identity this handle presents at handshake and stamps into every
  // client→server message header. Fixed at fl_connect time.
  tenant::TenantId tenant_id = tenant::kDefaultTenant;
};

// Server-role state of one node. Handler lookup is a linear scan:
// applications register a handful of RPC ids, and a short scan beats a hash
// on the per-request path.
struct ServerState {
  std::vector<std::pair<uint16_t, RpcHandler>> handlers;
  const RpcHandler* FindHandler(uint16_t rpc_id) const {
    for (const auto& [id, handler] : handlers) {
      if (id == rpc_id) {
        return &handler;
      }
    }
    return nullptr;
  }
  std::vector<std::unique_ptr<ServerLane>> lanes;
  std::vector<SenderState> senders;
  std::vector<std::vector<ServerLane*>> dispatcher_lanes;
  int dispatcher_count = 0;
  // Worker-pool mode: lanes with detected work, drained by RpcWorker procs.
  std::deque<ServerLane*> work_queue;
  std::unique_ptr<sim::Condition> work_ready;
  bool started = false;
  ServerStats stats;
  // Segmented-payload reassembly (DESIGN.md §16): initialized by StartServer
  // when segment_threshold > 0, untouched otherwise.
  ReassemblyPool reassembly;
  // ---- recycling (DESIGN.md §13) ----
  // Resources released from departed clients' lanes (TearDownOneSender),
  // drawn by the connect and add-lane handlers.
  std::vector<ServerLaneRes> lane_pool;
  // Released ServerLane objects. Never destroyed and never reused: CQEs
  // flushed at teardown (ErrorQp always delivers error completions, and each
  // lane holds ~16 posted receives) still route through wr_id pointers into
  // these objects, and a reused object wired to its recycled QP would match
  // the stale CQE's qpn and be falsely re-quarantined. The object is a few
  // hundred bytes; the expensive parts (QP, rings, MRs) live on in
  // lane_pool.
  std::vector<std::unique_ptr<ServerLane>> graveyard;
};

// ---- lane lifecycle (lane.cc) ----

// Activate/deactivate (§5.1): the server's QP scheduler switched a healthy
// client lane on or off (ApplyCtrlSlot), or a close switched it off.
void SetLaneActive(ClientLane& lane, bool active);

// Quarantine: marks a lane's QP as dead (kFailed), zeroes its credits and
// wakes the pump so queued work migrates to a surviving lane, and kicks the
// reconnect daemon. Idempotent.
void QuarantineLane(ClientConnState& conn, ClientLane& lane);

// The lane serving `thread`, applying any pending scheduler migration and
// repairing assignments that point at dead lanes.
ClientLane& LaneFor(ClientConnState& conn, FlockThread& thread);

// Activate/deactivate a healthy server lane (Redistribute), counted in
// stats.activations / stats.deactivations.
void SetServerLaneActive(ServerLane& lane, bool active, ServerStats& stats);

// Marks a server lane's QP dead: no more dispatch, grants or reactivation.
void QuarantineServerLane(ServerLane& lane, ServerStats& stats);

// The one sender death (DESIGN.md §10): errors and quarantines every live
// lane of a live sender, so a client that is still there learns on its next
// post; marks it dead, counts it in stats.dead_senders, releases its tenant
// admission charge and releases each lane not mid-service into the pool.
// Leave (TearDownSenders), disconnect and Redistribute's dead-sender rule
// all run it, once per sender.
void TearDownOneSender(NodeEnv& env, ServerState& server, SenderState& sender);

// Routes an errored send completion to the owning lane (either role: the
// node-shared CQs are drained by whichever poller gets there first).
void HandleSendError(const verbs::Completion& wc, ServerStats& stats);

// Client half of one lane at `index`: QP + client-local memory + MRs, drawn
// from the client's recycling pool when resources of matching geometry are
// pooled (rings reset), else created fresh. Connect, ConnectAsync and lazy
// add-lane all build through it; the handshake's accept wires it.
std::unique_ptr<ClientLane> BuildClientLane(ClientConnState& conn,
                                            uint32_t index);

// The one release of a client half (DESIGN.md §13): resets its QP and parks
// its resources whole in the client's recycling pool. The lane's qp becomes
// nullptr, which marks its late CQEs stale (a closed handle's lanes are
// never destroyed). Every client half that is not kept comes here:
// close-time harvest, a degraded accept's surplus, and a lazy growth step
// that ends without a lane.
void ReleaseClientLane(ClientLane& lane);

// Answers one framing-validated control-plane message (the server side of
// the handshakes, DESIGN.md §10) with an accept or a reject; behind
// FlockRuntime::OnCtrlMessage.
uint32_t HandleCtrlMessage(NodeEnv& env, ServerState& server,
                           const uint8_t* msg, uint32_t len, uint8_t* resp,
                           uint32_t resp_cap);

// Membership change (server side): runs TearDownOneSender on each live
// sender of a departed client node. Returns true if any sender was torn
// down — the caller must then repartition the AQP budget
// (sched/receiver.h Redistribute) immediately.
bool TearDownSenders(NodeEnv& env, ServerState& server, int node);

// ---- connection-storm path (DESIGN.md §13) ----

// Client half of the connect handshake: advertises the already-built lanes
// in conn.lanes, exchanges ConnectRequest/ConnectAccept with the server and
// wires every lane. Returns false on rejection, with the server's
// RejectReason in *reject_reason so the caller can tell a tenant admission
// reject (ctrl::wire::IsAdmissionReject) from a hard failure. On success,
// *server_bringup gets the server-side QP bring-up time by provenance
// (qp_create per fresh QP, qp_reset per recycled one), which ConnectAsync
// charges. A degraded accept (tenant admission granted fewer lanes than
// requested) succeeds with the surplus client halves released and
// conn.target_lanes clamped.
bool ConnectHandshake(ClientConnState& conn, Nanos* server_bringup,
                      ctrl::wire::RejectReason* reject_reason);

// First-use hook on the staging path (StageRpc / SubmitMemOp), behind the
// lazy-lane gate conn.lanes.size() < conn.target_lanes: materializes
// deferred lanes via the AddLane handshake while more distinct threads use
// the handle than lanes exist (up to conn.target_lanes). Serialized per
// connection through setup_in_progress / setup_cond.
sim::Co<void> EnsureLaneSetup(ClientConnState& conn, FlockThread& thread);

// Orderly whole-handle close, client half (DESIGN.md §15): tells the server
// through a DisconnectRequest, so its sender slot and the tenant's
// admission accounting are reclaimed now. Best effort, and skipped for a
// departed handle, whose conn_id may name a newer handle's sender.
void SendDisconnect(ClientConnState& conn);

// Client half of connection close: retires every lane and releases the
// quiescent ones (no pump running, nothing in flight, not mid-dispatch).
// Non-quiescent lanes are merely retired (their resources are abandoned, as
// a quarantine would). Marks the connection closed; the caller detaches it
// from the client procs.
void CloseClientConn(ClientConnState& conn);

// Simulated round trip of one out-of-band control-plane exchange (the
// RDMA-CM/TCP side channel, far slower than the data path). The runtime-phase
// exchanges charge it: ConnectAsync, AddLane and reconnect.
inline constexpr Nanos kCtrlRtt = 5 * kMicrosecond;

// Delay before the first reconnect attempt for a quarantined lane; doubles
// per consecutive failure (capped at 256×) while the server keeps rejecting.
inline constexpr Nanos kReconnectBackoff = 50 * kMicrosecond;

// Control-plane client daemon, one per accepted handle: revives quarantined
// lanes; returns once it wakes to find the handle closed or departed.
sim::Proc ReconnectDaemon(ClientConnState& conn);

}  // namespace internal
}  // namespace flock

#endif  // FLOCK_FLOCK_LANE_H_
