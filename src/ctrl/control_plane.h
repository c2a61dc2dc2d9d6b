// The connection control plane (DESIGN.md §10): a deterministic, cluster-wide
// service owning connection lifecycle — connect/accept handshakes with MR
// rkey exchange and credit bootstrap, QP re-establishment for quarantined
// lanes, lazy lane add, and dynamic membership (join/leave/rejoin).
//
// It models the out-of-band channel real deployments run over RDMA-CM/TCP:
// message delivery is a synchronous function call into the destination
// node's registered Endpoint, with validation (framing, checksum, nonce
// replay) in front. Crucially it schedules *no simulator events* of its own —
// callers that want the handshake to cost simulated time insert their own
// sim::Delay (the Flock runtime's kCtrlRtt, flock/lane.h) around Call(). That
// keeps every fault-free trace bit-identical: a run that never reconnects
// never sees the control plane after setup.
#ifndef FLOCK_CTRL_CONTROL_PLANE_H_
#define FLOCK_CTRL_CONTROL_PLANE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/ctrl/wire.h"
#include "src/tenant/tenant.h"
#include "src/verbs/device.h"

namespace flock::ctrl {

// A per-node handler for control-plane messages. The Flock runtime implements
// this to answer connect/reconnect/add-lane/retire-lane requests.
class Endpoint {
 public:
  virtual ~Endpoint() = default;
  // Handles one framing-validated message (`msg`/`len` include the header).
  // Writes an encoded response into `resp` (capacity `resp_cap`) and returns
  // its length; 0 means "no response" and the caller treats it as a reject.
  virtual uint32_t OnCtrlMessage(const uint8_t* msg, uint32_t len,
                                 uint8_t* resp, uint32_t resp_cap) = 0;
};

class ControlPlane {
 public:
  struct Stats {
    uint64_t calls = 0;
    uint64_t rejected_malformed = 0;
    uint64_t rejected_replay = 0;
    uint64_t rejected_no_endpoint = 0;
    uint64_t rejected_not_member = 0;
    uint64_t joins = 0;
    uint64_t leaves = 0;
    uint64_t epoch_batches = 0;  // EndEpochBatch calls with >= 1 net change
  };

  // Out-of-order tolerance of the replay window: a call whose nonce trails
  // the highest-seen by more than this is indistinguishable from a replay
  // and rejects. Nonces are issued from one monotonic counter and consumed
  // almost in order (handshakes are synchronous), so in practice the window
  // holds a handful of entries.
  static constexpr size_t kNonceWindow = 128;

  // The one control plane of `cluster`, created on first use and owned by the
  // cluster (via its extension slot) so every runtime on every node shares it.
  static ControlPlane& For(verbs::Cluster& cluster);

  explicit ControlPlane(verbs::Cluster& cluster);

  ControlPlane(const ControlPlane&) = delete;
  ControlPlane& operator=(const ControlPlane&) = delete;

  // ---- endpoints ----
  // Each node keeps a registration-ordered list of endpoints: when several
  // runtimes share a node (bench "processes"), the first registered answers
  // the node's control traffic, and when it deregisters (runtime destroyed)
  // the next survivor is promoted — the node never goes dark while a runtime
  // on it is still alive.
  bool HasEndpoint(int node) const;
  void RegisterEndpoint(int node, Endpoint* endpoint);
  void DeregisterEndpoint(int node, Endpoint* endpoint);

  // ---- out-of-band RPC ----
  // Validates `msg` (framing, checksum, nonce replay, destination membership)
  // and delivers it synchronously to `to_node`'s endpoint. Returns the
  // response length written into `resp`, or 0 on any rejection. Each attempt
  // must carry a fresh nonce from NextNonce(): a consumed nonce is burned
  // even when delivery subsequently fails.
  uint32_t Call(int to_node, const uint8_t* msg, uint32_t len, uint8_t* resp,
                uint32_t resp_cap);

  uint64_t NextNonce() { return ++nonce_; }

  // Entries currently held by the replay window (watermark excluded). Bounded
  // by kNonceWindow no matter how many calls have been made; exposed so the
  // churn regression test can assert that.
  size_t replay_window_entries() const { return recent_nonces_.size(); }

  // ---- membership ----
  // Every node of the cluster is a member at startup. Leave/Join flip the
  // flag, bump the epoch and fire the listeners (leave first tears down the
  // node's lanes via the server runtimes listening here).
  void Join(int node);
  void Leave(int node);
  bool IsMember(int node) const;
  uint64_t epoch() const { return epoch_; }

  // ---- batched membership epochs ----
  // Connection-storm aid: between Begin and End, Join/Leave flip membership
  // immediately (IsMember stays accurate for admission checks) but the epoch
  // bump and listener notifications are deferred. EndEpochBatch compares
  // membership against the batch start, bumps the epoch ONCE if anything net-
  // changed, fires one listener pass per net-changed node, and finally runs
  // the batch-end listeners (where servers coalesce their AQP repartition).
  // A node that left and rejoined inside one window is invisible to
  // listeners — by design: its lanes were torn down by the Leave admission
  // checks' consumers only if someone looked, and the steady state matches.
  void BeginEpochBatch();
  void EndEpochBatch();
  bool InEpochBatch() const { return in_batch_; }

  // Listener fired on every membership change; returns an id for removal.
  // Runtimes must remove their listener on destruction (the control plane
  // outlives them — it is owned by the cluster). Listeners may remove
  // themselves, add listeners, or trigger Join/Leave from inside the
  // callback: notification iterates a snapshot and re-checks liveness.
  using MembershipListener = std::function<void(int node, bool joined)>;
  uint64_t AddMembershipListener(MembershipListener listener);
  void RemoveMembershipListener(uint64_t id);

  // Fired once at the end of EndEpochBatch (after membership listeners, with
  // InEpochBatch() already false) iff the batch had >= 1 net change. Servers
  // hook their single deferred Redistribute here.
  using BatchEndListener = std::function<void()>;
  uint64_t AddBatchEndListener(BatchEndListener listener);
  void RemoveBatchEndListener(uint64_t id);

  const Stats& stats() const { return stats_; }

  // ---- tenants (DESIGN.md §15) ----
  // The cluster-wide tenant registry: policies, admission accounting,
  // weighted-fair credit budgets and the misbehaving-tenant throttle. Owned
  // here because admission happens at handshake time, on control-plane
  // traffic; the flock schedulers reach the same registry through the
  // cluster. Single-tenant runs only read it.
  void RegisterTenant(tenant::TenantId id, const tenant::TenantPolicy& policy) {
    tenants_.Register(id, policy);
  }
  tenant::TenantRegistry& tenants() { return tenants_; }
  const tenant::TenantRegistry& tenants() const { return tenants_; }

 private:
  struct ListenerEntry {
    uint64_t id;
    MembershipListener fn;
  };
  struct BatchEndEntry {
    uint64_t id;
    BatchEndListener fn;
  };

  // Reentrancy-safe fan-out: snapshots listener ids, then re-looks each one
  // up (it may have been removed by an earlier callback — or by itself) and
  // invokes a *copy* of the std::function (self-removal mid-call would
  // otherwise destroy the closure it is executing).
  void NotifyListeners(int node, bool joined);
  void NotifyBatchEnd();

  verbs::Cluster& cluster_;
  // index = node; registration order, front answers (see RegisterEndpoint).
  std::vector<std::vector<Endpoint*>> endpoints_;
  std::vector<uint8_t> member_;  // index = node
  // Replay window (bounded; see kNonceWindow): every nonce <= watermark is
  // "seen"; recent_nonces_ holds the seen nonces above it.
  uint64_t nonce_watermark_ = 0;
  std::vector<uint64_t> recent_nonces_;
  std::vector<ListenerEntry> listeners_;
  std::vector<BatchEndEntry> batch_end_listeners_;
  uint64_t next_listener_id_ = 1;
  uint64_t nonce_ = 0;
  uint64_t epoch_ = 0;
  bool in_batch_ = false;
  std::vector<uint8_t> batch_start_member_;
  Stats stats_;
  tenant::TenantRegistry tenants_;
};

}  // namespace flock::ctrl

#endif  // FLOCK_CTRL_CONTROL_PLANE_H_
