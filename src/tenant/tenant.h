// Multi-tenant service layer (DESIGN.md §15): tenant identity, per-tenant
// policy, admission accounting, weighted-fair credit budgets and the
// misbehaving-tenant throttle.
//
// This is a foundation-style module: pure data + bookkeeping with no
// simulation or flock dependencies, so both the control plane (admission at
// handshake time) and the flock schedulers (credit clipping, byte quotas)
// can share one registry. The registry itself lives on the cluster's
// ControlPlane — in a real deployment it is the service layer's trusted
// state, reachable from every node's privileged runtime but never from
// tenant application code.
//
// All state is kept in small flat vectors in registration order, so every
// walk over tenants is deterministic and the whole layer adds zero heap
// traffic after registration.
#ifndef FLOCK_TENANT_TENANT_H_
#define FLOCK_TENANT_TENANT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace flock::tenant {

using TenantId = uint32_t;

// Tenant 0 is the default (untenanted) identity: always admitted, never
// budgeted, never counted. Single-tenant runs stay on it, so every registry
// call they make is a read that changes nothing.
inline constexpr TenantId kDefaultTenant = 0;

// Tenant ids must fit the 12-bit data-plane stamp (flock::wire header flags);
// the control-plane decoder rejects anything larger as forged.
inline constexpr TenantId kMaxTenantId = 0x0FFF;

// Per-tenant policy, fixed at registration.
struct TenantPolicy {
  // Weighted-fair share: scales this tenant's slice of the receiver
  // scheduler's window credit pool and its AQP allocation in Redistribute.
  uint32_t weight = 1;
  // Credits the receiver scheduler may grant this tenant per scheduling
  // window (0 = take the weighted share of the window pool; unlimited when
  // no pool is configured either). The throttle decays this exponentially.
  uint32_t credit_budget = 0;
  // Bytes this tenant may move per scheduling window (0 = unlimited). The
  // client pump stalls batches at the quota; sustained server-side
  // over-quota windows drive the throttle.
  uint64_t byte_quota = 0;
  // Lane/connection ceilings enforced by admission control (0 = unlimited).
  uint32_t max_lanes = 0;
  uint32_t max_connections = 0;
};

// Throttle state machine knobs (registry-wide).
struct ThrottleParams {
  uint32_t decay_after = 2;    // consecutive over-quota windows per decay step
  uint32_t recover_after = 4;  // consecutive clean windows per recovery step
  uint32_t max_level = 6;      // budget floor: credit_budget >> max_level
};

// Cumulative per-tenant counters, surfaced through the shared --json census.
struct TenantCounters {
  uint64_t rpcs = 0;               // requests the server handled
  uint64_t bytes = 0;              // request bytes the server received
  uint64_t credit_stalls = 0;      // grants clipped by the fair layer
  uint64_t quota_stalls = 0;       // client batches stalled on the byte quota
  uint64_t throttle_events = 0;    // decay steps applied
  uint64_t throttle_recoveries = 0;
  uint64_t over_quota_windows = 0;
  uint64_t admission_rejects = 0;
  uint64_t admission_degrades = 0;
  uint64_t stamp_mismatches = 0;   // data-plane stamp != handshake identity
};

// Admission verdict for a connect carrying a lane request.
struct Admission {
  enum class Verdict : uint8_t { kAdmit, kOverConnections, kOverLanes };
  Verdict verdict = Verdict::kAdmit;
  uint32_t lanes = 0;  // granted lane count (may be < requested: degrade)
};

class TenantRegistry {
 public:
  // Registration order fixes iteration order everywhere below.
  void Register(TenantId id, const TenantPolicy& policy);
  bool Registered(TenantId id) const { return Find(id) != nullptr; }
  const TenantPolicy* PolicyFor(TenantId id) const;

  // ---- admission control (handshake / lazy lane growth) ----

  // Charge one connection and up to `want_lanes` lanes. kAdmit with
  // lanes < want_lanes is a degraded accept. Non-admit verdicts charge
  // nothing. The default tenant is always admitted in full.
  Admission AdmitConnect(TenantId id, uint32_t want_lanes);
  // Charge one more lane on an existing connection (AddLane path).
  bool AdmitLane(TenantId id);
  // Release accounting charged by the calls above (teardown paths).
  void ReleaseConnection(TenantId id, uint32_t lanes);

  uint32_t LiveConnections(TenantId id) const;
  uint32_t LiveLanes(TenantId id) const;

  // Rejected connects from ids that were never registered (forged or stale).
  uint64_t unknown_rejects() const { return unknown_rejects_; }
  void NoteUnknownTenant() { ++unknown_rejects_; }

  // ---- weighted-fair credit budgets (receiver scheduler) ----

  // Receiver-side credit pool shared by all registered tenants per window,
  // split by weight (0 = no pool; explicit credit_budget still applies).
  void SetWindowCreditPool(uint64_t credits) { window_pool_ = credits; }

  // Clip a credit grant against the tenant's remaining window budget.
  // Returns the grantable amount (0..want) and charges it. Unbudgeted
  // tenants (and the default tenant) always get the full grant.
  uint32_t ClipGrant(TenantId id, uint32_t want);

  // ---- byte quotas ----

  // Client pump gate: true while the tenant may start another batch this
  // window (soft bound: the batch that crosses the quota still goes out).
  bool SendAllowed(TenantId id) const;
  // Bytes the tenant may still send this window (UINT64_MAX = unlimited).
  // The sender scheduler packs threads by this cap instead of the offered
  // load, so a quota-bound tenant's thread→lane packing reflects what it is
  // actually allowed to move.
  uint64_t SendBudgetRemaining(TenantId id) const;
  void ChargeSent(TenantId id, uint64_t bytes);
  void NoteQuotaStall(TenantId id);

  // Server dispatch attribution: received requests and bytes. Feeds both the
  // census counters and the throttle's over-quota detection.
  void OnRequests(TenantId id, uint32_t reqs, uint64_t bytes);
  void NoteStampMismatch(TenantId id);

  // ---- window roll + throttle state machine ----

  // Advance to a new scheduling window at sim-time `now`: refill credit
  // budgets (scaled by the throttle level), reset byte windows, and step the
  // throttle — `decay_after` consecutive over-quota windows halve the budget
  // (down to >> max_level), `recover_after` clean windows restore one step.
  // Idempotent per `now`, so several runtimes ticking at the same instant
  // roll the window once. With no tenant registered it writes nothing.
  void EndWindow(uint64_t now);

  uint32_t ThrottleLevel(TenantId id) const;

  // ---- census ----

  const TenantCounters* CountersFor(TenantId id) const;
  size_t NumRegistered() const { return entries_.size(); }

  // fn(TenantId, const TenantPolicy&, const TenantCounters&,
  //    uint32_t live_connections, uint32_t live_lanes), registration order.
  template <typename Fn>
  void ForEachTenant(Fn&& fn) const {
    for (const Entry& e : entries_) {
      fn(e.id, e.policy, e.counters, e.connections, e.lanes);
    }
  }

  ThrottleParams throttle;

 private:
  struct Entry {
    TenantId id = kDefaultTenant;
    TenantPolicy policy;
    // Live admission accounting.
    uint32_t connections = 0;
    uint32_t lanes = 0;
    // Scheduling-window state.
    uint64_t budget_left = 0;    // credits still grantable this window
    bool budgeted = false;       // false = unlimited grants
    uint64_t sent_window = 0;    // client-charged bytes this window
    uint64_t recv_window = 0;    // server-received bytes this window
    // Throttle state machine.
    uint32_t throttle_level = 0;
    uint32_t over_streak = 0;
    uint32_t good_streak = 0;
    TenantCounters counters;
  };

  Entry* Find(TenantId id);
  const Entry* Find(TenantId id) const;
  // Recompute an entry's window budget from policy, pool and throttle level.
  void RefillBudget(Entry& e, uint64_t total_weight);
  uint64_t TotalWeight() const;

  std::vector<Entry> entries_;
  uint64_t window_pool_ = 0;
  uint64_t last_window_ = 0;
  bool window_started_ = false;
  uint64_t unknown_rejects_ = 0;
};

}  // namespace flock::tenant

#endif  // FLOCK_TENANT_TENANT_H_
