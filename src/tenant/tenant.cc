#include "src/tenant/tenant.h"

#include <algorithm>

namespace flock::tenant {

void TenantRegistry::Register(TenantId id, const TenantPolicy& policy) {
  if (id == kDefaultTenant || id > kMaxTenantId) {
    return;  // the default tenant is implicit; out-of-range ids are forged
  }
  if (Entry* e = Find(id)) {
    e->policy = policy;  // re-registration updates the policy in place
    return;
  }
  Entry e;
  e.id = id;
  e.policy = policy;
  entries_.push_back(e);
  // A tenant registered mid-window starts with a full budget.
  RefillBudget(entries_.back(), TotalWeight());
}

const TenantPolicy* TenantRegistry::PolicyFor(TenantId id) const {
  const Entry* e = Find(id);
  return e ? &e->policy : nullptr;
}

TenantRegistry::Entry* TenantRegistry::Find(TenantId id) {
  for (Entry& e : entries_) {
    if (e.id == id) {
      return &e;
    }
  }
  return nullptr;
}

const TenantRegistry::Entry* TenantRegistry::Find(TenantId id) const {
  for (const Entry& e : entries_) {
    if (e.id == id) {
      return &e;
    }
  }
  return nullptr;
}

uint64_t TenantRegistry::TotalWeight() const {
  uint64_t total = 0;
  for (const Entry& e : entries_) {
    total += std::max<uint32_t>(1, e.policy.weight);
  }
  return total;
}

Admission TenantRegistry::AdmitConnect(TenantId id, uint32_t want_lanes) {
  Entry* e = Find(id);
  if (e == nullptr) {
    // Default tenant (or a caller that skipped the unknown-id check):
    // unlimited.
    return {Admission::Verdict::kAdmit, want_lanes};
  }
  const TenantPolicy& p = e->policy;
  if (p.max_connections != 0 && e->connections >= p.max_connections) {
    e->counters.admission_rejects += 1;
    return {Admission::Verdict::kOverConnections, 0};
  }
  uint32_t grant = want_lanes;
  if (p.max_lanes != 0) {
    const uint32_t avail = p.max_lanes > e->lanes ? p.max_lanes - e->lanes : 0;
    grant = std::min(grant, avail);
  }
  if (grant == 0) {
    e->counters.admission_rejects += 1;
    return {Admission::Verdict::kOverLanes, 0};
  }
  if (grant < want_lanes) {
    e->counters.admission_degrades += 1;
  }
  e->connections += 1;
  e->lanes += grant;
  return {Admission::Verdict::kAdmit, grant};
}

bool TenantRegistry::AdmitLane(TenantId id) {
  Entry* e = Find(id);
  if (e == nullptr) {
    return true;
  }
  if (e->policy.max_lanes != 0 && e->lanes >= e->policy.max_lanes) {
    e->counters.admission_rejects += 1;
    return false;
  }
  e->lanes += 1;
  return true;
}

void TenantRegistry::ReleaseConnection(TenantId id, uint32_t lanes) {
  if (Entry* e = Find(id)) {
    e->connections -= std::min(e->connections, 1u);
    e->lanes -= std::min(e->lanes, lanes);
  }
}

uint32_t TenantRegistry::LiveConnections(TenantId id) const {
  const Entry* e = Find(id);
  return e ? e->connections : 0;
}

uint32_t TenantRegistry::LiveLanes(TenantId id) const {
  const Entry* e = Find(id);
  return e ? e->lanes : 0;
}

uint32_t TenantRegistry::ClipGrant(TenantId id, uint32_t want) {
  Entry* e = Find(id);
  if (e == nullptr || !e->budgeted) {
    return want;
  }
  const uint32_t grant =
      static_cast<uint32_t>(std::min<uint64_t>(want, e->budget_left));
  e->budget_left -= grant;
  if (grant < want) {
    e->counters.credit_stalls += 1;
  }
  return grant;
}

bool TenantRegistry::SendAllowed(TenantId id) const {
  const Entry* e = Find(id);
  if (e == nullptr || e->policy.byte_quota == 0) {
    return true;
  }
  return e->sent_window < e->policy.byte_quota;
}

uint64_t TenantRegistry::SendBudgetRemaining(TenantId id) const {
  const Entry* e = Find(id);
  if (e == nullptr || e->policy.byte_quota == 0) {
    return UINT64_MAX;
  }
  return e->policy.byte_quota > e->sent_window
             ? e->policy.byte_quota - e->sent_window
             : 0;
}

void TenantRegistry::ChargeSent(TenantId id, uint64_t bytes) {
  if (Entry* e = Find(id)) {
    e->sent_window += bytes;
  }
}

void TenantRegistry::NoteQuotaStall(TenantId id) {
  if (Entry* e = Find(id)) {
    e->counters.quota_stalls += 1;
  }
}

void TenantRegistry::OnRequests(TenantId id, uint32_t reqs, uint64_t bytes) {
  if (Entry* e = Find(id)) {
    e->counters.rpcs += reqs;
    e->counters.bytes += bytes;
    e->recv_window += bytes;
  }
}

void TenantRegistry::NoteStampMismatch(TenantId id) {
  if (Entry* e = Find(id)) {
    e->counters.stamp_mismatches += 1;
  }
}

void TenantRegistry::RefillBudget(Entry& e, uint64_t total_weight) {
  uint64_t base = e.policy.credit_budget;
  if (base == 0 && window_pool_ != 0 && total_weight != 0) {
    base = window_pool_ * std::max<uint32_t>(1, e.policy.weight) / total_weight;
  }
  if (base == 0) {
    e.budgeted = false;
    e.budget_left = 0;
    return;
  }
  e.budgeted = true;
  // The throttle halves the budget per level but never below 1 credit per
  // window, so a throttled tenant drains its deficit instead of deadlocking.
  e.budget_left = std::max<uint64_t>(1, base >> e.throttle_level);
}

void TenantRegistry::EndWindow(uint64_t now) {
  if (entries_.empty()) {
    // Nothing to roll. Returning before the idempotence stamp keeps a run
    // without tenants from writing registry state at all, so servers on
    // different shard workers never share a write.
    return;
  }
  if (window_started_ && now == last_window_) {
    return;  // several runtimes ticked at the same instant
  }
  window_started_ = true;
  last_window_ = now;
  const uint64_t total_weight = TotalWeight();
  for (Entry& e : entries_) {
    const bool over =
        e.policy.byte_quota != 0 && e.recv_window > e.policy.byte_quota;
    if (over) {
      e.counters.over_quota_windows += 1;
      e.over_streak += 1;
      e.good_streak = 0;
      if (e.over_streak >= throttle.decay_after) {
        e.over_streak = 0;
        if (e.throttle_level < throttle.max_level) {
          e.throttle_level += 1;
          e.counters.throttle_events += 1;
        }
      }
    } else {
      e.good_streak += 1;
      e.over_streak = 0;
      if (e.good_streak >= throttle.recover_after) {
        e.good_streak = 0;
        if (e.throttle_level > 0) {
          e.throttle_level -= 1;
          e.counters.throttle_recoveries += 1;
        }
      }
    }
    e.sent_window = 0;
    e.recv_window = 0;
    RefillBudget(e, total_weight);
  }
}

uint32_t TenantRegistry::ThrottleLevel(TenantId id) const {
  const Entry* e = Find(id);
  return e ? e->throttle_level : 0;
}

const TenantCounters* TenantRegistry::CountersFor(TenantId id) const {
  const Entry* e = Find(id);
  return e ? &e->counters : nullptr;
}

}  // namespace flock::tenant
