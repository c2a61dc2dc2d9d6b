#include "src/flock/sched/receiver.h"

#include <algorithm>
#include <cstring>

#include "src/ctrl/control_plane.h"

namespace flock {
namespace internal {

void WriteCtrlSlot(NodeEnv& env, ServerLane& lane, ServerStats& stats,
                   bool signaled) {
  CtrlSlot slot;
  slot.grant_cumulative = lane.grant_cumulative;
  slot.active = lane.state == ServerLaneState::kActive ? 1 : 0;
  if (env.config->segment_threshold > 0 && lane.req_consumer != nullptr) {
    // Segmentation (DESIGN.md §16): ride the request-ring head report in the
    // pad bytes so a pure-chunk upload (no response messages to piggyback
    // on) still frees the client's producer.
    PackCtrlSlotHead(&slot, lane.req_consumer->consumed_report());
    lane.seg_bytes_since_report = 0;
  }
  std::memcpy(lane.ctrl_src_ptr, &slot, sizeof(slot));
  verbs::SendWr wr;
  wr.wr_id = TagWrId(WrTag::kServerCtrl, &lane);
  wr.opcode = verbs::Opcode::kWrite;
  wr.local_addr = lane.ctrl_src_addr;
  wr.length = sizeof(slot);
  wr.remote_addr = lane.ctrl_slot_remote_addr;
  wr.rkey = lane.ctrl_slot_rkey;
  wr.signaled = signaled;
  if (lane.qp->PostSend(wr) != verbs::WcStatus::kSuccess) {
    QuarantineServerLane(lane, stats);
  }
}

verbs::SendWr RenewalWr(ClientLane& lane) {
  // write-with-imm carrying {lane, median coalescing degree since last renew}
  // (§5.1 + §7). Zero-length write: only the immediate travels.
  verbs::SendWr wr;
  wr.wr_id = TagWrId(WrTag::kCtrl, &lane);
  wr.opcode = verbs::Opcode::kWriteImm;
  wr.local_addr = 0;
  wr.length = 0;
  wr.remote_addr = lane.remote_ring_addr;
  wr.rkey = lane.remote_ring_rkey;
  wr.signaled = false;
  const uint32_t degree =
      std::min<uint32_t>(lane.coalesce_degree.Median(1), 0xffff);
  wr.imm = PackCtrl(CtrlType::kRenewRequest, lane.index,
                    std::max<uint32_t>(degree, 1));
  lane.renew_in_flight = true;
  return wr;
}

void MaybeRenewCredits(const FlockConfig& config, ClientLane& lane,
                       verbs::SendWr* wrs, size_t* nwrs) {
  if (lane.state != ClientLaneState::kActive || lane.renew_in_flight ||
      lane.credits > config.credits / 2) {
    return;
  }
  wrs[(*nwrs)++] = RenewalWr(lane);
}

bool ApplyCtrlSlot(NodeEnv& env, ClientLane& lane) {
  if (lane.quarantined() || lane.conn->closed) {
    return false;  // quarantined/retired: stale grants must not resurrect it
  }
  // Polled every dispatcher pass: read through the cached pointer rather than
  // the bounds-checked MemorySpace::Read.
  CtrlSlot slot;
  std::memcpy(&slot, lane.ctrl_slot_ptr, sizeof(slot));
  bool changed = false;
  const uint32_t delta = slot.grant_cumulative - lane.grants_seen;
  if (delta != 0 && delta < (1u << 24)) {  // ignore torn/stale nonsense
    lane.credits += delta;
    lane.grants_seen = slot.grant_cumulative;
    lane.renew_in_flight = false;
    changed = true;
  }
  const bool active = slot.active != 0;
  if (active != (lane.state == ClientLaneState::kActive)) {
    SetLaneActive(lane, active);
    lane.renew_in_flight = false;
    changed = true;
  }
  if (env.config->segment_threshold > 0) {
    // Expand the 24-bit request-ring head report (PackCtrlSlotHead) against
    // the last full cumulative this lane saw. ring_bytes < 2^24 is enforced
    // at construction, so a plausible forward delta is unambiguous; anything
    // larger is a stale or torn report and is ignored.
    const uint32_t head24 = CtrlSlotHead24(slot);
    const uint32_t delta =
        (head24 - (lane.seg_req_consumed & 0xFFFFFFu)) & 0xFFFFFFu;
    if (delta != 0 && delta <= env.config->ring_bytes) {
      lane.seg_req_consumed += delta;
      lane.req_producer.OnHeadUpdate(lane.seg_req_consumed);
      changed = true;
    }
  }
  if (changed) {
    lane.send_ready.NotifyAll();  // wake the pump (or let it migrate work)
  }
  return changed;
}

sim::Proc ReceiverSched::Run(NodeEnv& env, ServerState& server) {
  sim::Core& core = env.cpu().core(0);
  const sim::CostModel& cost = env.cost();
  const FlockConfig& config = *env.config;
  // Tenant registry (DESIGN.md §15): resolved once. The default tenant is
  // never budgeted, so single-tenant grants always go out in full.
  tenant::TenantRegistry& tenants =
      ctrl::ControlPlane::For(*env.cluster).tenants();
  Nanos next_redistribution = env.sim().Now() + kQpSchedInterval;

  verbs::Completion wcs[kCqPollBatch];
  for (;;) {
    Nanos work = 2 * cost.cpu_cq_poll_empty;
    bool found = false;
    // Credit-renew requests arrive as write-with-imm completions on the RCQ
    // (§7: polling the RCQ avoids synchronizing with the request dispatchers).
    // Vectorized drain: one poll call pulls a whole batch of CQEs.
    for (size_t nc; (nc = env.recv_cq->PollBatch(wcs, kCqPollBatch)) > 0;) {
      found = true;
      for (size_t ci = 0; ci < nc; ++ci) {
        const verbs::Completion& wc = wcs[ci];
        work += cost.cpu_cqe_handle + cost.cpu_post_recv;
        if (WrIdTag(wc.wr_id) != WrTag::kServerRecv) {
          // A dual-role node's client-side receives land here too; only a QP
          // flush ever completes them (the server never sends imms clientward).
          continue;
        }
        auto* lane = WrIdPtr<ServerLane>(wc.wr_id);
        if (lane->qp == nullptr) {
          // A graveyard lane (qp harvested into the recycling pool) is past
          // caring: quarantining it on a flush would book a spurious lane
          // failure for a teardown that already completed, and a renewal
          // that landed before the teardown has no QP to re-post on.
          continue;
        }
        if (wc.status != verbs::WcStatus::kSuccess) {
          // Flushed. A flush of the lane's *current* QP condemns it; a stale
          // flush from a QP that a reconnect already replaced does not.
          if (wc.qpn == 0 || wc.qpn == lane->qp->qpn()) {
            QuarantineServerLane(*lane, server.stats);
          }
          continue;
        }
        CtrlType type;
        uint32_t lane_index, value;
        UnpackCtrl(wc.imm, &type, &lane_index, &value);
        FLOCK_CHECK(type == CtrlType::kRenewRequest);
        lane->qp->PostRecv(verbs::RecvWr{wc.wr_id, 0, 0});
        server.stats.credit_renewals += 1;
        lane->utilization += value;  // U_ij += reported median degree
        if (lane->state == ServerLaneState::kActive) {
          // Grant C more credits through the lane's control slot (§5.1).
          // The grant is clipped against the tenant's window budget; the
          // shortfall is remembered on the lane and paid out of the next
          // window by Redistribute, so cumulative grants never leak.
          const uint32_t grant =
              tenants.ClipGrant(lane->tenant_id, config.credits);
          lane->deferred_grant += config.credits - grant;
          if (grant > 0) {
            lane->grant_cumulative += grant;
            WriteCtrlSlot(env, *lane, server.stats);
            lane->credits_outstanding += grant;
            work += cost.cpu_wqe_prep + cost.cpu_mmio_doorbell;
          }
        }
        // Inactive lanes get no credits from the next interval on (§5.1).
      }
      if (nc < kCqPollBatch) {
        break;
      }
    }
    // Our own posted writes (signaled responses, control messages).
    for (size_t nc; (nc = env.send_cq->PollBatch(wcs, kCqPollBatch)) > 0;) {
      found = true;
      for (size_t ci = 0; ci < nc; ++ci) {
        const verbs::Completion& wc = wcs[ci];
        work += cost.cpu_cqe_handle;
        if (WrIdTag(wc.wr_id) == WrTag::kMemOp) {
          auto* op = WrIdPtr<PendingMemOp>(wc.wr_id);
          op->status = wc.status;
          op->done_event.Fire(env.sim());
        } else if (wc.status != verbs::WcStatus::kSuccess) {
          HandleSendError(wc, server.stats);
        }
      }
      if (nc < kCqPollBatch) {
        break;
      }
    }

    if (env.sim().Now() >= next_redistribution) {
      Redistribute(env, server);
      if (config.segment_threshold > 0) {
        // Reclaim orphaned partial extents (their lane died, or the train
        // migrated) so the bounded reassembly pool cannot fill with stuck
        // entries. Host-side bookkeeping only: no events, no posts.
        server.reassembly.Reclaim(env.sim().Now(), ReassemblyTimeout(config));
      }
      next_redistribution = env.sim().Now() + kQpSchedInterval;
      work += static_cast<Nanos>(server.lanes.size()) * 20;
      found = true;
    }
    co_await core.Idle(work, next_redistribution, /*park=*/!found);
  }
}

void ReceiverSched::Redistribute(NodeEnv& env, ServerState& server) {
  const FlockConfig& config = *env.config;
  server.stats.redistributions += 1;
  tenant::TenantRegistry& tenants =
      ctrl::ControlPlane::For(*env.cluster).tenants();
  // Roll the scheduling window: refill per-tenant credit budgets (scaled by
  // the throttle level) and step the throttle state machine. Idempotent per
  // instant, so several server runtimes ticking together roll it once, and a
  // no-op while no tenant is registered.
  tenants.EndWindow(env.sim().Now());
  // Pay deferred grants out of the fresh window, walking senders and lanes
  // in index order so the payout is deterministic at any shard count.
  for (SenderState& sender : server.senders) {
    for (ServerLane* lane : sender.lanes) {
      if (lane->deferred_grant == 0 || lane->state != ServerLaneState::kActive) {
        continue;
      }
      const uint32_t pay =
          tenants.ClipGrant(lane->tenant_id, lane->deferred_grant);
      if (pay > 0) {
        lane->deferred_grant -= pay;
        lane->grant_cumulative += pay;
        lane->credits_outstanding += pay;
        WriteCtrlSlot(env, *lane, server.stats);
      }
    }
  }
  // Weighted-fair AQP partition: a tenant's policy weight scales its senders'
  // utilization, so a weight-2 tenant gets twice the active-QP share of an
  // equally-busy weight-1 tenant. Weight 1 for the default tenant.
  auto sender_weight = [&tenants](const SenderState& s) -> uint64_t {
    const tenant::TenantPolicy* p = tenants.PolicyFor(s.tenant_id);
    return p != nullptr ? std::max<uint32_t>(p->weight, 1) : 1;
  };
  // Effective per-lane utilization: the reported coalescing degrees (the
  // paper's U_ij contention signal) plus the messages received this interval.
  // The message term keeps low-rate senders "functioning" even when no credit
  // renewal happened to land inside this scheduling window — with C=32 and
  // renewal at half, a lane renews only once per 16 messages, which can
  // starve the pure-renewal metric at modest rates and deactivate senders
  // that are in fact active.
  const Nanos now = env.sim().Now();
  uint64_t total_utilization = 0;
  uint32_t dormant = 0;
  for (SenderState& sender : server.senders) {
    if (sender.dead) {
      continue;  // torn down: the slot awaits reuse by a connect
    }
    sender.utilization = 0;
    bool any_failed = false;
    uint32_t live = 0;
    for (ServerLane* lane : sender.lanes) {
      if (lane->state == ServerLaneState::kFailed) {
        any_failed = true;
        continue;
      }
      ++live;
      lane->utilization += lane->messages_handled - lane->messages_at_last_sweep;
      sender.utilization += lane->utilization;
    }
    if (sender.utilization > 0) {
      sender.quiet_since = now;
    }
    // Dead-sender reclamation: transport evidence (>= 1 failed lane) plus
    // rpc_timeout without traffic, handshake or reconnect condemns the
    // sender — its QPs terminate at one client node, and a node that lost a
    // lane and stopped driving the rest is gone, not slow. The teardown
    // errors the live QPs, so a client that is still there learns on its
    // next post, and gives back the sender's share of MAX_AQP.
    if (any_failed && now - sender.quiet_since >= config.rpc_timeout) {
      TearDownOneSender(env, server, sender);
      continue;
    }
    if (live == 0) {
      continue;  // not condemned yet, but out of the budget
    }
    total_utilization += sender.utilization * sender_weight(sender);
    dormant += sender.utilization == 0 ? 1 : 0;
  }
  // Dormant senders keep one QP each; the functioning senders share what is
  // left of MAX_AQP so the cap holds strictly.
  const uint32_t budget =
      config.max_active_qps > dormant ? config.max_active_qps - dormant : 1;

  for (SenderState& sender : server.senders) {
    uint32_t lane_count = 0;  // live (non-quarantined) lanes only; none if dead
    for (ServerLane* lane : sender.lanes) {
      lane_count += lane->state == ServerLaneState::kFailed ? 0 : 1;
    }
    if (lane_count == 0) {
      continue;
    }
    // Dormant senders keep one QP for the future.
    const bool functioning = sender.utilization > 0 && total_utilization > 0;
    uint32_t target = 1;
    if (functioning) {
      target = static_cast<uint32_t>(
          (static_cast<uint64_t>(budget) * sender.utilization *
           sender_weight(sender)) /
          total_utilization);
      target = std::max<uint32_t>(target, 1);
    }
    target = std::min(target, lane_count);

    // One-sided hysteresis: a -1 target wobble (utilization noise between
    // otherwise equal senders) is not worth churning the active set — every
    // flip forces the sender's threads to re-shuffle across lanes, breaking
    // the combining lockstep among them. Growth is always allowed (an
    // under-provisioned sender benefits immediately).
    uint32_t currently_active = 0;
    for (ServerLane* lane : sender.lanes) {
      currently_active += lane->state == ServerLaneState::kActive ? 1 : 0;
    }
    if (functioning && currently_active >= 1 &&
        target + 1 == currently_active) {
      target = currently_active;
    }

    // Keep the most utilized lanes active; prefer the currently-active ones
    // on near-ties so the set membership is stable interval to interval.
    std::vector<ServerLane*>& order = order_scratch;
    order.assign(sender.lanes.begin(), sender.lanes.end());
    // Plain sort with an index tie-break (sender.lanes is in index order), so
    // the result matches a stable sort without stable_sort's temp-buffer
    // allocation on every scheduling interval.
    std::sort(order.begin(), order.end(),
              [](const ServerLane* a, const ServerLane* b) {
                const bool a_active = a->state == ServerLaneState::kActive;
                const bool b_active = b->state == ServerLaneState::kActive;
                if (a_active != b_active) {
                  return a_active;
                }
                if (a->utilization != b->utilization) {
                  return a->utilization > b->utilization;
                }
                return a->index < b->index;
              });
    uint32_t rank = 0;  // rank among live lanes: failed ones hold no slot
    for (uint32_t i = 0; i < order.size(); ++i) {
      ServerLane& lane = *order[i];
      if (lane.state == ServerLaneState::kFailed) {
        lane.messages_at_last_sweep = lane.messages_handled;
        lane.utilization = 0;
        continue;
      }
      const bool want_active = rank < target;
      ++rank;
      if (want_active != (lane.state == ServerLaneState::kActive)) {
        SetServerLaneActive(lane, want_active, server.stats);
        if (want_active) {
          lane.grant_cumulative += config.credits;  // re-arm with C credits
          lane.credits_outstanding += config.credits;
        }
        WriteCtrlSlot(env, lane, server.stats);
      }
      lane.messages_at_last_sweep = lane.messages_handled;
      lane.utilization = 0;
    }
    // Liveness probe: a sender that moved nothing for rpc_timeout may be a
    // dead client whose QPs the server would otherwise never touch again.
    // One signaled slot rewrite on an active lane is idempotent against a
    // healthy peer and completes in error against a dead one; the quarantine
    // that follows lets the reclamation rule above condemn the sender at the
    // next sweep. Probes repeat once per rpc_timeout of quiet and leave the
    // quiet clock alone. Busy senders are never probed.
    if (sender.utilization == 0 &&
        now - std::max(sender.quiet_since, sender.probed_at) >=
            config.rpc_timeout) {
      sender.probed_at = now;
      for (ServerLane* lane : sender.lanes) {
        if (lane->state == ServerLaneState::kActive) {
          WriteCtrlSlot(env, *lane, server.stats, /*signaled=*/true);
          break;
        }
      }
    }
    sender.utilization = 0;
  }
}

}  // namespace internal
}  // namespace flock
