#include "src/flock/combine.h"

#include <algorithm>
#include <vector>

#include "src/ctrl/control_plane.h"
#include "src/flock/sched/receiver.h"

namespace flock {
namespace internal {

PendingSend* StageChunk(ClientConnState& conn, ClientLane& lane,
                        const PendingRpc& rpc, sim::Core& core,
                        const wire::ChunkTrain& chunk, PayloadRef payload,
                        bool retain) {
  PendingSend* ps = conn.client->send_pool.New();
  ps->meta = {chunk.data_len(), rpc.thread_id, rpc.rpc_id, rpc.seq};
  ps->owner_core = &core;
  if (retain) {
    payload.CopyTo(ps->retained.Resize(payload.size()));
    ps->payload = PayloadRef(ps->retained.data(), payload.size());
    ps->copied = true;  // staged right here; no follower copy phase
  } else {
    ps->payload = payload;
  }
  if (lane.combine_tail != nullptr) {
    lane.combine_tail->next = ps;
  } else {
    lane.combine_head = ps;
  }
  lane.combine_tail = ps;
  WakePump(conn, lane);
  return ps;
}

sim::Co<PendingRpc*> StageRpc(ClientConnState& conn, FlockThread& thread,
                              uint16_t rpc_id, PayloadRef payload,
                              uint8_t* response_dst, uint32_t response_cap) {
  const FlockConfig& config = *conn.env->config;
  const sim::CostModel& cost = conn.env->cost();
  const uint32_t len = payload.size();
  FLOCK_CHECK_LE(len, config.max_payload);

  // Lazy lane bring-up (DESIGN.md §13): only a ConnectAsync handle short of
  // its target lane count grows, so every other call pays one compare here.
  if (conn.lanes.size() < conn.target_lanes) {
    co_await EnsureLaneSetup(conn, thread);
  }
  PendingRpc* rpc = conn.client->rpc_pool.New();
  rpc->rpc_id = rpc_id;
  rpc->seq = thread.NextSeq();
  rpc->thread_id = thread.id();
  rpc->submitted_at = conn.env->sim().Now();
  rpc->response_dst = response_dst;
  rpc->response_cap = response_cap;
  if (conn.closed) {
    // Fail the RPC immediately instead of parking it on a released lane that
    // will never be granted credits (and that no watchdog scans).
    ResolveRpc(conn, rpc, /*ok=*/false);
    co_return rpc;
  }

  ClientLane& lane = LaneFor(conn, thread);
  rpc->lane_index = lane.index;
  // Retain the payload for retransmission and set the first deadline. A
  // payload past the inline bytes reuses a recycled heap block (FreeRpc).
  rpc->deadline = rpc->submitted_at + config.rpc_timeout;
  if (len > rpc->request.kInlineBytes) {
    rpc->request = conn.client->request_bufs.Acquire(len);
  }
  payload.CopyTo(rpc->request.Resize(len));
  if (conn.pending.size() <= thread.id()) {
    conn.pending.resize(size_t{thread.id()} + 1);
  }
  conn.pending[thread.id()].Insert(rpc->seq, rpc);

  thread.outstanding += 1;
  lane.inflight += 1;
  thread.reqs_sent.Add(1);
  thread.bytes_sent.Add(len);

  // The request travels as a chunk train (DESIGN.md §16), each chunk an
  // ordinary trip through the TCQ, so other threads' requests coalesce
  // between chunks. Zero-copy: the chunks point at caller memory, which
  // outlives the gather because this coroutine blocks on `sent` below (the
  // lane is FIFO, so the earlier chunks are out once the last one is).
  bool sent = false;
  for (wire::ChunkTrain chunk = ChunkTrainFor(config, len); !chunk.done();
       chunk.Next()) {
    // Chunks are the on-wire unit the sender scheduler sees.
    thread.req_size_median.Record(chunk.size());
    // TCQ enqueue: one atomic swap + a cacheline transfer makes the request
    // visible to the (current or future) leader...
    co_await thread.core().Work(cost.cpu_atomic_rmw +
                                cost.cpu_cacheline_transfer);
    PendingSend* ps =
        StageChunk(conn, lane, *rpc, thread.core(), chunk,
                   payload.Sub(chunk.offset(), chunk.size()), /*retain=*/false);
    if (chunk.last()) {
      ps->sent_flag = &sent;
      ps->sent_cond = lane.sent_cond.get();
    }
    // ...then the thread copies its payload into the combining buffer and
    // raises its copy-completion flag, which the leader polls (§4.2).
    co_await thread.core().Work(
        cost.MemcpyCost(chunk.size() + wire::kMetaBytes));
    if (ps->dropped) {
      // The lane was quarantined mid-copy and the pump unlinked this chunk,
      // releasing the waiter and handing the handle back to us. The RPC
      // stays pending: the watchdog retransmits it from rpc->request.
      conn.client->send_pool.Delete(ps);
    } else {
      ps->copied = true;
      lane.copy_done->NotifyAll();
    }
  }
  // fl_send_rpc completes when the combined message is on the wire: a leader
  // posts it itself; a follower waits for the (transient) leader to do so.
  while (!sent) {
    co_await lane.sent_cond->Wait();
  }
  co_return rpc;
}

void ResolveRpc(ClientConnState& conn, PendingRpc* rpc, bool ok) {
  FLOCK_CHECK(!rpc->done()) << "RPC " << rpc->thread_id << "/" << rpc->seq
                            << " resolved twice";
  if (ok) {
    // The response landed clamped to a caller-owned buffer: a longer one is
    // a failed transfer, not a truncated success.
    rpc->response_len = rpc->resp_assembled;
    ok = rpc->response_dst == nullptr || rpc->response_len <= rpc->response_cap;
  }
  rpc->ok = ok;
  if (!ok) {
    conn.client->stats.failed_rpcs += 1;
  }
  rpc->completed_at = conn.env->sim().Now();
  rpc->done_event.Fire(conn.env->sim());
}

namespace {

// Releases the waiters of the sends listed from `head` — the message
// carrying them was posted, or the lane dropped them — and frees the sends.
// A send whose submitter is still mid-copy (`copied == false`) would be
// written through when that coroutine resumes, so it is handed back
// (`dropped`) instead: StageRpc frees it after its copy work.
void ReleaseSends(ClientConnState& conn, ClientLane& lane, PendingSend* head) {
  for (PendingSend* ps = head; ps != nullptr;) {
    PendingSend* next = ps->next;
    ps->next = nullptr;
    if (ps->sent_flag != nullptr) {
      *ps->sent_flag = true;
    }
    // Requests migrated from a quarantined lane carry that lane's waker.
    if (ps->sent_cond != nullptr && ps->sent_cond != lane.sent_cond.get()) {
      ps->sent_cond->NotifyAll();
    }
    if (ps->copied) {
      conn.client->send_pool.Delete(ps);
    } else {
      ps->dropped = true;
    }
    ps = next;
  }
  lane.sent_cond->NotifyAll();
}

}  // namespace

void WakePump(ClientConnState& conn, ClientLane& lane) {
  if (lane.pump_running) {
    return;  // the running pump's admit loop picks the new request up
  }
  lane.pump_running = true;
  if (!lane.pump_spawned) {
    lane.pump_spawned = true;
    conn.env->sim().Spawn(Pump(conn, lane), conn.env->node);
  } else {
    lane.pump_wake.Fire(conn.env->sim());
  }
}

sim::Proc Pump(ClientConnState& conn, ClientLane& lane) {
  const FlockConfig& config = *conn.env->config;
  const sim::CostModel& cost = conn.env->cost();
  sim::Simulator& sim = conn.env->sim();
  // Tenant byte quota (DESIGN.md §15): resolved once. The default tenant
  // has no quota, so it is always allowed and never charged.
  tenant::TenantRegistry& tenants =
      ctrl::ControlPlane::For(*conn.env->cluster).tenants();

  for (;;) {
    if (lane.combine_head == nullptr) {
      // Queue drained: park until the next request (or retry restage) wakes
      // us. pump_running goes false and the wake is re-armed with no
      // suspension in between, so pump_running == false implies parked.
      lane.pump_running = false;
      lane.pump_wake.Reset();
      co_await lane.pump_wake.Wait();
      continue;
    }
    // Collect the leader's batch: bounded combining (§4.2). The batch is an
    // intrusive list spliced off the front of the lane's combining queue.
    const size_t bound = config.coalescing ? config.max_coalesce : 1;
    PendingSend* batch_head = nullptr;
    PendingSend* batch_tail = nullptr;
    size_t batch_n = 0;
    uint32_t data_bytes = 0;
    // Admits queued requests up to the bound; followers that enqueue while
    // the leader waits are admitted too (the leader-progress rule). The
    // encoder-capacity check guards pathological payload mixes.
    auto admit = [&]() {
      while (batch_n < bound && lane.combine_head != nullptr) {
        PendingSend* ps = lane.combine_head;
        // Masked: segment marks in the top bits carry no bytes (a no-op for
        // unsegmented requests).
        const uint32_t next_len = wire::SegLen(ps->meta.data_len);
        if (batch_n > 0 &&
            wire::MessageBytes(static_cast<uint32_t>(batch_n) + 1,
                               data_bytes + next_len) > config.ring_bytes / 2) {
          break;
        }
        lane.combine_head = ps->next;
        if (lane.combine_head == nullptr) {
          lane.combine_tail = nullptr;
        }
        ps->next = nullptr;
        data_bytes += next_len;
        if (batch_tail != nullptr) {
          batch_tail->next = ps;
        } else {
          batch_head = ps;
        }
        batch_tail = ps;
        ++batch_n;
      }
    };
    // Puts the batch back in front of the lane's combining queue.
    auto unadmit = [&]() {
      if (batch_tail != nullptr) {
        batch_tail->next = lane.combine_head;
        lane.combine_head = batch_head;
        if (lane.combine_tail == nullptr) {
          lane.combine_tail = batch_tail;
        }
      }
    };
    auto all_copied = [&]() {
      for (const PendingSend* ps = batch_head; ps != nullptr; ps = ps->next) {
        if (!ps->copied) {
          return false;
        }
      }
      return true;
    };
    while (true) {
      admit();
      if (all_copied()) {
        break;
      }
      co_await lane.copy_done->Wait();
    }

    sim::Core& core = *batch_head->owner_core;
    // Leader overhead before finalizing: buffer management and flag polls.
    // Followers arriving during this window are still admitted below.
    co_await core.Work(cost.cpu_msg_fixed);
    while (true) {
      admit();
      if (all_copied()) {
        break;
      }
      co_await lane.copy_done->Wait();
    }

    uint32_t n = static_cast<uint32_t>(batch_n);
    uint32_t msg_len = wire::MessageBytes(n, data_bytes);

    // Wait for a credit and contiguous ring space.
    RingProducer::Reservation resv;
    bool requeued = false;  // batch handed off (migrated or dropped)
    while (true) {
      if (lane.state != ClientLaneState::kActive && lane.credits == 0) {
        // Deactivated and drained: migrate the queued work to an active lane
        // (sender-side thread scheduling will move the threads themselves).
        ClientLane* target = nullptr;
        for (const auto& other : conn.lanes) {
          if (other->state == ClientLaneState::kActive) {
            target = other.get();
            break;
          }
        }
        if (target != nullptr && target != &lane) {
          // Put the batch back in front of the remaining queue, then splice
          // the whole queue onto the target lane.
          unadmit();
          size_t moved = 0;
          for (PendingSend* ps = lane.combine_head; ps != nullptr; ps = ps->next) {
            ++moved;
          }
          if (target->combine_tail != nullptr) {
            target->combine_tail->next = lane.combine_head;
          } else {
            target->combine_head = lane.combine_head;
          }
          target->combine_tail = lane.combine_tail;
          lane.combine_head = nullptr;
          lane.combine_tail = nullptr;
          target->inflight += moved;
          lane.inflight -= std::min<uint64_t>(lane.inflight, moved);
          WakePump(conn, *target);
          requeued = true;  // queue is empty now: park at the loop top
          break;
        }
        if (lane.quarantined()) {
          // Quarantined with nowhere to migrate: drop the queued sends and
          // release their waiters. The RPCs stay pending — the retry watchdog
          // retransmits them (or fails them) on whatever lane survives.
          unadmit();
          PendingSend* dropped = lane.combine_head;
          lane.combine_head = nullptr;
          lane.combine_tail = nullptr;
          ReleaseSends(conn, lane, dropped);
          requeued = true;  // queue dropped: park at the loop top
          break;
        }
        co_await lane.send_ready.Wait();
        continue;
      }
      if (!tenants.SendAllowed(conn.tenant_id)) {
        // Over the window byte quota: poll-wait for the next scheduler window
        // (no credit event marks a quota refresh, so send_ready cannot wake
        // us). Checked before Reserve so no ring reservation is held while
        // stalled; the batch that eventually goes out may exceed the quota by
        // one message (soft bound).
        tenants.NoteQuotaStall(conn.tenant_id);
        co_await sim::Delay(sim, kMicrosecond);
        continue;
      }
      if (lane.credits > 0 && lane.req_producer.Reserve(msg_len, &resv)) {
        break;
      }
      co_await lane.send_ready.Wait();
      // Backpressure grows the batch: requests that queued while this lane
      // was out of credits or ring space are combined into this message.
      admit();
      while (!all_copied()) {
        co_await lane.copy_done->Wait();
      }
      n = static_cast<uint32_t>(batch_n);
      msg_len = wire::MessageBytes(n, data_bytes);
    }
    if (requeued) {
      continue;
    }
    lane.credits -= 1;

    // Leader work: per-request combining (buffer grants + flag polls),
    // header build, canary generation (§4.2).
    co_await core.Work(static_cast<Nanos>(n) * cost.cpu_msg_per_req);

    const uint64_t canary = SplitMix64(*conn.env->rng_state);
    wire::MessageEncoder encoder(lane.staging + resv.offset, msg_len, canary);
    // The tenant stamp rides in the header flags; tenant 0 stamps zero bits,
    // so single-tenant messages carry no tenant bits at all.
    // A batch containing any segment chunk additionally raises kFlagSegment.
    uint16_t flags = wire::PackTenantFlags(conn.tenant_id);
    for (const PendingSend* ps = batch_head; ps != nullptr; ps = ps->next) {
      if (wire::SegOf(ps->meta.data_len) != wire::SegMark::kNone) {
        flags |= wire::kFlagSegment;
      }
      // Single copy of the payload path (DESIGN.md §16): gather from the
      // caller's slices straight into the staging ring.
      encoder.AddGather(ps->meta, ps->payload);
    }
    const uint32_t total =
        encoder.Seal(lane.resp_consumer->consumed_report(), /*credit_grant=*/0,
                     flags);
    FLOCK_CHECK_EQ(total, msg_len);
    if (config.segment_threshold == 0) {
      // This message carries a fresh head, so the dispatcher's out-of-band
      // slot write can be suppressed. Only safe without segmentation: a
      // server blocked mid-chunk-train reads nothing but the head slot, and
      // a report sealed into a request message it cannot gather (it holds
      // the lane in_service for the whole train) would be trapped there —
      // client pump wedged on the full request ring, server wedged on a
      // "full" response ring, dispatcher silent. Three-way deadlock.
      lane.resp_bytes_since_send = 0;
    }

    // Post the coalesced message (plus wrap marker / credit renewal if due)
    // with a single doorbell.
    verbs::SendWr wrs[3];
    size_t nwrs = 0;
    AppendRingWrite(lane, resv, msg_len, canary,
                    TagWrId(WrTag::kRpcWrite, &lane), wrs, &nwrs);
    MaybeRenewCredits(config, lane, wrs, &nwrs);

    co_await core.Work(static_cast<Nanos>(nwrs) * cost.cpu_wqe_prep +
                       cost.cpu_mmio_doorbell);
    const verbs::WcStatus status = lane.qp->PostSendBatch(wrs, nwrs);
    if (status != verbs::WcStatus::kSuccess) {
      // The QP is dead (it rejects posts only in the error state). Quarantine
      // the lane and push the batch back in front of the queue: the migration
      // branch above re-routes everything to a surviving lane next iteration.
      QuarantineLane(conn, lane);
      unadmit();
      continue;
    }

    lane.messages_sent += 1;
    lane.requests_sent += n;
    tenants.ChargeSent(conn.tenant_id, msg_len);
    lane.coalesce_degree.Record(n);
    lane.batch_histogram[n < 33 ? n : 32] += 1;
    ReleaseSends(conn, lane, batch_head);
  }
}

sim::Co<verbs::WcStatus> SubmitMemOp(ClientConnState& conn, FlockThread& thread,
                                     verbs::SendWr wr) {
  const sim::CostModel& cost = conn.env->cost();
  // Lazy lane bring-up and the closed-handle fail-fast; see StageRpc.
  if (conn.lanes.size() < conn.target_lanes) {
    co_await EnsureLaneSetup(conn, thread);
  }
  if (conn.closed) {
    co_return verbs::WcStatus::kQpError;
  }
  ClientLane& lane = LaneFor(conn, thread);

  PendingMemOp op;
  op.wr = wr;
  op.wr.wr_id = TagWrId(WrTag::kMemOp, &op);
  op.wr.signaled = true;  // each thread waits on its own completion event
  op.owner_core = &thread.core();

  thread.outstanding += 1;
  // Each thread prepares its own work request; posting is delegated to the
  // leader, which links the batch (§6).
  co_await thread.core().Work(cost.cpu_atomic_rmw + cost.cpu_cacheline_transfer +
                              cost.cpu_wqe_prep);
  if (lane.memop_tail != nullptr) {
    lane.memop_tail->next = &op;
  } else {
    lane.memop_head = &op;
  }
  lane.memop_tail = &op;
  if (!lane.mem_pump_running) {
    lane.mem_pump_running = true;
    conn.env->sim().Spawn(MemPump(conn, lane), conn.env->node);
  }
  co_await op.done_event.Wait();
  thread.outstanding -= 1;
  // A fatal completion status means the lane's QP is dead (flushed, errored,
  // or pointing at a vanished peer): quarantine it so later work — RPC or
  // memop — repairs onto a fresh lane, exactly as HandleSendError does for
  // the send path. QuarantineLane is idempotent, so racing with the RPC
  // path's own error handling is fine.
  if (IsFatalWcStatus(op.status)) {
    QuarantineLane(conn, lane);
  }
  co_return op.status;
}

sim::Proc MemPump(ClientConnState& conn, ClientLane& lane) {
  const FlockConfig& config = *conn.env->config;
  const sim::CostModel& cost = conn.env->cost();
  while (lane.memop_head != nullptr) {
    // Cut up to `bound` ops off the front of the queue; their WRs are the
    // batch, in an array the lane keeps across batches.
    const size_t bound = config.coalescing ? config.max_coalesce : 1;
    std::vector<verbs::SendWr>& wrs = lane.memop_wrs;
    wrs.clear();
    PendingMemOp* batch_head = lane.memop_head;
    PendingMemOp* batch_tail = nullptr;
    while (wrs.size() < bound && lane.memop_head != nullptr) {
      batch_tail = lane.memop_head;
      wrs.push_back(batch_tail->wr);
      lane.memop_head = batch_tail->next;
    }
    batch_tail->next = nullptr;
    if (lane.memop_head == nullptr) {
      lane.memop_tail = nullptr;
    }
    const size_t batch_n = wrs.size();
    sim::Core& core = *batch_head->owner_core;
    // The leader links the WRs and rings one doorbell for the whole chain.
    co_await core.Work(cost.cpu_mmio_doorbell +
                       static_cast<Nanos>(batch_n) * (cost.cpu_atomic_rmw / 2));
    // Hand the chain to the device as one linked batch: the doorbell charged
    // above covers every WR (PostSendBatch is all-or-nothing, so a rejected
    // batch falls back to per-op posts — each op then learns its own status
    // instead of inheriting whichever WR poisoned the chain).
    if (lane.qp->PostSendBatch(wrs.data(), wrs.size()) != verbs::WcStatus::kSuccess) {
      for (PendingMemOp* op = batch_head; op != nullptr; op = op->next) {
        const verbs::WcStatus status = lane.qp->PostSend(op->wr);
        if (status != verbs::WcStatus::kSuccess) {
          op->status = status;
          op->done_event.Fire(conn.env->sim());
        }
      }
    }
    // QP contention indicator for receiver-side scheduling (§6).
    lane.coalesce_degree.Record(static_cast<uint32_t>(batch_n));
  }
  lane.mem_pump_running = false;
}

}  // namespace internal
}  // namespace flock
