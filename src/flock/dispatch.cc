#include "src/flock/dispatch.h"

#include <algorithm>
#include <cstring>

#include "src/ctrl/control_plane.h"
#include "src/flock/combine.h"
#include "src/flock/sched/receiver.h"

namespace flock {
namespace internal {

sim::Proc RequestDispatcher(NodeEnv& env, ServerState& server, int index) {
  // Core 0 runs the QP scheduler; dispatchers use the rest.
  sim::Core& core = env.cpu().core(1 + index);
  const sim::CostModel& cost = env.cost();
  const FlockConfig& config = *env.config;
  DispatchScratch scratch;
  // The gather phase can batch up to 2 * max_coalesce - 1 requests.
  scratch.data.resize(DispatchScratchBytes(config));

  for (;;) {
    Nanos pass_cost = 0;
    bool found = false;
    for (size_t li = 0;
         li < server.dispatcher_lanes[static_cast<size_t>(index)].size(); ++li) {
      ServerLane& lane = *server.dispatcher_lanes[static_cast<size_t>(index)][li];
      pass_cost += cost.cpu_ring_poll_empty;
      if (lane.in_service || lane.state == ServerLaneState::kFailed) {
        continue;  // owned by an RPC worker right now, or quarantined
      }
      wire::MsgHeader header;
      const wire::ProbeResult probe = lane.req_consumer->Probe(&header);
      if (probe == wire::ProbeResult::kMessage) {
        found = true;
        if (config.server_workers > 0) {
          // Worker-pool mode: route the lane to the pool (small routing cost)
          // and let a worker gather + execute + respond.
          lane.in_service = true;
          server.work_queue.push_back(&lane);
          server.work_ready->NotifyOne();
          pass_cost += cost.cpu_cacheline_transfer;
          continue;
        }
        // in_service also fences the control plane: a reconnect handshake
        // must not re-base this lane's rings while the dispatcher is between
        // its probe and the matching consume.
        lane.in_service = true;
        co_await core.Work(pass_cost);
        pass_cost = 0;
        co_await HandleRequestMessage(env, server, lane, core, header, scratch);
        lane.in_service = false;
      }
    }
    co_await core.Idle(pass_cost > 0 ? pass_cost : cost.cpu_ring_poll_empty,
                       /*wake_at=*/-1, /*park=*/!found);
  }
}

sim::Proc RpcWorker(NodeEnv& env, ServerState& server, int index) {
  // Workers run on the cores above the dispatchers'.
  sim::Core& core = env.cpu().core(1 + server.dispatcher_count + index);
  const sim::CostModel& cost = env.cost();
  const FlockConfig& config = *env.config;
  DispatchScratch scratch;
  scratch.data.resize(DispatchScratchBytes(config));
  for (;;) {
    while (server.work_queue.empty()) {
      co_await server.work_ready->Wait();
    }
    ServerLane& lane = *server.work_queue.front();
    server.work_queue.pop_front();
    wire::MsgHeader header;
    if (lane.state != ServerLaneState::kFailed &&
        lane.req_consumer->Probe(&header) == wire::ProbeResult::kMessage) {
      co_await core.Work(cost.cpu_cacheline_transfer);  // take over the lane
      co_await HandleRequestMessage(env, server, lane, core, header, scratch);
    }
    lane.in_service = false;
  }
}

namespace {

// Posts one response message on `lane`'s response ring: the `n` entries of
// `resps` (payloads at base + offset, `bytes` in total) sealed with the
// request-ring head report and `flags`. Returns false when the lane died
// first, after counting the message as dropped.
sim::Co<bool> PostResponse(NodeEnv& env, ServerState& server, ServerLane& lane,
                           sim::Core& core,
                           const DispatchScratch::RespEntry* resps, uint32_t n,
                           const uint8_t* base, uint32_t bytes, uint16_t flags) {
  const sim::CostModel& cost = env.cost();
  // Reserve response-ring space; while stalled, re-read the head slot the
  // client's dispatcher keeps fresh (the §4.1 fallback for a stale Head).
  const uint32_t msg_len = wire::MessageBytes(n, bytes);
  RingProducer::Reservation resv;
  uint64_t stalls = 0;
  while (!lane.resp_producer.Reserve(msg_len, &resv)) {
    if (lane.state == ServerLaneState::kFailed) {
      // The client stopped consuming because it is gone, not slow. Drop the
      // responses; its RPCs recover (or fail) through their own timeouts.
      server.stats.responses_dropped += 1;
      co_return false;
    }
    // A ring stuck for 64 us may mean the client silently died: re-post the
    // control slot *signaled*. A live client just sees its slot rewritten; a
    // dead QP answers with an error completion, which quarantines the lane
    // and ends this stall.
    if ((++stalls & 63) == 0) {
      WriteCtrlSlot(env, lane, server.stats, /*signaled=*/true);
      if (lane.state == ServerLaneState::kFailed) {
        server.stats.responses_dropped += 1;
        co_return false;
      }
    }
    co_await sim::Delay(env.sim(), kMicrosecond);
    uint32_t slot_value = 0;
    std::memcpy(&slot_value, lane.head_slot_ptr, 4);
    lane.resp_producer.OnHeadUpdate(slot_value);
  }

  // Encode; piggyback the request-ring head (§4.3).
  const uint64_t canary = SplitMix64(*env.rng_state);
  wire::MessageEncoder encoder(lane.staging + resv.offset, msg_len, canary);
  for (uint32_t i = 0; i < n; ++i) {
    encoder.Add(resps[i].meta, base + resps[i].offset);
  }
  const uint32_t total = encoder.Seal(lane.req_consumer->consumed_report(),
                                      /*credit_grant=*/0, flags);
  FLOCK_CHECK_EQ(total, msg_len);
  lane.seg_bytes_since_report = 0;  // the piggyback head carried the report
  co_await core.Work(cost.cpu_msg_fixed +
                     static_cast<Nanos>(n) * cost.cpu_msg_per_req +
                     cost.MemcpyCost(bytes));

  verbs::SendWr wrs[2];
  size_t nwrs = 0;
  AppendRingWrite(lane, resv, msg_len, canary,
                  TagWrId(WrTag::kServerWrite, &lane), wrs, &nwrs);
  co_await core.Work(static_cast<Nanos>(nwrs) * cost.cpu_wqe_prep +
                     cost.cpu_mmio_doorbell);
  if (lane.qp->PostSendBatch(wrs, nwrs) != verbs::WcStatus::kSuccess) {
    QuarantineServerLane(lane, server.stats);
    server.stats.responses_dropped += 1;
    co_return false;
  }
  co_return true;
}

}  // namespace

sim::Co<void> HandleRequestMessage(NodeEnv& env, ServerState& server,
                                   ServerLane& lane, sim::Core& core,
                                   const wire::MsgHeader& first,
                                   DispatchScratch& scratch) {
  const sim::CostModel& cost = env.cost();
  const FlockConfig& config = *env.config;
  // Tenant attribution (DESIGN.md §15): resolved once per gather. Charging
  // the default tenant is a no-op, so single-tenant runs write nothing.
  tenant::TenantRegistry& tenants =
      ctrl::ControlPlane::For(*env.cluster).tenants();
  uint64_t tenant_bytes = 0;

  // Freshen the response-ring view from the client's out-of-band head slot.
  uint32_t slot_value = 0;
  std::memcpy(&slot_value, lane.head_slot_ptr, 4);
  lane.resp_producer.OnHeadUpdate(slot_value);

  // Gather phase: drain consecutive complete messages from this lane's ring
  // (bounded) so responses coalesce *across* request messages too (§4.3).
  const bool seg_on = config.segment_threshold > 0;
  // What a not-yet-seen request may add to the coalesced response: with
  // segmentation on, anything bigger streams out as its own chunk train.
  const uint32_t resp_cap_est =
      seg_on ? SegmentChunkBytes(config) : config.max_payload;
  scratch.resp.clear();
  uint32_t total_reqs = 0;
  uint32_t resp_bytes = 0;
  uint32_t offset = 0;
  Nanos work = 0;
  wire::MsgHeader header = first;
  while (true) {
    lane.resp_producer.OnHeadUpdate(header.piggyback_head);
    const uint32_t n = header.num_reqs;
    scratch.views.resize(n);
    FLOCK_CHECK(wire::DecodeRequests(lane.req_consumer->MessagePtr(), header,
                                     scratch.views.data()))
        << "malformed coalesced message";
    work += cost.cpu_msg_fixed + static_cast<Nanos>(n) * cost.cpu_msg_per_req;
    for (uint32_t i = 0; i < n; ++i) {
      const wire::ReqView& req = scratch.views[i];
      const uint8_t* req_data = req.data;
      uint32_t req_len = wire::SegLen(req.meta.data_len);
      const wire::SegMark mark = wire::SegOf(req.meta.data_len);
      if (mark != wire::SegMark::kNone) {
        // Segment chunk: accumulate; only a completed train runs a handler.
        uint32_t complete_len = 0;
        const ReassemblyKey key{&lane, req.meta.thread_id, req.meta.seq};
        const uint8_t* complete = server.reassembly.Feed(
            key, mark, req_data, req_len, env.sim().Now(), &complete_len);
        work += cost.MemcpyCost(req_len);  // copy into the reassembly buffer
        if (complete == nullptr) {
          continue;  // partial (or dropped: the watchdog retransmits)
        }
        req_data = complete;
        req_len = complete_len;
      }
      const RpcHandler* handler = server.FindHandler(req.meta.rpc_id);
      FLOCK_CHECK(handler != nullptr) << "no handler for rpc " << req.meta.rpc_id;
      Nanos handler_cpu = 0;
      const uint32_t resp_len =
          (*handler)(req_data, req_len, scratch.data.data() + offset,
                     config.max_payload, &handler_cpu);
      FLOCK_CHECK_LE(resp_len, config.max_payload);
      work += handler_cpu + cost.cpu_msg_per_req;
      if (Segmented(config, resp_len)) {
        // Stream it now as a chunk train (DESIGN.md §16), one message per
        // chunk: a large response never enters the accumulation buffer, so
        // the coalesced responses gathered alongside are not held hostage to
        // ring space for the whole extent. `offset` stays put, so the buffer
        // slot is reused.
        co_await core.Work(work);
        work = 0;
        for (wire::ChunkTrain chunk = ChunkTrainFor(config, resp_len);
             !chunk.done(); chunk.Next()) {
          DispatchScratch::RespEntry entry{req.meta, chunk.offset()};
          entry.meta.data_len = chunk.data_len();
          if (!co_await PostResponse(env, server, lane, core, &entry, 1,
                                     scratch.data.data() + offset, chunk.size(),
                                     wire::kFlagSegment)) {
            co_return;  // lane died mid-stream
          }
        }
        server.stats.responses_sent += 1;
        continue;
      }
      // One message must fit a ring_bytes / 2 reservation: flush what has
      // accumulated before this result would push it over. Earlier results
      // stay where they are in the buffer, which holds the whole gather.
      if (!scratch.resp.empty() &&
          wire::MessageBytes64(scratch.resp.size() + 1,
                               uint64_t{resp_bytes} + resp_len) >
              config.ring_bytes / 2) {
        co_await core.Work(work);
        work = 0;
        if (!co_await PostResponse(
                env, server, lane, core, scratch.resp.data(),
                static_cast<uint32_t>(scratch.resp.size()),
                scratch.data.data(), resp_bytes, /*flags=*/0)) {
          co_return;  // lane died
        }
        server.stats.responses_sent += 1;
        scratch.resp.clear();
        resp_bytes = 0;
      }
      DispatchScratch::RespEntry entry;
      entry.meta = req.meta;  // echo thread id, seq, rpc id
      entry.meta.data_len = resp_len;
      entry.offset = offset;
      scratch.resp.push_back(entry);
      offset += resp_len;
      resp_bytes += resp_len;
    }
    // Retire the request message (zeroing = Free/Processed state of Fig. 5).
    work += cost.MemcpyCost(header.total_len);
    lane.req_consumer->Consume(header);
    if (seg_on) {
      lane.seg_bytes_since_report += header.total_len;
    }
    lane.messages_handled += 1;
    lane.requests_handled += n;
    server.stats.messages += 1;
    server.stats.requests += n;
    total_reqs += n;
    tenant_bytes += header.total_len;
    // Cross-check the data-plane stamp against the identity the handshake
    // registered for this lane. The handshake is authoritative — a mismatch
    // is counted (forged or corrupted stamp) but the message is still served
    // under the lane's registered tenant.
    if (wire::TenantFromFlags(header.flags) !=
        (lane.tenant_id & wire::kMaxTenantStamp)) {
      tenants.NoteStampMismatch(lane.tenant_id);
    }
    if (!config.coalescing || total_reqs >= config.max_coalesce) {
      break;  // coalescing disabled: one response message per request message
    }
    if (lane.req_consumer->Probe(&header) != wire::ProbeResult::kMessage) {
      break;
    }
    // Stop if the next message's responses could overflow the encoding
    // (worst case: every one of its requests yields a full-size accumulated
    // response). 64-bit: the worst-case product is not ring-bounded.
    if (wire::MessageBytes64(
            scratch.resp.size() + header.num_reqs,
            uint64_t{resp_bytes} +
                uint64_t{header.num_reqs} * resp_cap_est) >
        config.ring_bytes / 2) {
      break;
    }
  }
  tenants.OnRequests(lane.tenant_id, total_reqs, tenant_bytes);
  co_await core.Work(work);

  const uint32_t num_resps = static_cast<uint32_t>(scratch.resp.size());
  if (num_resps == 0) {
    // Pure chunk feed: no response message to piggyback the request-ring
    // head on, so once enough ring bytes were consumed push the report
    // through the control slot — otherwise an extent upload deadlocks the
    // client's producer on a "full" ring that is actually empty. The report
    // also goes out whenever this gather drained the ring: no further
    // consumption means no further report, and bytes left unreported below
    // the threshold would pin the client's producer forever — a wrapped
    // reservation of a ring_bytes/2 batch needs the ring near-empty, so
    // even a small stale remainder is a deadlock, not just slack.
    if (seg_on && lane.seg_bytes_since_report > 0) {
      wire::MsgHeader peek;
      const bool drained =
          lane.req_consumer->Probe(&peek) != wire::ProbeResult::kMessage;
      if (drained || lane.seg_bytes_since_report >= config.ring_bytes / 4) {
        WriteCtrlSlot(env, lane, server.stats);
        co_await core.Work(cost.cpu_wqe_prep + cost.cpu_mmio_doorbell);
      }
    }
    co_return;
  }

  if (co_await PostResponse(env, server, lane, core, scratch.resp.data(),
                            num_resps, scratch.data.data(), resp_bytes,
                            /*flags=*/0)) {
    server.stats.responses_sent += 1;
  }
}

sim::Proc ResponseDispatcher(NodeEnv& env, ClientState& client,
                             ServerStats& server_stats, int index) {
  // Dispatchers occupy the top cores of the node (the paper dedicates a
  // lightweight dispatcher thread that serves many QPs).
  sim::Core& core = env.cpu().core(env.cpu().num_cores() - 1 - index);
  const sim::CostModel& cost = env.cost();
  const FlockConfig& config = *env.config;
  // Per-proc decode scratch: capacity persists across messages.
  std::vector<wire::ReqView> views;

  verbs::Completion wcs[kCqPollBatch];
  for (;;) {
    Nanos pass_cost = cost.cpu_cq_poll_empty;
    bool found = false;
    // Vectorized send-CQ drain (selective signaling keeps this sparse, but
    // error bursts — a flushed QP — arrive as whole batches).
    for (size_t nc; (nc = env.send_cq->PollBatch(wcs, kCqPollBatch)) > 0;) {
      found = true;
      for (size_t ci = 0; ci < nc; ++ci) {
        const verbs::Completion& wc = wcs[ci];
        pass_cost += cost.cpu_cqe_handle;
        if (WrIdTag(wc.wr_id) == WrTag::kMemOp) {
          auto* op = WrIdPtr<PendingMemOp>(wc.wr_id);
          op->status = wc.status;
          op->done_event.Fire(env.sim());
        } else if (wc.status != verbs::WcStatus::kSuccess) {
          HandleSendError(wc, server_stats);
        }
      }
      if (nc < kCqPollBatch) {
        break;
      }
    }

    // Index-based on purpose: CloseConnection erases closed connections from
    // client.conns between events, and the co_awaits below suspend mid-pass —
    // an iterator would dangle. Same visitation order as iterators, so the
    // trace of a run that never closes a connection is unchanged.
    for (size_t ci = 0; ci < client.conns.size(); ++ci) {
      ClientConnState* conn = client.conns[ci];
      // With segmentation on, each pass visits the lanes twice: sweep 0
      // serves plain responses, sweep 1 the chunk trains. A per-chunk
      // reassembly memcpy is an order of magnitude more dispatcher work than
      // a small completion, and Algorithm 1 segregates the classes onto
      // different lanes, so draining the plain lanes first keeps bulk
      // reassembly out of the metadata tail (the header flag word makes the
      // classification a header peek, not a decode). Flags-off runs keep the
      // single sweep — and their exact event trace.
      const int sweeps = config.segment_threshold > 0 ? 2 : 1;
      for (int sweep = 0; sweep < sweeps; ++sweep) {
      for (size_t li = index; li < conn->lanes.size();
           li += static_cast<size_t>(config.response_dispatchers)) {
        ClientLane& lane = *conn->lanes[li];
        if (lane.qp == nullptr) {
          continue;  // harvested at close: nothing to poll, no QP to post on
        }
        wire::MsgHeader header;
        if (sweep == 0) {
          pass_cost += cost.cpu_ring_poll_empty;
          found |= ApplyCtrlSlot(env, lane);  // grants / activation from the server
          if (lane.resp_consumer->Probe(&header) != wire::ProbeResult::kMessage) {
            continue;
          }
          found = true;
          if (sweeps == 2 && (header.flags & wire::kFlagSegment) != 0) {
            continue;  // defer chunk reassembly to sweep 1
          }
        } else {
          // Revisit of a lane deferred above. The header peek was paid for in
          // sweep 0 (only this dispatcher consumes the ring, so it is still
          // the head message) — no second poll charge. Lanes served or empty
          // in sweep 0 fall through the flag test untouched.
          if (lane.resp_consumer->Probe(&header) != wire::ProbeResult::kMessage ||
              (header.flags & wire::kFlagSegment) == 0) {
            continue;
          }
        }
        // Fence the control plane: the reconnect daemon must not resync this
        // lane's rings between the probe above and the consume below.
        lane.in_dispatch = true;
        co_await core.Work(pass_cost);
        pass_cost = 0;

        // Piggybacked request-ring head.
        lane.req_producer.OnHeadUpdate(header.piggyback_head);
        if (config.segment_threshold > 0) {
          // Track the full 32-bit cumulative so ApplyCtrlSlot can expand the
          // 24-bit control-slot reports against a recent base. Same staleness
          // rule as OnHeadUpdate: an implausibly large jump is an old report.
          const uint32_t adv = header.piggyback_head - lane.seg_req_consumed;
          if (adv != 0 && adv <= config.ring_bytes) {
            lane.seg_req_consumed = header.piggyback_head;
          }
        }
        lane.send_ready.NotifyAll();

        const uint32_t n = header.num_reqs;
        views.resize(n);
        FLOCK_CHECK(
            wire::DecodeRequests(lane.resp_consumer->MessagePtr(), header, views.data()));
        Nanos work = cost.cpu_msg_fixed + static_cast<Nanos>(n) * cost.cpu_msg_per_req;
        uint32_t matched = 0;
        for (uint32_t i = 0; i < n; ++i) {
          const wire::ReqView& resp = views[i];
          const wire::SegMark mark = wire::SegOf(resp.meta.data_len);
          const uint32_t len = wire::SegLen(resp.meta.data_len);
          // An inline response is a one-chunk train. A chunk train's RPC
          // stays in the pending map until its last chunk lands.
          PendingRpc* rpc = nullptr;
          if (resp.meta.thread_id < conn->pending.size()) {
            SeqSlotMap<PendingRpc>& pending = conn->pending[resp.meta.thread_id];
            rpc = mark == wire::SegMark::kNone ? pending.Take(resp.meta.seq)
                                               : pending.Find(resp.meta.seq);
          }
          if (rpc == nullptr) {
            // A retransmitted request can yield two responses (at-least-once
            // under retry); the second finds nothing outstanding.
            client.stats.spurious_responses += 1;
            continue;
          }
          if (mark == wire::SegMark::kNone || mark == wire::SegMark::kFirst) {
            rpc->resp_assembled = 0;
            rpc->resp_src = &lane;  // this train's arrival lane
            rpc->response.clear();
          } else if (rpc->resp_src != &lane) {
            // Mid-train chunk from another lane: a duplicate train from a
            // pre-retry incarnation. Per-lane delivery is FIFO, so only the
            // adopted lane's train accumulates.
            client.stats.spurious_responses += 1;
            continue;
          }
          if (rpc->response_dst != nullptr) {
            // Clamped to the caller's buffer; ResolveRpc fails an overflow.
            const uint32_t room =
                rpc->response_cap - std::min(rpc->response_cap, rpc->resp_assembled);
            std::memcpy(rpc->response_dst + rpc->resp_assembled, resp.data,
                        std::min(len, room));
          } else {
            rpc->response.Append(resp.data, len);
          }
          rpc->resp_assembled += len;
          work += cost.MemcpyCost(len);
          if (mark == wire::SegMark::kLast) {
            conn->pending[resp.meta.thread_id].Take(resp.meta.seq);
          } else if (mark != wire::SegMark::kNone) {
            continue;  // mid-train: the RPC stays pending
          }
          ResolveRpc(*conn, rpc, /*ok=*/true);
          client.threads[resp.meta.thread_id]->outstanding -= 1;
          ++matched;
        }
        // Clamped: watchdog retries move in-flight accounting between lanes,
        // so under failures the per-lane counter is advisory, not exact.
        lane.inflight -= std::min<uint64_t>(lane.inflight, matched);
        work += cost.MemcpyCost(header.total_len);  // zero the consumed region
        lane.resp_consumer->Consume(header);

        // Keep the server's view of this response ring fresh even when no
        // request traffic carries a piggyback: RDMA-write the cumulative
        // consumed count into the server-side head slot.
        lane.resp_bytes_since_send += header.total_len;
        if (lane.resp_bytes_since_send >= config.ring_bytes / 4) {
          const uint32_t report = lane.resp_consumer->consumed_report();
          std::memcpy(lane.head_src_ptr, &report, 4);
          verbs::SendWr slot_wr;
          slot_wr.wr_id = TagWrId(WrTag::kCtrl, &lane);
          slot_wr.opcode = verbs::Opcode::kWrite;
          slot_wr.local_addr = lane.head_src_addr;
          slot_wr.length = 4;
          slot_wr.remote_addr = lane.head_slot_remote_addr;
          slot_wr.rkey = lane.head_slot_rkey;
          slot_wr.signaled = false;
          if (lane.qp->PostSend(slot_wr) != verbs::WcStatus::kSuccess) {
            QuarantineLane(*conn, lane);
          }
          work += cost.cpu_wqe_prep + cost.cpu_mmio_doorbell;
          lane.resp_bytes_since_send = 0;
        }
        co_await core.Work(work);
        lane.in_dispatch = false;
      }
      }
    }
    co_await core.Idle(pass_cost > 0 ? pass_cost : cost.cpu_cq_poll_empty,
                       /*wake_at=*/-1, /*park=*/!found);
  }
}

}  // namespace internal
}  // namespace flock
