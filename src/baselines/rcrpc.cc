#include "src/baselines/rcrpc.h"

#include <algorithm>

namespace flock::baselines {

namespace {

uint64_t PendingKey(uint16_t thread_id, uint32_t seq) {
  return (uint64_t{thread_id} << 32) | seq;
}

// Posts a (possibly wrapped) single-request message already encoded in the
// lane staging buffer.
template <typename LaneT>
verbs::WcStatus PostRingWrite(LaneT& lane, const RingProducer::Reservation& resv,
                              uint32_t msg_len, uint64_t canary) {
  verbs::SendWr wrs[2];
  size_t nwrs = 0;
  flock::AppendRingWrite(lane, resv, msg_len, canary, /*wr_id=*/0, wrs, &nwrs);
  return lane.qp->PostSendBatch(wrs, nwrs);
}

}  // namespace

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

RcRpcServer::RcRpcServer(verbs::Cluster& cluster, int node, int dispatcher_cores)
    : cluster_(cluster), node_(node), dispatcher_cores_(dispatcher_cores) {
  dispatcher_lanes_.resize(static_cast<size_t>(dispatcher_cores));
}

void RcRpcServer::RegisterHandler(uint16_t rpc_id, RpcHandler handler) {
  handlers_[rpc_id] = std::move(handler);
}

void RcRpcServer::Start() {
  for (int i = 0; i < dispatcher_cores_; ++i) {
    cluster_.sim().Spawn(Dispatcher(i), node_);
  }
}

sim::Proc RcRpcServer::Dispatcher(int index) {
  sim::Core& core = cluster_.cpu(node_).core(index);
  const sim::CostModel& cost = cluster_.cost();
  std::vector<uint8_t> scratch(8192);

  for (;;) {
    Nanos pass_cost = 0;
    for (size_t li = 0; li < dispatcher_lanes_[static_cast<size_t>(index)].size();
         ++li) {
      Lane& lane = *dispatcher_lanes_[static_cast<size_t>(index)][li];
      pass_cost += cost.cpu_ring_poll_empty;
      wire::MsgHeader header;
      if (lane.req_consumer->Probe(&header) != wire::ProbeResult::kMessage) {
        continue;
      }
      co_await core.Work(pass_cost);
      pass_cost = 0;

      lane.resp_producer.OnHeadUpdate(header.piggyback_head);
      FLOCK_CHECK_EQ(header.num_reqs, 1) << "RC baseline messages carry one request";
      wire::ReqView view;
      FLOCK_CHECK(wire::DecodeRequests(lane.req_consumer->MessagePtr(), header, &view));

      auto it = handlers_.find(view.meta.rpc_id);
      FLOCK_CHECK(it != handlers_.end());
      Nanos handler_cpu = 0;
      const uint32_t resp_len = it->second(view.data, view.meta.data_len,
                                           scratch.data(), 8192, &handler_cpu);
      ++requests_handled_;

      const uint32_t msg_len = wire::MessageBytes(1, resp_len);
      RingProducer::Reservation resv;
      while (!lane.resp_producer.Reserve(msg_len, &resv)) {
        co_await sim::Delay(cluster_.sim(), kMicrosecond);
        wire::MsgHeader next;
        if (lane.req_consumer->Probe(&next) == wire::ProbeResult::kMessage) {
          lane.resp_producer.OnHeadUpdate(next.piggyback_head);
        }
      }

      co_await core.Work(cost.cpu_msg_fixed + 2 * cost.cpu_msg_per_req + handler_cpu +
                         cost.MemcpyCost(header.total_len + resp_len));
      lane.req_consumer->Consume(header);

      const uint64_t canary = SplitMix64(rng_state_);
      wire::MessageEncoder encoder(lane.staging + resv.offset, msg_len, canary);
      wire::ReqMeta resp_meta = view.meta;
      resp_meta.data_len = resp_len;
      encoder.Add(resp_meta, scratch.data());
      FLOCK_CHECK_EQ(encoder.Seal(lane.req_consumer->consumed_report(), 0), msg_len);

      co_await core.Work(2 * cost.cpu_wqe_prep + cost.cpu_mmio_doorbell);
      FLOCK_CHECK(PostRingWrite(lane, resv, msg_len, canary) ==
                  verbs::WcStatus::kSuccess);
    }
    co_await core.Work(pass_cost > 0 ? pass_cost : cost.cpu_ring_poll_empty);
  }
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

RcRpcClient::RcRpcClient(verbs::Cluster& cluster, int node, RcRpcServer& server,
                         uint32_t ring_bytes)
    : cluster_(cluster), node_(node), server_(server), ring_bytes_(ring_bytes) {}

RcRpcClient::Lane* RcRpcClient::CreateLane() {
  auto cl = std::make_unique<Lane>(cluster_.sim(), ring_bytes_);
  auto sl = std::make_unique<RcRpcServer::Lane>(ring_bytes_);

  verbs::Device& cdev = cluster_.device(node_);
  verbs::Device& sdev = cluster_.device(server_.node_);
  verbs::Cq* c_scq = cdev.CreateCq();
  verbs::Cq* c_rcq = cdev.CreateCq();
  verbs::Cq* s_scq = sdev.CreateCq();
  verbs::Cq* s_rcq = sdev.CreateCq();
  auto [cqp, sqp] =
      cluster_.ConnectRc(node_, c_scq, c_rcq, server_.node_, s_scq, s_rcq);
  cl->qp = cqp;
  sl->qp = sqp;

  fabric::MemorySpace& cmem = cluster_.mem(node_);
  fabric::MemorySpace& smem = cluster_.mem(server_.node_);

  const uint64_t req_ring = smem.Alloc(ring_bytes_);
  verbs::Mr req_mr = sdev.RegisterMr(req_ring, ring_bytes_);
  sl->req_consumer = std::make_unique<RingConsumer>(smem.At(req_ring), ring_bytes_);
  cl->remote_ring_addr = req_ring;
  cl->remote_ring_rkey = req_mr.rkey;
  cl->staging_addr = cmem.Alloc(ring_bytes_);
  cl->staging = cmem.At(cl->staging_addr);

  const uint64_t resp_ring = cmem.Alloc(ring_bytes_);
  verbs::Mr resp_mr = cdev.RegisterMr(resp_ring, ring_bytes_);
  cl->resp_consumer = std::make_unique<RingConsumer>(cmem.At(resp_ring), ring_bytes_);
  sl->remote_ring_addr = resp_ring;
  sl->remote_ring_rkey = resp_mr.rkey;
  sl->staging_addr = smem.Alloc(ring_bytes_);
  sl->staging = smem.At(sl->staging_addr);

  server_.dispatcher_lanes_[server_.lanes_.size() %
                            static_cast<size_t>(server_.dispatcher_cores_)]
      .push_back(sl.get());
  server_.lanes_.push_back(std::move(sl));
  lanes_.push_back(std::move(cl));
  return lanes_.back().get();
}

FlockThread* RcRpcClient::CreateThread(int core) {
  const uint16_t id = static_cast<uint16_t>(threads_.size());
  threads_.push_back(std::make_unique<FlockThread>(
      node_, id, &cluster_.cpu(node_).core(core), SplitMix64(rng_state_)));
  return threads_.back().get();
}

void RcRpcClient::Start() {
  cluster_.sim().Spawn(ResponseDispatcher(), node_);
}

sim::Co<bool> RcRpcClient::Call(FlockThread& thread, Lane& lane, uint16_t rpc_id,
                                const uint8_t* data, uint32_t len,
                                std::vector<uint8_t>* response) {
  const sim::CostModel& cost = cluster_.cost();

  Pending pending(cluster_.sim());
  const uint32_t seq = thread.NextSeq();
  pending_[PendingKey(thread.id(), seq)] = &pending;

  // FaRM-style: a spinlock serializes the whole prepare-and-post section.
  co_await thread.core().Work(cost.cpu_atomic_rmw + cost.cpu_cacheline_transfer);
  co_await lane.lock.Acquire();

  const uint32_t msg_len = wire::MessageBytes(1, len);
  RingProducer::Reservation resv;
  while (!lane.req_producer.Reserve(msg_len, &resv)) {
    co_await lane.space_ready.Wait();
  }
  const uint64_t canary = SplitMix64(rng_state_);
  wire::MessageEncoder encoder(lane.staging + resv.offset, msg_len, canary);
  wire::ReqMeta meta{len, thread.id(), rpc_id, seq};
  encoder.Add(meta, data);
  FLOCK_CHECK_EQ(encoder.Seal(lane.resp_consumer->consumed_report(), 0), msg_len);

  co_await thread.core().Work(cost.cpu_msg_fixed + cost.cpu_msg_per_req +
                              cost.MemcpyCost(len) + 2 * cost.cpu_wqe_prep +
                              cost.cpu_mmio_doorbell);
  FLOCK_CHECK(PostRingWrite(lane, resv, msg_len, canary) == verbs::WcStatus::kSuccess);
  lane.requests += 1;
  lane.lock.Release();

  if (!pending.done) {
    co_await pending.cond.Wait();
  }
  co_await thread.core().Work(cost.cpu_cqe_handle);
  if (response != nullptr) {
    *response = std::move(pending.response);
  }
  co_return true;
}

sim::Proc RcRpcClient::ResponseDispatcher() {
  sim::Core& core =
      cluster_.cpu(node_).core(cluster_.cpu(node_).num_cores() - 1);
  const sim::CostModel& cost = cluster_.cost();

  for (;;) {
    Nanos pass_cost = 0;
    for (size_t li = 0; li < lanes_.size(); ++li) {
      Lane& lane = *lanes_[li];
      pass_cost += cost.cpu_ring_poll_empty;
      wire::MsgHeader header;
      if (lane.resp_consumer->Probe(&header) != wire::ProbeResult::kMessage) {
        continue;
      }
      co_await core.Work(pass_cost);
      pass_cost = 0;

      lane.req_producer.OnHeadUpdate(header.piggyback_head);
      lane.space_ready.NotifyAll();

      wire::ReqView view;
      FLOCK_CHECK(wire::DecodeRequests(lane.resp_consumer->MessagePtr(), header, &view));
      const uint64_t key = PendingKey(view.meta.thread_id, view.meta.seq);
      auto it = pending_.find(key);
      FLOCK_CHECK(it != pending_.end());
      Pending* pending = it->second;
      pending_.erase(it);
      pending->response.assign(view.data, view.data + view.meta.data_len);
      pending->done = true;
      pending->cond.NotifyAll();

      co_await core.Work(cost.cpu_msg_fixed + cost.cpu_msg_per_req +
                         cost.MemcpyCost(view.meta.data_len + header.total_len));
      lane.resp_consumer->Consume(header);
    }
    co_await core.Work(pass_cost > 0 ? pass_cost : cost.cpu_ring_poll_empty);
  }
}

}  // namespace flock::baselines
