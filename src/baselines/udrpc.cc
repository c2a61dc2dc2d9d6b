#include "src/baselines/udrpc.h"

#include <algorithm>
#include <cstring>

namespace flock::baselines {

namespace {

constexpr uint16_t kFlagResponse = 1;
constexpr uint32_t kSendSlots = 64;       // client-side (bounded by outstanding)
constexpr uint32_t kServerSendSlots = 512; // server-side response staging

// Exponential poll backoff: models a polling loop at coarse granularity so an
// idle wait costs O(log) simulation events while still charging full CPU.
Nanos NextBackoff(Nanos current) { return std::min<Nanos>(current * 2, 1000); }

}  // namespace

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

UdRpcServer::UdRpcServer(verbs::Cluster& cluster, int node, const Config& config)
    : cluster_(cluster), node_(node), config_(config) {
  scratch_.resize(config_.mtu_payload + sizeof(UdWireHeader));
  workers_.resize(static_cast<size_t>(config_.worker_threads));
  fabric::MemorySpace& mem = cluster_.mem(node_);
  for (auto& worker : workers_) {
    verbs::Device& device = cluster_.device(node_);
    worker.send_cq = device.CreateCq();
    worker.recv_cq = device.CreateCq();
    worker.qp = device.CreateQp(verbs::QpType::kUd, worker.send_cq, worker.recv_cq);
    const uint32_t buf_bytes = config_.mtu_payload + sizeof(UdWireHeader);
    for (uint32_t i = 0; i < config_.recv_pool; ++i) {
      const uint64_t addr = mem.Alloc(buf_bytes);
      worker.recv_buffers.push_back(addr);
      worker.qp->PostRecv(verbs::RecvWr{addr, addr, buf_bytes});
    }
    worker.send_buf = mem.Alloc(static_cast<size_t>(buf_bytes) * kServerSendSlots);
  }
}

void UdRpcServer::RegisterHandler(uint16_t rpc_id, RpcHandler handler) {
  handlers_[rpc_id] = std::move(handler);
}

void UdRpcServer::Start() {
  for (int i = 0; i < config_.worker_threads; ++i) {
    cluster_.sim().Spawn(WorkerLoop(i), node_);
  }
}

UdEndpoint UdRpcServer::endpoint(int worker) const {
  return UdEndpoint{node_, workers_[static_cast<size_t>(worker)].qp->qpn()};
}

sim::Proc UdRpcServer::WorkerLoop(int index) {
  Worker& worker = workers_[static_cast<size_t>(index)];
  sim::Core& core = cluster_.cpu(node_).core(index);
  const sim::CostModel& cost = cluster_.cost();
  fabric::MemorySpace& mem = cluster_.mem(node_);
  std::vector<uint8_t> resp_scratch(config_.mtu_payload);
  const uint32_t buf_bytes = config_.mtu_payload + sizeof(UdWireHeader);
  constexpr uint32_t kSignal = 16;
  uint64_t send_slot = 0;
  uint64_t posts = 0;
  uint64_t acked = 0;
  Nanos backoff = cost.cpu_cq_poll_empty;

  verbs::Completion wcs[kCqPollBatch];
  for (;;) {
    Nanos work = cost.cpu_cq_poll_empty;
    bool found = false;
    // Vectorized drain, looping until the CQ reads empty: the stall below can
    // suspend mid-batch, so a fresh poll after each batch picks up datagrams
    // that landed while we were parked (same coverage as a one-at-a-time
    // Poll loop, one poll_cq call per kCqPollBatch CQEs).
    for (size_t nc; (nc = worker.recv_cq->PollBatch(wcs, kCqPollBatch)) > 0;) {
      found = true;
      for (size_t ci = 0; ci < nc; ++ci) {
        const verbs::Completion& wc = wcs[ci];
        // Per-packet UD software cost: header parse, session lookup, software
        // reliability bookkeeping — plus completion consumption.
        work += cost.cpu_cqe_handle + cost.cpu_ud_pkt_process;
        UdWireHeader header;
        mem.Read(wc.wr_id, &header, sizeof(header));
        auto it = handlers_.find(header.rpc_id);
        FLOCK_CHECK(it != handlers_.end()) << "no UD handler for rpc " << header.rpc_id;
        Nanos handler_cpu = 0;
        const uint32_t resp_len = it->second(
            mem.At(wc.wr_id + sizeof(UdWireHeader)), header.payload_len,
            resp_scratch.data(), config_.mtu_payload, &handler_cpu);
        work += handler_cpu;
        ++requests_handled_;

        // Build and send the response datagram.
        UdWireHeader resp_header = header;
        resp_header.flags = kFlagResponse;
        resp_header.payload_len = resp_len;
        resp_header.src_node = node_;
        resp_header.src_qpn = worker.qp->qpn();
        // A TX slot must not be reused before the NIC has consumed it: stall
        // (burning CPU on CQ polling, as a real sender would) while the send
        // queue is deeper than the staging pool.
        while (posts - acked > kServerSendSlots - kSignal) {
          verbs::Completion send_wcs[kCqPollBatch];
          for (size_t ns; (ns = worker.send_cq->PollBatch(send_wcs, kCqPollBatch)) > 0;) {
            acked += kSignal * ns;
            work += cost.cpu_cqe_handle * static_cast<Nanos>(ns);
          }
          // Charge everything accumulated so far, then keep polling.
          co_await core.Work(work + cost.cpu_cq_poll_empty);
          work = 0;
        }
        const uint64_t slot =
            worker.send_buf +
            (send_slot++ % kServerSendSlots) * static_cast<uint64_t>(buf_bytes);
        mem.Write(slot, &resp_header, sizeof(resp_header));
        if (resp_len > 0) {
          mem.Write(slot + sizeof(resp_header), resp_scratch.data(), resp_len);
        }
        work += cost.MemcpyCost(sizeof(resp_header) + resp_len) + cost.cpu_wqe_prep +
                cost.cpu_mmio_doorbell + cost.cpu_ud_pkt_process;
        verbs::SendWr send;
        send.opcode = verbs::Opcode::kSend;
        send.local_addr = slot;
        send.length = sizeof(resp_header) + resp_len;
        send.dest_node = header.src_node;
        send.dest_qpn = header.src_qpn;
        posts += 1;
        send.signaled = (posts % kSignal) == 0;
        if (worker.qp->PostSend(send) != verbs::WcStatus::kSuccess) {
          ++send_failures_;
        }

        // Recycle the receive buffer (the dominant Fig. 2(b) cost).
        worker.qp->PostRecv(verbs::RecvWr{wc.wr_id, wc.wr_id, buf_bytes});
        work += cost.cpu_post_recv;
      }
    }
    for (size_t nc; (nc = worker.send_cq->PollBatch(wcs, kCqPollBatch)) > 0;) {
      acked += kSignal * nc;
      work += cost.cpu_cqe_handle * static_cast<Nanos>(nc);
    }
    if (found) {
      backoff = cost.cpu_cq_poll_empty;
      co_await core.Work(work);
    } else {
      co_await core.Work(backoff);
      backoff = NextBackoff(backoff);
    }
  }
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

UdRpcClient::Thread* UdRpcClient::CreateThread(int core, uint32_t recv_pool) {
  threads_.push_back(std::make_unique<Thread>(cluster_, node_, core, recv_pool));
  return threads_.back().get();
}

UdRpcClient::Thread::Thread(verbs::Cluster& cluster, int node, int core,
                            uint32_t recv_pool)
    : cluster_(cluster),
      node_(node),
      core_(&cluster.cpu(node).core(core)),
      completion_cond_(std::make_unique<sim::Condition>(cluster.sim())) {
  verbs::Device& device = cluster_.device(node_);
  send_cq_ = device.CreateCq();
  recv_cq_ = device.CreateCq();
  qp_ = device.CreateQp(verbs::QpType::kUd, send_cq_, recv_cq_);
  fabric::MemorySpace& mem = cluster_.mem(node_);
  const uint32_t buf_bytes = 4096;
  for (uint32_t i = 0; i < recv_pool; ++i) {
    const uint64_t addr = mem.Alloc(buf_bytes);
    qp_->PostRecv(verbs::RecvWr{addr, addr, buf_bytes});
  }
  send_buf_ = mem.Alloc(static_cast<uint64_t>(buf_bytes) * kSendSlots);
}

sim::Co<UdRpcClient::Pending*> UdRpcClient::Thread::Send(const UdEndpoint& server,
                                                         uint16_t rpc_id,
                                                         const uint8_t* data,
                                                         uint32_t len) {
  const sim::CostModel& cost = cluster_.cost();
  fabric::MemorySpace& mem = cluster_.mem(node_);

  auto* pending = new Pending();
  pending->seq = next_seq_++;
  pending->submitted_at = cluster_.sim().Now();
  pending_[pending->seq] = pending;

  UdWireHeader header;
  header.rpc_id = rpc_id;
  header.seq = pending->seq;
  header.src_node = node_;
  header.src_qpn = qp_->qpn();
  header.payload_len = len;

  const uint64_t slot = send_buf_ + (pending->seq % kSendSlots) * uint64_t{4096};
  mem.Write(slot, &header, sizeof(header));
  if (len > 0) {
    mem.Write(slot + sizeof(header), data, len);
  }
  co_await core_->Work(cost.MemcpyCost(sizeof(header) + len) + cost.cpu_wqe_prep +
                       cost.cpu_mmio_doorbell + cost.cpu_ud_pkt_process);

  verbs::SendWr send;
  send.opcode = verbs::Opcode::kSend;
  send.local_addr = slot;
  send.length = sizeof(header) + len;
  send.dest_node = server.node;
  send.dest_qpn = server.qpn;
  send.signaled = (pending->seq % 64) == 0;
  FLOCK_CHECK(qp_->PostSend(send) == verbs::WcStatus::kSuccess);
  co_return pending;
}

bool UdRpcClient::Thread::DrainCompletions(Nanos* work) {
  const sim::CostModel& cost = cluster_.cost();
  fabric::MemorySpace& mem = cluster_.mem(node_);
  bool any = false;
  verbs::Completion wcs[kCqPollBatch];
  for (size_t nc; (nc = recv_cq_->PollBatch(wcs, kCqPollBatch)) > 0;) {
    any = true;
    for (size_t ci = 0; ci < nc; ++ci) {
      const verbs::Completion& wc = wcs[ci];
      *work += cost.cpu_cqe_handle + cost.cpu_ud_pkt_process + cost.cpu_post_recv;
      UdWireHeader header;
      mem.Read(wc.wr_id, &header, sizeof(header));
      qp_->PostRecv(verbs::RecvWr{wc.wr_id, wc.wr_id, 4096});
      auto it = pending_.find(header.seq);
      if (it == pending_.end()) {
        continue;  // response for a request we already declared lost
      }
      Pending* pending = it->second;
      pending_.erase(it);
      pending->response.resize(header.payload_len);
      if (header.payload_len > 0) {
        mem.Read(wc.wr_id + sizeof(header), pending->response.data(),
                 header.payload_len);
        *work += cost.MemcpyCost(header.payload_len);
      }
      pending->done = true;
      pending->completed_at = cluster_.sim().Now();
    }
    if (nc < kCqPollBatch) {
      break;
    }
  }
  for (size_t nc; (nc = send_cq_->PollBatch(wcs, kCqPollBatch)) > 0;) {
    *work += cost.cpu_cqe_handle * static_cast<Nanos>(nc);
    if (nc < kCqPollBatch) {
      break;
    }
  }
  return any;
}

void UdRpcClient::Thread::StartPoller() {
  FLOCK_CHECK(!poller_running_);
  poller_running_ = true;
  cluster_.sim().Spawn(PollerLoop(), node_);
}

sim::Proc UdRpcClient::Thread::PollerLoop() {
  const sim::CostModel& cost = cluster_.cost();
  Nanos backoff = cost.cpu_cq_poll_empty;
  for (;;) {
    Nanos work = cost.cpu_cq_poll_empty;
    const bool progress = DrainCompletions(&work);
    // Software reliability: expire requests whose deadline passed.
    bool expired = false;
    for (auto it = pending_.begin(); it != pending_.end();) {
      if (it->second->deadline > 0 && cluster_.sim().Now() >= it->second->deadline) {
        it->second->lost = true;
        ++timeouts_;
        expired = true;
        it = pending_.erase(it);
      } else {
        ++it;
      }
    }
    if (progress || expired) {
      completion_cond_->NotifyAll();
      backoff = cost.cpu_cq_poll_empty;
      co_await core_->Work(work);
    } else {
      co_await core_->Work(work + backoff);
      backoff = NextBackoff(backoff);
    }
  }
}

sim::Co<bool> UdRpcClient::Thread::Await(Pending* pending, Nanos timeout) {
  if (poller_running_) {
    pending->deadline = cluster_.sim().Now() + timeout;
    while (!pending->done && !pending->lost) {
      co_await completion_cond_->Wait();
    }
    co_return !pending->lost;
  }
  const sim::CostModel& cost = cluster_.cost();
  const Nanos deadline = cluster_.sim().Now() + timeout;
  Nanos backoff = cost.cpu_cq_poll_empty;
  while (!pending->done) {
    Nanos work = cost.cpu_cq_poll_empty;
    DrainCompletions(&work);
    if (pending->done) {
      co_await core_->Work(work);
      break;
    }
    if (cluster_.sim().Now() >= deadline) {
      // Software reliability declares the packet lost (FaSST-style).
      pending->lost = true;
      pending_.erase(pending->seq);
      ++timeouts_;
      co_return false;
    }
    co_await core_->Work(work + backoff);
    backoff = NextBackoff(backoff);
  }
  co_return true;
}

sim::Co<bool> UdRpcClient::Thread::Call(const UdEndpoint& server, uint16_t rpc_id,
                                        const uint8_t* data, uint32_t len,
                                        std::vector<uint8_t>* response, Nanos timeout) {
  Pending* pending = co_await Send(server, rpc_id, data, len);
  const bool ok = co_await Await(pending, timeout);
  if (ok && response != nullptr) {
    *response = std::move(pending->response);
  }
  delete pending;
  co_return ok;
}

}  // namespace flock::baselines
