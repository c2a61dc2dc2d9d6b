#include "src/verbs/device.h"

#include <utility>

namespace flock::verbs {

namespace {

WcOpcode ToWcOpcode(Opcode op) {
  switch (op) {
    case Opcode::kSend:
    case Opcode::kSendImm:
      return WcOpcode::kSend;
    case Opcode::kWrite:
    case Opcode::kWriteImm:
      return WcOpcode::kWrite;
    case Opcode::kRead:
      return WcOpcode::kRead;
    case Opcode::kFetchAdd:
      return WcOpcode::kFetchAdd;
    case Opcode::kCmpSwap:
      return WcOpcode::kCmpSwap;
  }
  return WcOpcode::kSend;
}

bool IsAtomic(Opcode op) {
  return op == Opcode::kFetchAdd || op == Opcode::kCmpSwap;
}

// Bytes carried by the request leg of a WR (READ requests and atomic
// operands are tiny control payloads).
uint64_t OutboundBytes(const SendWr& wr) {
  if (wr.opcode == Opcode::kRead) {
    return 0;
  }
  if (IsAtomic(wr.opcode)) {
    return 16;
  }
  return wr.length;
}

// Serializes `bytes` of payload onto `link`. With link_arb_quantum_bytes set
// the message holds the link one quantum at a time, re-queueing behind any
// waiting peers between quanta (per-packet QP arbitration — see
// CostModel::link_arb_quantum_bytes); with it unset the whole message is one
// uninterruptible serve, the legacy behavior every existing trace encodes.
sim::Co<void> ServeSerialized(sim::FifoServer& link, const fabric::Network& net,
                              const sim::CostModel& cost, uint64_t bytes) {
  if (cost.link_arb_quantum_bytes == 0) {
    co_await link.Serve(net.SerializeTime(bytes));
    co_return;
  }
  if (bytes <= cost.link_arb_quantum_bytes) {
    // A single-quantum message goes out after at most the packet in flight:
    // the arbiter's round-robin reaches it before re-serving any queued bulk
    // train, which the expedited band models without per-flow bookkeeping.
    co_await link.Serve(net.SerializeTime(bytes), /*expedited=*/true);
    co_return;
  }
  for (uint64_t rest = bytes; rest > 0;) {
    const uint64_t quantum =
        rest < cost.link_arb_quantum_bytes ? rest : cost.link_arb_quantum_bytes;
    co_await link.Serve(net.SerializeTime(quantum));
    rest -= quantum;
  }
}

}  // namespace

WcStatus Qp::Validate(const SendWr& wr) const {
  switch (type_) {
    case QpType::kRc:
      break;  // all verbs supported (Table 1)
    case QpType::kUc:
      if (wr.opcode != Opcode::kWrite && wr.opcode != Opcode::kWriteImm &&
          wr.opcode != Opcode::kSend && wr.opcode != Opcode::kSendImm) {
        return WcStatus::kUnsupportedOp;
      }
      break;
    case QpType::kUd:
      if (wr.opcode != Opcode::kSend && wr.opcode != Opcode::kSendImm) {
        return WcStatus::kUnsupportedOp;
      }
      break;
  }
  if (IsAtomic(wr.opcode) && (wr.remote_addr % 8 != 0)) {
    // Real RNICs reject atomics on targets that are not 8-byte aligned; fail
    // the post synchronously so a misaligned WR never reaches the responder
    // (the device-side alignment assert below then only guards internal
    // callers that bypass the post path).
    return WcStatus::kQpError;
  }
  if (type_ == QpType::kUd) {
    // UD datagrams carry a 40 B GRH inside the MTU; larger payloads must be
    // fragmented by software (the limitation Table 1 calls out).
    if (wr.length + 40 > device_.cluster_cost().mtu_bytes) {
      return WcStatus::kMtuExceeded;
    }
    if (wr.dest_node < 0) {
      return WcStatus::kRemoteInvalidQp;
    }
  } else if (!connected()) {
    return WcStatus::kRemoteInvalidQp;
  }
  return WcStatus::kSuccess;
}

WcStatus Qp::PostSend(const SendWr& wr) {
  if (in_error_) {
    return WcStatus::kQpError;
  }
  const WcStatus status = Validate(wr);
  if (status != WcStatus::kSuccess) {
    return status;
  }
  SendWr stamped = wr;
  stamped.src_epoch = reset_epoch_;
  send_queue_.push_back(stamped);
  device_.KickSendEngine(*this);
  return WcStatus::kSuccess;
}

WcStatus Qp::PostSendBatch(const SendWr* wrs, size_t count,
                           size_t* failed_index) {
  if (in_error_) {
    if (failed_index != nullptr) {
      *failed_index = 0;
    }
    return WcStatus::kQpError;
  }
  for (size_t i = 0; i < count; ++i) {
    const WcStatus status = Validate(wrs[i]);
    if (status != WcStatus::kSuccess) {
      if (failed_index != nullptr) {
        *failed_index = i;
      }
      return status;  // nothing enqueued: the batch is rejected whole
    }
  }
  for (size_t i = 0; i < count; ++i) {
    SendWr stamped = wrs[i];
    stamped.src_epoch = reset_epoch_;
    send_queue_.push_back(stamped);
  }
  if (count > 0) {
    device_.KickSendEngine(*this);  // one doorbell for the linked WR list
  }
  return WcStatus::kSuccess;
}

Device::Device(Cluster& cluster, int node_id)
    : cluster_(cluster),
      sim_(cluster.sim()),
      cost_(cluster.cost()),
      net_(cluster.network()),
      node_id_(node_id),
      tx_pipe_(cluster.sim()),
      rx_pipe_(cluster.sim()),
      pcie_fetch_slots_(cluster.sim(), cluster.cost().nic_pcie_concurrency),
      resume_cond_(cluster.sim()),
      qp_cache_(cluster.cost().nic_qp_cache_entries, rnic::QpCache::Policy::kRandom,
                0x9e3779b97f4a7c15ull * static_cast<uint64_t>(node_id + 1)) {}

Cq* Device::CreateCq() {
  cqs_.push_back(std::make_unique<Cq>());
  return cqs_.back().get();
}

Qp* Device::CreateQp(QpType type, Cq* send_cq, Cq* recv_cq) {
  FLOCK_CHECK(send_cq != nullptr);
  FLOCK_CHECK(recv_cq != nullptr);
  const uint32_t qpn = next_qpn_++;
  auto qp = std::make_unique<Qp>(*this, qpn, type, send_cq, recv_cq);
  qp->in_error_ = killed_;
  Qp* raw = qp.get();
  qps_.push_back(std::move(qp));
  return raw;
}

Mr Device::RegisterMr(uint64_t addr, uint64_t length) {
  FLOCK_CHECK(cluster_.mem(node_id_).Contains(addr, length));
  return mrs_.Register(addr, length);
}

Qp* Device::FindQp(uint32_t qpn) {
  return qpn >= 1 && qpn <= qps_.size() ? qps_[qpn - 1].get() : nullptr;
}

void Device::KickSendEngine(Qp& qp) {
  if (qp.engine_running_) {
    return;  // the engine picks freshly queued WRs up in its current run
  }
  qp.engine_running_ = true;
  if (!qp.engine_spawned_) {
    qp.engine_spawned_ = true;
    sim_.Spawn(SendEngine(qp), node_id_);
  } else {
    qp.engine_wake_.Fire(sim_);
  }
}

sim::Proc Device::SendEngine(Qp& qp) {
  for (;;) {
    // Drain the whole run of queued WRs per doorbell: WRs posted while the
    // engine is mid-run (batched posts, back-to-back messages) are processed
    // by this same activation without another wake event.
    while (!qp.send_queue_.empty()) {
      SendWr wr = qp.send_queue_.front();
      qp.send_queue_.pop_front();
      co_await ProcessWr(qp, wr);
    }
    qp.engine_running_ = false;
    qp.engine_wake_.Reset();
    co_await qp.engine_wake_.Wait();
  }
}

sim::Co<void> Device::ProcessWr(Qp& qp, SendWr wr) {
  while (paused_) {
    co_await resume_cond_.Wait();
  }
  if (qp.in_error_) {
    // The QP errored while this WR sat in the send queue (or the whole node
    // was killed): flush instead of transmitting.
    CompleteSend(qp, wr, WcStatus::kFlushError, 0);
    co_return;
  }
  if (wr.src_epoch != qp.reset_epoch_) {
    // The QP was recycled (ResetQp) while this WR waited: its session is
    // gone. Drop without a CQE — the old session has no waiters, and the new
    // incarnation must never see completions it did not post.
    stats_.tx_stale_drops++;
    co_return;
  }
  const uint64_t outbound = OutboundBytes(wr);
  const uint32_t packets = net_.PacketCount(outbound);

  // TX pipeline occupancy: descriptor fetch plus per-packet processing.
  // Under per-packet arbitration single-packet WQEs take the expedited band
  // here too — the NIC's WQE fetcher round-robins send queues, so a small
  // message does not sit behind every queued WQE of a multi-packet train.
  co_await tx_pipe_.Serve(
      cost_.nic_per_wqe + static_cast<Nanos>(packets) * cost_.nic_tx_per_packet,
      cost_.link_arb_quantum_bytes > 0 && packets == 1);
  // Sender-side connection state.
  co_await TouchQpState(qp.qpn(), tx_pipe_);

  // Snapshot the payload from host memory (DMA read unless inlined).
  PayloadBuf payload = payload_freelist_.Acquire(wr.length);
  if (wr.opcode != Opcode::kRead && !IsAtomic(wr.opcode) && wr.length > 0) {
    FLOCK_CHECK(cluster_.mem(node_id_).Contains(wr.local_addr, wr.length))
        << "bad local segment on node " << node_id_;
    if (wr.length > kMaxInlineData) {
      co_await sim::Delay(sim_, cost_.nic_dma_read);
    }
    cluster_.mem(node_id_).Read(wr.local_addr, payload.Resize(wr.length), wr.length);
  }

  stats_.tx_msgs++;
  if (wr.opcode == Opcode::kRead) {
    stats_.tx_reads++;
  } else if (IsAtomic(wr.opcode)) {
    stats_.tx_atomics++;
  }
  stats_.tx_bytes += outbound;
  stats_.tx_packets += packets;
  stats_.tx_wire_bytes += outbound + uint64_t{packets} * cost_.wire_overhead_bytes;

  sim_.Spawn(Deliver(qp, wr, std::move(payload)), node_id_);

  // Unreliable transports complete at transmission; RC completes on ACK or
  // response inside Deliver.
  if (qp.type() != QpType::kRc) {
    CompleteSend(qp, wr, WcStatus::kSuccess, wr.length);
  }
}

sim::Proc Device::Deliver(Qp& qp, SendWr wr, PayloadBuf payload) {
  if (wr.src_epoch != qp.reset_epoch_) {
    // Recycled before transmission got scheduled: drop on the floor (see
    // ProcessWr). ConnectTo may already have re-pointed peer_node at the new
    // session's peer, so nothing below is safe to run for a stale WR.
    stats_.tx_stale_drops++;
    payload_freelist_.Recycle(std::move(payload));  // still on the sender's shard
    co_return;
  }
  const int dest_node = qp.type() == QpType::kUd ? wr.dest_node : qp.peer_node();
  FLOCK_CHECK_GE(dest_node, 0);
  FLOCK_CHECK_LT(dest_node, net_.num_nodes());

  const uint64_t outbound = OutboundBytes(wr);

  co_await ServeSerialized(net_.Uplink(node_id_), net_, cost_, outbound);
  // Switch transit is the shard migration point: execution resumes on the
  // destination node, so the downlink, RX pipeline and peer-side state below
  // are all touched by events of the node that owns them.
  co_await sim::HopToNode(sim_, dest_node, net_.TransitDelay());
  co_await ServeSerialized(net_.Downlink(dest_node), net_, cost_, outbound);

  Device& peer = cluster_.device(dest_node);
  WcStatus status = WcStatus::kSuccess;
  uint64_t atomic_result = 0;
  co_await ReceiveAtPeer(peer, qp, wr, payload, status, atomic_result);
  if (status == WcStatus::kSuccess && cluster_.fault().armed()) {
    // Injected transient error models a lost ACK after RC retry exhaustion:
    // the payload landed at the peer, but the sender's completion reports the
    // injected status. (Dropping the payload instead would punch a permanent
    // hole into one-sided ring transports — no peer-side state can ever fill
    // the reserved bytes, which is exactly why real RC moves the QP to error
    // for data loss. Data loss with a surviving QP is modeled by KillQp.)
    // Consumed only after a successful delivery: a WR that fails on its own
    // (e.g. dead peer QP) must not silently burn a pending injected error,
    // or InjectSendErrors(count=N) would surface fewer than N errors.
    status = cluster_.fault().FilterSendStatus(node_id_, qp.qpn(), status);
  }

  if (qp.type() != QpType::kRc) {
    // Unreliable: remote failures are silent, already completed. Execution
    // sits on the destination's shard, so the buffer goes to that device.
    peer.payload_freelist_.Recycle(std::move(payload));
    co_return;
  }
  if (wr.opcode != Opcode::kRead && !IsAtomic(wr.opcode)) {
    // Hardware ACK for writes/sends: migrates execution back to the sender.
    co_await sim::HopToNode(sim_, node_id_, cost_.rc_ack_latency);
  } else if (status != WcStatus::kSuccess) {
    // A failed READ/atomic never ran its response leg, so execution is still
    // at the responder; the NAK travels back like an ACK would.
    co_await sim::HopToNode(sim_, node_id_, cost_.rc_ack_latency);
  }
  CompleteSend(qp, wr, status, wr.length);
  // Every RC path above ends back on the sender's shard.
  payload_freelist_.Recycle(std::move(payload));
}

sim::Co<void> Device::ReceiveAtPeer(Device& peer, Qp& src_qp, const SendWr& wr,
                                    PayloadBuf& payload, WcStatus& status,
                                    uint64_t& atomic_result) {
  if (peer.paused_) {
    // A dead destination QP fails the WR even while the peer NIC is frozen:
    // RC transport-retry exhaustion fires at the *sender*, which needs no
    // cooperation from the (possibly killed) target. Only healthy-but-paused
    // destinations make the sender wait.
    const uint32_t paused_dst_qpn =
        src_qp.type() == QpType::kUd ? wr.dest_qpn : src_qp.peer_qpn();
    Qp* paused_dst = peer.FindQp(paused_dst_qpn);
    if (paused_dst == nullptr || paused_dst->in_error_) {
      peer.stats_.remote_errors++;
      status = WcStatus::kRemoteInvalidQp;
      co_return;
    }
  }
  while (peer.paused_) {
    co_await peer.resume_cond_.Wait();
  }
  const uint32_t packets = net_.PacketCount(OutboundBytes(wr));
  co_await peer.rx_pipe_.Serve(
      static_cast<Nanos>(packets) * cost_.nic_rx_per_packet,
      cost_.link_arb_quantum_bytes > 0 && packets == 1);
  peer.stats_.rx_msgs++;
  peer.stats_.rx_packets += packets;

  const uint32_t dst_qpn =
      src_qp.type() == QpType::kUd ? wr.dest_qpn : src_qp.peer_qpn();
  Qp* dst = peer.FindQp(dst_qpn);
  if (dst == nullptr || dst->type() != src_qp.type() || dst->in_error_) {
    // An errored destination QP behaves like a vanished one: the sender's RC
    // transport retries exhaust and the WR completes with an error (§7).
    peer.stats_.remote_errors++;
    status = WcStatus::kRemoteInvalidQp;
    co_return;
  }
  if (src_qp.type() != QpType::kUd &&
      (dst->peer_node() != node_id_ || dst->peer_qpn() != src_qp.qpn())) {
    // The destination QP exists but is paired with someone else: it was
    // recycled into a different connection after this WR left the sender.
    // Real RC rejects the mismatched QPN/PSN; the sender sees retry
    // exhaustion, never the new session.
    peer.stats_.remote_errors++;
    status = WcStatus::kRemoteInvalidQp;
    co_return;
  }
  // Receiver-side connection state — the cache that thrashes under fan-in.
  co_await peer.TouchQpState(dst_qpn, peer.rx_pipe_);

  fabric::MemorySpace& peer_mem = cluster_.mem(peer.node_id_);

  switch (wr.opcode) {
    case Opcode::kWrite:
    case Opcode::kWriteImm: {
      WrittenSpan* written = peer.mrs_.ValidateWrite(wr.rkey, wr.remote_addr, wr.length);
      if (written == nullptr) {
        peer.stats_.remote_errors++;
        status = WcStatus::kRemoteAccessError;
        co_return;
      }
      co_await sim::Delay(sim_, cost_.nic_dma_write);
      if (!payload.empty()) {
        written->Add(wr.remote_addr, payload.size());
        peer_mem.Write(wr.remote_addr, payload.data(), payload.size());
      }
      if (wr.opcode == Opcode::kWriteImm) {
        // write-with-imm consumes a posted receive and raises a completion.
        if (dst->recv_queue_.empty()) {
          peer.stats_.remote_errors++;
          status = WcStatus::kRnrError;
          co_return;
        }
        const RecvWr recv = dst->recv_queue_.front();
        dst->recv_queue_.pop_front();
        Completion wc;
        wc.wr_id = recv.wr_id;
        wc.opcode = WcOpcode::kRecvImm;
        wc.status = WcStatus::kSuccess;
        wc.byte_len = wr.length;
        wc.imm = wr.imm;
        wc.has_imm = true;
        wc.src_node = node_id_;
        wc.src_qpn = src_qp.qpn();
        wc.qpn = dst->qpn();
        peer.stats_.cqes_dma_ed++;
        dst->recv_cq()->Push(wc);
      }
      co_return;
    }
    case Opcode::kSend:
    case Opcode::kSendImm: {
      if (dst->recv_queue_.empty()) {
        if (dst->type() == QpType::kUd || dst->type() == QpType::kUc) {
          peer.stats_.ud_drops++;  // silently dropped on the floor
          co_return;
        }
        peer.stats_.remote_errors++;
        status = WcStatus::kRnrError;  // RC would RNR-NAK; we surface it
        co_return;
      }
      const RecvWr recv = dst->recv_queue_.front();
      dst->recv_queue_.pop_front();
      FLOCK_CHECK_GE(recv.length, wr.length) << "receive buffer too small";
      co_await sim::Delay(sim_, cost_.nic_dma_write);
      if (!payload.empty()) {
        peer_mem.Write(recv.local_addr, payload.data(), payload.size());
      }
      Completion wc;
      wc.wr_id = recv.wr_id;
      wc.opcode = wr.opcode == Opcode::kSendImm ? WcOpcode::kRecvImm : WcOpcode::kRecv;
      wc.status = WcStatus::kSuccess;
      wc.byte_len = wr.length;
      wc.imm = wr.imm;
      wc.has_imm = wr.opcode == Opcode::kSendImm;
      wc.src_node = node_id_;
      wc.src_qpn = src_qp.qpn();
      wc.qpn = dst->qpn();
      peer.stats_.cqes_dma_ed++;
      dst->recv_cq()->Push(wc);
      co_return;
    }
    case Opcode::kRead: {
      if (!peer.mrs_.ValidateRemote(wr.rkey, wr.remote_addr, wr.length)) {
        peer.stats_.remote_errors++;
        status = WcStatus::kRemoteAccessError;
        co_return;
      }
      // NIC fetches the data from the responder's host memory...
      co_await sim::Delay(sim_, cost_.nic_dma_read);
      // The data rides back in the WR's own buffer, acquired from this
      // (requesting) device at post time and recycled into it when Deliver
      // ends, so neither device's free list drifts.
      peer_mem.Read(wr.remote_addr, payload.Resize(wr.length), wr.length);
      // ...and streams it back.
      const uint32_t resp_packets = net_.PacketCount(wr.length);
      co_await peer.tx_pipe_.Serve(
          cost_.nic_per_wqe + static_cast<Nanos>(resp_packets) * cost_.nic_tx_per_packet);
      peer.stats_.tx_msgs++;
      peer.stats_.tx_bytes += wr.length;
      peer.stats_.tx_packets += resp_packets;
      peer.stats_.tx_wire_bytes +=
          wr.length + uint64_t{resp_packets} * cost_.wire_overhead_bytes;
      co_await ServeSerialized(net_.Uplink(peer.node_id_), net_, cost_, wr.length);
      // Response transit hops execution back to the requester's shard.
      co_await sim::HopToNode(sim_, node_id_, net_.TransitDelay());
      co_await ServeSerialized(net_.Downlink(node_id_), net_, cost_, wr.length);
      co_await rx_pipe_.Serve(static_cast<Nanos>(resp_packets) * cost_.nic_rx_per_packet);
      co_await sim::Delay(sim_, cost_.nic_dma_write);
      FLOCK_CHECK(cluster_.mem(node_id_).Contains(wr.local_addr, wr.length));
      cluster_.mem(node_id_).Write(wr.local_addr, payload.data(), payload.size());
      co_return;
    }
    case Opcode::kFetchAdd:
    case Opcode::kCmpSwap: {
      WrittenSpan* written = peer.mrs_.ValidateWrite(wr.rkey, wr.remote_addr, 8);
      if (written == nullptr) {
        peer.stats_.remote_errors++;
        status = WcStatus::kRemoteAccessError;
        co_return;
      }
      FLOCK_CHECK_EQ(wr.remote_addr % 8, 0u) << "atomics require 8B alignment";
      // The NIC performs a locked read-modify-write against host memory.
      co_await sim::Delay(sim_, cost_.nic_atomic_execute);
      uint64_t old_value = 0;
      peer_mem.Read(wr.remote_addr, &old_value, 8);
      uint64_t new_value = old_value;
      if (wr.opcode == Opcode::kFetchAdd) {
        new_value = old_value + wr.swap_or_add;
      } else if (old_value == wr.compare) {
        new_value = wr.swap_or_add;
      }
      written->Add(wr.remote_addr, 8);
      peer_mem.Write(wr.remote_addr, &new_value, 8);
      atomic_result = old_value;
      // 8-byte response returns over the wire.
      const Nanos resp_serialize = net_.SerializeTime(8);
      co_await peer.tx_pipe_.Serve(cost_.nic_per_wqe + cost_.nic_tx_per_packet);
      co_await net_.Uplink(peer.node_id_).Serve(resp_serialize);
      // Atomic response transit hops execution back to the requester.
      co_await sim::HopToNode(sim_, node_id_, net_.TransitDelay());
      co_await net_.Downlink(node_id_).Serve(resp_serialize);
      co_await rx_pipe_.Serve(cost_.nic_rx_per_packet);
      co_await sim::Delay(sim_, cost_.nic_dma_write);
      if (wr.local_addr != 0) {
        FLOCK_CHECK(cluster_.mem(node_id_).Contains(wr.local_addr, 8));
        cluster_.mem(node_id_).Write(wr.local_addr, &old_value, 8);
      }
      co_return;
    }
  }
}

sim::Co<void> Device::TouchQpState(uint32_t qpn, sim::FifoServer& pipe) {
  if (!qp_cache_.Touch(qpn)) {
    // The processing unit stalls while the connection context streams in, and
    // the fetch itself contends for a bounded number of PCIe read slots.
    co_await pipe.Serve(cost_.nic_miss_stall);
    co_await pcie_fetch_slots_.Acquire();
    co_await sim::Delay(sim_, cost_.nic_pcie_fetch);
    pcie_fetch_slots_.Release();
  }
}

void Device::CompleteSend(Qp& qp, const SendWr& wr, WcStatus status, uint32_t byte_len) {
  if (wr.src_epoch != qp.reset_epoch_) {
    // Completion for a previous incarnation of a recycled QP: suppress it.
    // wc.qpn would match the new incarnation, so the consumer could not
    // filter this itself.
    stats_.tx_stale_drops++;
    return;
  }
  if (qp.in_error_ && status == WcStatus::kSuccess) {
    status = WcStatus::kFlushError;  // errored while the WR was in flight
  }
  if (!wr.signaled && status == WcStatus::kSuccess) {
    return;  // selective signaling: no CQE, no PCIe DMA (errors always signal)
  }
  Completion wc;
  wc.wr_id = wr.wr_id;
  wc.opcode = ToWcOpcode(wr.opcode);
  wc.status = status;
  wc.byte_len = byte_len;
  wc.qpn = qp.qpn();
  stats_.cqes_dma_ed++;
  qp.send_cq()->Push(wc);
}

void Device::ErrorQp(Qp& qp) {
  if (qp.in_error_) {
    return;
  }
  qp.in_error_ = true;
  // Flush queued (not yet transmitted) send WRs. WRs already inside the TX
  // pipeline flush when they reach ProcessWr or CompleteSend.
  while (!qp.send_queue_.empty()) {
    const SendWr wr = qp.send_queue_.front();
    qp.send_queue_.pop_front();
    Completion wc;
    wc.wr_id = wr.wr_id;
    wc.opcode = ToWcOpcode(wr.opcode);
    wc.status = WcStatus::kFlushError;
    wc.qpn = qp.qpn();
    stats_.cqes_dma_ed++;
    qp.send_cq()->Push(wc);
  }
  // Flush posted receives to the receive CQ.
  while (!qp.recv_queue_.empty()) {
    const RecvWr recv = qp.recv_queue_.front();
    qp.recv_queue_.pop_front();
    Completion wc;
    wc.wr_id = recv.wr_id;
    wc.opcode = WcOpcode::kRecv;
    wc.status = WcStatus::kFlushError;
    wc.qpn = qp.qpn();
    stats_.cqes_dma_ed++;
    qp.recv_cq()->Push(wc);
  }
}

void Device::ResetQp(Qp& qp) {
  // The recycling pool's reset→init→RTS shortcut. Flush anything still
  // queued (exactly as ErrorQp would — a healthy QP being recycled still owes
  // flush CQEs for its queued WRs), then clear the error state and open a new
  // reset epoch: WRs of the previous incarnation still inside the TX pipeline
  // or the fabric are dropped at their next epoch check instead of being
  // delivered into the next session. Peer wiring is cleared so an in-flight
  // write *from* the old peer (its Deliver frame resolves this QP as its
  // destination) fails the receiver's mutual-connection check instead of
  // landing in memory that may already belong to a pooled shell.
  ErrorQp(qp);
  qp.in_error_ = killed_;
  qp.reset_epoch_ += 1;
  qp.peer_node_ = -1;
  qp.peer_qpn_ = 0;
}

void Device::Pause() { paused_ = true; }

void Device::Resume() {
  if (paused_) {
    paused_ = false;
    resume_cond_.NotifyAll();
  }
}

}  // namespace verbs
