// The RNIC device model.
//
// One Device per node. It implements, in simulated time, everything the NIC
// does between a doorbell ring and a completion:
//
//   post → [TX pipeline: WQE fetch + per-packet occupancy]
//        → [QP-state cache lookup; miss = PCIe fetch w/ bounded concurrency]
//        → [payload DMA from host]
//        → [uplink serialization] → [switch transit] → [downlink serialization]
//        → [RX pipeline at the peer] → [peer QP-state cache lookup]
//        → [payload DMA to host / posted-recv consumption / READ or atomic
//           execution and response transfer]
//        → [RC ACK latency back] → [CQE DMA if signaled]
//
// The QP-state cache at the *receiver* of a high fan-in pattern is where the
// paper's Fig. 2(a) collapse comes from; the per-packet RX work consumed on
// *host CPU* (posting receives, polling CQs) is charged not here but by the
// software layers above, from the CostModel.
#ifndef FLOCK_VERBS_DEVICE_H_
#define FLOCK_VERBS_DEVICE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/pool.h"
#include "src/common/units.h"
#include "src/fabric/memory.h"
#include "src/fabric/network.h"
#include "src/rnic/qp_cache.h"
#include "src/sim/cost_model.h"
#include "src/sim/cpu.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"
#include "src/verbs/cq.h"
#include "src/verbs/fault.h"
#include "src/verbs/mr.h"
#include "src/verbs/qp.h"
#include "src/verbs/types.h"

namespace flock::verbs {

class Cluster;

// Payload sizes at or below this post inline (no payload DMA read by the NIC;
// mirrors ConnectX max_inline_data ≈ 220 B).
inline constexpr uint32_t kMaxInlineData = 220;

// In-flight payload snapshot. Coalesced Flock messages are usually a few
// hundred bytes, so the snapshot lives inside the (pooled) coroutine frame;
// only jumbo messages touch the heap.
using PayloadBuf = ::flock::SmallBuf<512>;

class Device {
 public:
  struct Stats {
    uint64_t tx_msgs = 0;
    uint64_t tx_bytes = 0;         // payload bytes transmitted
    uint64_t tx_wire_bytes = 0;    // payload + per-packet framing
    uint64_t tx_packets = 0;
    uint64_t tx_reads = 0;         // one-sided READ requests issued
    uint64_t tx_atomics = 0;       // FetchAdd/CmpSwap requests issued
    uint64_t rx_msgs = 0;
    uint64_t rx_packets = 0;
    uint64_t ud_drops = 0;         // UD arrivals with no posted receive
    uint64_t remote_errors = 0;    // failed rkey/bounds/transport checks
    uint64_t cqes_dma_ed = 0;      // completions written over PCIe
    uint64_t tx_stale_drops = 0;   // WRs/CQEs dropped: QP recycled mid-flight
  };

  Device(Cluster& cluster, int node_id);

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  // ---- control path ----
  Cq* CreateCq();
  Qp* CreateQp(QpType type, Cq* send_cq, Cq* recv_cq);
  Mr RegisterMr(uint64_t addr, uint64_t length);

  Qp* FindQp(uint32_t qpn);
  const sim::CostModel& cluster_cost() const { return cost_; }
  rnic::QpCache& qp_cache() { return qp_cache_; }
  MrTable& mrs() { return mrs_; }
  const Stats& stats() const { return stats_; }

  // ---- data path (called by Qp) ----
  void KickSendEngine(Qp& qp);

  // ---- fault support (driven by FaultInjector) ----
  // Transitions `qp` to the error state: queued send WRs and posted receives
  // flush as kFlushError completions (error CQEs are always delivered, even
  // for unsignaled WRs), and later posts fail with kQpError.
  void ErrorQp(Qp& qp);
  // Node kill: the NIC never comes back, so a QP created or reset on it
  // afterwards starts in the error state instead of reviving the node.
  void MarkKilled() { killed_ = true; }
  // ---- recycling support (DESIGN.md §13) ----
  // Resets `qp` for reuse by a new connection: flushes queued work like
  // ErrorQp, then clears the error state and bumps the reset epoch so
  // anything still in flight from the old incarnation is dropped, not
  // delivered. Models ibv_modify_qp reset→init→RTR→RTS on an existing QP,
  // which is why it is far cheaper than CreateQp (CostModel::qp_reset vs
  // qp_create — charged by the control-plane callers, not here).
  void ResetQp(Qp& qp);
  // NIC pause: TX and RX processing stall until Resume().
  void Pause();
  void Resume();
  bool paused() const { return paused_; }

 private:
  friend class Qp;

  sim::Proc SendEngine(Qp& qp);
  sim::Co<void> ProcessWr(Qp& qp, SendWr wr);
  sim::Proc Deliver(Qp& qp, SendWr wr, PayloadBuf payload);
  sim::Co<void> ReceiveAtPeer(Device& peer, Qp& src_qp, const SendWr& wr,
                              PayloadBuf& payload, WcStatus& status,
                              uint64_t& atomic_result);
  sim::Co<void> TouchQpState(uint32_t qpn, sim::FifoServer& pipe);
  void CompleteSend(Qp& qp, const SendWr& wr, WcStatus status, uint32_t byte_len);

  Cluster& cluster_;
  sim::Simulator& sim_;
  const sim::CostModel& cost_;
  fabric::Network& net_;
  const int node_id_;

  sim::FifoServer tx_pipe_;
  sim::FifoServer rx_pipe_;
  sim::Semaphore pcie_fetch_slots_;
  bool paused_ = false;
  bool killed_ = false;
  sim::Condition resume_cond_;
  rnic::QpCache qp_cache_;
  MrTable mrs_;

  uint32_t next_qpn_ = 1;
  std::vector<std::unique_ptr<Qp>> qps_;  // index = qpn - 1 (qpns are dense)
  std::vector<std::unique_ptr<Cq>> cqs_;
  // Recycled jumbo payload snapshots: messages above the SmallBuf inline
  // threshold reuse previously grown heap blocks instead of allocating one
  // per WR, so multi-MB extent streams stay allocation-free in steady
  // state. Shard discipline like every other device member: acquire and
  // recycle only from events currently executing on this device's node —
  // callers hand a finished buffer to whichever device's shard they are on.
  SmallBufFreeList<PayloadBuf::kInlineBytes> payload_freelist_;
  Stats stats_;
};

// A simulated cluster: the simulator, the cost model, the switched network,
// and per-node memory, cores and NIC. This is the root object every bench,
// test and example builds first. Its destructor shuts the simulator down
// (destroying all coroutine frames) *before* the nodes they reference die.
class Cluster {
 public:
  struct Config {
    int num_nodes = 2;
    int cores_per_node = 32;
    sim::CostModel cost{};
    // Simulation-kernel shards (see src/sim/simulator.h). Nodes are assigned
    // round-robin (node % num_shards); traces are bit-identical at every
    // shard count, so this is purely a wall-clock knob. Scheduled fault
    // injection is single-shard only (it mutates foreign-node state without
    // paying the fabric delay).
    int num_shards = 1;
    // OS threads executing the shards; 0 = min(num_shards, hardware
    // threads). Never affects the trace.
    int num_workers = 0;
  };

  explicit Cluster(const Config& config);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  sim::Simulator& sim() { return sim_; }
  const sim::CostModel& cost() const { return cost_; }
  fabric::Network& network() { return network_; }
  int num_nodes() const { return static_cast<int>(nodes_.size()); }

  fabric::MemorySpace& mem(int node) { return nodes_[static_cast<size_t>(node)]->mem; }
  sim::Cpu& cpu(int node) { return nodes_[static_cast<size_t>(node)]->cpu; }
  Device& device(int node) { return *nodes_[static_cast<size_t>(node)]->device; }

  // Convenience: creates an RC QP pair between two nodes, already connected.
  std::pair<Qp*, Qp*> ConnectRc(int node_a, Cq* scq_a, Cq* rcq_a, int node_b,
                                Cq* scq_b, Cq* rcq_b);

  // Deterministic fault injection (QP kills, transient errors, node pauses).
  FaultInjector& fault() { return fault_; }
  const FaultInjector& fault() const { return fault_; }

  // Opaque per-cluster extension slot. The connection control plane
  // (src/ctrl) attaches its singleton here so every runtime on every node
  // shares one instance without verbs depending on the layers above it.
  void* extension() const { return extension_.get(); }
  void SetExtension(void* ptr, void (*deleter)(void*)) {
    FLOCK_CHECK(extension_ == nullptr) << "cluster extension already set";
    extension_ = std::unique_ptr<void, void (*)(void*)>(ptr, deleter);
  }

 private:
  struct NodeState {
    fabric::MemorySpace mem;
    sim::Cpu cpu;
    std::unique_ptr<Device> device;
    NodeState(sim::Simulator& sim, int cores) : cpu(sim, cores) {}
  };

  sim::Simulator sim_;
  sim::CostModel cost_;
  fabric::Network network_;
  FaultInjector fault_;
  std::vector<std::unique_ptr<NodeState>> nodes_;
  // Declared last: destroyed first, so the extension (the control plane) may
  // reference any cluster member for its whole lifetime.
  std::unique_ptr<void, void (*)(void*)> extension_{nullptr, [](void*) {}};
};

}  // namespace flock::verbs

#endif  // FLOCK_VERBS_DEVICE_H_
