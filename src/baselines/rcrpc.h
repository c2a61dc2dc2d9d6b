// RC ring-buffer RPC baselines for §8.3.1 / Fig. 9:
//
//   * "no sharing"   — every application thread owns a dedicated QP and ring
//                      pair (maximum NIC parallelism, maximum NIC state);
//   * "FaRM sharing" — 2 or 4 threads share a QP guarded by a spinlock held
//                      across the encode+post critical section. Requests are
//                      *individual* messages: lock-based sharing gets none of
//                      the coalescing benefits of Flock synchronization.
//
// Both use the same two-RDMA-write RPC as Flock (request write into a server
// ring, response write back), the same wire format (always one request per
// message) and the same piggybacked-head space reclamation, so Fig. 9 isolates
// exactly the synchronization/scheduling difference.
#ifndef FLOCK_BASELINES_RCRPC_H_
#define FLOCK_BASELINES_RCRPC_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/flock/ring.h"
#include "src/flock/thread.h"  // RpcHandler, FlockThread
#include "src/flock/transport.h"
#include "src/flock/wire.h"
#include "src/sim/sync.h"
#include "src/verbs/device.h"

namespace flock::baselines {

class RcRpcServer;

class RcRpcClient {
 public:
  struct Pending {
    explicit Pending(sim::Simulator& sim) : cond(sim) {}
    sim::Condition cond;
    bool done = false;
    std::vector<uint8_t> response;
  };

  struct Lane {
    Lane(sim::Simulator& sim, uint32_t ring_bytes)
        : req_producer(ring_bytes), lock(sim), space_ready(sim) {}
    verbs::Qp* qp = nullptr;
    RingProducer req_producer;
    uint8_t* staging = nullptr;
    uint64_t staging_addr = 0;
    uint64_t remote_ring_addr = 0;
    uint32_t remote_ring_rkey = 0;
    std::unique_ptr<RingConsumer> resp_consumer;
    sim::FifoMutex lock;  // the FaRM-style spinlock
    sim::Condition space_ready;
    uint64_t posts = 0;
    uint64_t requests = 0;
  };

  RcRpcClient(verbs::Cluster& cluster, int node, RcRpcServer& server,
              uint32_t ring_bytes = 256 * 1024);

  // Creates one QP lane (a connected QP + ring pair on both ends).
  Lane* CreateLane();
  FlockThread* CreateThread(int core);
  // Starts the client response dispatcher (top core of the node).
  void Start();

  // One RPC: spinlock-protected encode + RDMA write, then wait for the
  // response dispatcher to deliver the reply.
  sim::Co<bool> Call(FlockThread& thread, Lane& lane, uint16_t rpc_id,
                     const uint8_t* data, uint32_t len, std::vector<uint8_t>* response);

  Lane& lane(size_t i) { return *lanes_[i]; }
  size_t num_lanes() const { return lanes_.size(); }

 private:
  sim::Proc ResponseDispatcher();

  verbs::Cluster& cluster_;
  const int node_;
  RcRpcServer& server_;
  const uint32_t ring_bytes_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<std::unique_ptr<FlockThread>> threads_;
  std::unordered_map<uint64_t, Pending*> pending_;
  uint64_t rng_state_ = 0x51ed270b7159a3f1ull;
};

class RcRpcServer {
 public:
  struct Lane {
    explicit Lane(uint32_t ring_bytes) : resp_producer(ring_bytes) {}
    verbs::Qp* qp = nullptr;
    std::unique_ptr<RingConsumer> req_consumer;
    RingProducer resp_producer;
    uint8_t* staging = nullptr;
    uint64_t staging_addr = 0;
    uint64_t remote_ring_addr = 0;
    uint32_t remote_ring_rkey = 0;
    uint64_t posts = 0;
  };

  RcRpcServer(verbs::Cluster& cluster, int node, int dispatcher_cores);

  void RegisterHandler(uint16_t rpc_id, RpcHandler handler);
  void Start();

  uint64_t requests_handled() const { return requests_handled_; }
  int node() const { return node_; }

 private:
  friend class RcRpcClient;

  sim::Proc Dispatcher(int index);

  verbs::Cluster& cluster_;
  const int node_;
  const int dispatcher_cores_;
  std::unordered_map<uint16_t, RpcHandler> handlers_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<std::vector<Lane*>> dispatcher_lanes_;
  uint64_t requests_handled_ = 0;
  uint64_t rng_state_ = 0xc13fa9a902a6328full;
};

}  // namespace flock::baselines

#endif  // FLOCK_BASELINES_RCRPC_H_
