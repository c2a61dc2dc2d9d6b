// eRPC/FaSST-style RPC over unreliable datagrams (the UD baseline, §2.2).
//
// Design points taken from the published systems the paper compares against:
//   * one UD QP per server worker thread and per client thread — no
//     connection state to thrash, so the NIC scales, but
//   * every packet costs host CPU: session/header processing, software
//     reliability bookkeeping, completion handling, and receive-buffer
//     recycling (ibv_post_recv) — the ">90% of server cycles inside the
//     Mellanox userspace libraries" effect of Fig. 2(b);
//   * losses are possible (receive pool exhaustion under overload) and are
//     detected by client timeouts, as in FaSST's RPC layer.
//
// Handlers use the same RpcHandler signature as Flock so applications and
// benches can run unchanged over either transport.
#ifndef FLOCK_BASELINES_UDRPC_H_
#define FLOCK_BASELINES_UDRPC_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/common/units.h"
#include "src/flock/thread.h"  // RpcHandler
#include "src/flock/transport.h"
#include "src/sim/cpu.h"
#include "src/verbs/device.h"

namespace flock::baselines {

struct UdEndpoint {
  int node = -1;
  uint32_t qpn = 0;
};

struct UdWireHeader {
  uint16_t rpc_id = 0;
  uint16_t flags = 0;  // bit 0: response
  uint32_t seq = 0;
  int32_t src_node = -1;
  uint32_t src_qpn = 0;
  uint32_t payload_len = 0;
};
static_assert(sizeof(UdWireHeader) == 20);

class UdRpcServer {
 public:
  struct Config {
    int worker_threads = 32;
    uint32_t recv_pool = 256;   // posted receives per worker QP
    uint32_t mtu_payload = 4036;  // MTU - GRH - header
  };

  UdRpcServer(verbs::Cluster& cluster, int node, const Config& config);

  void RegisterHandler(uint16_t rpc_id, RpcHandler handler);
  void Start();

  UdEndpoint endpoint(int worker) const;
  int num_workers() const { return config_.worker_threads; }
  uint64_t requests_handled() const { return requests_handled_; }
  uint64_t send_failures() const { return send_failures_; }

 private:
  struct Worker {
    verbs::Qp* qp = nullptr;
    verbs::Cq* send_cq = nullptr;
    verbs::Cq* recv_cq = nullptr;
    std::vector<uint64_t> recv_buffers;  // fixed pool, recycled in order
    uint64_t send_buf = 0;               // staging for responses
  };

  sim::Proc WorkerLoop(int index);

  verbs::Cluster& cluster_;
  const int node_;
  Config config_;
  std::unordered_map<uint16_t, RpcHandler> handlers_;
  std::vector<Worker> workers_;
  uint64_t requests_handled_ = 0;
  uint64_t send_failures_ = 0;
  std::vector<uint8_t> scratch_;
};

// Client-side endpoint: one UD QP per application thread.
class UdRpcClient {
 public:
  UdRpcClient(verbs::Cluster& cluster, int node) : cluster_(cluster), node_(node) {}

  struct Pending {
    bool done = false;
    bool lost = false;
    std::vector<uint8_t> response;
    uint32_t seq = 0;
    Nanos deadline = 0;  // poller mode: when software reliability gives up
    Nanos submitted_at = 0;
    Nanos completed_at = 0;
  };

  class Thread {
   public:
    Thread(verbs::Cluster& cluster, int node, int core, uint32_t recv_pool);

    // FaSST mode: one coroutine per thread is dedicated to processing
    // incoming responses (§8.5.2, "one is used for processing incoming
    // responses"). With the poller running, Await() blocks on a condition
    // instead of polling, so many worker coroutines can share this thread.
    void StartPoller();

    // Fire one request (charges send-side CPU). Returns a Pending the caller
    // must Await and then delete.
    sim::Co<Pending*> Send(const UdEndpoint& server, uint16_t rpc_id,
                           const uint8_t* data, uint32_t len);
    // Polls the thread's own CQs until `pending` completes or times out
    // (timeout = software reliability declaring a loss).
    sim::Co<bool> Await(Pending* pending, Nanos timeout = 2 * kMillisecond);
    // Send + Await.
    sim::Co<bool> Call(const UdEndpoint& server, uint16_t rpc_id, const uint8_t* data,
                       uint32_t len, std::vector<uint8_t>* response,
                       Nanos timeout = 2 * kMillisecond);

    uint64_t timeouts() const { return timeouts_; }
    sim::Core& core() { return *core_; }

   private:
    // Returns true if any completion was consumed.
    bool DrainCompletions(Nanos* work);
    sim::Proc PollerLoop();

    verbs::Cluster& cluster_;
    int node_;
    sim::Core* core_;
    verbs::Qp* qp_ = nullptr;
    verbs::Cq* send_cq_ = nullptr;
    verbs::Cq* recv_cq_ = nullptr;
    uint64_t send_buf_ = 0;
    uint32_t next_seq_ = 1;
    std::unordered_map<uint32_t, Pending*> pending_;
    uint64_t timeouts_ = 0;
    bool poller_running_ = false;
    std::unique_ptr<sim::Condition> completion_cond_;
  };

  Thread* CreateThread(int core, uint32_t recv_pool = 64);

 private:
  verbs::Cluster& cluster_;
  int node_;
  std::vector<std::unique_ptr<Thread>> threads_;
};

}  // namespace flock::baselines

#endif  // FLOCK_BASELINES_UDRPC_H_
