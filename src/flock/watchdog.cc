#include "src/flock/watchdog.h"

#include <algorithm>
#include <limits>

#include "src/flock/combine.h"
#include "src/flock/sched/receiver.h"

namespace flock {
namespace internal {

Nanos WatchdogTick(Nanos rpc_timeout) {
  return std::max<Nanos>(rpc_timeout / 4, kMicrosecond);
}

Nanos RetryBackoff(Nanos rpc_timeout, uint32_t retries) {
  const uint32_t shift = std::min<uint32_t>(retries, 20);
  return rpc_timeout <= (std::numeric_limits<Nanos>::max() >> (shift + 1))
             ? rpc_timeout << shift
             : std::numeric_limits<Nanos>::max() / 2;
}

sim::Proc Watchdog::Run(NodeEnv& env, ClientState& client) {
  const Nanos tick = WatchdogTick(env.config->rpc_timeout);
  for (;;) {
    co_await sim::Delay(env.sim(), tick);
    const Nanos now = env.sim().Now();
    for (ClientConnState* conn : client.conns) {
      // Collect first: Retry/Fail mutate the maps ForEach walks.
      scratch.clear();
      for (auto& map : conn->pending) {
        map.ForEach([&](uint32_t, PendingRpc* rpc) {
          if (now >= rpc->deadline) {
            scratch.push_back(rpc);
          }
        });
      }
      for (PendingRpc* rpc : scratch) {
        if (rpc->retries >= kMaxRetries) {
          FailPendingRpc(*conn, rpc);
        } else {
          RetryPendingRpc(*conn, rpc);
        }
      }
    }
  }
}

void RetryPendingRpc(ClientConnState& conn, PendingRpc* rpc) {
  rpc->retries += 1;
  const Nanos backoff = RetryBackoff(conn.env->config->rpc_timeout, rpc->retries);
  rpc->deadline = conn.env->sim().Now() + backoff;
  conn.client->stats.retries += 1;

  FlockThread& thread = *conn.client->threads[rpc->thread_id];
  // Restage on the thread's current lane (LaneFor routes around quarantined
  // lanes once the thread drains). The server matches responses globally by
  // (thread, seq), so a retry on a different lane still completes this RPC.
  ClientLane& old_lane = *conn.lanes[rpc->lane_index];
  ClientLane& lane = LaneFor(conn, thread);
  if (&lane != &old_lane) {
    old_lane.inflight -= std::min<uint64_t>(old_lane.inflight, 1);
    lane.inflight += 1;
    rpc->lane_index = lane.index;
  }
  // A timeout hints that an unacked control message may have been lost.
  // Renewal requests and grant-slot writes are both unacked RDMA, so losing
  // either leaves the lane at zero credits with its renewal latched in
  // flight, and a pump with no credit posts nothing: re-send the renewal
  // here. Cumulative grants make a duplicate harmless. With credits left,
  // clearing the latch lets the pump's next post re-request instead.
  if (lane.state == ClientLaneState::kActive && lane.credits == 0 &&
      lane.renew_in_flight) {
    if (lane.qp->PostSend(RenewalWr(lane)) != verbs::WcStatus::kSuccess) {
      QuarantineLane(conn, lane);
    }
  } else {
    lane.renew_in_flight = false;
  }

  // The caller's original buffer is long gone; restage from the retained
  // copy through the one chunk builder. Each chunk retains its own bytes so
  // the watchdog never aliases the PendingRpc, which may itself be retried
  // again or freed while chunks are still queued.
  const uint32_t len = rpc->request.size();
  for (wire::ChunkTrain chunk = ChunkTrainFor(*conn.env->config, len);
       !chunk.done(); chunk.Next()) {
    StageChunk(conn, lane, *rpc, thread.core(), chunk,
               PayloadRef(rpc->request.data() + chunk.offset(), chunk.size()),
               /*retain=*/true);
  }
}

void FailPendingRpc(ClientConnState& conn, PendingRpc* rpc) {
  PendingRpc* taken = conn.pending[rpc->thread_id].Take(rpc->seq);
  FLOCK_CHECK(taken == rpc);
  ClientLane& lane = *conn.lanes[rpc->lane_index];
  lane.inflight -= std::min<uint64_t>(lane.inflight, 1);
  FlockThread& thread = *conn.client->threads[rpc->thread_id];
  if (thread.outstanding > 0) {
    thread.outstanding -= 1;
  }
  ResolveRpc(conn, rpc, /*ok=*/false);
}

}  // namespace internal
}  // namespace flock
