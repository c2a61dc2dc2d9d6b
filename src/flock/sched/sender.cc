#include "src/flock/sched/sender.h"

#include <algorithm>

#include "src/ctrl/control_plane.h"
#include "src/flock/segment.h"

namespace flock {
namespace internal {

void SortByAlgorithm1(std::vector<ThreadSchedStat>& stats) {
  std::sort(stats.begin(), stats.end(),
            [](const ThreadSchedStat& a, const ThreadSchedStat& b) {
              if (a.median_size != b.median_size) {
                return a.median_size < b.median_size;
              }
              if ((a.reqs >> 6) != (b.reqs >> 6)) {
                return (a.reqs >> 6) < (b.reqs >> 6);
              }
              return a.tid < b.tid;
            });
}

void PackByByteQuota(const std::vector<ThreadSchedStat>& sorted,
                     const std::vector<uint32_t>& active, uint64_t total_bytes,
                     std::vector<uint32_t>* desired_lane, bool segregate) {
  const uint64_t quota =
      std::max<uint64_t>(1, total_bytes / active.size());  // Algorithm 1 line 1
  size_t qp_index = 0;
  uint64_t qp_load = 0;
  for (const ThreadSchedStat& s : sorted) {
    if (segregate && qp_load > 0 && qp_load + s.bytes > quota &&
        qp_index + 1 < active.size()) {
      qp_index += 1;
      qp_load = 0;
    }
    (*desired_lane)[s.tid] = active[std::min(qp_index, active.size() - 1)];
    qp_load += s.bytes;
    if (qp_load >= quota) {
      qp_index += 1;
      qp_load = 0;
    }
  }
  if (!segregate || sorted.empty() || active.size() < 2) {
    return;
  }
  // Bimodal loads strand lanes: each segmented thread overflows the byte
  // quota and takes a lane of its own, while the entire small class fits
  // inside one quota and collapses onto a single lane. A lane is the unit of
  // client pumping and server dispatch, so the stranded lanes are exactly
  // the parallelism the latency-sensitive class just lost. Hand them back:
  // split the most populous contiguous run in half onto each unused lane
  // (halving in sorted order keeps size classes together). Alloc-free —
  // this can run on every scheduler tick.
  size_t used = 1;
  for (size_t i = 1; i < sorted.size(); ++i) {
    if ((*desired_lane)[sorted[i].tid] != (*desired_lane)[sorted[i - 1].tid]) {
      used += 1;
    }
  }
  while (used < active.size()) {
    size_t best_begin = 0;
    size_t best_len = 0;
    size_t begin = 0;
    for (size_t i = 1; i <= sorted.size(); ++i) {
      if (i == sorted.size() || (*desired_lane)[sorted[i].tid] !=
                                    (*desired_lane)[sorted[begin].tid]) {
        if (i - begin > best_len) {
          best_len = i - begin;
          best_begin = begin;
        }
        begin = i;
      }
    }
    if (best_len < 2) {
      break;  // every run is a single thread; nothing left to spread
    }
    const uint32_t spare = active[used];
    for (size_t i = best_begin + best_len / 2; i < best_begin + best_len; ++i) {
      (*desired_lane)[sorted[i].tid] = spare;
    }
    used += 1;
  }
}

bool AssignmentHealthy(const std::vector<ThreadSchedStat>& stats,
                       const std::vector<uint32_t>& desired_lane,
                       const std::vector<uint8_t>& lane_active,
                       size_t num_active, uint64_t total_bytes,
                       LaneLoadScratch* scratch) {
  bool healthy = true;
  // Lane indices are small and dense, so the per-lane aggregates live in
  // flat scratch vectors (min == UINT32_MAX marks "no sized thread here").
  std::vector<uint64_t>& lane_bytes = scratch->bytes;
  std::vector<uint32_t>& lane_min_size = scratch->min_size;
  std::vector<uint32_t>& lane_max_size = scratch->max_size;
  lane_bytes.assign(lane_active.size(), 0);
  lane_min_size.assign(lane_active.size(), UINT32_MAX);
  lane_max_size.assign(lane_active.size(), 0);
  for (const ThreadSchedStat& s : stats) {
    const uint32_t lane = desired_lane[s.tid];
    if (lane == UINT32_MAX || !lane_active[lane]) {
      healthy = false;
      break;
    }
    lane_bytes[lane] += s.bytes;
    if (s.bytes > 0) {
      lane_min_size[lane] = std::min(lane_min_size[lane], s.median_size);
      lane_max_size[lane] = std::max(lane_max_size[lane], s.median_size);
    }
  }
  if (healthy && total_bytes > 0) {
    const uint64_t mean = total_bytes / num_active;
    for (size_t lane = 0; lane < lane_active.size(); ++lane) {
      if (lane_bytes[lane] > 2 * mean + 1) {
        healthy = false;  // load imbalance
      }
      // Head-of-line risk: a lane serving both small and large payloads.
      if (lane_min_size[lane] != UINT32_MAX &&
          lane_max_size[lane] > 4 * std::max(lane_min_size[lane], 64u)) {
        healthy = false;
      }
    }
  }
  return healthy;
}

void SenderSched::Reschedule(ClientConnState& conn,
                             std::vector<std::unique_ptr<FlockThread>>& threads,
                             const FlockConfig& config,
                             uint64_t tenant_bytes_cap) {
  // Active lane set.
  std::vector<uint32_t>& active = active_scratch;
  active.clear();
  for (uint32_t i = 0; i < conn.lanes.size(); ++i) {
    if (conn.lanes[i]->state == ClientLaneState::kActive) {
      active.push_back(i);
    }
  }
  if (active.empty() || threads.empty()) {
    return;
  }
  conn.desired_lane.resize(threads.size(), UINT32_MAX);

  if (!config.sender_thread_scheduling) {
    // Ablation baseline: spread threads round-robin over active lanes.
    for (size_t t = 0; t < threads.size(); ++t) {
      conn.desired_lane[t] = active[t % active.size()];
    }
    return;
  }

  // Algorithm 1 inputs: one stat row per thread. Delta() consumes the
  // interval counters, so this runs exactly once per tick.
  std::vector<ThreadSchedStat>& stats = stats_scratch;
  stats.clear();
  uint64_t total_bytes = 0;
  for (size_t t = 0; t < threads.size(); ++t) {
    FlockThread& thread = *threads[t];
    ThreadSchedStat s;
    s.tid = t;
    s.median_size = thread.req_size_median.Median(0);
    if (config.segment_threshold > 0) {
      // Segmented extents hit the wire as chunk-sized messages, so Algorithm
      // 1's size classes (and the head-of-line heuristic) compare the unit
      // that actually occupies a lane, not the logical payload.
      s.median_size = std::min(s.median_size, SegmentChunkBytes(config));
    }
    s.reqs = thread.reqs_sent.Delta();
    s.bytes = thread.bytes_sent.Delta();
    total_bytes += s.bytes;
    stats.push_back(s);
  }
  // Quota-bound tenants pack by their remaining window allowance, so the
  // per-lane byte quota mirrors admissible load, not offered load.
  total_bytes = std::min(total_bytes, tenant_bytes_cap);

  lane_active_scratch.assign(conn.lanes.size(), 0);
  for (uint32_t i : active) {
    lane_active_scratch[i] = 1;
  }
  if (conn.desired_lane.size() >= threads.size() &&
      AssignmentHealthy(stats, conn.desired_lane, lane_active_scratch,
                        active.size(), total_bytes, &load_scratch)) {
    return;
  }

  SortByAlgorithm1(stats);
  PackByByteQuota(stats, active, total_bytes, &conn.desired_lane,
                  /*segregate=*/config.segment_threshold > 0);
}

sim::Proc SenderSched::Run(NodeEnv& env, ClientState& client) {
  // Tenant registry (DESIGN.md §15): resolved once. The default tenant has
  // no byte quota, so its cap stays unlimited.
  const tenant::TenantRegistry& tenants =
      ctrl::ControlPlane::For(*env.cluster).tenants();
  for (;;) {
    co_await sim::Delay(env.sim(), kThreadSchedInterval);
    for (ClientConnState* conn : client.conns) {
      Reschedule(*conn, client.threads, *env.config,
                 tenants.SendBudgetRemaining(conn->tenant_id));
    }
  }
}

}  // namespace internal
}  // namespace flock
