#include "src/ctrl/control_plane.h"

#include <algorithm>

namespace flock::ctrl {

namespace {

void DeleteControlPlane(void* p) { delete static_cast<ControlPlane*>(p); }

}  // namespace

ControlPlane& ControlPlane::For(verbs::Cluster& cluster) {
  if (cluster.extension() == nullptr) {
    cluster.SetExtension(new ControlPlane(cluster), &DeleteControlPlane);
  }
  return *static_cast<ControlPlane*>(cluster.extension());
}

ControlPlane::ControlPlane(verbs::Cluster& cluster) : cluster_(cluster) {
  const size_t n = static_cast<size_t>(cluster.num_nodes());
  endpoints_.assign(n, {});
  member_.assign(n, 1);  // every configured node starts as a member
}

bool ControlPlane::HasEndpoint(int node) const {
  return node >= 0 && static_cast<size_t>(node) < endpoints_.size() &&
         !endpoints_[static_cast<size_t>(node)].empty();
}

void ControlPlane::RegisterEndpoint(int node, Endpoint* endpoint) {
  FLOCK_CHECK_GE(node, 0);
  FLOCK_CHECK_LT(static_cast<size_t>(node), endpoints_.size());
  std::vector<Endpoint*>& eps = endpoints_[static_cast<size_t>(node)];
  FLOCK_CHECK(std::find(eps.begin(), eps.end(), endpoint) == eps.end())
      << "endpoint registered twice on node " << node;
  eps.push_back(endpoint);
}

void ControlPlane::DeregisterEndpoint(int node, Endpoint* endpoint) {
  if (node < 0 || static_cast<size_t>(node) >= endpoints_.size()) {
    return;
  }
  std::vector<Endpoint*>& eps = endpoints_[static_cast<size_t>(node)];
  // Erase wherever it sits; if it was the front, the next registration-order
  // survivor is promoted implicitly and the node keeps answering.
  eps.erase(std::remove(eps.begin(), eps.end(), endpoint), eps.end());
}

uint32_t ControlPlane::Call(int to_node, const uint8_t* msg, uint32_t len,
                            uint8_t* resp, uint32_t resp_cap) {
  stats_.calls += 1;
  wire::MsgHeader header;
  if (!wire::DecodeHeader(msg, len, &header)) {
    stats_.rejected_malformed += 1;
    return 0;
  }
  // Replay guard: each nonce is delivered at most once, ever. A duplicate —
  // whether a retransmitted or a maliciously replayed handshake — is dropped
  // before it reaches the endpoint. The nonce burns even if delivery fails
  // below, so retries must re-encode with a fresh nonce.
  //
  // The window is bounded (kNonceWindow), not an ever-growing set: everything
  // at or below the watermark counts as seen, and only the out-of-order
  // stragglers above it are stored. A call delayed more than kNonceWindow
  // nonces behind the issue counter is indistinguishable from a replay and
  // rejects — acceptable because nonces are consumed nearly in issue order.
  if (header.nonce <= nonce_watermark_ ||
      std::find(recent_nonces_.begin(), recent_nonces_.end(), header.nonce) !=
          recent_nonces_.end()) {
    stats_.rejected_replay += 1;
    return 0;
  }
  recent_nonces_.push_back(header.nonce);
  // Collapse the contiguous run above the watermark (the common case: nonces
  // arrive in issue order, so the window drains to empty right here).
  for (bool advanced = true; advanced;) {
    advanced = false;
    for (size_t i = 0; i < recent_nonces_.size(); ++i) {
      if (recent_nonces_[i] == nonce_watermark_ + 1) {
        nonce_watermark_ += 1;
        recent_nonces_[i] = recent_nonces_.back();
        recent_nonces_.pop_back();
        advanced = true;
        break;
      }
    }
  }
  if (recent_nonces_.size() > kNonceWindow) {
    // Too many gaps: advance the watermark to the highest seen nonce. The
    // skipped-over (never-delivered) nonces below it burn unused.
    nonce_watermark_ =
        *std::max_element(recent_nonces_.begin(), recent_nonces_.end());
    recent_nonces_.clear();
  }
  if (to_node < 0 || static_cast<size_t>(to_node) >= endpoints_.size() ||
      member_[static_cast<size_t>(to_node)] == 0) {
    stats_.rejected_not_member += 1;
    return 0;
  }
  const std::vector<Endpoint*>& eps = endpoints_[static_cast<size_t>(to_node)];
  if (eps.empty()) {
    stats_.rejected_no_endpoint += 1;
    return 0;
  }
  // The endpoint mutates `to_node` from the caller's event (DESIGN.md §7).
  cluster_.sim().TouchNode(to_node);
  return eps.front()->OnCtrlMessage(msg, len, resp, resp_cap);
}

void ControlPlane::Join(int node) {
  if (node < 0 || static_cast<size_t>(node) >= member_.size() ||
      member_[static_cast<size_t>(node)] != 0) {
    return;
  }
  member_[static_cast<size_t>(node)] = 1;
  stats_.joins += 1;
  if (in_batch_) {
    return;  // epoch bump + notification deferred to EndEpochBatch
  }
  epoch_ += 1;
  NotifyListeners(node, /*joined=*/true);
}

void ControlPlane::Leave(int node) {
  if (node < 0 || static_cast<size_t>(node) >= member_.size() ||
      member_[static_cast<size_t>(node)] == 0) {
    return;
  }
  member_[static_cast<size_t>(node)] = 0;
  stats_.leaves += 1;
  if (in_batch_) {
    return;  // epoch bump + notification deferred to EndEpochBatch
  }
  epoch_ += 1;
  NotifyListeners(node, /*joined=*/false);
}

void ControlPlane::BeginEpochBatch() {
  FLOCK_CHECK(!in_batch_) << "epoch batches do not nest";
  in_batch_ = true;
  batch_start_member_ = member_;
}

void ControlPlane::EndEpochBatch() {
  FLOCK_CHECK(in_batch_) << "EndEpochBatch without BeginEpochBatch";
  // Fire one pass per NET change, with in_batch_ still set so membership
  // listeners (the server runtimes) defer their AQP repartition to the
  // batch-end pass below. A leave+rejoin inside the window nets to nothing
  // and is invisible — one epoch bump covers the whole window.
  bool any_change = false;
  for (size_t node = 0; node < member_.size(); ++node) {
    if (member_[node] == batch_start_member_[node]) {
      continue;
    }
    if (!any_change) {
      any_change = true;
      epoch_ += 1;
      stats_.epoch_batches += 1;
    }
    NotifyListeners(static_cast<int>(node), /*joined=*/member_[node] != 0);
  }
  in_batch_ = false;
  if (any_change) {
    NotifyBatchEnd();
  }
}

bool ControlPlane::IsMember(int node) const {
  return node >= 0 && static_cast<size_t>(node) < member_.size() &&
         member_[static_cast<size_t>(node)] != 0;
}

uint64_t ControlPlane::AddMembershipListener(MembershipListener listener) {
  const uint64_t id = next_listener_id_++;
  listeners_.push_back(ListenerEntry{id, std::move(listener)});
  return id;
}

void ControlPlane::RemoveMembershipListener(uint64_t id) {
  for (size_t i = 0; i < listeners_.size(); ++i) {
    if (listeners_[i].id == id) {
      listeners_.erase(listeners_.begin() + static_cast<ptrdiff_t>(i));
      return;
    }
  }
}

uint64_t ControlPlane::AddBatchEndListener(BatchEndListener listener) {
  const uint64_t id = next_listener_id_++;
  batch_end_listeners_.push_back(BatchEndEntry{id, std::move(listener)});
  return id;
}

void ControlPlane::RemoveBatchEndListener(uint64_t id) {
  for (size_t i = 0; i < batch_end_listeners_.size(); ++i) {
    if (batch_end_listeners_[i].id == id) {
      batch_end_listeners_.erase(batch_end_listeners_.begin() +
                                 static_cast<ptrdiff_t>(i));
      return;
    }
  }
}

void ControlPlane::NotifyListeners(int node, bool joined) {
  // Snapshot ids, then re-look each up before invoking: a callback may remove
  // any listener (including itself), add new ones (snapshot semantics: they
  // miss this event), or trigger a nested Join/Leave. Invoking a copy keeps
  // the closure alive through self-removal.
  std::vector<uint64_t> ids;
  ids.reserve(listeners_.size());
  for (const ListenerEntry& entry : listeners_) {
    ids.push_back(entry.id);
  }
  for (uint64_t id : ids) {
    const MembershipListener* fn = nullptr;
    for (const ListenerEntry& entry : listeners_) {
      if (entry.id == id) {
        fn = &entry.fn;
        break;
      }
    }
    if (fn == nullptr) {
      continue;  // removed by an earlier callback
    }
    MembershipListener copy = *fn;
    copy(node, joined);
  }
}

void ControlPlane::NotifyBatchEnd() {
  std::vector<uint64_t> ids;
  ids.reserve(batch_end_listeners_.size());
  for (const BatchEndEntry& entry : batch_end_listeners_) {
    ids.push_back(entry.id);
  }
  for (uint64_t id : ids) {
    const BatchEndListener* fn = nullptr;
    for (const BatchEndEntry& entry : batch_end_listeners_) {
      if (entry.id == id) {
        fn = &entry.fn;
        break;
      }
    }
    if (fn == nullptr) {
      continue;
    }
    BatchEndListener copy = *fn;
    copy();
  }
}

}  // namespace flock::ctrl
