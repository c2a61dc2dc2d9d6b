// Memory regions: registration and remote-access validation.
//
// An Mr grants remote peers access to [addr, addr+length) of a node's memory
// under a generated rkey. The responder-side rkey/bounds check is real — a
// bad rkey or out-of-bounds access surfaces as kRemoteAccessError on the
// requester's completion, which the fault-injection tests rely on.
//
// Each region also records the span remote writes (and atomics) have touched
// since its owner last took it (TakeWritten). Only the peer writes a ring's
// bytes remotely and its consumer writes only zeros, so a ring reset zeroes
// just that span (DESIGN.md §10).
#ifndef FLOCK_VERBS_MR_H_
#define FLOCK_VERBS_MR_H_

#include <algorithm>
#include <cstdint>
#include <unordered_map>

#include "src/common/logging.h"

namespace flock::verbs {

struct Mr {
  uint32_t lkey = 0;
  uint32_t rkey = 0;
  uint64_t addr = 0;
  uint64_t length = 0;
};

// [lo, hi) in absolute addresses; empty when lo >= hi.
struct WrittenSpan {
  uint64_t lo = UINT64_MAX;
  uint64_t hi = 0;

  bool empty() const { return lo >= hi; }
  void Add(uint64_t addr, uint64_t len) {
    lo = std::min(lo, addr);
    hi = std::max(hi, addr + len);
  }
};

class MrTable {
 public:
  Mr Register(uint64_t addr, uint64_t length) {
    Region& region = by_rkey_[next_key_];
    region.mr.lkey = next_key_;
    region.mr.rkey = next_key_;
    ++next_key_;
    region.mr.addr = addr;
    region.mr.length = length;
    return region.mr;
  }

  // True iff rkey exists and fully covers [addr, addr+len).
  bool ValidateRemote(uint32_t rkey, uint64_t addr, uint64_t len) {
    return ValidateWrite(rkey, addr, len) != nullptr;
  }

  // ValidateRemote for an access that writes: the region's written span, or
  // null when the check fails. The caller widens it (WrittenSpan::Add) where
  // the bytes land. Regions are never removed and the map is node-based, so
  // the pointer stays valid across the DMA delay.
  WrittenSpan* ValidateWrite(uint32_t rkey, uint64_t addr, uint64_t len) {
    auto it = by_rkey_.find(rkey);
    if (it == by_rkey_.end()) {
      return nullptr;
    }
    const Mr& mr = it->second.mr;
    const bool covered =
        addr >= mr.addr && addr + len <= mr.addr + mr.length && addr + len >= addr;
    return covered ? &it->second.written : nullptr;
  }

  // The span remote writes touched in `rkey`'s region since the last call,
  // which starts a new one.
  WrittenSpan TakeWritten(uint32_t rkey) {
    auto it = by_rkey_.find(rkey);
    FLOCK_CHECK(it != by_rkey_.end()) << "unknown rkey " << rkey;
    const WrittenSpan span = it->second.written;
    it->second.written = WrittenSpan{};
    return span;
  }

  size_t size() const { return by_rkey_.size(); }

 private:
  struct Region {
    Mr mr;
    WrittenSpan written;
  };

  uint32_t next_key_ = 1;
  std::unordered_map<uint32_t, Region> by_rkey_;
};

}  // namespace flock::verbs

#endif  // FLOCK_VERBS_MR_H_
