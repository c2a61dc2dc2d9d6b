// One-sided fast path for HydraList lookups (§8.6 + the fl_read data plane).
//
// The index itself lives on the server heap; RDMA cannot chase its pointers.
// Instead the server periodically *publishes* a flat mirror of the data list
// into registered memory, and clients resolve point lookups against the
// mirror with two fl_reads — no server CPU:
//
//   directory: [version | count | {anchor, block_addr} x count]   (seqlock)
//   block i:   [version | count | keys[64] | values[64]]          (seqlock)
//
// A client binary-searches its (host-cached) directory copy for the greatest
// anchor <= key, fl_reads that 1040-byte block, searches it locally, and
// re-reads the block's version word to validate the snapshot — the same
// seqlock discipline as kv::OneSidedReader. A locked/odd version, a version
// that moved between the reads, or a key that is absent from the snapshot
// all send the caller to the RPC path, which consults the authoritative
// index (and is also how mutations travel).
//
// Staleness model: the mirror is a snapshot — reads are as fresh as the last
// Publish(). That mirrors HydraList's own design, where the search layer
// lags the data list; here the whole read path may lag mutations by one
// publication period, but a validated block is internally consistent (never
// torn), so readers see some value that was genuinely current at a publish.
#ifndef FLOCK_INDEX_REMOTE_MIRROR_H_
#define FLOCK_INDEX_REMOTE_MIRROR_H_

#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "src/fabric/memory.h"
#include "src/flock/runtime.h"
#include "src/index/hydralist.h"

namespace flock::index {

// Shared layout constants.
struct MirrorLayout {
  static constexpr size_t kBlockEntries = HydraList::kMaxEntries;  // 64
  // [version(8) | count(8) | keys | values]
  static constexpr size_t kBlockBytes = 16 + kBlockEntries * 16;  // 1040
  static constexpr size_t kDirEntryBytes = 16;  // {anchor, block_addr}

  static constexpr uint64_t DirBytes(size_t max_blocks) {
    return 16 + max_blocks * kDirEntryBytes;
  }
};

// Server side: owns the mirror region and republishes snapshots into it.
class HydraMirror {
 public:
  // Blocks are allocated one by one (a single slab would exceed the memory
  // space's chunk limit for large indexes); the directory carries each
  // block's address, so only the covering MR needs the full [first, last]
  // span. The directory itself must fit one chunk: max_blocks < ~260k.
  HydraMirror(fabric::MemorySpace& mem, size_t max_blocks)
      : mem_(&mem),
        max_blocks_(max_blocks),
        dir_addr_(mem.Alloc(MirrorLayout::DirBytes(max_blocks), 8)) {
    block_addrs_.reserve(max_blocks);
    const uint64_t zero = 0;
    // Start every seqlock word even (0 = "empty snapshot, valid").
    mem.Write(dir_addr_, &zero, 8);
    mem.Write(dir_addr_ + 8, &zero, 8);
    for (size_t b = 0; b < max_blocks; ++b) {
      block_addrs_.push_back(mem.Alloc(MirrorLayout::kBlockBytes, 8));
      mem.Write(block_addrs_.back(), &zero, 8);
      mem.Write(block_addrs_.back() + 8, &zero, 8);
    }
  }

  // Snapshots `index` into the mirror. Each touched block and the directory
  // go through an odd-version window so concurrent one-sided readers reject
  // the intermediate state. Returns the number of blocks published; nodes
  // beyond capacity are dropped (their keys simply miss and fall back to
  // RPC), so size the mirror for the expected node count.
  size_t Publish(const HydraList& index) {
    size_t block = 0;
    std::vector<std::pair<uint64_t, uint64_t>> dir;
    index.VisitNodes([&](uint64_t anchor, const uint64_t* keys,
                         const uint64_t* values, size_t count) {
      if (block >= max_blocks_) {
        dropped_ += 1;
        return;
      }
      const uint64_t addr = BlockAddr(block);
      uint64_t version = 0;
      mem_->Read(addr, &version, 8);
      const uint64_t locked = version + 1;  // odd: mid-publish
      mem_->Write(addr, &locked, 8);
      const uint64_t n = count;
      mem_->Write(addr + 8, &n, 8);
      mem_->Write(addr + 16, keys, count * 8);
      mem_->Write(addr + 16 + MirrorLayout::kBlockEntries * 8, values,
                  count * 8);
      const uint64_t published = version + 2;  // even: stable
      mem_->Write(addr, &published, 8);
      dir.emplace_back(anchor, addr);
      ++block;
    });
    // Directory flip under its own seqlock.
    uint64_t dir_version = 0;
    mem_->Read(dir_addr_, &dir_version, 8);
    const uint64_t locked = dir_version + 1;
    mem_->Write(dir_addr_, &locked, 8);
    const uint64_t n = dir.size();
    mem_->Write(dir_addr_ + 8, &n, 8);
    for (size_t i = 0; i < dir.size(); ++i) {
      const uint64_t entry_addr =
          dir_addr_ + 16 + i * MirrorLayout::kDirEntryBytes;
      mem_->Write(entry_addr, &dir[i].first, 8);
      mem_->Write(entry_addr + 8, &dir[i].second, 8);
    }
    const uint64_t published = dir_version + 2;
    mem_->Write(dir_addr_, &published, 8);
    return block;
  }

  uint64_t dir_addr() const { return dir_addr_; }
  uint64_t dir_bytes() const { return MirrorLayout::DirBytes(max_blocks_); }
  uint64_t blocks_addr() const { return block_addrs_.front(); }
  uint64_t blocks_bytes() const {
    return block_addrs_.back() + MirrorLayout::kBlockBytes -
           block_addrs_.front();
  }
  size_t max_blocks() const { return max_blocks_; }
  uint64_t dropped() const { return dropped_; }

  // Host-side copy of the published directory — a setup-time bootstrap for
  // co-located tooling and benches (MirrorReader::AdoptDirectory), standing
  // in for the one fl_read of RefreshDirectory that a real client would do.
  std::vector<std::pair<uint64_t, uint64_t>> DirectorySnapshot() const {
    uint64_t count = 0;
    mem_->Read(dir_addr_ + 8, &count, 8);
    std::vector<std::pair<uint64_t, uint64_t>> dir(count);
    for (size_t i = 0; i < count; ++i) {
      const uint64_t entry = dir_addr_ + 16 + i * MirrorLayout::kDirEntryBytes;
      mem_->Read(entry, &dir[i].first, 8);
      mem_->Read(entry + 8, &dir[i].second, 8);
    }
    return dir;
  }

 private:
  uint64_t BlockAddr(size_t block) const { return block_addrs_[block]; }

  fabric::MemorySpace* mem_;
  const size_t max_blocks_;
  const uint64_t dir_addr_;
  std::vector<uint64_t> block_addrs_;
  uint64_t dropped_ = 0;  // nodes beyond capacity at the last Publish
};

// Client side: one per (connection, application thread) — the scratch
// buffers are not re-entrant.
class MirrorReader {
 public:
  enum class Outcome {
    kOk,       // value delivered from a validated snapshot
    kAbsent,   // key not in the snapshot: confirm through RPC
    kStale,    // retries exhausted against the publisher: use RPC
    kError,    // transport failure
  };

  struct Stats {
    uint64_t ok = 0;
    uint64_t absent = 0;
    uint64_t stale = 0;
    uint64_t errors = 0;
    uint64_t retries = 0;  // odd/changed block versions observed
    uint64_t dir_refreshes = 0;
  };

  MirrorReader(Connection& conn, fabric::MemorySpace& local_mem,
               uint64_t dir_addr, const RemoteMr& dir_mr,
               const RemoteMr& blocks_mr, size_t max_blocks)
      : conn_(&conn),
        local_mem_(&local_mem),
        dir_addr_(dir_addr),
        dir_mr_(dir_mr),
        blocks_mr_(blocks_mr),
        block_scratch_(local_mem.Alloc(MirrorLayout::kBlockBytes, 8)),
        max_blocks_(max_blocks) {}

  // Installs a directory obtained elsewhere — from another reader on this
  // node or from HydraMirror::DirectorySnapshot() at setup — so fleets of
  // readers don't each pay the multi-megabyte directory read and its scratch.
  void AdoptDirectory(std::vector<std::pair<uint64_t, uint64_t>> dir) {
    directory_ = std::move(dir);
  }
  const std::vector<std::pair<uint64_t, uint64_t>>& directory() const {
    return directory_;
  }

  // fl_reads the whole directory under its seqlock and caches it host-side
  // for binary search. Call after connect and then at whatever staleness
  // budget the application tolerates.
  sim::Co<bool> RefreshDirectory(FlockThread& thread, int retry_limit = 3) {
    if (dir_scratch_ == 0) {
      // Lazily allocated: adopted-directory readers never need this buffer.
      dir_scratch_ = local_mem_->Alloc(MirrorLayout::DirBytes(max_blocks_), 8);
    }
    for (int attempt = 0; attempt <= retry_limit; ++attempt) {
      if (co_await conn_->Read(thread, dir_scratch_, dir_addr_,
                               static_cast<uint32_t>(
                                   MirrorLayout::DirBytes(max_blocks_)),
                               dir_mr_) != verbs::WcStatus::kSuccess) {
        stats_.errors += 1;
        co_return false;
      }
      uint64_t v1 = 0;
      local_mem_->Read(dir_scratch_, &v1, 8);
      if (v1 & 1) {
        stats_.retries += 1;
        continue;
      }
      uint64_t count = 0;
      local_mem_->Read(dir_scratch_ + 8, &count, 8);
      if (count > max_blocks_) {
        co_return false;  // corrupt snapshot; keep the previous directory
      }
      std::vector<std::pair<uint64_t, uint64_t>> dir(count);
      for (size_t i = 0; i < count; ++i) {
        const uint64_t entry =
            dir_scratch_ + 16 + i * MirrorLayout::kDirEntryBytes;
        local_mem_->Read(entry, &dir[i].first, 8);
        local_mem_->Read(entry + 8, &dir[i].second, 8);
      }
      if (co_await conn_->Read(thread, dir_scratch_, dir_addr_, 8, dir_mr_) !=
          verbs::WcStatus::kSuccess) {
        stats_.errors += 1;
        co_return false;
      }
      uint64_t v2 = 0;
      local_mem_->Read(dir_scratch_, &v2, 8);
      if (v2 != v1) {
        stats_.retries += 1;
        continue;
      }
      directory_ = std::move(dir);
      stats_.dir_refreshes += 1;
      co_return true;
    }
    co_return false;
  }

  bool has_directory() const { return !directory_.empty(); }

  // One-sided point lookup against the mirror snapshot.
  sim::Co<Outcome> Get(FlockThread& thread, uint64_t key, uint64_t* value_out,
                       int retry_limit = 3) {
    if (directory_.empty()) {
      stats_.stale += 1;
      co_return Outcome::kStale;
    }
    // Greatest anchor <= key; directory is sorted by anchor (data-list
    // order). Charged as one node binary search, like the server would pay.
    co_await thread.core().Work(HydraList::kSearchCost);
    size_t lo = 0;
    size_t hi = directory_.size();
    while (hi - lo > 1) {
      const size_t mid = lo + (hi - lo) / 2;
      if (directory_[mid].first <= key) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    const uint64_t block_addr = directory_[lo].second;
    for (int attempt = 0; attempt <= retry_limit; ++attempt) {
      if (co_await conn_->Read(thread, block_scratch_, block_addr,
                               MirrorLayout::kBlockBytes, blocks_mr_) !=
          verbs::WcStatus::kSuccess) {
        stats_.errors += 1;
        co_return Outcome::kError;
      }
      uint64_t v1 = 0;
      local_mem_->Read(block_scratch_, &v1, 8);
      if (v1 & 1) {
        stats_.retries += 1;
        continue;  // publisher mid-flip
      }
      uint64_t count = 0;
      local_mem_->Read(block_scratch_ + 8, &count, 8);
      if (count > MirrorLayout::kBlockEntries) {
        stats_.stale += 1;
        co_return Outcome::kStale;  // snapshot from before our directory
      }
      uint64_t keys[MirrorLayout::kBlockEntries];
      local_mem_->Read(block_scratch_ + 16, keys, count * 8);
      uint64_t value = 0;
      bool found = false;
      co_await thread.core().Work(HydraList::kSearchCost);
      size_t klo = 0;
      size_t khi = count;
      while (klo < khi) {
        const size_t mid = klo + (khi - klo) / 2;
        if (keys[mid] < key) {
          klo = mid + 1;
        } else {
          khi = mid;
        }
      }
      if (klo < count && keys[klo] == key) {
        local_mem_->Read(
            block_scratch_ + 16 + MirrorLayout::kBlockEntries * 8 + klo * 8,
            &value, 8);
        found = true;
      }
      // Seqlock validation: the block must not have been republished.
      if (co_await conn_->Read(thread, block_scratch_, block_addr, 8,
                               blocks_mr_) != verbs::WcStatus::kSuccess) {
        stats_.errors += 1;
        co_return Outcome::kError;
      }
      uint64_t v2 = 0;
      local_mem_->Read(block_scratch_, &v2, 8);
      if (v2 != v1) {
        stats_.retries += 1;
        continue;
      }
      if (!found) {
        stats_.absent += 1;
        co_return Outcome::kAbsent;
      }
      if (value_out != nullptr) {
        *value_out = value;
      }
      stats_.ok += 1;
      co_return Outcome::kOk;
    }
    stats_.stale += 1;
    co_return Outcome::kStale;
  }

  const Stats& stats() const { return stats_; }

 private:
  Connection* conn_;
  fabric::MemorySpace* local_mem_;
  const uint64_t dir_addr_;
  const RemoteMr dir_mr_;
  const RemoteMr blocks_mr_;
  uint64_t dir_scratch_ = 0;  // lazily allocated by RefreshDirectory
  const uint64_t block_scratch_;
  const size_t max_blocks_;
  std::vector<std::pair<uint64_t, uint64_t>> directory_;  // {anchor, addr}
  Stats stats_;
};

}  // namespace flock::index

#endif  // FLOCK_INDEX_REMOTE_MIRROR_H_
