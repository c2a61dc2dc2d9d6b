// Client-side one-sided KV lookups (fl_read) over the version-word protocol.
//
// The KV store lays records out as [version word | value] precisely so a
// remote reader can validate without the server CPU (kvstore.h): the reader
// fl_reads the whole record in one go, rejects it if the version word is
// locked, then re-reads just the version word and accepts the value only if
// the version did not change in between — a seqlock over RDMA. Odd or
// changed versions mean a writer was concurrently installing; the reader
// retries a bounded number of times and then signals the caller to fall back
// to the RPC path (which serializes against writers on the server).
//
// Record addresses are learned out of band — every RPC Get response carries
// the record's address (the "address-learning channel"), mirroring how
// one-sided designs bootstrap their location caches. Keys never seen via RPC
// are reported as kNoAddr so the caller issues the RPC (and learns the
// address for next time).
#ifndef FLOCK_KV_REMOTE_KV_H_
#define FLOCK_KV_REMOTE_KV_H_

#include <cstdint>
#include <cstring>
#include <unordered_map>

#include "src/fabric/memory.h"
#include "src/flock/runtime.h"
#include "src/kv/kvstore.h"

namespace flock::kv {

// One per (connection, application thread): the scratch landing buffer is
// not re-entrant. The address cache is per-reader too; sharing it across
// threads is a host-side concern the caller can layer on via LearnAddr.
class OneSidedReader {
 public:
  enum class Outcome {
    kOk,        // value + even, stable version delivered
    kNoAddr,    // record address unknown: caller must go through RPC
    kContended, // retries exhausted against a concurrent writer: use RPC
    kError,     // transport failure (dead lane/QP)
  };

  struct Stats {
    uint64_t ok = 0;
    uint64_t no_addr = 0;
    uint64_t locked_retries = 0;   // first read saw the lock bit
    uint64_t version_retries = 0;  // version word moved between the reads
    uint64_t contended = 0;
    uint64_t errors = 0;
  };

  OneSidedReader(Connection& conn, fabric::MemorySpace& local_mem,
                 uint32_t value_size)
      : conn_(&conn),
        value_size_(value_size),
        scratch_(local_mem.Alloc(8 + value_size, 8)),
        local_mem_(&local_mem) {}

  // Files the record address (from an RPC response's version_addr) under
  // `key`. `mr` must cover [addr, addr + 8 + value_size).
  void LearnAddr(uint64_t key, uint64_t record_addr, const RemoteMr& mr) {
    cache_[key] = Entry{record_addr, mr};
  }

  bool KnowsAddr(uint64_t key) const { return cache_.count(key) != 0; }

  // fl_read point lookup. On kOk, `value_out` (if non-null) holds the value
  // and `version_out` (if non-null) the even version it was read under.
  sim::Co<Outcome> Get(FlockThread& thread, uint64_t key, void* value_out,
                       uint64_t* version_out, int retry_limit = 3) {
    auto it = cache_.find(key);
    if (it == cache_.end()) {
      stats_.no_addr += 1;
      co_return Outcome::kNoAddr;
    }
    const Entry entry = it->second;
    for (int attempt = 0; attempt <= retry_limit; ++attempt) {
      // One read covers the version word and the value.
      if (co_await conn_->Read(thread, scratch_, entry.record_addr,
                               8 + value_size_, entry.mr) !=
          verbs::WcStatus::kSuccess) {
        stats_.errors += 1;
        co_return Outcome::kError;
      }
      uint64_t v1 = 0;
      local_mem_->Read(scratch_, &v1, 8);
      if (v1 & kLockBit) {
        stats_.locked_retries += 1;
        continue;  // writer mid-install: the value bytes may be torn
      }
      if (value_out != nullptr) {
        local_mem_->Read(scratch_ + 8, value_out, value_size_);
      }
      // Seqlock validation: re-read the version word alone; any concurrent
      // commit bumped it, any in-flight writer set the lock bit.
      if (co_await conn_->Read(thread, scratch_, entry.record_addr, 8,
                               entry.mr) != verbs::WcStatus::kSuccess) {
        stats_.errors += 1;
        co_return Outcome::kError;
      }
      uint64_t v2 = 0;
      local_mem_->Read(scratch_, &v2, 8);
      if (v2 != v1) {
        stats_.version_retries += 1;
        continue;
      }
      if (version_out != nullptr) {
        *version_out = v1;
      }
      stats_.ok += 1;
      co_return Outcome::kOk;
    }
    stats_.contended += 1;
    co_return Outcome::kContended;
  }

  const Stats& stats() const { return stats_; }

 private:
  struct Entry {
    uint64_t record_addr = 0;
    RemoteMr mr;
  };

  Connection* conn_;
  const uint32_t value_size_;
  const uint64_t scratch_;  // local landing buffer: [version | value]
  fabric::MemorySpace* local_mem_;
  std::unordered_map<uint64_t, Entry> cache_;
  Stats stats_;
};

}  // namespace flock::kv

#endif  // FLOCK_KV_REMOTE_KV_H_
