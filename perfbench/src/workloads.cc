#include "perfbench/src/workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>
#include <tuple>

#include "src/common/rand.h"
#include "src/ctrl/control_plane.h"
#include "src/flock/flock.h"

namespace flock::perfbench {

bool ParseWorkload(const std::string& name, Workload* out) {
  for (const Workload w : {Workload::kFaninRpc, Workload::kExtentMix,
                           Workload::kConnChurn, Workload::kScaleOut}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kFaninRpc:
      return "fanin_rpc";
    case Workload::kExtentMix:
      return "extent_mix";
    case Workload::kConnChurn:
      return "conn_churn";
    case Workload::kScaleOut:
      return "scale_out";
  }
  return "?";
}

uint64_t Counters::Get(const std::string& name) const {
  for (const auto& [k, v] : values_) {
    if (k == name) {
      return v;
    }
  }
  FLOCK_CHECK(false) << "unknown counter " << name;
  return 0;
}

Counters Counters::Since(const Counters& before, std::vector<std::string>* errors) const {
  Counters d;
  if (before.values_.size() != values_.size()) {
    errors->push_back("counter snapshots have different shapes");
    return d;
  }
  std::vector<DeltaError> delta_errors;
  for (size_t i = 0; i < values_.size(); ++i) {
    const auto& [name, after] = values_[i];
    if (before.values_[i].first != name) {
      errors->push_back("counter snapshots disagree on " + name);
      continue;
    }
    d.values_.emplace_back(
        name, Delta(name.c_str(), before.values_[i].second, after, &delta_errors));
  }
  for (const DeltaError& e : delta_errors) {
    errors->push_back("counter went backwards over the window: " + e.counter);
  }
  return d;
}

namespace {

constexpr uint16_t kEchoRpc = 1;
constexpr uint16_t kReadRpc = 2;   // req [id][tag] -> resp [extent]
constexpr uint16_t kWriteRpc = 3;  // req [extent] -> resp [generation]
// One RPC in this many (by per-thread sequence number) is exported as spans.
constexpr uint32_t kSpanEvery = 64;
// Host-side sampling grain inside the measured window (fabric queue depths).
// RunUntil slices add no simulator events, so slicing leaves the trace alone.
constexpr Nanos kSlice = 10 * kMicrosecond;

struct Params {
  int servers = 1;
  int clients = 1;
  int cores_per_node = 32;
  int server_dispatchers = 4;
  int shards = 1;
  int workers = 0;
  Nanos warmup = 1 * kMillisecond;
  Nanos window = 2 * kMillisecond;
  sim::CostModel cost;
  FlockConfig flock;

  // Closed-loop echo class (fanin_rpc, scale_out; metadata in extent_mix).
  int echo_threads = 0;  // per client node
  int outstanding = 1;
  uint32_t echo_bytes = 64;
  uint32_t lanes = 0;  // per eager connection
  int worker_cores = 32;
  Nanos cost_lo = 25;  // handler CPU per request, drawn uniformly per request
  Nanos cost_hi = 75;
  Nanos max_start_offset = 200 * kMicrosecond;

  // Extent class (extent_mix).
  int extent_threads = 0;
  uint32_t extent_bytes = 0;
  uint64_t num_extents = 0;

  // Session class (conn_churn): open-loop arrivals at a fixed rate, the same
  // number of sessions in the warmup and in the window for every seed.
  int warmup_sessions = 0;
  int window_sessions = 0;
  uint32_t session_lanes = 4;
  int session_calls = 4;
};

Params ForWorkload(Workload w) {
  Params p;
  switch (w) {
    case Workload::kFaninRpc:
      // The §8.2 regime: 23 clients x 16 threads x 8 outstanding into one
      // 32-core server, one lane per thread (368 eager lanes).
      p.clients = 23;
      p.server_dispatchers = 31;
      p.echo_threads = 16;
      p.outstanding = 8;
      p.lanes = 16;
      p.worker_cores = 30;
      p.warmup = 1 * kMillisecond;
      p.window = 3 * kMillisecond;
      break;
    case Workload::kExtentMix:
      // Only the fields MB payloads require differ from the defaults.
      p.cost.link_arb_quantum_bytes = p.cost.mtu_bytes;
      p.extent_bytes = 1024 * 1024;
      p.flock.max_payload = p.extent_bytes;
      p.flock.segment_threshold = 8 * 1024;
      p.num_extents = 32;
      p.extent_threads = 2;
      p.echo_threads = 4;
      p.echo_bytes = 128;
      p.lanes = 4;
      p.cost_lo = 250;  // metadata handler: ~300 ns touch cost
      p.cost_hi = 354;
      p.warmup = 2 * kMillisecond;
      // ~680 extent ops: a shorter window lets the seeded read/write order
      // move the metadata metrics by several percent between seeds.
      p.window = 80 * kMillisecond;
      break;
    case Workload::kConnChurn:
      p.clients = 8;
      p.cores_per_node = 16;
      // 28k sessions/s offered. The default connect path keeps every lane's
      // rings (4 MB per session), so the session count bounds peak RSS.
      p.warmup_sessions = 16;
      p.window_sessions = 280;
      p.warmup = 600 * kMicrosecond;
      p.window = 10 * kMillisecond;
      break;
    case Workload::kScaleOut:
      p.servers = 4;
      p.clients = 12;
      p.cores_per_node = 34;
      p.echo_threads = 8;
      p.outstanding = 1;
      p.lanes = 8;
      p.worker_cores = 34;
      p.shards = 4;
      p.workers = static_cast<int>(
          std::min(4u, std::max(1u, std::thread::hardware_concurrency())));
      p.warmup = 1 * kMillisecond;
      p.window = 12 * kMillisecond;
      break;
  }
  return p;
}

uint64_t Mix3(uint64_t seed, uint64_t a, uint64_t b) {
  uint64_t s = seed ^ (a * 0x9E3779B97F4A7C15ull) ^ (b * 0xC2B2AE3D27D4EB4Full);
  return SplitMix64(s);
}

double Seconds(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - since).count();
}

// Sim-time stamps of one RPC: t0 before SendRpc, t1 when SendRpc returns
// (staged, sealed, credited and posted), t2 at the handler's call (carried
// back in the response), t3 when AwaitResponse returns.
struct Stamps {
  Nanos t0 = 0;
  Nanos t1 = 0;
  Nanos t2 = 0;
  Nanos t3 = 0;
};

// Per-node accounting. All of a client node's procs run on that node's shard,
// so each NodeAcc has a single writer; totals merge in node order.
struct NodeAcc {
  uint64_t issued = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t mismatched = 0;  // wrong echo bytes, extent contents or stamp order
  uint64_t live = 0;        // procs still running
  uint64_t window_rpcs = 0;
  uint64_t window_extents = 0;
  uint64_t window_extent_bytes = 0;
  SampleSet latency;
  SampleSet extent_latency;
  // Traced reps: stage split of every in-window RPC, with running sums for
  // the identity stage + request path + response path = end to end.
  SampleSet stage;
  SampleSet req_path;
  SampleSet resp_path;
  int64_t sum_latency = 0;
  int64_t sum_parts = 0;
  // Sessions.
  uint64_t sessions_window = 0;
  SampleSet ttfr;
  SampleSet connect;
  Nanos max_lag = 0;
  Connection* live_conn = nullptr;
  uint64_t closed_requests = 0;
  uint64_t closed_messages = 0;
  uint64_t closed_batch[33] = {};
  std::vector<Span> spans;
};

struct Ctx {
  sim::Simulator* sim = nullptr;
  const Params* p = nullptr;
  bool traced = false;
  Nanos w0 = 0;
  Nanos w1 = 0;
  bool stop = false;  // flipped by the main thread between RunUntil calls
  std::vector<NodeAcc> acc;  // index = node

  bool InWindow(Nanos t) const { return t >= w0 && t < w1; }
};

int64_t AddSpan(NodeAcc& acc, const char* name, int node, uint64_t request,
                Nanos start, Nanos end, int64_t parent) {
  acc.spans.push_back(Span{name, node, request, start, end, parent});
  return static_cast<int64_t>(acc.spans.size()) - 1;
}

// ---- echo class ----
// Request words: [tag][handler cost ns][filler(tag)...][t2 slot]. The
// handler echoes everything and writes its call time into the last word, so
// traced and untraced runs move identical bytes.
void FillEcho(uint64_t* w, uint32_t words, uint64_t tag, uint64_t cost) {
  w[0] = tag;
  w[1] = cost;
  for (uint32_t i = 2; i + 1 < words; ++i) {
    w[i] = tag * 0x9E3779B97F4A7C15ull + i;
  }
  w[words - 1] = 0;
}

bool EchoMatches(const uint64_t* req, uint32_t len, const uint8_t* resp,
                 uint32_t resp_len, Nanos* t2) {
  if (resp_len != len || std::memcmp(req, resp, len - 8) != 0) {
    return false;
  }
  std::memcpy(t2, resp + len - 8, 8);
  return true;
}

RpcHandler EchoHandler(sim::Simulator* sim) {
  return [sim](const uint8_t* req, uint32_t len, uint8_t* resp, uint32_t cap,
               Nanos* cpu) -> uint32_t {
    *cpu = 0;
    if (len < 24 || len % 8 != 0 || len > cap) {
      return 0;  // the client sees a short response and flags it
    }
    std::memcpy(resp, req, len);
    uint64_t cost = 0;
    std::memcpy(&cost, req + 8, 8);
    *cpu = static_cast<Nanos>(std::min<uint64_t>(cost, 100 * kMicrosecond));
    const uint64_t now = static_cast<uint64_t>(sim->Now());
    std::memcpy(resp + len - 8, &now, 8);
    return len;
  };
}

// Books one finished echo RPC. Returns the root span index, or -1.
int64_t FinishEcho(Ctx& ctx, NodeAcc& acc, int node, bool ok, const uint64_t* req,
                   uint32_t len, const uint8_t* resp, uint32_t resp_len, Stamps s,
                   uint64_t tag, bool sample, int64_t parent) {
  if (!ok) {
    ++acc.failed;
    return -1;
  }
  ++acc.completed;
  if (!EchoMatches(req, len, resp, resp_len, &s.t2) ||
      !(s.t0 <= s.t1 && s.t1 <= s.t2 && s.t2 <= s.t3)) {
    ++acc.mismatched;
    return -1;
  }
  if (!ctx.InWindow(s.t3)) {
    return -1;
  }
  ++acc.window_rpcs;
  acc.latency.Add(s.t3 - s.t0);
  if (!ctx.traced) {
    return -1;
  }
  acc.stage.Add(s.t1 - s.t0);
  acc.req_path.Add(s.t2 - s.t1);
  acc.resp_path.Add(s.t3 - s.t2);
  acc.sum_latency += s.t3 - s.t0;
  acc.sum_parts += (s.t1 - s.t0) + (s.t2 - s.t1) + (s.t3 - s.t2);
  if (!sample) {
    return -1;
  }
  const int64_t root = AddSpan(acc, "rpc", node, tag, s.t0, s.t3, parent);
  AddSpan(acc, "stage", node, tag, s.t0, s.t1, root);
  AddSpan(acc, "req_path", node, tag, s.t1, s.t2, root);
  AddSpan(acc, "resp_path", node, tag, s.t2, s.t3, root);
  return root;
}

uint64_t Tag(int node, int thread, uint32_t seq) {
  return (static_cast<uint64_t>(node) << 48) | (static_cast<uint64_t>(thread) << 32) |
         seq;
}

// Closed loop: keep `outstanding` requests in flight, await them in order.
sim::Proc EchoWorker(Ctx* ctx, Connection* conn, FlockThread* thread, int node,
                     int thread_index, Nanos start_offset, uint64_t seed) {
  const Params& p = *ctx->p;
  NodeAcc& acc = ctx->acc[static_cast<size_t>(node)];
  ++acc.live;
  co_await sim::Delay(*ctx->sim, start_offset);
  Rng rng(seed);
  const uint32_t words = p.echo_bytes / 8;
  const auto out = static_cast<size_t>(p.outstanding);
  std::vector<uint64_t> bufs(out * words);
  std::vector<PendingRpc*> rpcs(out);
  std::vector<Stamps> stamps(out);
  std::vector<uint32_t> seqs(out);
  uint32_t seq = 0;
  while (!ctx->stop) {
    for (size_t i = 0; i < out; ++i) {
      seqs[i] = seq++;
      uint64_t* req = &bufs[i * words];
      FillEcho(req, words, Tag(node, thread_index, seqs[i]),
               rng.NextInRange(static_cast<uint64_t>(p.cost_lo),
                               static_cast<uint64_t>(p.cost_hi)));
      stamps[i].t0 = ctx->sim->Now();
      rpcs[i] = co_await conn->SendRpc(*thread, kEchoRpc,
                                       reinterpret_cast<const uint8_t*>(req),
                                       p.echo_bytes);
      stamps[i].t1 = ctx->sim->Now();
      ++acc.issued;
    }
    for (size_t i = 0; i < out; ++i) {
      PendingRpc* rpc = rpcs[i];
      const bool ok = co_await conn->AwaitResponse(*thread, rpc);
      stamps[i].t3 = ctx->sim->Now();
      FinishEcho(*ctx, acc, node, ok, &bufs[i * words], p.echo_bytes,
                 rpc->response.data(), rpc->response.size(), stamps[i],
                 Tag(node, thread_index, seqs[i]), seqs[i] % kSpanEvery == 0, -1);
      conn->FreeRpc(rpc);
    }
  }
  --acc.live;
}

// ---- extent class ----
// An extent is self-describing: words [id][generation][pattern(id, gen)...],
// so a read is checked without a shadow copy of the store.
uint64_t PatternWord(uint64_t id, uint64_t gen, uint64_t i) {
  return (id * 0xD6E8FEB86659FD93ull + gen * 0x9E3779B97F4A7C15ull) ^
         (i * 0xC2B2AE3D27D4EB4Full);
}

void FillExtent(uint64_t* w, uint64_t words, uint64_t id, uint64_t gen) {
  w[0] = id;
  w[1] = gen;
  for (uint64_t i = 2; i < words; ++i) {
    w[i] = PatternWord(id, gen, i);
  }
}

bool ExtentValid(const uint64_t* w, uint64_t words, uint64_t id) {
  if (w[0] != id) {
    return false;
  }
  const uint64_t gen = w[1];
  for (uint64_t i = 2; i < words; ++i) {
    if (w[i] != PatternWord(id, gen, i)) {
      return false;
    }
  }
  return true;
}

Nanos TouchCost(uint32_t len) { return 300 + len / 64; }

sim::Proc ExtentWorker(Ctx* ctx, Connection* conn, FlockThread* thread, int node,
                       int writer_index, uint64_t seed) {
  const Params& p = *ctx->p;
  NodeAcc& acc = ctx->acc[static_cast<size_t>(node)];
  ++acc.live;
  Rng rng(seed);
  const uint64_t words = p.extent_bytes / 8;
  std::vector<uint64_t> write_buf(words);
  std::vector<uint64_t> read_buf(words);
  uint64_t header[2] = {0, 0};
  uint64_t ack = 0;
  uint64_t next_gen = (static_cast<uint64_t>(writer_index) + 1) << 40;
  bool read_first = false;
  for (uint64_t op = 0; !ctx->stop; ++op) {
    // Exactly half the ops are reads: each pair holds one read and one
    // write, in seeded order, on seeded extents. (A fixed order locks the two
    // threads into one phase pattern per seed and spreads the metadata
    // metrics across seeds far more.)
    if (op % 2 == 0) {
      read_first = rng.NextBelow(2) == 0;
    }
    const bool is_read = (op % 2 == 0) == read_first;
    const uint64_t id = rng.NextBelow(p.num_extents);
    Stamps s;
    PendingRpc* rpc = nullptr;
    uint64_t gen = 0;
    s.t0 = ctx->sim->Now();
    if (is_read) {
      header[0] = id;
      header[1] = next_gen;  // request tag, not interpreted by the server
      const PayloadRef req(reinterpret_cast<const uint8_t*>(header), 16);
      rpc = co_await conn->SendRpc(*thread, kReadRpc, req,
                                   reinterpret_cast<uint8_t*>(read_buf.data()),
                                   p.extent_bytes);
    } else {
      gen = ++next_gen;
      FillExtent(write_buf.data(), words, id, gen);
      const PayloadRef req(reinterpret_cast<const uint8_t*>(write_buf.data()),
                           p.extent_bytes);
      rpc = co_await conn->SendRpc(*thread, kWriteRpc, req,
                                   reinterpret_cast<uint8_t*>(&ack), 8);
    }
    s.t1 = ctx->sim->Now();
    ++acc.issued;
    const bool ok = co_await conn->AwaitResponse(*thread, rpc);
    s.t3 = ctx->sim->Now();
    const uint32_t resp_len = rpc->response_len;
    conn->FreeRpc(rpc);
    if (!ok) {
      ++acc.failed;
      continue;
    }
    ++acc.completed;
    const bool valid =
        is_read ? resp_len == p.extent_bytes && ExtentValid(read_buf.data(), words, id)
                : resp_len == 8 && ack == gen;
    if (!valid || s.t1 < s.t0 || s.t3 < s.t1) {
      ++acc.mismatched;
      continue;
    }
    if (ctx->InWindow(s.t3)) {
      ++acc.window_extents;
      acc.window_extent_bytes += p.extent_bytes;
      acc.extent_latency.Add(s.t3 - s.t0);
      if (ctx->traced && acc.window_extents % 8 == 0) {
        const uint64_t tag = Tag(node, 1000 + writer_index, static_cast<uint32_t>(gen));
        AddSpan(acc, is_read ? "extent_read" : "extent_write", node, tag, s.t0, s.t3,
                -1);
      }
    }
  }
  --acc.live;
}

// ---- session class ----
// One proc per client node runs that node's share of the open-loop
// schedule, one session at a time; a session due while the previous one is
// still running starts late, and its TTFR still counts from the due time.
sim::Proc SessionDriver(Ctx* ctx, FlockRuntime* rt, ctrl::ControlPlane* cp,
                        FlockThread* thread, int server_node,
                        std::vector<Nanos> schedule, uint64_t seed) {
  const Params& p = *ctx->p;
  const int node = rt->node();
  NodeAcc& acc = ctx->acc[static_cast<size_t>(node)];
  ++acc.live;
  Rng rng(seed);
  const uint32_t words = p.echo_bytes / 8;
  std::vector<uint64_t> req(words);
  uint32_t seq = 0;
  for (size_t k = 0; k < schedule.size(); ++k) {
    const Nanos due = schedule[k];
    if (ctx->sim->Now() < due) {
      co_await sim::Delay(*ctx->sim, due - ctx->sim->Now());
    }
    const bool in_window = ctx->InWindow(due);
    const bool sample = ctx->traced && in_window && k % 4 == 0;
    const Nanos start = ctx->sim->Now();
    acc.max_lag = std::max(acc.max_lag, start - due);
    cp->Join(node);
    Connection* conn = co_await rt->ConnectAsync(server_node, p.session_lanes);
    const Nanos connected = ctx->sim->Now();
    const uint64_t session_tag = Tag(node, 0xffff, static_cast<uint32_t>(k));
    int64_t root = -1;
    if (sample) {
      root = AddSpan(acc, "session", node, session_tag, due, due, -1);
      AddSpan(acc, "join", node, session_tag, start, start, root);
      AddSpan(acc, "connect", node, session_tag, start, connected, root);
    }
    if (conn == nullptr) {
      acc.issued += static_cast<uint64_t>(p.session_calls);
      acc.failed += static_cast<uint64_t>(p.session_calls);
      cp->Leave(node);
      continue;
    }
    acc.live_conn = conn;
    if (in_window) {
      ++acc.sessions_window;
      acc.connect.Add(connected - start);
    }
    for (int i = 0; i < p.session_calls; ++i) {
      Stamps s;
      const uint32_t my_seq = seq++;
      FillEcho(req.data(), words, Tag(node, 0, my_seq),
               rng.NextInRange(static_cast<uint64_t>(p.cost_lo),
                               static_cast<uint64_t>(p.cost_hi)));
      s.t0 = ctx->sim->Now();
      PendingRpc* rpc = co_await conn->SendRpc(
          *thread, kEchoRpc, reinterpret_cast<const uint8_t*>(req.data()), p.echo_bytes);
      s.t1 = ctx->sim->Now();
      ++acc.issued;
      const bool ok = co_await conn->AwaitResponse(*thread, rpc);
      s.t3 = ctx->sim->Now();
      FinishEcho(*ctx, acc, node, ok, req.data(), p.echo_bytes, rpc->response.data(),
                 rpc->response.size(), s, Tag(node, 0, my_seq), sample && i == 0,
                 root);
      conn->FreeRpc(rpc);
      if (i == 0 && ok && in_window) {
        acc.ttfr.Add(s.t3 - due);
      }
    }
    acc.closed_requests += conn->requests_sent();
    acc.closed_messages += conn->messages_sent();
    conn->BatchHistogram(acc.closed_batch);
    acc.live_conn = nullptr;
    // Step off the response dispatcher's stack before closing (the last
    // AwaitResponse resumed inline from a dispatcher pass).
    co_await sim::Delay(*ctx->sim, 1 * kMicrosecond);
    const Nanos close_at = ctx->sim->Now();
    rt->CloseConnection(conn);
    cp->Leave(node);
    if (sample) {
      AddSpan(acc, "close", node, session_tag, close_at, close_at, root);
      acc.spans[static_cast<size_t>(root)].end = close_at;
    }
  }
  --acc.live;
}

// Open-loop arrivals at a fixed rate: the warmup and the window are cut into
// equal slots, one session per slot, due at a seeded uniform offset inside
// its slot. Sessions are dealt round-robin to the client nodes. Returns one
// schedule per client.
std::vector<std::vector<Nanos>> SessionSchedule(const Params& p, uint64_t seed) {
  Rng rng(Mix3(seed, 0x5e55, 0));
  std::vector<Nanos> due;
  for (const auto& [start, span, count] :
       {std::tuple{Nanos{0}, p.warmup, p.warmup_sessions},
        std::tuple{p.warmup, p.window, p.window_sessions}}) {
    const Nanos slot = span / count;
    for (int k = 0; k < count; ++k) {
      due.push_back(start + k * slot +
                    static_cast<Nanos>(rng.NextBelow(static_cast<uint64_t>(slot))));
    }
  }
  std::vector<std::vector<Nanos>> out(static_cast<size_t>(p.clients));
  for (size_t k = 0; k < due.size(); ++k) {
    out[k % out.size()].push_back(due[k]);
  }
  return out;
}

// ---- the simulated world ----
struct World {
  std::unique_ptr<verbs::Cluster> cluster;
  std::vector<std::unique_ptr<FlockRuntime>> servers;  // node s
  std::vector<std::unique_ptr<FlockRuntime>> clients;  // node servers + c
  std::vector<Connection*> conns;                      // eager connections
  std::vector<uint64_t> store;                         // extent store
  ctrl::ControlPlane* cp = nullptr;
};

void RegisterHandlers(World& w, const Params& p, FlockRuntime& server) {
  server.RegisterHandler(kEchoRpc, EchoHandler(&w.cluster->sim()));
  if (p.extent_threads == 0) {
    return;
  }
  std::vector<uint64_t>* store = &w.store;
  const uint32_t bytes = p.extent_bytes;
  const uint64_t n = p.num_extents;
  server.RegisterHandler(kReadRpc, [store, bytes, n](const uint8_t* req, uint32_t len,
                                                     uint8_t* resp, uint32_t cap,
                                                     Nanos* cpu) -> uint32_t {
    *cpu = TouchCost(bytes);
    uint64_t id = n;
    if (len == 16) {
      std::memcpy(&id, req, 8);
    }
    if (id >= n || cap < bytes) {
      return 0;
    }
    std::memcpy(resp, store->data() + id * (bytes / 8), bytes);
    return bytes;
  });
  server.RegisterHandler(kWriteRpc, [store, bytes, n](const uint8_t* req, uint32_t len,
                                                      uint8_t* resp, uint32_t cap,
                                                      Nanos* cpu) -> uint32_t {
    *cpu = TouchCost(bytes);
    uint64_t id = n;
    if (len == bytes) {
      std::memcpy(&id, req, 8);
    }
    if (id >= n || cap < 8) {
      return 0;
    }
    std::memcpy(store->data() + id * (bytes / 8), req, bytes);
    std::memcpy(resp, req + 8, 8);  // ack = the generation written
    return 8;
  });
}

int ServerOf(const Params& p, int client) { return client % p.servers; }

Counters Capture(World& w, const Params& p, const Ctx& ctx) {
  Counters c;
  sim::Simulator& sim = w.cluster->sim();
  c.Set("sim.events", sim.events_processed());
  c.Set("sim.resumes", sim.resumes());
  c.Set("sim.direct_resumes", sim.direct_resumes());
  c.Set("sim.coalesced_wakes", sim.coalesced_wakes());

  uint64_t srv_busy = 0, cli_busy = 0, hits = 0, misses = 0;
  uint64_t tx_msgs = 0, tx_packets = 0, tx_wire = 0, cqes = 0;
  uint64_t srv_rx = 0, srv_tx = 0, cli_tx = 0, up_busy = 0, down_busy = 0;
  const int nodes = p.servers + p.clients;
  for (int n = 0; n < nodes; ++n) {
    const bool server = n < p.servers;
    const verbs::Device::Stats& d = w.cluster->device(n).stats();
    const auto busy = static_cast<uint64_t>(w.cluster->cpu(n).TotalBusyTime());
    (server ? srv_busy : cli_busy) += busy;
    tx_msgs += d.tx_msgs;
    tx_packets += d.tx_packets;
    tx_wire += d.tx_wire_bytes;
    cqes += d.cqes_dma_ed;
    if (server) {
      const rnic::QpCache& cache = w.cluster->device(n).qp_cache();
      hits += cache.hits();
      misses += cache.misses();
      srv_rx += d.rx_msgs;
      srv_tx += d.tx_msgs;
      up_busy += static_cast<uint64_t>(w.cluster->network().Uplink(n).busy_time());
      down_busy += static_cast<uint64_t>(w.cluster->network().Downlink(n).busy_time());
    } else {
      cli_tx += d.tx_msgs;
    }
  }
  c.Set("cpu.server_busy_ns", srv_busy);
  c.Set("cpu.client_busy_ns", cli_busy);
  c.Set("rnic.server_hits", hits);
  c.Set("rnic.server_misses", misses);
  c.Set("verbs.tx_msgs", tx_msgs);
  c.Set("verbs.tx_packets", tx_packets);
  c.Set("verbs.tx_wire_bytes", tx_wire);
  c.Set("verbs.cqes", cqes);
  c.Set("verbs.server_rx_msgs", srv_rx);
  c.Set("verbs.server_tx_msgs", srv_tx);
  c.Set("verbs.client_tx_msgs", cli_tx);
  c.Set("fabric.server_uplink_busy_ns", up_busy);
  c.Set("fabric.server_downlink_busy_ns", down_busy);

  uint64_t requests = 0, messages = 0;
  uint64_t batch[33] = {};
  for (Connection* conn : w.conns) {
    requests += conn->requests_sent();
    messages += conn->messages_sent();
    conn->BatchHistogram(batch);
  }
  for (const NodeAcc& a : ctx.acc) {
    requests += a.closed_requests;
    messages += a.closed_messages;
    for (int i = 0; i < 33; ++i) {
      batch[i] += a.closed_batch[i];
    }
    if (a.live_conn != nullptr) {
      requests += a.live_conn->requests_sent();
      messages += a.live_conn->messages_sent();
      a.live_conn->BatchHistogram(batch);
    }
  }
  c.Set("combine.requests", requests);
  c.Set("combine.messages", messages);
  for (int i = 0; i < 33; ++i) {
    c.Set(("combine.batch." + std::to_string(i)).c_str(), batch[i]);
  }

  ServerStats s;
  uint64_t chunks = 0, reassembled = 0, drops = 0, reclaimed = 0;
  for (const auto& rt : w.servers) {
    const ServerStats& x = rt->server_stats();
    s.requests += x.requests;
    s.messages += x.messages;
    s.responses_sent += x.responses_sent;
    s.credit_renewals += x.credit_renewals;
    s.redistributions += x.redistributions;
    s.activations += x.activations;
    s.qps_created += x.qps_created;
    s.qps_recycled += x.qps_recycled;
    const internal::ReassemblyPool& pool = rt->reassembly_pool();
    chunks += pool.chunks();
    reassembled += pool.completed();
    drops += pool.dropped_no_entry() + pool.dropped_oversize();
    reclaimed += pool.reclaimed();
  }
  c.Set("server.requests", s.requests);
  c.Set("server.messages", s.messages);
  c.Set("server.responses", s.responses_sent);
  c.Set("sched.credit_renewals", s.credit_renewals);
  c.Set("sched.redistributions", s.redistributions);
  c.Set("sched.activations", s.activations);
  c.Set("segment.chunks", chunks);
  c.Set("segment.reassembled", reassembled);
  c.Set("segment.drops", drops);
  c.Set("segment.reclaimed", reclaimed);

  ClientStats cs;
  for (const auto& rt : w.clients) {
    const ClientStats& x = rt->client_stats();
    cs.qps_created += x.qps_created;
    cs.qps_recycled += x.qps_recycled;
    cs.retries += x.retries;
    cs.failed_rpcs += x.failed_rpcs;
    cs.spurious_responses += x.spurious_responses;
  }
  c.Set("lane.qps_created", s.qps_created + cs.qps_created);
  c.Set("lane.qps_recycled", s.qps_recycled + cs.qps_recycled);
  c.Set("watchdog.retries", cs.retries);
  c.Set("watchdog.failed_rpcs", cs.failed_rpcs);
  c.Set("watchdog.spurious", cs.spurious_responses);

  const ctrl::ControlPlane::Stats& cp = w.cp->stats();
  c.Set("ctrl.calls", cp.calls);
  c.Set("ctrl.rejects", cp.rejected_malformed + cp.rejected_replay +
                            cp.rejected_no_endpoint + cp.rejected_not_member);
  c.Set("ctrl.epoch", w.cp->epoch());
  return c;
}

size_t UplinkQueueMax(World& w, int nodes) {
  size_t m = 0;
  for (int n = 0; n < nodes; ++n) {
    m = std::max(m, w.cluster->network().Uplink(n).queue_depth());
  }
  return m;
}

// p99 of the leader batch size, weighted by messages.
Percentile BatchP99(const Counters& d) {
  Percentile p;
  uint64_t total = 0;
  for (int i = 0; i < 33; ++i) {
    total += d.Get("combine.batch." + std::to_string(i));
  }
  p.samples = total;
  if (total < MinSamplesFor(99)) {
    return p;
  }
  const uint64_t rank = (99 * total + 99) / 100;
  uint64_t cum = 0;
  for (int i = 0; i < 33; ++i) {
    cum += d.Get("combine.batch." + std::to_string(i));
    if (cum >= rank) {
      p.supported = true;
      p.value = i;
      break;
    }
  }
  return p;
}

// A dependent chain of multiplies and shifts: no memory traffic, so its time
// does not depend on what the code under test left in the caches.
uint64_t CalibrationChain(uint64_t x) {
  for (int i = 0; i < 400000; ++i) {
    x = (x ^ (x >> 29)) * 0xBF58476D1CE4E5B9ull + static_cast<uint64_t>(i);
  }
  return x;
}

void CalibrationThread(uint64_t seed, std::atomic<int>* ready, int threads,
                       double* seconds, uint64_t* sink) {
  ready->fetch_add(1);
  while (ready->load() < threads) {
  }
  const auto start = std::chrono::steady_clock::now();
  *sink = CalibrationChain(seed);
  *seconds = Seconds(start);
}

// Host seconds of one calibration pass on `threads` threads at once (the
// slowest thread's time).
double CalibrationSeconds(int threads) {
  std::atomic<int> ready{0};
  std::vector<double> seconds(static_cast<size_t>(threads));
  std::vector<uint64_t> sinks(static_cast<size_t>(threads));
  std::vector<std::thread> helpers;
  for (int t = 1; t < threads; ++t) {
    helpers.emplace_back(CalibrationThread, static_cast<uint64_t>(t), &ready, threads,
                         &seconds[static_cast<size_t>(t)], &sinks[static_cast<size_t>(t)]);
  }
  CalibrationThread(0, &ready, threads, &seconds[0], &sinks[0]);
  for (std::thread& h : helpers) {
    h.join();
  }
  return *std::max_element(seconds.begin(), seconds.end());
}

uint64_t DoubleBits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, 8);
  return bits;
}

}  // namespace

RepResult RunRep(const RepOptions& o) {
  Params p = ForWorkload(o.workload);
  if (o.shards > 0) {
    p.shards = o.shards;
    p.workers = std::min(p.workers > 0 ? p.workers : 1, o.shards);
  }
  if (o.window > 0) {
    p.window = o.window;
  }
  if (o.warmup >= 0) {
    p.warmup = o.warmup;
  }
  const int nodes = p.servers + p.clients;

  RepResult r;
  Ctx ctx;
  ctx.p = &p;
  ctx.traced = o.traced;
  ctx.w0 = p.warmup;
  ctx.w1 = p.warmup + p.window;
  ctx.acc.resize(static_cast<size_t>(nodes));

  // ---- setup: cluster, runtimes, Start*, eager Connect ----
  const auto setup_start = std::chrono::steady_clock::now();
  World w;
  w.cluster = std::make_unique<verbs::Cluster>(verbs::Cluster::Config{
      .num_nodes = nodes, .cores_per_node = p.cores_per_node, .cost = p.cost,
      .num_shards = p.shards, .num_workers = p.workers});
  ctx.sim = &w.cluster->sim();
  w.cp = &ctrl::ControlPlane::For(*w.cluster);
  if (p.extent_threads > 0) {
    const uint64_t words = p.extent_bytes / 8;
    w.store.resize(p.num_extents * words);
    for (uint64_t id = 0; id < p.num_extents; ++id) {
      FillExtent(w.store.data() + id * words, words, id, 0);
    }
  }
  for (int s = 0; s < p.servers; ++s) {
    w.servers.push_back(std::make_unique<FlockRuntime>(*w.cluster, s, p.flock));
    RegisterHandlers(w, p, *w.servers.back());
    w.servers.back()->StartServer(p.server_dispatchers);
  }
  for (int c = 0; c < p.clients; ++c) {
    w.clients.push_back(
        std::make_unique<FlockRuntime>(*w.cluster, p.servers + c, p.flock));
    w.clients.back()->StartClient();
  }
  r.setup_cluster_s = Seconds(setup_start);
  const auto connect_start = std::chrono::steady_clock::now();
  if (p.lanes > 0) {
    for (int c = 0; c < p.clients; ++c) {
      w.conns.push_back(w.clients[static_cast<size_t>(c)]->Connect(
          *w.servers[static_cast<size_t>(ServerOf(p, c))], p.lanes));
    }
  }
  r.setup_connect_s = Seconds(connect_start);

  Rng offsets(Mix3(o.seed, 0x0ff5e7, 0));
  for (int c = 0; c < p.clients; ++c) {
    const int node = p.servers + c;
    FlockRuntime& rt = *w.clients[static_cast<size_t>(c)];
    int next_core = 0;
    for (int t = 0; t < p.echo_threads; ++t) {
      const Nanos offset = static_cast<Nanos>(
          offsets.NextBelow(static_cast<uint64_t>(p.max_start_offset)));
      w.cluster->sim().Spawn(
          EchoWorker(&ctx, w.conns[static_cast<size_t>(c)],
                     rt.CreateThread(next_core++ % p.worker_cores), node, t, offset,
                     Mix3(o.seed, static_cast<uint64_t>(node), static_cast<uint64_t>(t))),
          node);
    }
    for (int t = 0; t < p.extent_threads; ++t) {
      w.cluster->sim().Spawn(
          ExtentWorker(&ctx, w.conns[static_cast<size_t>(c)],
                       rt.CreateThread(next_core++), node, t,
                       Mix3(o.seed, static_cast<uint64_t>(node), 100u + static_cast<uint64_t>(t))),
          node);
    }
  }
  if (p.window_sessions > 0) {
    // Session clients start outside the cluster: each session Joins on entry
    // and Leaves on exit.
    for (int c = 0; c < p.clients; ++c) {
      w.cp->Leave(p.servers + c);
    }
    std::vector<std::vector<Nanos>> schedule = SessionSchedule(p, o.seed);
    for (int c = 0; c < p.clients; ++c) {
      FlockRuntime& rt = *w.clients[static_cast<size_t>(c)];
      w.cluster->sim().Spawn(
          SessionDriver(&ctx, &rt, w.cp, rt.CreateThread(2), ServerOf(p, c),
                        std::move(schedule[static_cast<size_t>(c)]),
                        Mix3(o.seed, static_cast<uint64_t>(p.servers + c), 7)),
          p.servers + c);
    }
  }
  r.setup_s = Seconds(setup_start);
  if (o.setup_only) {
    return r;
  }

  // ---- warmup, then the measured window ----
  sim::Simulator& sim = w.cluster->sim();
  sim.RunUntil(ctx.w0);
  const Counters before = Capture(w, p, ctx);
  size_t queue_max = 0;
  r.sub_cal_s.push_back(CalibrationSeconds(std::max(1, p.workers)));
  for (int k = 0; k < kSubWindows; ++k) {
    const Nanos end = ctx.w0 + p.window * (k + 1) / kSubWindows;
    const auto sub_start = std::chrono::steady_clock::now();
    for (Nanos t = sim.Now(); t < end;) {
      t = std::min(t + kSlice, end);
      sim.RunUntil(t);
      queue_max = std::max(queue_max, UplinkQueueMax(w, nodes));
    }
    r.sub_host_s.push_back(Seconds(sub_start));
    r.window_host_s += r.sub_host_s.back();
    r.sub_cal_s.push_back(CalibrationSeconds(std::max(1, p.workers)));
  }
  const Counters after = Capture(w, p, ctx);
  uint32_t active_lanes = 0;
  for (const auto& rt : w.servers) {
    active_lanes += rt->ActiveServerLanes();
  }

  // ---- drain: no new operations; every issued one must finish ----
  ctx.stop = true;
  const Nanos drain_cap = sim.Now() + 20 * kMillisecond;
  auto live = [&ctx] {
    uint64_t n = 0;
    for (const NodeAcc& a : ctx.acc) {
      n += a.live;
    }
    return n;
  };
  while (live() > 0 && sim.Now() < drain_cap) {
    sim.RunFor(kSlice);
  }
  sim.RunFor(100 * kMicrosecond);  // let trailing control messages land
  const Counters final_counters = Capture(w, p, ctx);

  // ---- merge per-node accounting, node order ----
  NodeAcc total;
  uint64_t window_extent_bytes = 0;
  for (NodeAcc& a : ctx.acc) {
    total.issued += a.issued;
    total.completed += a.completed;
    total.failed += a.failed;
    total.mismatched += a.mismatched;
    total.window_rpcs += a.window_rpcs;
    total.window_extents += a.window_extents;
    window_extent_bytes += a.window_extent_bytes;
    total.latency.Merge(a.latency);
    total.extent_latency.Merge(a.extent_latency);
    total.stage.Merge(a.stage);
    total.req_path.Merge(a.req_path);
    total.resp_path.Merge(a.resp_path);
    total.sum_latency += a.sum_latency;
    total.sum_parts += a.sum_parts;
    total.sessions_window += a.sessions_window;
    total.ttfr.Merge(a.ttfr);
    total.connect.Merge(a.connect);
    total.max_lag = std::max(total.max_lag, a.max_lag);
    const int64_t base = static_cast<int64_t>(r.spans.size());
    for (Span s : a.spans) {
      if (s.parent >= 0) {
        s.parent += base;
      }
      r.spans.push_back(s);
    }
  }
  r.window_ops = total.window_rpcs + total.window_extents;

  // ---- correctness ----
  const uint64_t never = total.issued - total.completed - total.failed;
  r.attempted = total.issued;
  r.failed = total.failed + never;
  if (never > 0) {
    r.errors.push_back(std::to_string(never) + " operations never completed");
  }
  if (total.mismatched > 0) {
    r.errors.push_back(std::to_string(total.mismatched) +
                       " responses failed the content or stamp-order check");
  }
  if (live() > 0) {
    r.errors.push_back("workers still running after the drain");
  }
  if (o.traced && (total.stage.size() != total.latency.size() ||
                   total.sum_parts != total.sum_latency)) {
    r.errors.push_back("stage + request path + response path != end-to-end latency");
  }
  // Fault-free workloads: every request a client sent reached a server, and
  // every message the clients transmitted was received. Compared at
  // quiescence, where no message is in flight.
  if (final_counters.Get("combine.requests") != final_counters.Get("server.requests")) {
    r.errors.push_back("client requests_sent " +
                       std::to_string(final_counters.Get("combine.requests")) +
                       " != server requests " +
                       std::to_string(final_counters.Get("server.requests")));
  }
  if (final_counters.Get("verbs.client_tx_msgs") !=
      final_counters.Get("verbs.server_rx_msgs")) {
    r.errors.push_back("client tx_msgs " +
                       std::to_string(final_counters.Get("verbs.client_tx_msgs")) +
                       " != server rx_msgs " +
                       std::to_string(final_counters.Get("verbs.server_rx_msgs")));
  }
  const Counters d = after.Since(before, &r.errors);
  if (!r.errors.empty() && d.values().empty()) {
    return r;
  }

  // ---- end-to-end simulated metrics ----
  const double window_ns = static_cast<double>(p.window);
  const Percentile p50 = total.latency.At(50);
  const Percentile p99 = total.latency.At(99);
  if (!p50.supported || !p99.supported) {
    r.errors.push_back("too few RPC samples (" + std::to_string(p99.samples) +
                       ") for sim_p99_us");
  }
  r.sim.Add("sim_mops", static_cast<double>(total.window_rpcs) * 1e3 / window_ns, "Mops",
            total.window_rpcs);
  r.sim.AddPercentileUs("sim_p50_us", p50);
  r.sim.AddPercentileUs("sim_p99_us", p99);

  r.report.Add("extent_gbps", static_cast<double>(window_extent_bytes) / window_ns, "GB/s",
               total.window_extents);
  r.report.AddPercentileUs("extent_p50_us", total.extent_latency.At(50));
  r.report.AddPercentileUs("extent_p90_us", total.extent_latency.At(90));
  r.report.AddPercentileUs("extent_p99_us", total.extent_latency.At(99));
  r.report.AddPercentileUs("ttfr_p50_us", total.ttfr.At(50));
  r.report.AddPercentileUs("ttfr_p90_us", total.ttfr.At(90));
  r.report.AddPercentileUs("ttfr_p99_us", total.ttfr.At(99));
  r.report.Add("failed_frac", Ratio(static_cast<double>(r.failed),
                                    static_cast<double>(r.attempted)), "ratio");
  r.report.Add("session_lag_max_us", static_cast<double>(total.max_lag) / 1e3, "us");

  // ---- per-layer metrics, measured from outside ----
  const auto dv = [&d](const char* name) { return static_cast<double>(d.Get(name)); };
  const double ops = static_cast<double>(r.window_ops);
  MetricSet& L = r.layers;
  r.window_events = d.Get("sim.events");
  L.Add("sim.events_per_rpc", Ratio(dv("sim.events"), ops), "events/op");
  L.Add("sim.direct_resume_frac", Ratio(dv("sim.direct_resumes"), dv("sim.resumes")),
        "ratio");
  L.Add("sim.coalesced_wake_frac", Ratio(dv("sim.coalesced_wakes"), dv("sim.resumes")),
        "ratio");
  const double server_cores = static_cast<double>(p.servers) * (p.server_dispatchers + 1);
  L.Add("cpu.server_util", Ratio(dv("cpu.server_busy_ns"), window_ns * server_cores),
        "ratio");
  L.Add("cpu.client_util",
        Ratio(dv("cpu.client_busy_ns"),
              window_ns * static_cast<double>(p.clients) * p.cores_per_node),
        "ratio");
  const double lookups = dv("rnic.server_hits") + dv("rnic.server_misses");
  L.Add("rnic.server_miss_ratio", Ratio(dv("rnic.server_misses"), lookups), "ratio");
  L.Add("rnic.server_lookups_per_rpc", Ratio(lookups, ops), "lookups/op");
  L.Add("verbs.msgs_per_rpc", Ratio(dv("verbs.tx_msgs"), ops), "msgs/op");
  L.Add("verbs.packets_per_rpc", Ratio(dv("verbs.tx_packets"), ops), "packets/op");
  L.Add("verbs.wire_bytes_per_rpc", Ratio(dv("verbs.tx_wire_bytes"), ops), "B/op");
  L.Add("verbs.cqes_per_rpc", Ratio(dv("verbs.cqes"), ops), "cqes/op");
  L.Add("fabric.server_uplink_util",
        Ratio(dv("fabric.server_uplink_busy_ns"), window_ns * p.servers), "ratio");
  L.Add("fabric.server_downlink_util",
        Ratio(dv("fabric.server_downlink_busy_ns"), window_ns * p.servers), "ratio");
  L.Add("fabric.uplink_queue_max", static_cast<double>(queue_max), "count");
  L.Add("combine.coalescing", Ratio(dv("combine.requests"), dv("combine.messages")),
        "reqs/msg");
  const Percentile batch = BatchP99(d);
  L.Add("combine.batch_p99", batch.value, "reqs", batch.samples);
  L.AddPercentileUs("combine.stage_p50_us", total.stage.At(50));
  L.AddPercentileUs("combine.stage_p99_us", total.stage.At(99));
  L.Add("sched.active_lanes", active_lanes, "count");
  L.Add("sched.credit_renewals_per_msg",
        Ratio(dv("sched.credit_renewals"), dv("server.messages")), "ratio");
  L.Add("sched.redistributions", dv("sched.redistributions"), "count");
  L.Add("sched.activations", dv("sched.activations"), "count");
  L.AddPercentileUs("dispatch.req_path_p50_us", total.req_path.At(50));
  L.AddPercentileUs("dispatch.req_path_p99_us", total.req_path.At(99));
  L.AddPercentileUs("dispatch.resp_path_p50_us", total.resp_path.At(50));
  L.AddPercentileUs("dispatch.resp_path_p99_us", total.resp_path.At(99));
  L.Add("dispatch.resps_per_msg", Ratio(dv("server.responses"), dv("verbs.server_tx_msgs")),
        "resps/msg");
  L.Add("segment.chunks_per_extent",
        Ratio(dv("segment.chunks"), dv("segment.reassembled")), "chunks");
  L.Add("segment.reassembly_drops", dv("segment.drops"), "count");
  L.Add("segment.reclaimed", dv("segment.reclaimed"), "count");
  L.AddPercentileUs("ctrl.connect_p50_us", total.connect.At(50));
  L.AddPercentileUs("ctrl.connect_p99_us", total.connect.At(99));
  L.Add("ctrl.calls_per_session",
        Ratio(dv("ctrl.calls"), static_cast<double>(total.sessions_window)), "calls");
  L.Add("ctrl.rejects", dv("ctrl.rejects"), "count");
  L.Add("ctrl.epoch_bumps", dv("ctrl.epoch"), "count");
  L.Add("lane.qps_created", dv("lane.qps_created"), "count");
  L.Add("lane.qps_recycled", dv("lane.qps_recycled"), "count");
  uint64_t live_lanes = 0, sender_slots = 0;
  for (const auto& rt : w.servers) {
    live_lanes += rt->ServerLiveLanes();
    sender_slots += rt->ServerSenderSlots();
  }
  L.Add("lane.live_server_lanes", static_cast<double>(live_lanes), "count");
  L.Add("lane.sender_slots", static_cast<double>(sender_slots), "count");
  L.Add("watchdog.retries", dv("watchdog.retries"), "count");
  L.Add("watchdog.failed_rpcs", dv("watchdog.failed_rpcs"), "count");
  L.Add("watchdog.spurious", dv("watchdog.spurious"), "count");

  // ---- fingerprints ----
  TraceHash hash;
  for (int n = 0; n < nodes; ++n) {
    const verbs::Device::Stats& s = w.cluster->device(n).stats();
    hash.Mix(s.tx_msgs).Mix(s.tx_bytes).Mix(s.tx_wire_bytes).Mix(s.tx_packets);
    hash.Mix(s.rx_msgs).Mix(s.rx_packets).Mix(s.cqes_dma_ed);
    hash.Mix(ctx.acc[static_cast<size_t>(n)].completed)
        .Mix(ctx.acc[static_cast<size_t>(n)].failed);
  }
  r.trace_hash = hash.value();
  for (const MetricSet* set : {&r.sim, &r.report}) {
    for (const Metric& m : set->metrics()) {
      hash.Mix(DoubleBits(m.value)).Mix(m.samples);
    }
  }
  r.sim_hash = hash.value();
  return r;
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s{\"id\":%zu,\"parent\":%lld,\"name\":\"%s\",\"node\":%d,"
                 "\"request\":%llu,\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 i == 0 ? "" : ",", i, static_cast<long long>(s.parent), s.name, s.node,
                 static_cast<unsigned long long>(s.request),
                 static_cast<long long>(s.start), static_cast<long long>(s.end));
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

}  // namespace flock::perfbench
