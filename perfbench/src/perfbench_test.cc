// The benchmark's own tests: the percentile sample-count rule, the counter
// delta helpers, the metric JSON round trip, and — on short real runs — the
// stage-sum identity of sampled RPCs and the determinism the benchmark relies
// on (same seed, traced or not, any shard count).
//
//   perfbench_test                 runs every test, exit 0 iff all pass
//   perfbench_test --json-sample   prints a metric JSON line for the Python
//                                  side of the round-trip test
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "perfbench/src/metrics.h"
#include "perfbench/src/workloads.h"

namespace flock::perfbench {
namespace {

int g_failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::printf("  FAILED %s:%d: %s\n", __FILE__, __LINE__, #cond); \
      ++g_failures;                                                    \
    }                                                                  \
  } while (0)

void TestPercentileSampleRule() {
  EXPECT(MinSamplesFor(50) == 20);
  EXPECT(MinSamplesFor(90) == 100);
  EXPECT(MinSamplesFor(99) == 1000);

  SampleSet small;
  for (int i = 1; i <= 19; ++i) {
    small.Add(i);
  }
  EXPECT(!small.At(50).supported);
  EXPECT(small.At(50).samples == 19);
  small.Add(20);
  EXPECT(small.At(50).supported);
  EXPECT(small.At(50).value == 10);  // nearest rank ceil(0.5 * 20) = 10

  // Ties: the rank's position inside its 1-ns bin refines the value.
  SampleSet ties;
  for (int i = 0; i < 20; ++i) {
    ties.Add(7);
  }
  EXPECT(ties.At(50).value == 7 - 0.5 + 9.5 / 20);
  ties.Add(7);
  EXPECT(ties.At(50).value == 7 - 0.5 + 10.5 / 21);

  // Insertion order must not matter; exactly 10 samples lie beyond p99.
  SampleSet tail;
  for (int i = 0; i < 999; ++i) {
    tail.Add((i * 7919) % 999 + 1);  // a permutation of 1..999
  }
  EXPECT(!tail.At(99).supported);
  tail.Add(1000);
  const Percentile p99 = tail.At(99);
  EXPECT(p99.supported);
  EXPECT(p99.samples == 1000);
  EXPECT(p99.value == 990);

  MetricSet set;
  set.AddPercentileUs("x_p99_us", small.At(99));
  EXPECT(set.Find("x_p99_us")->value == 0);
  EXPECT(set.Find("x_p99_us")->samples == 20);
}

void TestCounterDeltas() {
  Counters before, after;
  before.Set("a", 10);
  before.Set("b", 5);
  after.Set("a", 25);
  after.Set("b", 5);
  std::vector<std::string> errors;
  const Counters d = after.Since(before, &errors);
  EXPECT(errors.empty());
  EXPECT(d.Get("a") == 15);
  EXPECT(d.Get("b") == 0);

  Counters backwards;
  backwards.Set("a", 9);
  backwards.Set("b", 5);
  errors.clear();
  const Counters bad = backwards.Since(before, &errors);
  EXPECT(errors.size() == 1);
  EXPECT(bad.Get("a") == 0);

  Counters renamed;
  renamed.Set("a", 11);
  renamed.Set("c", 5);
  errors.clear();
  renamed.Since(before, &errors);
  EXPECT(errors.size() == 1);

  Counters shorter;
  shorter.Set("a", 11);
  errors.clear();
  shorter.Since(before, &errors);
  EXPECT(errors.size() == 1);

  EXPECT(Ratio(3, 0) == 0);
  EXPECT(Ratio(3, 2) == 1.5);
  EXPECT(Median({3, 1, 2}) == 2);
  EXPECT(Median({4, 1, 2, 3}) == 2.5);
  EXPECT(Median({}) == 0);
}

const std::vector<double>& SampleValues() {
  static const std::vector<double> v = {0.1 + 0.2,  1.0 / 3.0, 78.53125, 1e-9,
                                        123456789.123456789, 0.0, 1.0, 2.5e300};
  return v;
}

MetricSet SampleMetrics() {
  MetricSet set;
  for (size_t i = 0; i < SampleValues().size(); ++i) {
    char name[32];
    std::snprintf(name, sizeof(name), "m%zu", i);
    set.Add(name, SampleValues()[i], "unit", i + 1);
  }
  return set;
}

void TestJsonRoundTrip() {
  for (const double v : SampleValues()) {
    const std::string s = MetricSet::FormatDouble(v);
    const double back = std::strtod(s.c_str(), nullptr);
    EXPECT(std::memcmp(&back, &v, sizeof(v)) == 0);
  }
  EXPECT(MetricSet::FormatDouble(std::nan("")) == "null");
  EXPECT(JsonString("a\"b\\c\n") == "\"a\\\"b\\\\c\\u000a\"");
  const std::string json = SampleMetrics().ToJson();
  EXPECT(json.rfind("{\"m0\":{\"value\":0.30000000000000004,\"unit\":\"unit\"", 0) == 0);
}

// Sampled RPC spans tile the RPC exactly: stage, request path and response
// path are contiguous, non-negative and sum to the end-to-end latency.
void TestStageSumIdentity() {
  RepOptions o;
  o.workload = Workload::kFaninRpc;
  o.seed = 3;
  o.traced = true;
  o.warmup = 300 * kMicrosecond;
  o.window = 200 * kMicrosecond;
  const RepResult r = RunRep(o);
  for (const std::string& e : r.errors) {
    std::printf("  rep error: %s\n", e.c_str());
  }
  EXPECT(r.errors.empty());
  size_t rpcs = 0;
  for (size_t i = 0; i < r.spans.size(); ++i) {
    const Span& root = r.spans[i];
    if (std::strcmp(root.name, "rpc") != 0) {
      continue;
    }
    ++rpcs;
    EXPECT(i + 3 < r.spans.size());
    if (i + 3 >= r.spans.size()) {
      break;
    }
    const Span& stage = r.spans[i + 1];
    const Span& req = r.spans[i + 2];
    const Span& resp = r.spans[i + 3];
    EXPECT(std::strcmp(stage.name, "stage") == 0 && std::strcmp(req.name, "req_path") == 0 &&
           std::strcmp(resp.name, "resp_path") == 0);
    EXPECT(stage.parent == static_cast<int64_t>(i) && req.parent == stage.parent &&
           resp.parent == stage.parent);
    EXPECT(stage.request == root.request && req.request == root.request &&
           resp.request == root.request);
    EXPECT(stage.start == root.start && stage.end == req.start && req.end == resp.start &&
           resp.end == root.end);
    EXPECT(stage.end >= stage.start && req.end >= req.start && resp.end >= resp.start);
    EXPECT((stage.end - stage.start) + (req.end - req.start) + (resp.end - resp.start) ==
           root.end - root.start);
  }
  EXPECT(rpcs > 100);
  const Metric* stage_p50 = r.layers.Find("combine.stage_p50_us");
  EXPECT(stage_p50 != nullptr && stage_p50->samples > 0);
}

// The simulated results are a function of the seed alone: untraced and
// traced reps agree, and the sharded kernel matches a single shard.
void TestDeterminism() {
  RepOptions o;
  o.workload = Workload::kScaleOut;
  o.seed = 11;
  o.warmup = 200 * kMicrosecond;
  o.window = 300 * kMicrosecond;
  const RepResult sharded = RunRep(o);
  EXPECT(sharded.errors.empty());
  RepOptions one = o;
  one.shards = 1;
  one.traced = true;
  const RepResult single = RunRep(one);
  EXPECT(single.errors.empty());
  EXPECT(sharded.sim_hash == single.sim_hash);
  EXPECT(sharded.trace_hash == single.trace_hash);
  RepOptions other = o;
  other.seed = 12;
  EXPECT(RunRep(other).sim_hash != sharded.sim_hash);
}

}  // namespace
}  // namespace flock::perfbench

int main(int argc, char** argv) {
  using namespace flock::perfbench;
  if (argc == 2 && std::strcmp(argv[1], "--json-sample") == 0) {
    std::printf("%s\n", SampleMetrics().ToJson().c_str());
    return 0;
  }
  if (argc != 1) {
    std::fprintf(stderr, "usage: perfbench_test [--json-sample]\n");
    return 2;
  }
  const struct {
    const char* name;
    void (*fn)();
  } tests[] = {
      {"PercentileSampleRule", TestPercentileSampleRule},
      {"CounterDeltas", TestCounterDeltas},
      {"JsonRoundTrip", TestJsonRoundTrip},
      {"StageSumIdentity", TestStageSumIdentity},
      {"Determinism", TestDeterminism},
  };
  int failed_tests = 0;
  for (const auto& t : tests) {
    const int before = g_failures;
    t.fn();
    const bool ok = g_failures == before;
    failed_tests += ok ? 0 : 1;
    std::printf("%s %s\n", ok ? "PASS" : "FAIL", t.name);
  }
  std::printf("%d of %zu tests failed\n", failed_tests, std::size(tests));
  return failed_tests == 0 ? 0 : 1;
}
