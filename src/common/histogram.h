// Log-bucketed latency histogram (HdrHistogram-style) used by every bench to
// report median and tail latency in nanoseconds.
//
// Buckets use a 6-bit mantissa per power-of-two range, bounding relative
// quantile error to ~1.6% — far below the run-to-run variance of the
// experiments — while keeping Record() allocation-free and O(1).
#ifndef FLOCK_COMMON_HISTOGRAM_H_
#define FLOCK_COMMON_HISTOGRAM_H_

#include <cstdint>
#include <vector>

namespace flock {

class Histogram {
 public:
  Histogram();

  void Record(int64_t value);
  void Merge(const Histogram& other);
  void Reset();

  uint64_t count() const { return count_; }
  int64_t min() const;
  int64_t max() const;
  double Mean() const;

  // Value at quantile q in [0, 1]; returns 0 on an empty histogram.
  int64_t ValueAtQuantile(double q) const;
  int64_t Median() const { return ValueAtQuantile(0.5); }
  int64_t P99() const { return ValueAtQuantile(0.99); }

 private:
  static constexpr int kMantissaBits = 6;
  static constexpr int kSubBuckets = 1 << kMantissaBits;
  static constexpr int kRanges = 40;  // covers values up to ~2^40 ns (~18 min)

  static int BucketIndex(int64_t value);
  static int64_t BucketMidpoint(int index);

  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  int64_t min_ = 0;
  int64_t max_ = 0;
  double sum_ = 0.0;
};

}  // namespace flock

#endif  // FLOCK_COMMON_HISTOGRAM_H_
