#include "src/common/histogram.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "src/common/logging.h"

namespace flock {

Histogram::Histogram() : buckets_(kRanges * kSubBuckets, 0) { Reset(); }

void Histogram::Reset() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  sum_ = 0.0;
  min_ = std::numeric_limits<int64_t>::max();
  max_ = std::numeric_limits<int64_t>::min();
}

int Histogram::BucketIndex(int64_t value) {
  if (value < 0) {
    value = 0;
  }
  const uint64_t v = static_cast<uint64_t>(value);
  if (v < kSubBuckets) {
    return static_cast<int>(v);
  }
  const int msb = 63 - std::countl_zero(v);
  const int shift = msb - kMantissaBits;
  const int sub = static_cast<int>((v >> shift) - kSubBuckets);
  int index = (shift + 1) * kSubBuckets + sub;
  const int last = kRanges * kSubBuckets - 1;
  return index > last ? last : index;
}

int64_t Histogram::BucketMidpoint(int index) {
  const int range = index / kSubBuckets;
  const int sub = index % kSubBuckets;
  if (range == 0) {
    return sub;
  }
  const int shift = range - 1;
  const int64_t lo = (static_cast<int64_t>(kSubBuckets + sub)) << shift;
  const int64_t width = static_cast<int64_t>(1) << shift;
  return lo + width / 2;
}

void Histogram::Record(int64_t value) {
  buckets_[static_cast<size_t>(BucketIndex(value))]++;
  count_++;
  sum_ += static_cast<double>(value);
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

void Histogram::Merge(const Histogram& other) {
  FLOCK_CHECK_EQ(buckets_.size(), other.buckets_.size());
  for (size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
  sum_ += other.sum_;
  if (other.count_ > 0) {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
}

int64_t Histogram::min() const { return count_ == 0 ? 0 : min_; }
int64_t Histogram::max() const { return count_ == 0 ? 0 : max_; }

double Histogram::Mean() const {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

int64_t Histogram::ValueAtQuantile(double q) const {
  if (count_ == 0) {
    return 0;
  }
  q = std::clamp(q, 0.0, 1.0);
  const uint64_t target =
      static_cast<uint64_t>(q * static_cast<double>(count_ - 1)) + 1;
  uint64_t running = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    running += buckets_[i];
    if (running >= target) {
      const int64_t mid = BucketMidpoint(static_cast<int>(i));
      return std::clamp(mid, min_, max_);
    }
  }
  return max_;
}

}  // namespace flock
