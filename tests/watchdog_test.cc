// Unit tests for the watchdog's deterministic schedule arithmetic
// (src/flock/watchdog.h): scan-tick granularity and the exponential backoff
// growth/saturation. Pure functions — no cluster, no simulator.
#include "src/flock/watchdog.h"

#include <gtest/gtest.h>

#include <limits>

#include "src/common/units.h"

namespace flock::internal {
namespace {

constexpr Nanos kMaxNanos = std::numeric_limits<Nanos>::max();

// ---- WatchdogTick ----

TEST(WatchdogTick, IsQuarterOfTheTimeout) {
  EXPECT_EQ(WatchdogTick(200 * kMicrosecond), 50 * kMicrosecond);
  EXPECT_EQ(WatchdogTick(4 * kMillisecond), kMillisecond);
}

TEST(WatchdogTick, NeverScansFasterThanOneMicrosecond) {
  // A pathologically small timeout must not turn the scanner into a
  // every-nanosecond busy loop.
  EXPECT_EQ(WatchdogTick(1), kMicrosecond);
  EXPECT_EQ(WatchdogTick(kMicrosecond), kMicrosecond);
  EXPECT_EQ(WatchdogTick(3 * kMicrosecond), kMicrosecond);
  // The floor stops binding once timeout/4 exceeds it.
  EXPECT_EQ(WatchdogTick(8 * kMicrosecond), 2 * kMicrosecond);
}

// ---- RetryBackoff ----

TEST(RetryBackoff, DoublesEveryAttempt) {
  const Nanos timeout = 200 * kMicrosecond;
  // `retries` is the post-increment attempt count: the first retransmit
  // passes 1 and waits 2x the base timeout.
  EXPECT_EQ(RetryBackoff(timeout, 1), timeout << 1);
  EXPECT_EQ(RetryBackoff(timeout, 2), timeout << 2);
  EXPECT_EQ(RetryBackoff(timeout, 5), timeout << 5);
  for (uint32_t r = 1; r < 10; ++r) {
    EXPECT_EQ(RetryBackoff(timeout, r + 1), 2 * RetryBackoff(timeout, r));
  }
}

TEST(RetryBackoff, ShiftClampsAtTwenty) {
  // Beyond 20 doublings (a ~4-second deadline from a 4us base) the schedule
  // flattens: attempt 21, 100, and 2^32-1 all wait the same.
  const Nanos timeout = 4 * kMicrosecond;
  const Nanos plateau = RetryBackoff(timeout, 20);
  EXPECT_EQ(plateau, timeout << 20);
  EXPECT_EQ(RetryBackoff(timeout, 21), plateau);
  EXPECT_EQ(RetryBackoff(timeout, 100), plateau);
  EXPECT_EQ(RetryBackoff(timeout, std::numeric_limits<uint32_t>::max()),
            plateau);
}

TEST(RetryBackoff, SaturatesInsteadOfOverflowing) {
  // A large base timeout whose clamped shift would still overflow signed
  // Nanos saturates to max/2 (so adding it to now() cannot overflow either).
  const Nanos huge = kMaxNanos / 4;
  EXPECT_EQ(RetryBackoff(huge, 20), kMaxNanos / 2);
  EXPECT_EQ(RetryBackoff(huge, 3), kMaxNanos / 2);
  // One doubling of max/4 still fits.
  EXPECT_EQ(RetryBackoff(huge, 1), huge << 1);
}

TEST(RetryBackoff, ScheduleIsMonotonic) {
  // The deadline sequence never shrinks as attempts accumulate — a
  // non-monotonic schedule would retransmit faster under persistent failure.
  const Nanos timeout = 200 * kMicrosecond;
  Nanos prev = 0;
  for (uint32_t r = 1; r <= 64; ++r) {
    const Nanos d = RetryBackoff(timeout, r);
    EXPECT_GE(d, prev) << "attempt " << r;
    prev = d;
  }
}

TEST(RetryBackoff, TotalScheduleStaysFinite) {
  // Summing the full schedule for a realistic retry count stays well inside
  // Nanos range: the watchdog can always compute `now + backoff` safely.
  const Nanos timeout = kMillisecond;
  Nanos total = 0;
  for (uint32_t r = 1; r <= 16; ++r) {
    total += RetryBackoff(timeout, r);
    EXPECT_GT(total, 0);
    EXPECT_LT(total, kMaxNanos / 2);
  }
}

}  // namespace
}  // namespace flock::internal
