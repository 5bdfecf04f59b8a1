#include "util/timer.h"

#include <thread>

#include <gtest/gtest.h>

namespace ips {
namespace {

TEST(TimerTest, ElapsedIsMonotoneNonNegative) {
  Timer t;
  const double a = t.ElapsedSeconds();
  EXPECT_GE(a, 0.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const double b = t.ElapsedSeconds();
  EXPECT_GE(b, a);
  EXPECT_GE(b, 0.004);  // slept at least ~5 ms
}

TEST(TimerTest, ResetRestartsTheClock) {
  Timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  t.Reset();
  EXPECT_LT(t.ElapsedSeconds(), 0.004);
}

TEST(TimerTest, MillisMatchSeconds) {
  Timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const double seconds = t.ElapsedSeconds();
  const double millis = t.ElapsedMillis();
  EXPECT_NEAR(millis, seconds * 1e3, 2.0);
}

}  // namespace
}  // namespace ips
