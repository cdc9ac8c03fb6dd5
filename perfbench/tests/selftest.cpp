// Self-tests of the benchmark's own helpers: percentiles, the open-loop
// driver's timing-from-due-time rule, and the peak-RSS reader and reset.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "open_loop.hpp"
#include "rss.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

TEST(Percentile, InterpolatesBetweenClosestRanks) {
  const std::vector<double> values = {5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(percentile(values, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(values, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(values, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(values, 25), 2.0);
  EXPECT_DOUBLE_EQ(percentile(values, 90), 4.6);  // rank 3.6
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
  EXPECT_DOUBLE_EQ(percentile({7}, 99), 7.0);
}

TEST(Percentile, DistributionMatchesFreeFunction) {
  Distribution d;
  std::vector<double> values;
  for (int i = 0; i < 1000; ++i) {
    const double v = (i * 7919) % 1000;
    d.add(v);
    values.push_back(v);
  }
  EXPECT_DOUBLE_EQ(d.p(99), percentile(values, 99));
  EXPECT_DOUBLE_EQ(d.p(50), 499.5);
  EXPECT_DOUBLE_EQ(d.mean(), 499.5);
  EXPECT_DOUBLE_EQ(d.p(100), 999.0);
  d.add(5000);  // re-sorts after a late add
  EXPECT_DOUBLE_EQ(d.p(100), 5000.0);
}

TEST(TailPercentile, HighestWithTenSamplesBeyond) {
  EXPECT_DOUBLE_EQ(tail_percentile(20000), 99.9);  // 20 beyond
  EXPECT_DOUBLE_EQ(tail_percentile(10000), 99.9);  // exactly 10 beyond
  EXPECT_DOUBLE_EQ(tail_percentile(9999), 99.0);
  EXPECT_DOUBLE_EQ(tail_percentile(1000), 99.0);
  EXPECT_DOUBLE_EQ(tail_percentile(492), 95.0);    // a full campaign
  EXPECT_DOUBLE_EQ(tail_percentile(100), 90.0);
  EXPECT_DOUBLE_EQ(tail_percentile(40), 75.0);
  EXPECT_DOUBLE_EQ(tail_percentile(39), 50.0);
  EXPECT_DOUBLE_EQ(tail_percentile(0), 50.0);
}

TEST(CompletionLedger, CompletesInLaneOrderOnceTargetReached) {
  CompletionLedger ledger(2);
  ledger.expect(0, 10, 1.0, 0);
  ledger.expect(1, 5, 2.0, 1);
  ledger.expect(0, 20, 3.0, 2);
  std::vector<std::size_t> done;
  ledger.observe({15, 4}, [&](std::size_t id, double) { done.push_back(id); });
  EXPECT_EQ(done, (std::vector<std::size_t>{0}));
  ledger.observe({20, 5}, [&](std::size_t id, double) { done.push_back(id); });
  // Lane by lane: lane 0's two, then lane 1's.
  EXPECT_EQ(done, (std::vector<std::size_t>{0, 2, 1}));
  EXPECT_EQ(ledger.pending(), 0u);
}

/// A simulated system on a fake clock: every sent batch executes
/// instantly, so lane progress is simply what has been sent.
struct FakeSystem {
  double clock = 0.0;
  std::vector<std::uint64_t> progress = std::vector<std::uint64_t>(1, 0);
  double stall_at_batch = -1;  ///< Batch whose send blocks...
  double stall_s = 0.0;        ///< ...for this long.
};

OpenLoopTiming drive(FakeSystem& sys, std::size_t batches, double interval) {
  std::vector<PlannedBatch> plan;
  for (std::size_t k = 0; k < batches; ++k) {
    plan.push_back({0, k + 1, static_cast<double>(k) * interval});
  }
  return run_open_loop(
      plan, 1, [&] { return sys.clock; },
      [&](std::size_t k, double) {
        sys.clock += 0.0001;  // a normal round trip
        if (static_cast<double>(k) == sys.stall_at_batch) sys.clock += sys.stall_s;
        sys.progress[0] = k + 1;
      },
      [&] {
        sys.clock += 0.00001;  // one poll
        return sys.progress;
      },
      [](const std::vector<std::uint64_t>&, double) {});
}

TEST(OpenLoop, SendsOnScheduleAndTimesFromDue) {
  FakeSystem sys;
  const OpenLoopTiming timing = drive(sys, 10, 0.01);
  ASSERT_EQ(timing.latency_s.size(), 10u);
  for (std::size_t k = 0; k < 10; ++k) {
    EXPECT_LT(timing.latency_s[k], 0.001) << k;
    EXPECT_LT(timing.lag_s[k], 0.0001) << k;
  }
  // The schedule, not completion, paces the sends.
  EXPECT_GE(sys.clock, 0.09);
}

TEST(OpenLoop, StallInflatesLaterArrivals) {
  FakeSystem sys;
  sys.stall_at_batch = 3;
  sys.stall_s = 0.1;  // the send of batch 3 blocks for 100 ms
  const OpenLoopTiming timing = drive(sys, 20, 0.01);
  // Before the stall: fast.
  EXPECT_LT(timing.latency_s[2], 0.001);
  // The stalled batch and every batch due during the stall are charged
  // the wait from their due time, although each one, once sent,
  // completed instantly.
  EXPECT_GT(timing.latency_s[3], 0.09);
  EXPECT_GT(timing.latency_s[4], 0.08);
  EXPECT_GT(timing.latency_s[8], 0.04);
  EXPECT_GT(timing.lag_s[8], 0.04);
  // The generator catches up; arrivals due after the stall are fast.
  EXPECT_LT(timing.latency_s[19], 0.001);
}

TEST(PeakRss, ParsesVmHwm) {
  const char* status =
      "Name:\tperfbench\nVmPeak:\t  200000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 40000 kB\n";
  ASSERT_TRUE(parse_vm_hwm_kib(status).has_value());
  EXPECT_DOUBLE_EQ(*parse_vm_hwm_kib(status), 51200.0);
  EXPECT_FALSE(parse_vm_hwm_kib("Name:\tx\nVmRSS:\t 1 kB\n").has_value());
  EXPECT_FALSE(parse_vm_hwm_kib("VmHWM:\t garbage\n").has_value());
  EXPECT_FALSE(parse_vm_hwm_kib("VmHWM:\t 12 MB\n").has_value());
}

TEST(PeakRss, GrowsWhenMemoryIsTouched) {
  const std::optional<double> before = peak_rss_mib();
  ASSERT_TRUE(before.has_value());
  EXPECT_GT(*before, 0.0);
  constexpr std::size_t kBytes = 64u << 20;
  std::vector<char> block(kBytes);
  std::memset(block.data(), 1, block.size());
  const std::optional<double> after = peak_rss_mib();
  ASSERT_TRUE(after.has_value());
  EXPECT_GE(*after, *before + 48.0);  // most of the 64 MiB is resident
  EXPECT_EQ(block[kBytes - 1], 1);
}

TEST(PeakRss, ResetDropsAFreedPeak) {
  constexpr std::size_t kBytes = 64u << 20;
  {
    std::vector<char> block(kBytes);
    std::memset(block.data(), 1, block.size());
    EXPECT_EQ(block[kBytes - 1], 1);
  }  // freed: a block this large goes back to the system at once
  const std::optional<double> high = peak_rss_mib();
  ASSERT_TRUE(high.has_value());
  if (!reset_peak_rss()) GTEST_SKIP() << "kernel refuses /proc/self/clear_refs";
  const std::optional<double> low = peak_rss_mib();
  ASSERT_TRUE(low.has_value());
  EXPECT_LE(*low, *high - 48.0);
}

}  // namespace
}  // namespace perfbench
