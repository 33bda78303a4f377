#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "exec/runtime.h"

namespace hw::exec {
namespace {

/// Context that processes `per_poll` items at `cost` cycles each.
class FixedCostContext final : public Context {
 public:
  FixedCostContext(std::string name, Cycles cost, std::uint32_t per_poll,
                   std::uint64_t limit = ~0ULL)
      : name_(std::move(name)), cost_(cost), per_poll_(per_poll),
        limit_(limit) {}

  std::string_view name() const noexcept override { return name_; }

  std::uint32_t poll(CycleMeter& meter) override {
    if (done_ >= limit_) return 0;
    meter.charge(cost_ * per_poll_);
    done_ += per_poll_;
    return per_poll_;
  }

  /// Atomic because the ThreadedRuntime tests spin-read it from the main
  /// thread while the worker thread increments it in poll().
  std::atomic<std::uint64_t> done_{0};

 private:
  std::string name_;
  Cycles cost_;
  std::uint32_t per_poll_;
  std::uint64_t limit_;
};

TEST(CostModel, Conversions) {
  CostModel cost;
  EXPECT_DOUBLE_EQ(cost.ns_per_cycle(), 1.0 / 3.0);
  EXPECT_EQ(cost.cycles_for_ns(1000), 3000u);
  // Repairing one suspect cache entry re-runs a wildcard lookup: far
  // dearer than serving a cached hit, cheaper than a full upcall (no
  // boundary crossing); an eviction additionally pays the erase. The
  // suspect *test* the coalesced scan runs per entry examined is cheap —
  // well under a cache hit — and never free.
  EXPECT_GT(cost.revalidate_repair, cost.emc_hit);
  EXPECT_LT(cost.revalidate_repair, cost.slow_path_base);
  EXPECT_GE(cost.revalidate_evict, cost.revalidate_repair);
  EXPECT_GT(cost.revalidate_per_entry, 0u);
  EXPECT_LT(cost.revalidate_per_entry, cost.emc_hit);
}

TEST(SimRuntime, ThroughputMatchesBudget) {
  // A context charging 300 cycles/item on a 3 GHz core must process
  // 10 M items/s — regardless of how many items one poll() claims.
  SimRuntime runtime({.epoch_ns = 1000, .cost = {}});
  FixedCostContext ctx("fixed", 300, 7);
  runtime.add_context(&ctx);
  runtime.run_for(10'000'000);  // 10 ms → 100k items expected
  EXPECT_NEAR(static_cast<double>(ctx.done_), 100'000.0, 1000.0);
}

TEST(SimRuntime, DebtCarriesAcrossEpochs) {
  // One poll consumes ~30 epochs worth of cycles; long-run rate must
  // still be budget-exact.
  SimRuntime runtime({.epoch_ns = 1000, .cost = {}});
  FixedCostContext ctx("bursty", 30'000, 3);  // 90k cycles per poll
  runtime.add_context(&ctx);
  runtime.run_for(30'000'000);  // 90M cycles → 3000 items
  EXPECT_NEAR(static_cast<double>(ctx.done_), 3000.0, 30.0);
}

TEST(SimRuntime, TwoCoresRunIndependently) {
  SimRuntime runtime({.epoch_ns = 1000, .cost = {}});
  FixedCostContext fast("fast", 100, 1);
  FixedCostContext slow("slow", 1000, 1);
  runtime.add_context(&fast);
  runtime.add_context(&slow);
  runtime.run_for(1'000'000);  // 1 ms
  EXPECT_NEAR(static_cast<double>(fast.done_), 30'000.0, 300.0);
  EXPECT_NEAR(static_cast<double>(slow.done_), 3'000.0, 30.0);
}

TEST(SimRuntime, IdleContextsCostNothingOnTheClock) {
  SimRuntime runtime({.epoch_ns = 1000, .cost = {}});
  FixedCostContext ctx("limited", 100, 1, /*limit=*/5);
  runtime.add_context(&ctx);
  runtime.run_for(5'000'000);
  EXPECT_EQ(ctx.done_, 5u);  // stopped at its limit, runtime kept going
  EXPECT_EQ(runtime.elapsed_ns(), 5'000'000u);
}

TEST(SimRuntime, TimeAdvancesByEpochs) {
  SimRuntime runtime({.epoch_ns = 500, .cost = {}});
  EXPECT_EQ(runtime.now_ns(), 0u);
  runtime.step_epoch();
  EXPECT_EQ(runtime.now_ns(), 500u);
  runtime.run_for(1'000);
  EXPECT_EQ(runtime.now_ns(), 1'500u);
}

TEST(SimRuntime, ScheduledEventsFireInOrder) {
  SimRuntime runtime({.epoch_ns = 1000, .cost = {}});
  std::vector<int> fired;
  runtime.schedule(5'000, [&] { fired.push_back(2); });
  runtime.schedule(2'000, [&] { fired.push_back(1); });
  runtime.schedule(5'000, [&] { fired.push_back(3); });  // same time: FIFO
  runtime.run_for(10'000);
  ASSERT_EQ(fired.size(), 3u);
  EXPECT_EQ(fired[0], 1);
  EXPECT_EQ(fired[1], 2);
  EXPECT_EQ(fired[2], 3);
}

TEST(SimRuntime, EventsMayScheduleEvents) {
  SimRuntime runtime({.epoch_ns = 1000, .cost = {}});
  int value = 0;
  runtime.schedule(1'000, [&] {
    value = 1;
    runtime.schedule(1'000, [&] { value = 2; });
  });
  runtime.run_for(1'000);
  runtime.run_for(1'000);
  EXPECT_EQ(value, 1);
  runtime.run_for(2'000);
  EXPECT_EQ(value, 2);
}

TEST(SimRuntime, RunUntilStopsEarly) {
  SimRuntime runtime({.epoch_ns = 1000, .cost = {}});
  FixedCostContext ctx("worker", 3000, 1);  // 1 item per epoch
  runtime.add_context(&ctx);
  EXPECT_TRUE(runtime.run_until([&] { return ctx.done_ >= 10; },
                                1'000'000));
  EXPECT_LT(runtime.elapsed_ns(), 20'000u);
  EXPECT_FALSE(
      runtime.run_until([&] { return ctx.done_ >= 1'000'000'000; }, 5'000));
}

TEST(SimRuntime, ReportsAccounting) {
  SimRuntime runtime({.epoch_ns = 1000, .cost = {}});
  FixedCostContext busy("busy", 3000, 1);
  FixedCostContext idle("idle", 100, 1, /*limit=*/0);
  runtime.add_context(&busy);
  runtime.add_context(&idle);
  runtime.run_for(1'000'000);
  const auto reports = runtime.reports();
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].name, "busy");
  EXPECT_NEAR(reports[0].utilization, 1.0, 0.05);
  EXPECT_EQ(reports[1].items, 0u);
  EXPECT_GT(reports[1].idle_polls, 0u);
}

TEST(ThreadedRuntime, RunsContextsAndStops) {
  ThreadedRuntime runtime;
  FixedCostContext ctx("worker", 1, 1, /*limit=*/1'000'000);
  runtime.add_context(&ctx);
  runtime.start();
  // Wait (wall time) until the context makes progress.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(5);
  while (ctx.done_ == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  runtime.stop();
  EXPECT_GT(ctx.done_, 0u);
}

TEST(ThreadedRuntime, ScheduleFires) {
  ThreadedRuntime runtime;
  runtime.start();
  std::atomic<bool> fired{false};
  runtime.schedule(1'000'000, [&] { fired = true; });  // 1 ms
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(5);
  while (!fired && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  runtime.stop();
  EXPECT_TRUE(fired);
}

TEST(ThreadedRuntime, NowAdvances) {
  ThreadedRuntime runtime;
  const TimeNs t0 = runtime.now_ns();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_GT(runtime.now_ns(), t0);
}

}  // namespace
}  // namespace hw::exec
