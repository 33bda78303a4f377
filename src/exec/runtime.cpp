#include "exec/runtime.h"

#include <atomic>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>

namespace hw::exec {

// ---------------------------------------------------------------------
// SimRuntime
// ---------------------------------------------------------------------

SimRuntime::SimRuntime(SimConfig config)
    : config_(config),
      cycles_per_epoch_(config.cost.cycles_for_ns(config.epoch_ns)) {
  assert(cycles_per_epoch_ > 0);
}

void SimRuntime::add_context(Context* ctx) {
  assert(ctx != nullptr);
  auto slot = std::make_unique<Slot>();
  slot->ctx = ctx;
  slots_.push_back(std::move(slot));
}

void SimRuntime::step_epoch() {
  // 1. Fire control-plane events due by the start of this epoch.
  while (!events_.empty() && events_.top().due <= epoch_start_) {
    // Copy out before pop: fn may schedule further events.
    auto fn = events_.top().fn;
    const_cast<Event&>(events_.top()).fn = nullptr;
    events_.pop();
    fn();
  }

  // 2. Give every virtual core one epoch of cycles. A poll() may consume
  // more cycles than remain in the epoch (a large burst); the overshoot is
  // recorded as debt and repaid from subsequent epochs so that long-run
  // throughput is exactly budget-accurate.
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    Slot* const raw_slot = slots_[i].get();
    auto& slot = *raw_slot;
    slot.meter.begin_epoch();
    if (slot.debt >= cycles_per_epoch_) {
      slot.debt -= cycles_per_epoch_;
      continue;
    }
    const Cycles budget = cycles_per_epoch_ - slot.debt;
    slot.debt = 0;
    active_ = raw_slot;
    while (slot.meter.epoch_used() < budget) {
      const Cycles before = slot.meter.epoch_used();
      const std::uint32_t items = slot.ctx->poll(slot.meter);
      ++slot.polls;
      slot.items += items;
      if (items == 0) {
        ++slot.idle_polls;
        // An idle core stays idle for the rest of the epoch: nothing new
        // can arrive until a peer context runs (same granularity a real
        // polling loop observes at inter-core latency scale).
        break;
      }
      if (slot.meter.epoch_used() == before) {
        // Defensive: a context that reports work but charges nothing
        // would spin forever; charge the idle cost instead.
        slot.meter.charge(config_.cost.idle_poll);
      }
    }
    if (slot.meter.epoch_used() > budget) {
      slot.debt = slot.meter.epoch_used() - budget;
    }
    active_ = nullptr;
  }

  epoch_start_ += config_.epoch_ns;
}

void SimRuntime::run_for(TimeNs duration_ns) {
  const TimeNs end = epoch_start_ + duration_ns;
  while (epoch_start_ < end) step_epoch();
}

bool SimRuntime::run_until(const std::function<bool()>& pred, TimeNs max_ns) {
  const TimeNs end = epoch_start_ + max_ns;
  bool fired;
  for (;;) {
    fired = pred();
    if (fired || epoch_start_ >= end) break;
    step_epoch();
  }
  return fired;
}

TimeNs SimRuntime::now_ns() const noexcept {
  if (active_ != nullptr) {
    return epoch_start_ +
           static_cast<TimeNs>(static_cast<double>(active_->meter.epoch_used()) *
                               config_.cost.ns_per_cycle());
  }
  return epoch_start_;
}

void SimRuntime::schedule(TimeNs delay_ns, std::function<void()> fn) {
  events_.push(Event{now_ns() + delay_ns, event_order_++, std::move(fn)});
}

std::vector<ContextReport> SimRuntime::reports() const {
  std::vector<ContextReport> out;
  out.reserve(slots_.size());
  const double wall_cycles =
      static_cast<double>(epoch_start_) * static_cast<double>(config_.cost.hz) /
      1e9;
  for (const auto& slot : slots_) {
    ContextReport report;
    report.name = std::string(slot->ctx->name());
    report.busy_cycles = slot->meter.total_used();
    report.polls = slot->polls;
    report.idle_polls = slot->idle_polls;
    report.items = slot->items;
    report.utilization =
        wall_cycles > 0
            ? static_cast<double>(slot->meter.total_used()) / wall_cycles
            : 0.0;
    out.push_back(std::move(report));
  }
  return out;
}

// ---------------------------------------------------------------------
// ThreadedRuntime
// ---------------------------------------------------------------------

struct ThreadedRuntime::Impl {
  struct TimerEvent {
    TimeNs due;
    std::function<void()> fn;
    bool operator>(const TimerEvent& other) const noexcept {
      return due > other.due;
    }
  };

  std::vector<Context*> contexts;
  std::vector<std::jthread> threads;
  std::atomic<bool> running{false};
  std::chrono::steady_clock::time_point t0 =
      std::chrono::steady_clock::now();

  std::mutex timer_mu;
  std::condition_variable timer_cv;
  std::priority_queue<TimerEvent, std::vector<TimerEvent>, std::greater<>>
      timer_queue;
  std::jthread timer_thread;

  TimeNs now() const noexcept {
    return static_cast<TimeNs>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
  }

  void timer_loop(const std::stop_token& stop) {
    std::unique_lock lock(timer_mu);
    while (!stop.stop_requested()) {
      if (timer_queue.empty()) {
        timer_cv.wait_for(lock, std::chrono::milliseconds(5));
        continue;
      }
      const TimeNs due = timer_queue.top().due;
      const TimeNs current = now();
      if (current < due) {
        timer_cv.wait_for(lock, std::chrono::nanoseconds(due - current));
        continue;
      }
      auto fn = timer_queue.top().fn;
      timer_queue.pop();
      lock.unlock();
      fn();
      lock.lock();
    }
  }
};

ThreadedRuntime::ThreadedRuntime() : impl_(std::make_unique<Impl>()) {}

ThreadedRuntime::~ThreadedRuntime() { stop(); }

void ThreadedRuntime::add_context(Context* ctx) {
  assert(!impl_->running.load());
  impl_->contexts.push_back(ctx);
}

void ThreadedRuntime::start() {
  if (impl_->running.exchange(true)) return;
  impl_->t0 = std::chrono::steady_clock::now();
  impl_->timer_thread = std::jthread(
      [this](const std::stop_token& stop) { impl_->timer_loop(stop); });
  for (Context* ctx : impl_->contexts) {
    impl_->threads.emplace_back([this, ctx](const std::stop_token& stop) {
      CycleMeter meter;  // costs are ignored in wall-clock mode
      while (!stop.stop_requested()) {
        if (ctx->poll(meter) == 0) std::this_thread::yield();
      }
    });
  }
}

void ThreadedRuntime::stop() {
  if (!impl_->running.exchange(false)) return;
  for (auto& thread : impl_->threads) thread.request_stop();
  impl_->threads.clear();
  if (impl_->timer_thread.joinable()) {
    impl_->timer_thread.request_stop();
    impl_->timer_cv.notify_all();
    impl_->timer_thread.join();
  }
}

TimeNs ThreadedRuntime::now_ns() const noexcept { return impl_->now(); }

void ThreadedRuntime::schedule(TimeNs delay_ns, std::function<void()> fn) {
  {
    std::lock_guard lock(impl_->timer_mu);
    impl_->timer_queue.push(
        Impl::TimerEvent{impl_->now() + delay_ns, std::move(fn)});
  }
  impl_->timer_cv.notify_all();
}

}  // namespace hw::exec
