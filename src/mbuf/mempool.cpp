#include "mbuf/mempool.h"

#include <algorithm>
#include <cassert>

namespace hw::mbuf {

namespace {

constexpr std::uint64_t kTopMask = 0xffffffff;
constexpr std::uint64_t kTagOne = kTopMask + 1;

[[nodiscard]] constexpr std::uint32_t top_of(std::uint64_t head) noexcept {
  return static_cast<std::uint32_t>(head & kTopMask);
}

}  // namespace

Mempool::Mempool(std::string name, std::size_t count)
    : name_(std::move(name)),
      capacity_(next_power_of_two(count == 0 ? 1 : count)),
      buffers_(new Mbuf[capacity_]),
      next_(new std::atomic<std::uint32_t>[capacity_]),
      head_(0) {
  assert(capacity_ < kNone && "buffer indices must fit below kNone");
  // Buffer 0 on top: the first allocations walk the array in order.
  for (std::size_t i = 0; i < capacity_; ++i) {
    buffers_[i].pool_index = static_cast<std::uint32_t>(i);
    next_[i].store(i + 1 < capacity_ ? static_cast<std::uint32_t>(i + 1)
                                     : kNone,
                   std::memory_order_relaxed);
  }
}

std::uint32_t Mempool::index_of(const Mbuf* buf) const noexcept {
  assert(buf != nullptr && owns(buf) && "foreign or null mbuf freed");
  return static_cast<std::uint32_t>(buf - buffers_.get());
}

std::size_t Mempool::pop(std::span<Mbuf*> out) noexcept {
  std::uint64_t head = head_.load(std::memory_order_acquire);
  std::size_t n = 0;
  std::uint32_t below = kNone;
  do {
    n = 0;
    below = top_of(head);
    while (n < out.size() && below != kNone) {
      out[n++] = &buffers_[below];
      below = next_[below].load(std::memory_order_relaxed);
    }
    if (n == 0) return 0;
    // The tag stays: only a push bumps it (ABA argument in mempool.h).
  } while (!head_.compare_exchange_weak(head, (head & ~kTopMask) | below,
                                        std::memory_order_acquire,
                                        std::memory_order_acquire));
  // Pairs with push()'s release CAS: whatever a buffer's previous owner
  // wrote before freeing it happens-before its new owner's use.
  return n;
}

void Mempool::push(std::uint32_t top, std::uint32_t bottom) noexcept {
  std::uint64_t head = head_.load(std::memory_order_relaxed);
  do {
    next_[bottom].store(top_of(head), std::memory_order_relaxed);
  } while (!head_.compare_exchange_weak(
      head, ((head & ~kTopMask) + kTagOne) | top, std::memory_order_release,
      std::memory_order_relaxed));
}

Mbuf* Mempool::alloc() noexcept {
  Mbuf* buf = nullptr;
  if (pop(std::span(&buf, 1)) == 0) {
    alloc_failures_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  allocs_.fetch_add(1, std::memory_order_release);
  buf->reset();
  return buf;
}

std::size_t Mempool::alloc_bulk(std::span<Mbuf*> out) noexcept {
  const std::size_t n = pop(out);
  if (n < out.size()) alloc_failures_.fetch_add(1, std::memory_order_relaxed);
  if (n == 0) return 0;
  allocs_.fetch_add(n, std::memory_order_release);
  for (std::size_t i = 0; i < n; ++i) out[i]->reset();
  return n;
}

void Mempool::free(Mbuf* buf) noexcept {
  const std::uint32_t i = index_of(buf);
  frees_.fetch_add(1, std::memory_order_release);
  push(i, i);
}

void Mempool::free_bulk(std::span<Mbuf* const> bufs) noexcept {
  if (bufs.empty()) return;
  frees_.fetch_add(bufs.size(), std::memory_order_release);
  // Link the burst privately, first buffer at the bottom.
  const std::uint32_t bottom = index_of(bufs.front());
  std::uint32_t top = bottom;
  for (Mbuf* buf : bufs.subspan(1)) {
    const std::uint32_t i = index_of(buf);
    next_[i].store(top, std::memory_order_relaxed);
    top = i;
  }
  push(top, bottom);
}

std::size_t Mempool::in_use() const noexcept {
  // frees_ first: every counted free's buffer was counted in allocs_
  // before it was freed, so the later allocs_ load cannot be smaller. A
  // reader stalled between the loads may count allocs of buffers whose
  // frees it missed; no more than capacity_ buffers are ever out.
  const auto f = frees_.load(std::memory_order_acquire);
  const auto a = allocs_.load(std::memory_order_acquire);
  return std::min(static_cast<std::size_t>(a - f), capacity_);
}

MempoolStats Mempool::stats() const noexcept {
  // Same order as in_use(): the snapshot never shows more frees than
  // allocs.
  const auto frees = frees_.load(std::memory_order_acquire);
  return MempoolStats{
      .allocs = allocs_.load(std::memory_order_acquire),
      .frees = frees,
      .alloc_failures = alloc_failures_.load(std::memory_order_relaxed),
  };
}

bool Mempool::owns(const Mbuf* buf) const noexcept {
  return buf >= buffers_.get() && buf < buffers_.get() + capacity_;
}

}  // namespace hw::mbuf
