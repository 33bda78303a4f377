#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "mbuf/mbuf.h"

/// \file mempool.h
/// Fixed-size lock-free packet-buffer pool, modeled on rte_mempool.
///
/// In the paper's prototype the mempool lives in hugepage memory shared
/// with every VM via ivshmem, so that an mbuf pointer produced by one VM is
/// directly dereferenceable by the next. Here the pool is one contiguous
/// in-process allocation shared by all simulated VMs — same visibility,
/// enforced trivially. Any context may allocate or release concurrently.
///
/// The free list is a lock-free LIFO stack (DPDK's per-lcore caches and
/// its `stack` mempool handler are LIFO too): alloc hands out the buffer
/// freed most recently, whose lines are likely still in cache, where a
/// FIFO hands out the one freed longest ago. The stack is one 64-bit head
/// word, the top buffer's index in the low half and a push tag in the
/// high half, over a next-index array. A pop walks down from the top and
/// swings the head past what it takes with one CAS, so a burst costs one
/// CAS; a push links its burst privately and swings the head onto it with
/// one CAS, bumping the tag.
///
/// ABA: a pop reads the head, then the next index below the top, and its
/// CAS expects the head it read. A pop keeps the tag and moves the head
/// down an acyclic chain, so without a push the head never returns to a
/// value it left; every push bumps the tag. A successful pop CAS therefore
/// proves that no push and no pop happened since the read, so the links
/// it walked were still the stack. The 32-bit tag wraps only after 2^32
/// pushes (one per free or free_bulk call) inside one preempted pop.
///
/// Contention: alloc and free now contend on the one head word, where the
/// FIFO ring split head and tail between them. The host-time benchmark
/// (hostbench/) runs every context on one thread, so it does not measure
/// ThreadedRuntime throughput through this word.
///
/// Conservation invariant (checked by tests and the chain harness): every
/// mbuf is at all times either (a) in the free list, (b) in exactly one
/// ring, or (c) owned by exactly one context; `in_use()` returns to zero
/// once all traffic drains.

namespace hw::mbuf {

struct MempoolStats {
  std::uint64_t allocs = 0;
  std::uint64_t frees = 0;
  std::uint64_t alloc_failures = 0;  ///< pool exhausted
};

class Mempool {
 public:
  /// Creates a pool of `count` buffers (rounded up to a power of two).
  explicit Mempool(std::string name, std::size_t count);

  Mempool(const Mempool&) = delete;
  Mempool& operator=(const Mempool&) = delete;

  [[nodiscard]] std::string_view name() const noexcept { return name_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Allocates one buffer; nullptr when the pool is exhausted.
  [[nodiscard]] Mbuf* alloc() noexcept;

  /// Allocates up to out.size() buffers; returns the number provided.
  /// Partial allocation is possible when the pool is nearly empty; a
  /// short call counts one alloc failure.
  [[nodiscard]] std::size_t alloc_bulk(std::span<Mbuf*> out) noexcept;

  /// Returns a buffer to the pool. `buf` must originate from this pool.
  void free(Mbuf* buf) noexcept;

  /// Returns all buffers in the span to the pool; the last one ends on
  /// top, as one free() per buffer in order would leave it.
  void free_bulk(std::span<Mbuf* const> bufs) noexcept;

  /// Buffers currently outside the free list. Read while other contexts
  /// allocate and free, it may lag them but stays in [0, capacity()].
  [[nodiscard]] std::size_t in_use() const noexcept;

  [[nodiscard]] MempoolStats stats() const noexcept;

  /// True iff buf points into this pool's buffer array (diagnostics).
  [[nodiscard]] bool owns(const Mbuf* buf) const noexcept;

 private:
  /// Index meaning "no buffer": the bottom link, or an empty stack's top.
  static constexpr std::uint32_t kNone = 0xffffffff;

  [[nodiscard]] std::uint32_t index_of(const Mbuf* buf) const noexcept;
  /// Pops up to out.size() buffers with one CAS; returns the count.
  std::size_t pop(std::span<Mbuf*> out) noexcept;
  /// Pushes a chain already linked from `top` down to `bottom`.
  void push(std::uint32_t top, std::uint32_t bottom) noexcept;

  std::string name_;
  std::size_t capacity_;
  std::unique_ptr<Mbuf[]> buffers_;
  /// next_[i]: the buffer below buffer i while i is in the stack. Atomic
  /// because a pop may read a link its owner is rewriting; that pop's CAS
  /// then fails.
  std::unique_ptr<std::atomic<std::uint32_t>[]> next_;
  /// Push tag (high 32 bits) and top buffer index (low 32 bits).
  std::atomic<std::uint64_t> head_;
  std::atomic<std::uint64_t> allocs_{0};
  std::atomic<std::uint64_t> frees_{0};
  std::atomic<std::uint64_t> alloc_failures_{0};
};

}  // namespace hw::mbuf
