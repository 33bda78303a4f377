#include "pmd/channel.h"

#include <atomic>
#include <cstdio>

namespace hw::pmd {

namespace {
constexpr std::size_t kHeaderSpace =
    align_up(sizeof(ChannelHeader), kCacheLineSize);
}  // namespace

std::size_t ChannelView::bytes_required(std::size_t ring_capacity) noexcept {
  return kHeaderSpace + 2 * align_up(MbufRing::bytes_required(ring_capacity),
                                     kCacheLineSize);
}

Result<ChannelView> ChannelView::create_in(shm::ShmRegion& region,
                                           std::size_t ring_capacity,
                                           PortId port_a, PortId port_b,
                                           std::uint64_t epoch) {
  if (!is_power_of_two(ring_capacity)) {
    return Status::invalid_argument("ring capacity must be a power of two");
  }
  if (region.size() < bytes_required(ring_capacity)) {
    return Status::invalid_argument("region too small for channel");
  }
  std::byte* base = region.data();
  auto* header = new (base) ChannelHeader;
  header->ring_capacity = static_cast<std::uint32_t>(ring_capacity);
  header->epoch = epoch;
  header->port_a = port_a;
  header->port_b = port_b;

  const std::size_t ring_span =
      align_up(MbufRing::bytes_required(ring_capacity), kCacheLineSize);
  MbufRing* a2b = MbufRing::init_at(base + kHeaderSpace, ring_capacity);
  MbufRing* b2a =
      MbufRing::init_at(base + kHeaderSpace + ring_span, ring_capacity);
  if (a2b == nullptr || b2a == nullptr) {
    return Status::internal("ring placement failed");
  }
  // Publish the magic last: attachers check it to know init completed.
  // Release store via atomic_ref — a plain store raced with the
  // attacher's spin (TSan, ConcurrencyLitmus.ChannelAttachVsTraffic), and
  // even an atomic member's *constructor* write would, which is why the
  // field is plain and left untouched by the ctor.
  std::atomic_ref<std::uint32_t>(header->magic)
      .store(kChannelMagic, std::memory_order_release);

  ChannelView view;
  view.header_ = header;
  view.a2b_ = a2b;
  view.b2a_ = b2a;
  return view;
}

Result<ChannelView> ChannelView::attach(shm::ShmRegion& region,
                                        std::uint64_t expect_epoch) {
  if (region.size() < sizeof(ChannelHeader)) {
    return Status::invalid_argument("region too small for channel header");
  }
  std::byte* base = region.data();
  auto* header = reinterpret_cast<ChannelHeader*>(base);
  if (std::atomic_ref<std::uint32_t>(header->magic)
          .load(std::memory_order_acquire) != kChannelMagic) {
    return Status::failed_precondition("channel not initialized");
  }
  // Seeing the magic acquires the creator's release: every header field
  // written before the publish is now safe to read.
  if (expect_epoch != 0 && header->epoch != expect_epoch) {
    return Status::failed_precondition("stale channel epoch");
  }
  const std::size_t ring_span = align_up(
      MbufRing::bytes_required(header->ring_capacity), kCacheLineSize);
  MbufRing* a2b = MbufRing::attach_at(base + kHeaderSpace);
  MbufRing* b2a = MbufRing::attach_at(base + kHeaderSpace + ring_span);
  if (a2b == nullptr || b2a == nullptr) {
    return Status::internal("ring attach failed");
  }
  ChannelView view;
  view.header_ = header;
  view.a2b_ = a2b;
  view.b2a_ = b2a;
  return view;
}

std::string normal_channel_region(PortId port) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "dpdkr%u", port);
  return buf;
}

std::string bypass_channel_region(PortId from, PortId to) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "bypass.%u-%u", from, to);
  return buf;
}

std::string control_channel_region(PortId port) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "ctrl.%u", port);
  return buf;
}

}  // namespace hw::pmd
