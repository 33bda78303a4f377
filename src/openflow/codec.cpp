#include "openflow/codec.h"

#include <cstring>

namespace hw::openflow {
namespace {

/// Append-only big-endian byte writer.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<std::byte>(v)); }
  void u16(std::uint16_t v) {
    u8(static_cast<std::uint8_t>(v >> 8));
    u8(static_cast<std::uint8_t>(v & 0xff));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v >> 16));
    u16(static_cast<std::uint16_t>(v & 0xffff));
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v >> 32));
    u32(static_cast<std::uint32_t>(v & 0xffffffff));
  }
  void bytes(std::span<const std::byte> data) {
    buf_.insert(buf_.end(), data.begin(), data.end());
  }

  /// Patches the 16-bit length field at offset 2 and returns the buffer.
  std::vector<std::byte> finish() {
    const auto len = static_cast<std::uint16_t>(buf_.size());
    buf_[2] = static_cast<std::byte>(len >> 8);
    buf_[3] = static_cast<std::byte>(len & 0xff);
    return std::move(buf_);
  }

 private:
  std::vector<std::byte> buf_;
};

/// Bounds-checked big-endian byte reader.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> data) : data_(data) {}

  [[nodiscard]] bool ok() const noexcept { return ok_; }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }

  std::uint8_t u8() noexcept {
    if (pos_ + 1 > data_.size()) {
      ok_ = false;
      return 0;
    }
    return std::to_integer<std::uint8_t>(data_[pos_++]);
  }
  std::uint16_t u16() noexcept {
    const auto hi = u8();
    const auto lo = u8();
    return static_cast<std::uint16_t>((hi << 8) | lo);
  }
  std::uint32_t u32() noexcept {
    const auto hi = u16();
    const auto lo = u16();
    return (static_cast<std::uint32_t>(hi) << 16) | lo;
  }
  std::uint64_t u64() noexcept {
    const auto hi = u32();
    const auto lo = u32();
    return (static_cast<std::uint64_t>(hi) << 32) | lo;
  }
  std::span<const std::byte> bytes(std::size_t n) noexcept {
    if (pos_ + n > data_.size()) {
      ok_ = false;
      return {};
    }
    auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

 private:
  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

void write_header(ByteWriter& writer, MsgType type, std::uint32_t xid) {
  writer.u8(kWireVersion);
  writer.u8(static_cast<std::uint8_t>(type));
  writer.u16(0);  // length, patched by finish()
  writer.u32(xid);
}

void write_match(ByteWriter& writer, const Match& match) {
  writer.u32(match.fields());
  writer.u16(match.in_port_value());
  writer.u16(match.eth_type_value());
  writer.u8(match.ip_proto_value());
  writer.u8(match.ip_src_plen());
  writer.u8(match.ip_dst_plen());
  writer.u8(0);  // pad
  writer.u32(match.ip_src_value());
  writer.u32(match.ip_dst_value());
  writer.u16(match.l4_src_value());
  writer.u16(match.l4_dst_value());
}

/// The match, or an error for an IPv4 prefix length above 32.
Result<Match> read_match(ByteReader& reader) {
  const std::uint32_t fields = reader.u32();
  const auto in_port = static_cast<PortId>(reader.u16());
  const std::uint16_t eth_type = reader.u16();
  const std::uint8_t ip_proto = reader.u8();
  const std::uint8_t src_plen = reader.u8();
  const std::uint8_t dst_plen = reader.u8();
  reader.u8();  // pad
  const std::uint32_t ip_src = reader.u32();
  const std::uint32_t ip_dst = reader.u32();
  const std::uint16_t l4_src = reader.u16();
  const std::uint16_t l4_dst = reader.u16();
  if (src_plen > 32 || dst_plen > 32) {
    return Status::invalid_argument("IPv4 prefix length above 32");
  }

  Match match;
  if (fields & kMatchInPort) match.in_port(in_port);
  if (fields & kMatchEthType) match.eth_type(eth_type);
  if (fields & kMatchIpProto) match.ip_proto(ip_proto);
  if (fields & kMatchIpSrc) match.ip_src(ip_src, src_plen);
  if (fields & kMatchIpDst) match.ip_dst(ip_dst, dst_plen);
  if (fields & kMatchL4Src) match.l4_src(l4_src);
  if (fields & kMatchL4Dst) match.l4_dst(l4_dst);
  return match;
}

void write_actions(ByteWriter& writer, const ActionList& actions) {
  writer.u16(static_cast<std::uint16_t>(actions.size()));
  for (const Action& action : actions) {
    writer.u8(static_cast<std::uint8_t>(action.type));
    writer.u8(action.ttl);
    writer.u16(action.port);
  }
}

ActionList read_actions(ByteReader& reader) {
  const std::uint16_t count = reader.u16();
  ActionList actions;
  actions.reserve(count);
  for (std::uint16_t i = 0; i < count && reader.ok(); ++i) {
    Action action;
    action.type = static_cast<ActionType>(reader.u8());
    action.ttl = reader.u8();
    action.port = static_cast<PortId>(reader.u16());
    actions.push_back(action);
  }
  return actions;
}

Status short_message() {
  return Status::invalid_argument("truncated OpenFlow message");
}

Result<ByteReader> open_message(std::span<const std::byte> data,
                                MsgType expected) {
  auto header = decode_header(data);
  if (!header.is_ok()) return header.status();
  if (header.value().type != expected) {
    return Status::invalid_argument("unexpected message type");
  }
  if (header.value().length != data.size()) {
    return Status::invalid_argument("message length mismatch");
  }
  ByteReader reader(data);
  reader.bytes(kMsgHeaderLen);  // skip header
  return reader;
}

}  // namespace

Result<MsgHeader> decode_header(std::span<const std::byte> data) {
  if (data.size() < kMsgHeaderLen) return short_message();
  ByteReader reader(data);
  MsgHeader header;
  header.version = reader.u8();
  header.type = static_cast<MsgType>(reader.u8());
  header.length = reader.u16();
  header.xid = reader.u32();
  if (header.version != kWireVersion) {
    return Status::invalid_argument("unsupported OpenFlow version");
  }
  if (header.length < kMsgHeaderLen) {
    return Status::invalid_argument("bad message length");
  }
  return header;
}

std::vector<std::byte> encode_flow_mod(const FlowMod& mod, std::uint32_t xid) {
  ByteWriter writer;
  write_header(writer, MsgType::kFlowMod, xid);
  writer.u8(static_cast<std::uint8_t>(mod.command));
  writer.u8(0);  // pad
  writer.u16(mod.priority);
  writer.u64(mod.cookie);
  write_match(writer, mod.match);
  write_actions(writer, mod.actions);
  return writer.finish();
}

Result<FlowMod> decode_flow_mod(std::span<const std::byte> data) {
  auto reader = open_message(data, MsgType::kFlowMod);
  if (!reader.is_ok()) return reader.status();
  ByteReader& r = reader.value();
  FlowMod mod;
  mod.command = static_cast<FlowModCommand>(r.u8());
  r.u8();
  mod.priority = r.u16();
  mod.cookie = r.u64();
  auto match = read_match(r);
  if (!match.is_ok()) return match.status();
  mod.match = match.value();
  mod.actions = read_actions(r);
  if (!r.ok()) return short_message();
  return mod;
}

std::vector<std::byte> encode_packet_out(const PacketOut& po,
                                         std::uint32_t xid) {
  ByteWriter writer;
  write_header(writer, MsgType::kPacketOut, xid);
  writer.u16(po.out_port);
  writer.u16(static_cast<std::uint16_t>(po.frame.size()));
  writer.bytes(po.frame);
  return writer.finish();
}

Result<PacketOut> decode_packet_out(std::span<const std::byte> data) {
  auto reader = open_message(data, MsgType::kPacketOut);
  if (!reader.is_ok()) return reader.status();
  ByteReader& r = reader.value();
  PacketOut po;
  po.out_port = static_cast<PortId>(r.u16());
  const std::uint16_t frame_len = r.u16();
  auto frame = r.bytes(frame_len);
  if (!r.ok()) return short_message();
  po.frame.assign(frame.begin(), frame.end());
  return po;
}

std::vector<std::byte> encode_flow_stats_request(std::uint32_t xid) {
  ByteWriter writer;
  write_header(writer, MsgType::kFlowStatsRequest, xid);
  return writer.finish();
}

std::vector<std::byte> encode_flow_stats_reply(
    std::span<const FlowStatsEntry> entries, std::uint32_t xid) {
  ByteWriter writer;
  write_header(writer, MsgType::kFlowStatsReply, xid);
  writer.u16(static_cast<std::uint16_t>(entries.size()));
  for (const FlowStatsEntry& entry : entries) {
    write_match(writer, entry.match);
    writer.u16(entry.priority);
    writer.u64(entry.cookie);
    writer.u64(entry.packet_count);
    writer.u64(entry.byte_count);
    writer.u64(entry.duration_ns);
    write_actions(writer, entry.actions);
  }
  return writer.finish();
}

Result<std::vector<FlowStatsEntry>> decode_flow_stats_reply(
    std::span<const std::byte> data) {
  auto reader = open_message(data, MsgType::kFlowStatsReply);
  if (!reader.is_ok()) return reader.status();
  ByteReader& r = reader.value();
  const std::uint16_t count = r.u16();
  std::vector<FlowStatsEntry> entries;
  entries.reserve(count);
  for (std::uint16_t i = 0; i < count && r.ok(); ++i) {
    FlowStatsEntry entry;
    auto match = read_match(r);
    if (!match.is_ok()) return match.status();
    entry.match = match.value();
    entry.priority = r.u16();
    entry.cookie = r.u64();
    entry.packet_count = r.u64();
    entry.byte_count = r.u64();
    entry.duration_ns = r.u64();
    entry.actions = read_actions(r);
    entries.push_back(std::move(entry));
  }
  if (!r.ok()) return short_message();
  return entries;
}

std::vector<std::byte> encode_port_stats_request(PortId port,
                                                 std::uint32_t xid) {
  ByteWriter writer;
  write_header(writer, MsgType::kPortStatsRequest, xid);
  writer.u16(port);
  return writer.finish();
}

Result<PortId> decode_port_stats_request(std::span<const std::byte> data) {
  auto reader = open_message(data, MsgType::kPortStatsRequest);
  if (!reader.is_ok()) return reader.status();
  ByteReader& r = reader.value();
  const auto port = static_cast<PortId>(r.u16());
  if (!r.ok()) return short_message();
  return port;
}

std::vector<std::byte> encode_port_stats_reply(
    std::span<const PortStats> entries, std::uint32_t xid) {
  ByteWriter writer;
  write_header(writer, MsgType::kPortStatsReply, xid);
  writer.u16(static_cast<std::uint16_t>(entries.size()));
  for (const PortStats& stats : entries) {
    writer.u16(stats.port);
    writer.u64(stats.rx_packets);
    writer.u64(stats.rx_bytes);
    writer.u64(stats.tx_packets);
    writer.u64(stats.tx_bytes);
    writer.u64(stats.rx_dropped);
    writer.u64(stats.tx_dropped);
  }
  return writer.finish();
}

Result<std::vector<PortStats>> decode_port_stats_reply(
    std::span<const std::byte> data) {
  auto reader = open_message(data, MsgType::kPortStatsReply);
  if (!reader.is_ok()) return reader.status();
  ByteReader& r = reader.value();
  const std::uint16_t count = r.u16();
  std::vector<PortStats> entries;
  entries.reserve(count);
  for (std::uint16_t i = 0; i < count && r.ok(); ++i) {
    PortStats stats;
    stats.port = static_cast<PortId>(r.u16());
    stats.rx_packets = r.u64();
    stats.rx_bytes = r.u64();
    stats.tx_packets = r.u64();
    stats.tx_bytes = r.u64();
    stats.rx_dropped = r.u64();
    stats.tx_dropped = r.u64();
    entries.push_back(stats);
  }
  if (!r.ok()) return short_message();
  return entries;
}

}  // namespace hw::openflow
