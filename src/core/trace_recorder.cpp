#include "core/trace_recorder.hpp"

#include <stdexcept>

#include "core/primitive.hpp"

namespace xmem::core {

using switchsim::PipelineContext;

void TraceRecord::serialize(net::ByteWriter& w) const {
  w.u64(timestamp_ns);
  w.u32(src_ip.value());
  w.u32(dst_ip.value());
  w.u16(src_port);
  w.u16(dst_port);
  w.u8(protocol);
  w.u8(tos);
  w.u16(frame_len);
  w.u32(queue_depth);
  w.u32(sequence);
}

TraceRecord TraceRecord::parse(net::ByteReader& r) {
  TraceRecord rec;
  rec.timestamp_ns = r.u64();
  rec.src_ip = net::Ipv4Address(r.u32());
  rec.dst_ip = net::Ipv4Address(r.u32());
  rec.src_port = r.u16();
  rec.dst_port = r.u16();
  rec.protocol = r.u8();
  rec.tos = r.u8();
  rec.frame_len = r.u16();
  rec.queue_depth = r.u32();
  rec.sequence = r.u32();
  return rec;
}

TraceRecorderPrimitive::TraceRecorderPrimitive(
    switchsim::ProgrammableSwitch& sw, control::RdmaChannelConfig channel,
    Config config)
    : switch_(&sw), channel_(sw, std::move(channel)), config_(std::move(config)) {
  if (config_.batch < 1) {
    throw std::invalid_argument("TraceRecorder: batch must be >= 1");
  }
  if (config_.batch * TraceRecord::kBytes > channel_.config().path_mtu) {
    throw std::invalid_argument(
        "TraceRecorder: one batch WRITE must fit one path MTU");
  }
  capacity_ = channel_.config().region_bytes / TraceRecord::kBytes;
  if (capacity_ == 0) {
    throw std::invalid_argument(
        "TraceRecorder: the region must hold at least one record");
  }

  if (!config_.filter) {
    config_.filter = [](const net::Packet& p) {
      auto parsed = net::extract_five_tuple(p);
      return parsed.has_value() &&
             parsed->dst_port != net::kRoceV2Port;
    };
  }

  sw.add_ingress_stage("trace-recorder",
                       [this](PipelineContext& ctx) { on_ingress(ctx); });
}

void TraceRecorderPrimitive::attach_telemetry(
    telemetry::MetricsRegistry* registry, telemetry::OpTracer* tracer,
    const std::string& prefix) {
  if (registry != nullptr) {
    registry->register_counter(prefix + "/records_captured",
                               &stats_.records_captured, "records");
    registry->register_counter(prefix + "/writes_sent",
                               &stats_.writes_sent, "ops");
    registry->register_counter(prefix + "/dropped_log_full",
                               &stats_.dropped_log_full, "records");
    registry->register_gauge(
        prefix + "/unflushed",
        [this]() { return static_cast<double>(unflushed()); }, "records");
  }
  channel_.attach_telemetry(registry, tracer, prefix + "/chan");
}

void TraceRecorderPrimitive::on_ingress(PipelineContext& ctx) {
  if (const auto* msg = roce_view(ctx)) {
    if (channel_.owns(*msg)) ctx.consume();  // ACKs/NAKs: nothing to track
    return;
  }
  if (!config_.filter(ctx.packet)) return;
  append(ctx.packet);
  // The original continues down the pipeline untouched (pure observation).
}

void TraceRecorderPrimitive::append(const net::Packet& packet) {
  if (config_.mode == Mode::kCapture && cursor_ >= capacity_) {
    ++stats_.dropped_log_full;
    return;
  }

  auto tuple = net::extract_five_tuple(packet);
  TraceRecord rec;
  rec.timestamp_ns = static_cast<std::uint64_t>(
      switch_->simulator().now() / sim::kNanosecond);
  if (tuple) {
    rec.src_ip = tuple->src_ip;
    rec.dst_ip = tuple->dst_ip;
    rec.src_port = tuple->src_port;
    rec.dst_port = tuple->dst_port;
    rec.protocol = tuple->protocol;
  }
  if (packet.size() >= net::kEthernetHeaderBytes + 2) {
    rec.tos = packet.bytes()[net::kEthernetHeaderBytes + 1];
  }
  rec.frame_len = static_cast<std::uint16_t>(packet.size());
  if (config_.watch_queue_port >= 0) {
    rec.queue_depth = static_cast<std::uint32_t>(
        switch_->tm().depth_bytes(config_.watch_queue_port));
  }
  rec.sequence = static_cast<std::uint32_t>(cursor_);

  if (pending_.empty()) pending_first_slot_ = cursor_;
  net::ByteWriter w(pending_);
  rec.serialize(w);
  ++cursor_;
  ++stats_.records_captured;

  const bool batch_full =
      pending_.size() >= config_.batch * TraceRecord::kBytes;
  // A batch must never straddle the ring boundary: the WRITE is one
  // contiguous range.
  const bool at_wrap = (cursor_ % capacity_) == 0;
  if (batch_full || at_wrap) flush();
}

void TraceRecorderPrimitive::flush() {
  if (pending_.empty()) return;
  const std::uint64_t slot = pending_first_slot_ % capacity_;
  channel_.post_write(
      channel_.config().base_va + slot * TraceRecord::kBytes, pending_);
  ++stats_.writes_sent;
  pending_.clear();
}

std::vector<TraceRecord> TraceRecorderPrimitive::read_log(
    std::span<const std::uint8_t> region, std::uint64_t captured,
    std::uint64_t capacity) {
  std::vector<TraceRecord> records;
  const std::uint64_t available = std::min(captured, capacity);
  records.reserve(available);
  // Chronological order: if the ring wrapped, the oldest record sits at
  // slot (captured % capacity).
  const std::uint64_t start = captured > capacity ? captured % capacity : 0;
  for (std::uint64_t i = 0; i < available; ++i) {
    const std::uint64_t slot = (start + i) % capacity;
    net::ByteReader r(
        region.subspan(slot * TraceRecord::kBytes, TraceRecord::kBytes));
    records.push_back(TraceRecord::parse(r));
  }
  return records;
}

}  // namespace xmem::core
