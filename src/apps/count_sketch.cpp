#include "apps/count_sketch.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "core/primitive.hpp"
#include "net/flow.hpp"
#include "rnic/memory.hpp"

namespace xmem::apps {

using switchsim::PipelineContext;

CountSketchApp::CountSketchApp(switchsim::ProgrammableSwitch& sw,
                               control::RdmaChannelConfig channel)
    : channel_(sw, std::move(channel)),
      columns_(channel_.config().region_bytes / 8 / kRows),
      inflight_(sw.simulator(), 1, kResponseTimeout,
                [this]() { on_timeout(); }) {
  if (columns_ == 0) {
    throw std::invalid_argument(
        "CountSketchApp: region holds no column of 8 B counters per row");
  }

  sw.add_ingress_stage("count-sketch",
                       [this](PipelineContext& ctx) { on_ingress(ctx); });
}

std::optional<std::uint64_t> CountSketchApp::flow_key(
    const net::Packet& packet) {
  auto tuple = net::extract_five_tuple(packet);
  if (!tuple) return std::nullopt;
  return net::flow_hash(*tuple);
}

std::uint64_t CountSketchApp::column_of(std::size_t row,
                                        std::uint64_t key) const {
  // Mix the row into the key with distinct multipliers per row.
  std::uint64_t x = key ^ (kSeed + 0x9e3779b97f4a7c15ULL * (row + 1));
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return x % columns_;
}

std::int64_t CountSketchApp::sign_of(std::size_t row,
                                     std::uint64_t key) const {
  std::uint64_t x = key ^ (kSeed * (2 * row + 3));
  x ^= x >> 29;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 32;
  return (x & 1) ? 1 : -1;
}

void CountSketchApp::on_ingress(PipelineContext& ctx) {
  if (const auto* msg = core::roce_view(ctx)) {
    if (channel_.owns(*msg)) {
      handle_response(*msg);
      ctx.consume();
    }
    return;
  }
  auto key = flow_key(ctx.packet);
  if (!key) return;
  ++stats_.sampled_packets;

  for (std::size_t row = 0; row < kRows; ++row) {
    const std::uint64_t column = column_of(row, *key);
    const std::int64_t sign = sign_of(row, *key);
    queue_.push_back(Update{
        cell_va(row, column),
        sign > 0 ? std::uint64_t{1} : ~std::uint64_t{0}  // +1 / -1 wrapped
    });
  }
  pump();
}

void CountSketchApp::pump() {
  while (inflight_.size() < kMaxOutstanding && !queue_.empty()) {
    const Update u = queue_.front();
    queue_.pop_front();
    inflight_.add(0, channel_.post_fetch_add(u.va, u.add), u);
    ++stats_.fetch_adds_sent;
    inflight_.arm();
  }
  stats_.deferred_updates = std::max<std::uint64_t>(
      stats_.deferred_updates, queue_.size());
}

void CountSketchApp::handle_response(const roce::RoceMessage& msg) {
  if (msg.opcode() != roce::Opcode::kAtomicAcknowledge) return;
  if (!inflight_.erase(0, msg.bth.psn)) return;
  ++stats_.acks_received;
  pump();
}

void CountSketchApp::on_timeout() {
  inflight_.expire([&](std::size_t, const auto&) { ++stats_.lost_updates; });
  pump();
}

std::int64_t CountSketchApp::estimate(std::span<const std::uint8_t> region,
                                      std::uint64_t key) const {
  static_assert(kRows % 2 == 1, "the median of an odd row count is a row");
  std::array<std::int64_t, kRows> values{};
  for (std::size_t row = 0; row < kRows; ++row) {
    const std::uint64_t column = column_of(row, key);
    const std::size_t offset = (row * columns_ + column) * 8;
    const std::uint64_t raw = rnic::load_le64(region.subspan(offset, 8));
    values[row] = sign_of(row, key) * static_cast<std::int64_t>(raw);
  }
  std::sort(values.begin(), values.end());
  return values[kRows / 2];
}

}  // namespace xmem::apps
