#include "host/sink.hpp"

#include "net/packet.hpp"

namespace xmem::host {

bool SequenceSet::insert(std::uint64_t seq) {
  const std::uint64_t key = seq >> kBlockShift;
  if (last_ == nullptr || key != last_key_) {
    last_ = &blocks_[key];  // a new block starts all zero
    last_key_ = key;
  }
  const std::uint64_t bit = seq & ((std::uint64_t{1} << kBlockShift) - 1);
  std::uint64_t& word = (*last_)[bit / 64];
  const std::uint64_t mask = std::uint64_t{1} << (bit % 64);
  if ((word & mask) != 0) return false;
  word |= mask;
  return true;
}

PacketSink::PacketSink(Host& host, bool install) : host_(&host) {
  if (install) {
    host.set_app([this](net::Packet&& packet, int) { accept(packet); });
  }
}

void PacketSink::accept(const net::Packet& packet) {
  const sim::Time now = host_->simulator().now();
  if (first_arrival_ < 0) {
    first_arrival_ = now;
    meter_.start(now);
  }
  last_arrival_ = now;
  ++packets_;
  bytes_ += static_cast<std::int64_t>(packet.size());
  meter_.record(now, static_cast<std::int64_t>(packet.size()));

  // Pull the probe header out of the UDP payload if present.
  const std::size_t overhead = net::kEthernetHeaderBytes +
                               net::kIpv4HeaderBytes + net::kUdpHeaderBytes;
  if (packet.size() >= overhead + ProbeHeader::kBytes) {
    const auto probe =
        ProbeHeader::read_from(packet.bytes().subspan(overhead));
    if (seen_.insert(probe.sequence)) ++packets_unique_;
    if (probe.sequence < expected_next_) {
      ++reordered_;
    } else {
      expected_next_ = probe.sequence + 1;
    }
    if (probe.sequence + 1 > max_seq_plus_one_) {
      max_seq_plus_one_ = probe.sequence + 1;
    }
    latency_us_.add(sim::to_microseconds(now - probe.sent_at));
  }

  if (int_collector_) int_collector_->collect(packet, now);
  if (on_packet_) on_packet_(packet);
}

sim::Bandwidth PacketSink::goodput() const {
  if (first_arrival_ < 0 || last_arrival_ <= first_arrival_) return 0;
  return sim::achieved_rate(bytes_, last_arrival_ - first_arrival_);
}

}  // namespace xmem::host
