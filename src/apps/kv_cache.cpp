#include "apps/kv_cache.hpp"

#include <cassert>
#include <stdexcept>

#include "core/primitive.hpp"
#include "net/bytes.hpp"
#include "net/flow.hpp"
#include "rnic/memory.hpp"

namespace xmem::apps {

using switchsim::PipelineContext;

std::vector<std::uint8_t> KvRequest::serialize() const {
  std::vector<std::uint8_t> buf;
  buf.reserve(kBytes);
  net::ByteWriter w(buf);
  w.u8(static_cast<std::uint8_t>(op));
  w.u64(key);
  w.u64(value);
  return buf;
}

std::optional<KvRequest> KvRequest::parse(
    std::span<const std::uint8_t> payload) {
  if (payload.size() < kBytes) return std::nullopt;
  net::ByteReader r(payload);
  KvRequest req;
  req.op = static_cast<KvOp>(r.u8());
  req.key = r.u64();
  req.value = r.u64();
  return req;
}

namespace {

/// Extract the KV request from a UDP packet to kKvUdpPort, if any.
std::optional<KvRequest> kv_view(const net::Packet& packet) {
  auto tuple = net::extract_five_tuple(packet);
  if (!tuple || tuple->dst_port != kKvUdpPort) return std::nullopt;
  const std::size_t overhead = net::kEthernetHeaderBytes +
                               net::kIpv4HeaderBytes + net::kUdpHeaderBytes;
  if (packet.size() < overhead + KvRequest::kBytes) return std::nullopt;
  return KvRequest::parse(packet.bytes().subspan(overhead));
}

/// Build a response by swapping the request's addressing end-for-end.
net::Packet make_response(const net::Packet& request, const KvRequest& reply) {
  auto tuple = net::extract_five_tuple(request);
  assert(tuple.has_value());
  const auto b = request.bytes();
  std::array<std::uint8_t, 6> dst{};
  std::array<std::uint8_t, 6> src{};
  std::copy(b.begin(), b.begin() + 6, dst.begin());
  std::copy(b.begin() + 6, b.begin() + 12, src.begin());
  return net::build_udp_packet(
      net::MacAddress(dst), net::MacAddress(src), tuple->dst_ip,
      tuple->src_ip, tuple->dst_port, tuple->src_port, reply.serialize());
}

}  // namespace

KvAcceleratorApp::KvAcceleratorApp(switchsim::ProgrammableSwitch& sw,
                                   control::RdmaChannelConfig channel,
                                   Config config)
    : switch_(&sw),
      channel_(sw, std::move(channel)),
      config_(config),
      pending_(sw.simulator(), 1, kResponseTimeout,
               [this]() { on_timeout(); }) {
  if (config_.backend_port < 0) {
    throw std::invalid_argument("KvAcceleratorApp: backend_port must be set");
  }
  n_entries_ = channel_.config().region_bytes / kKvEntryBytes;
  if (n_entries_ == 0) {
    throw std::invalid_argument(
        "KvAcceleratorApp: region smaller than one 24 B entry");
  }
  sw.add_ingress_stage("kv-accelerator",
                       [this](PipelineContext& ctx) { on_ingress(ctx); });
}

std::uint64_t KvAcceleratorApp::index_of(std::uint64_t key,
                                         std::uint64_t n_entries) {
  std::uint64_t x = key;
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return x % n_entries;
}

void KvAcceleratorApp::store_entry(std::span<std::uint8_t> region,
                                   std::uint64_t key, std::uint64_t value) {
  const std::uint64_t n_entries = region.size() / kKvEntryBytes;
  const std::uint64_t idx = index_of(key, n_entries);
  auto slot = region.subspan(idx * kKvEntryBytes, kKvEntryBytes);
  rnic::store_le64(slot.subspan(0, 8), key);
  rnic::store_le64(slot.subspan(8, 8), value);
  slot[16] = 1;  // valid
}

void KvAcceleratorApp::on_ingress(PipelineContext& ctx) {
  if (const auto* msg = core::roce_view(ctx)) {
    if (channel_.owns(*msg)) {
      handle_response(*msg);
      ctx.consume();
    }
    return;
  }

  auto req = kv_view(ctx.packet);
  if (!req) return;

  if (req->op == KvOp::kPut) {
    ++stats_.puts_passed;
    return;  // PUTs go to the backend via normal forwarding
  }
  if (req->op != KvOp::kGet) return;  // responses etc. forward normally

  ++stats_.gets_seen;
  const std::uint64_t idx = index_of(req->key, n_entries_);
  const roce::Psn psn = channel_.post_read(
      channel_.config().base_va + idx * kKvEntryBytes, kKvEntryBytes);
  pending_.add(0, psn, Pending{ctx.packet.clone(), req->key});
  pending_.arm();
  ctx.consume();
}

void KvAcceleratorApp::handle_response(const roce::RoceMessage& msg) {
  if (!roce::is_read_response(msg.opcode())) return;
  auto done = pending_.erase(0, msg.bth.psn);
  if (!done) return;
  Pending& pending = done->op;

  bool hit = false;
  std::uint64_t value = 0;
  if (msg.payload.size() >= kKvEntryBytes) {
    const auto entry = std::span<const std::uint8_t>(msg.payload);
    const std::uint64_t stored_key = rnic::load_le64(entry.subspan(0, 8));
    const bool valid = entry[16] != 0;
    if (valid && stored_key == pending.key) {
      hit = true;
      value = rnic::load_le64(entry.subspan(8, 8));
    }
  }

  if (hit) {
    ++stats_.answered_from_remote;
    KvRequest reply{KvOp::kResponse, pending.key, value};
    net::Packet response = make_response(pending.request, reply);
    if (auto port = switch_->l2_route_for(response)) {
      switch_->inject(std::move(response), *port);
    }
  } else {
    // Fall back to the backend CPU with the original request.
    ++stats_.misses_to_backend;
    switch_->inject(std::move(pending.request), config_.backend_port);
  }
}

void KvAcceleratorApp::on_timeout() {
  // The READ or its response was lost: answer the slow way, as a miss.
  pending_.expire([&](std::size_t, auto& lost) {
    ++stats_.lost_reads;
    switch_->inject(std::move(lost.op.request), config_.backend_port);
  });
}

KvBackend::KvBackend(host::Host& host, std::span<std::uint8_t> region)
    : host_(&host), region_(region) {
  host.set_app([this](net::Packet&& packet, int) { on_packet(std::move(packet)); });
}

void KvBackend::put(std::uint64_t key, std::uint64_t value) {
  store_[key] = value;
  KvAcceleratorApp::store_entry(region_, key, value);
}

void KvBackend::on_packet(net::Packet&& packet) {
  auto req = kv_view(packet);
  if (!req) return;

  host_->simulator().schedule_in(
      kServiceTime, [this, p = std::move(packet), r = *req]() {
        if (r.op == KvOp::kPut) {
          ++cpu_puts_;
          put(r.key, r.value);
          KvRequest reply{KvOp::kResponse, r.key, r.value};
          host_->send(make_response(p, reply));
        } else if (r.op == KvOp::kGet) {
          ++cpu_gets_;
          auto it = store_.find(r.key);
          KvRequest reply{it == store_.end() ? KvOp::kMiss : KvOp::kResponse,
                          r.key, it == store_.end() ? 0 : it->second};
          host_->send(make_response(p, reply));
        }
      });
}

}  // namespace xmem::apps
