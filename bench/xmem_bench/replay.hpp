// Per-layer unit costs for xmem_bench's traced run.
//
// After the traced run, each layer's public entry point is timed again on
// inputs captured during that run (frames from link taps, the tenant key
// stream, the event-queue depth the run actually had). A layer's share of
// the run is then its unit cost times its in-situ count, over the traced
// run time. Timing stays in the benchmark: nothing inside src/ is
// instrumented.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "clock.hpp"
#include "core/lookup_cache.hpp"
#include "net/flow.hpp"
#include "net/packet.hpp"
#include "rnic/rnic.hpp"
#include "roce/packet.hpp"
#include "sim/simulator.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace xmem::xbench {

using Frames = std::vector<FrameCapture::Frame>;

/// Runs `pass` (which returns a value folded into `sink`, so the work
/// cannot be optimized away) until it has taken at least 20 ms of host
/// time or 16 passes. Returns the mean host ns per pass.
template <typename Pass>
double mean_pass_ns(Pass&& pass, std::uint64_t& sink) {
  constexpr std::int64_t kMinNs = 20'000'000;
  constexpr int kMaxPasses = 16;
  const Stopwatch clock;
  int passes = 0;
  do {
    sink += pass();
    ++passes;
  } while (passes < kMaxPasses && clock.ns() < kMinNs);
  return static_cast<double>(clock.ns()) / passes;
}

/// net::parse_packet: host ns per tenant frame.
inline double replay_net_parse(const Frames& tenant, std::uint64_t& sink) {
  if (tenant.empty()) return 0.0;
  const double pass_ns = mean_pass_ns(
      [&] {
        std::uint64_t acc = 0;
        for (const auto& f : tenant) {
          const net::ParsedPacket p = net::parse_packet(f.packet);
          acc += p.udp ? p.udp->src_port : 0;
        }
        return acc;
      },
      sink);
  return pass_ns / static_cast<double>(tenant.size());
}

struct RoceCost {
  double parse_ns_per_kib = 0;
  double build_ns_per_kib = 0;
};

/// roce::parse_roce_packet and roce::build_roce_packet over the captured
/// memory-link frames (both directions), per KiB of frame.
inline RoceCost replay_roce(const Frames& memory, std::uint64_t& sink) {
  struct Parsed {
    roce::RoceEndpoint src;
    roce::RoceEndpoint dst;
    roce::RoceMessage msg;
  };
  std::vector<const net::Packet*> roce_frames;
  double kib = 0;
  for (const auto& f : memory) {
    const net::ParsedPacket p = net::parse_packet(f.packet);
    if (!p.is_roce_v2()) continue;  // PFC pause frames share the link
    roce_frames.push_back(&f.packet);
    kib += static_cast<double>(f.packet.size()) / 1024.0;
  }
  RoceCost cost;
  if (roce_frames.empty()) return cost;
  cost.parse_ns_per_kib = mean_pass_ns(
                              [&] {
                                std::uint64_t acc = 0;
                                for (const net::Packet* p : roce_frames) {
                                  auto msg = roce::parse_roce_packet(*p);
                                  acc += msg ? msg->bth.psn.raw() : 1;
                                }
                                return acc;
                              },
                              sink) /
                          kib;

  // Build cost: rebuild each parsed message between the same endpoints.
  // Messages are prepared outside the timed region in batches, because
  // build_roce_packet consumes its message.
  constexpr std::size_t kBatch = 1024;
  std::vector<Parsed> batch;
  batch.reserve(kBatch);
  double build_ns = 0;
  double built_kib = 0;
  for (std::size_t at = 0; at < roce_frames.size(); at += kBatch) {
    batch.clear();
    for (std::size_t i = at; i < roce_frames.size() && i < at + kBatch; ++i) {
      const net::Packet& frame = *roce_frames[i];
      auto msg = roce::parse_roce_packet(frame);
      if (!msg) continue;
      const net::ParsedPacket h = net::parse_packet(frame);
      batch.push_back({{h.eth.src, h.ipv4->src, h.udp->src_port},
                       {h.eth.dst, h.ipv4->dst, h.udp->dst_port},
                       std::move(*msg)});
    }
    const Stopwatch clock;
    for (Parsed& p : batch) {
      const net::Packet out =
          roce::build_roce_packet(p.src, p.dst, std::move(p.msg));
      sink += out.size();
      built_kib += static_cast<double>(out.size()) / 1024.0;
    }
    build_ns += static_cast<double>(clock.ns());
  }
  cost.build_ns_per_kib = built_kib > 0 ? build_ns / built_kib : 0.0;
  return cost;
}

struct RnicReplay {
  double ns_per_request = 0;
  double request_kib = 0;   // per request
  double response_kib = 0;  // per request
  std::uint64_t fed = 0;
  bool ok = false;
  std::string detail;
};

/// Rnic::handle_frame plus service, on a standalone rnic::Rnic (its own
/// Simulator, a discarding TransmitFn) rebuilt with memory server 0's
/// region and queue pair, fed the switch -> server frames in capture
/// order. Every fed request must be served, with no more NAKs than the
/// in-situ responder sent.
inline RnicReplay replay_rnic(const Frames& memory, const RnicSetup& setup) {
  RnicReplay out;
  sim::Simulator sim;
  std::int64_t tx_bytes = 0;
  rnic::Rnic nic(sim, setup.server, setup.profile,
                 [&tx_bytes](net::Packet&& frame) {
                   tx_bytes += static_cast<std::int64_t>(frame.size());
                 });
  rnic::MemoryRegion& region = nic.memory().register_region(
      setup.channel.region_bytes, rnic::Access::kAll);
  rnic::QueuePair& qp = nic.create_qp();
  if (region.rkey() != setup.channel.rkey ||
      region.base_va() != setup.channel.base_va ||
      qp.qpn != setup.channel.remote_qpn) {
    out.detail = "standalone RNIC did not reproduce the channel's rkey/VA/QPN";
    return out;
  }
  nic.connect_qp(qp.qpn, setup.channel.local, setup.channel.local_qpn,
                 setup.channel.initial_psn);
  qp.tolerate_psn_gaps = setup.tolerate_psn_gaps;

  std::int64_t rx_bytes = 0;
  const Stopwatch clock;
  for (const auto& f : memory) {
    if (f.from_end != 0) continue;  // requests travel switch -> server
    if (!nic.handle_frame(f.packet)) continue;  // PFC pause frames
    ++out.fed;
    rx_bytes += static_cast<std::int64_t>(f.packet.size());
    sim.run();
  }
  const auto ns = static_cast<double>(clock.ns());
  const auto& s = nic.stats();
  out.ok = s.requests_received == out.fed && s.requests_dropped_overflow == 0 &&
           s.unknown_qp_dropped == 0 && s.corrupt_dropped == 0 &&
           s.naks_sent <= setup.naks_in_situ;
  out.detail = std::to_string(s.requests_received) + "/" +
               std::to_string(out.fed) + " frames served, " +
               std::to_string(s.naks_sent) + " NAKs (in situ " +
               std::to_string(setup.naks_in_situ) + ")";
  if (out.fed > 0) {
    const auto fed = static_cast<double>(out.fed);
    out.ns_per_request = ns / fed;
    out.request_kib = static_cast<double>(rx_bytes) / 1024.0 / fed;
    out.response_kib = static_cast<double>(tx_bytes) / 1024.0 / fed;
  }
  return out;
}

/// LookupCache::lookup (+ insert on a miss) over the captured tenant key
/// stream, with lookup_zipf's cache shape (10 entries, segmented LFU).
/// Host ns per key.
inline double replay_cache(const Frames& tenant, std::uint64_t& sink) {
  std::vector<core::LookupCache::Key> keys;
  keys.reserve(tenant.size());
  for (const auto& f : tenant) {
    if (auto t = net::extract_five_tuple(f.packet)) {
      const auto k = t->key_bytes();
      keys.emplace_back(k.begin(), k.end());
    }
  }
  if (keys.empty()) return 0.0;
  switchsim::Action forward;
  forward.kind = switchsim::Action::Kind::kForward;
  const double pass_ns = mean_pass_ns(
      [&] {
        core::LookupCache cache({.capacity = spec::kLtFlows / 100,
                                 .policy = core::LookupCache::Policy::kLfu});
        std::uint64_t hits = 0;
        for (const auto& key : keys) {
          if (cache.lookup(key, 0)) {
            ++hits;
          } else {
            cache.insert(key, forward, 0, 0, 0);
          }
        }
        return hits;
      },
      sink);
  return pass_ns / static_cast<double>(keys.size());
}

/// Simulator::schedule_in + fire of one event, with `depth` other events
/// pending (the median depth the traced run sampled). Host ns per event.
inline double replay_event_queue(std::size_t depth, std::uint64_t& sink) {
  sim::Simulator sim;
  std::uint64_t fired = 0;
  // Filler events far beyond the replay's horizon hold the heap at depth.
  for (std::size_t i = 0; i < depth; ++i) {
    sim.schedule_at(sim::seconds(1000) + static_cast<sim::Time>(i),
                    [&fired] { ++fired; });
  }
  constexpr std::uint64_t kEvents = 200'000;
  const double pass_ns = mean_pass_ns(
      [&] {
        for (std::uint64_t i = 0; i < kEvents; ++i) {
          sim.schedule_in(sim::nanoseconds(1), [&fired] { ++fired; });
          sim.run_until(sim.now() + sim::nanoseconds(1));
        }
        return fired;
      },
      sink);
  return pass_ns / static_cast<double>(kEvents);
}

}  // namespace xmem::xbench
