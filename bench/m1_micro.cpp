// M1 — engineering micro-benchmarks (google-benchmark).
//
// Not a paper table: these keep the substrate honest. Header
// encode/decode, ICRC, table lookups, the event engine and the hash
// functions are the per-packet costs every simulated experiment pays.
//
// A developer tool with no gate: run it by hand, with google-benchmark's
// own flags (--benchmark_filter, --benchmark_out=<path>). Host-perf
// gating belongs to bench/xmem_bench, which compares whole workloads
// against the parent commit.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "net/checksum.hpp"
#include "net/flow.hpp"
#include "net/packet.hpp"
#include "rnic/memory.hpp"
#include "roce/packet.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "stats/histogram.hpp"
#include "switchsim/table.hpp"

using namespace xmem;

namespace {

roce::RoceEndpoint ep(int i) {
  return {net::MacAddress::from_index(static_cast<std::uint16_t>(i)),
          net::Ipv4Address::from_index(static_cast<std::uint16_t>(i)),
          0xc000};
}

// The frame shapes the data path builds and parses, each timed alone: a
// WRITE written straight from its payload (as RdmaChannel::post_write
// does), an ACK, and a READ response segment written from a registered
// region's window (as the RNIC does).
roce::RoceMessage ack() {
  roce::RoceMessage msg;
  msg.bth.opcode = roce::Opcode::kAcknowledge;
  msg.bth.psn = roce::Psn(7);
  msg.aeth = roce::Aeth{roce::AckSyndrome::kAck, 1};
  return msg;
}

void BM_BuildRoceWrite(benchmark::State& state) {
  const std::vector<std::uint8_t> payload(
      static_cast<std::size_t>(state.range(0)), 0x5a);
  roce::RoceMessage headers;
  headers.bth.opcode = roce::Opcode::kRdmaWriteOnly;
  headers.reth = roce::Reth{0x1000, 0xaa,
                            static_cast<std::uint32_t>(payload.size())};
  for (auto _ : state) {
    auto frame = roce::build_roce_packet(ep(1), ep(2), headers,
                                         roce::Gather{{}, payload});
    benchmark::DoNotOptimize(frame);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_BuildRoceWrite)->Arg(64)->Arg(1500)->Arg(4096);

void BM_BuildRoceAck(benchmark::State& state) {
  const roce::RoceMessage msg = ack();
  for (auto _ : state) {
    auto frame = roce::build_roce_packet(ep(1), ep(2), msg);
    benchmark::DoNotOptimize(frame);
  }
}
BENCHMARK(BM_BuildRoceAck);

void BM_BuildReadResponse(benchmark::State& state) {
  const auto len = static_cast<std::size_t>(state.range(0));
  rnic::MemoryManager memory;
  rnic::MemoryRegion& region = memory.register_region(len, rnic::Access::kAll);
  const auto window = region.window(region.base_va(), len);
  std::fill(window.begin(), window.end(), std::uint8_t{0x5a});
  roce::RoceMessage headers;
  headers.bth.opcode = roce::Opcode::kRdmaReadResponseOnly;
  headers.aeth = roce::Aeth{roce::AckSyndrome::kAck, 1};
  for (auto _ : state) {
    auto frame = roce::build_roce_packet(ep(1), ep(2), headers,
                                         roce::Gather{{}, window});
    benchmark::DoNotOptimize(frame);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
// 2048 B is lookup_zipf's entry and the packet buffer's slot.
BENCHMARK(BM_BuildReadResponse)->Arg(2048);

void BM_ParseRocePacket(benchmark::State& state) {
  const auto len = static_cast<std::uint32_t>(state.range(0));
  roce::RoceMessage msg;
  msg.bth.opcode = roce::Opcode::kRdmaWriteOnly;
  msg.reth = roce::Reth{0x1000, 0xaa, len};
  msg.payload.assign(len, 0x5a);
  const net::Packet frame = roce::build_roce_packet(ep(1), ep(2), msg);
  for (auto _ : state) {
    auto parsed = roce::parse_roce_packet(frame);
    benchmark::DoNotOptimize(parsed);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
// 4096 is the incast_cc WRITE size.
BENCHMARK(BM_ParseRocePacket)->Arg(1500)->Arg(4096);

void BM_ParseRoceAck(benchmark::State& state) {
  const net::Packet frame = roce::build_roce_packet(ep(1), ep(2), ack());
  for (auto _ : state) {
    auto parsed = roce::parse_roce_packet(frame);
    benchmark::DoNotOptimize(parsed);
  }
}
BENCHMARK(BM_ParseRoceAck);

void BM_Crc32(benchmark::State& state) {
  const std::vector<std::uint8_t> data(
      static_cast<std::size_t>(state.range(0)), 0x33);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::crc32(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(1500)->Arg(4096);

void BM_InternetChecksum(benchmark::State& state) {
  const std::vector<std::uint8_t> data(1500, 0x44);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::internet_checksum(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1500);
}
BENCHMARK(BM_InternetChecksum);

void BM_Fnv1a(benchmark::State& state) {
  const net::FiveTuple tuple{net::Ipv4Address(1, 2, 3, 4),
                             net::Ipv4Address(5, 6, 7, 8), 9, 10, 17};
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::flow_hash(tuple));
  }
}
BENCHMARK(BM_Fnv1a);

void BM_ExactTableLookup(benchmark::State& state) {
  switchsim::ExactMatchTable table;
  sim::Rng rng(1);
  std::vector<switchsim::Key> keys;
  for (int i = 0; i < state.range(0); ++i) {
    switchsim::Key key(13);
    for (auto& b : key) b = static_cast<std::uint8_t>(rng.next());
    table.insert(key, switchsim::Action{});
    keys.push_back(std::move(key));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup(keys[i++ % keys.size()]));
  }
}
BENCHMARK(BM_ExactTableLookup)->Arg(1024)->Arg(65536);

void BM_EventQueueChurn(benchmark::State& state) {
  sim::EventQueue queue;
  sim::Time t = 0;
  for (auto _ : state) {
    queue.schedule(t + 100, [] {});
    queue.schedule(t + 50, [] {});
    queue.run_next();
    queue.run_next();
    t += 100;
  }
}
BENCHMARK(BM_EventQueueChurn);

/// The engine's bread and butter: schedule a batch of near-future events
/// (mixed offsets so the heap actually reorders) and drain it. Items/sec
/// is events fired per second.
void BM_EventQueueScheduleFire(benchmark::State& state) {
  sim::EventQueue queue;
  const int batch = static_cast<int>(state.range(0));
  sim::Time t = 0;
  for (auto _ : state) {
    for (int i = 0; i < batch; ++i) {
      queue.schedule(t + (i % 7) * 10 + i / 7, [] {});
    }
    while (!queue.empty()) queue.run_next();
    t += 1000;
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EventQueueScheduleFire)->Arg(64)->Arg(4096);

/// Timer-heavy workloads (retransmit timers that almost always get
/// cancelled) stress the dead-entry path: schedule a batch, cancel a
/// fraction, drain the survivors. Arg is the dead percentage.
void BM_EventQueueCancelChurn(benchmark::State& state) {
  sim::EventQueue queue;
  sim::Rng rng(42);
  const int dead_pct = static_cast<int>(state.range(0));
  constexpr int kBatch = 1024;
  std::vector<sim::EventId> ids;
  ids.reserve(kBatch);
  sim::Time t = 0;
  for (auto _ : state) {
    ids.clear();
    for (int i = 0; i < kBatch; ++i) {
      ids.push_back(queue.schedule(t + i, [] {}));
    }
    for (auto& id : ids) {
      if (rng.uniform(100) < static_cast<std::uint64_t>(dead_pct)) {
        id.cancel();
      }
    }
    while (!queue.empty()) queue.run_next();
    t += kBatch;
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_EventQueueCancelChurn)->Arg(10)->Arg(50)->Arg(90);

net::Packet make_mtu_packet() {
  const std::vector<std::uint8_t> payload(1458, 0x5a);
  return net::build_udp_packet(
      net::MacAddress::from_index(1), net::MacAddress::from_index(2),
      net::Ipv4Address(10, 0, 0, 1), net::Ipv4Address(10, 0, 0, 2), 1, 2,
      payload);
}

/// The switch clone operation on a full MTU frame.
void BM_PacketClone(benchmark::State& state) {
  const net::Packet p = make_mtu_packet();
  for (auto _ : state) {
    net::Packet c = p.clone();
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PacketClone);

/// The state-store hot path: clone a tracked frame, then truncate the
/// copy to a 64 B header stub (the paper's clone-and-truncate).
void BM_PacketCloneTruncate64(benchmark::State& state) {
  const net::Packet p = make_mtu_packet();
  for (auto _ : state) {
    net::Packet c = p.clone();
    c.truncate(64);
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PacketCloneTruncate64);

/// Header-stack parse of a full frame (every switch pipeline pass pays
/// this).
void BM_ParsePacket(benchmark::State& state) {
  const net::Packet p = make_mtu_packet();
  for (auto _ : state) {
    auto parsed = net::parse_packet(p);
    benchmark::DoNotOptimize(parsed);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ParsePacket);

void BM_UdpPacketBuild(benchmark::State& state) {
  const std::vector<std::uint8_t> payload(1458, 0);
  for (auto _ : state) {
    auto p = net::build_udp_packet(
        net::MacAddress::from_index(1), net::MacAddress::from_index(2),
        net::Ipv4Address(10, 0, 0, 1), net::Ipv4Address(10, 0, 0, 2), 1, 2,
        payload);
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_UdpPacketBuild);

void BM_ZipfSample(benchmark::State& state) {
  sim::Rng rng(3);
  sim::ZipfGenerator zipf(1 << 20, 0.99, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf());
  }
}
BENCHMARK(BM_ZipfSample);

/// Register a remote-memory region, then destroy it: t1 and the sweep
/// benches pay this once per cell. Regions are demand-zero, so the cost
/// should not grow with the length.
void BM_RegisterRegion(benchmark::State& state) {
  const auto length = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    rnic::MemoryManager memory;
    auto& region = memory.register_region(length, rnic::Access::kAll);
    benchmark::DoNotOptimize(region.bytes().data());
  }
}
BENCHMARK(BM_RegisterRegion)->Arg(64 << 10)->Arg(16 << 20)->Arg(64 << 20);

/// Histogram::add, every latency sink's per-frame cost, over batches of
/// 2^16 samples into a fresh histogram. Arg 0 repeats one value, as
/// fa_counter's sink does; arg 1 adds distinct values, which never fold.
/// Items/sec is samples added per second.
void BM_HistogramAdd(benchmark::State& state) {
  constexpr std::size_t kBatch = 1 << 16;
  std::vector<double> samples(kBatch, 1.035);
  if (state.range(0) != 0) {
    // An odd multiplier permutes the batch's indices.
    for (std::size_t i = 0; i < kBatch; ++i) {
      samples[i] = static_cast<double>(i * 40503 % kBatch);
    }
  }
  for (auto _ : state) {
    stats::Histogram h;
    for (const double s : samples) h.add(s);
    benchmark::DoNotOptimize(h.count());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kBatch));
}
BENCHMARK(BM_HistogramAdd)->Arg(0)->Arg(1);

/// A p99 query right after an add, so each query sees unsorted samples:
/// the cost a metrics snapshot pays. The 2^16 samples are Zipf(0.99)
/// draws over Arg values: 670 is lookup_zipf's spread of latencies.
void BM_HistogramP99(benchmark::State& state) {
  sim::Rng rng(5);
  sim::ZipfGenerator zipf(static_cast<std::uint64_t>(state.range(0)), 0.99,
                          rng);
  stats::Histogram h;
  for (int i = 0; i < (1 << 16); ++i) h.add(static_cast<double>(zipf()));
  for (auto _ : state) {
    h.add(static_cast<double>(zipf()));
    benchmark::DoNotOptimize(h.p99());
  }
}
BENCHMARK(BM_HistogramP99)->Arg(670)->Arg(1 << 16);

}  // namespace

BENCHMARK_MAIN();
