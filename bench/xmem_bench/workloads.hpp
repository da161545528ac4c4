// The four xmem_bench workloads.
//
// Each workload is a fixed, seeded scenario taken from the paper's
// figures. Its inputs (Zipf flow streams, incast jitter, loss seeds) are
// generated up front from sim::Rng(seed).split(workload index); the
// simulator only ever sees those generated inputs. All links are
// simulated and all traffic is open loop: frames and ops leave on a fixed
// schedule whatever the network does, and latency counts from the
// scheduled send time, so pacing and queueing waits are part of it.
//
//   fa_counter     state store: reliable F&A per 64 B frame (Fig. 3b, §7)
//   lookup_zipf    lookup table + 1% LFU cache under Zipf(0.99) (A10)
//   incast_absorb  packet buffer absorbing repeated 2:1 incasts (Fig. 1a)
//   incast_cc      DCQCN+PFC channel beside a 16:1 incast, telemetry on (A11)
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "clock.hpp"
#include "control/testbed.hpp"
#include "core/channel_set.hpp"
#include "core/lookup_table.hpp"
#include "core/packet_buffer.hpp"
#include "core/primitive.hpp"
#include "core/state_store.hpp"
#include "faults/invariants.hpp"
#include "host/sink.hpp"
#include "host/traffic_gen.hpp"
#include "net/flow.hpp"
#include "sim/rng.hpp"
#include "stats.hpp"
#include "telemetry/int_collector.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/op_tracer.hpp"
#include "telemetry/timeseries.hpp"
#include "trace.hpp"

namespace xmem::xbench {

enum class WorkloadId : std::uint8_t {
  kFaCounter,
  kLookupZipf,
  kIncastAbsorb,
  kIncastCc
};

inline constexpr std::array<WorkloadId, 4> kAllWorkloads = {
    WorkloadId::kFaCounter, WorkloadId::kLookupZipf, WorkloadId::kIncastAbsorb,
    WorkloadId::kIncastCc};

inline std::string_view workload_name(WorkloadId id) {
  switch (id) {
    case WorkloadId::kFaCounter: return "fa_counter";
    case WorkloadId::kLookupZipf: return "lookup_zipf";
    case WorkloadId::kIncastAbsorb: return "incast_absorb";
    case WorkloadId::kIncastCc: return "incast_cc";
  }
  return "?";
}

inline std::optional<WorkloadId> parse_workload(std::string_view name) {
  for (const WorkloadId id : kAllWorkloads) {
    if (workload_name(id) == name) return id;
  }
  return std::nullopt;
}

/// One correctness check, wired into the exit status.
struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// Everything one repetition reports. `exact` holds simulated results and
/// per-layer counts: deterministic for a given seed, so they feed the
/// sim_digest. `measured` holds host timings and traced-run-only outputs.
struct RepResult {
  std::map<std::string, double> exact;
  std::map<std::string, double> measured;
  /// Host seconds of each 1 ms run_until slice. The simulation is
  /// deterministic, so slice k does the same work in every repetition.
  std::vector<double> slice_s;
  std::vector<Check> checks;

  [[nodiscard]] std::uint64_t digest() const {
    Digest d;
    for (const auto& [name, value] : exact) {
      d.add(name);
      d.add(value);
    }
    return d.value();
  }
  void check(std::string name, bool ok, std::string detail) {
    checks.push_back({std::move(name), ok, std::move(detail)});
  }
};

/// Generated workload inputs; the same seed always gives the same inputs.
struct Inputs {
  std::vector<std::uint16_t> src_ports;    // per tenant frame (Zipf flows)
  std::vector<std::uint16_t> table_ports;  // lookup_zipf: installed flows
  std::vector<sim::Time> jitter;           // per (burst, sender) start offset
  std::uint64_t loss_seed = 0;             // memory-link fault stream
};

namespace spec {
// fa_counter: 64 B at 25 Gb/s over 4,096 Zipf(0.99) flows for 50 ms.
inline constexpr std::size_t kFaFrame = 64;
inline constexpr sim::Bandwidth kFaRate = sim::gbps(25);
inline constexpr sim::Time kFaWindow = sim::milliseconds(50);
inline constexpr std::uint64_t kFaFlows = 4096;
inline constexpr std::uint16_t kFaBasePort = 10000;
inline constexpr std::size_t kFaRegion = std::size_t{1} << 20;

// lookup_zipf: 250,000 x 256 B at 4.7 Gb/s over 1,024 Zipf(0.99) flows.
inline constexpr std::size_t kLtFrame = 256;
inline constexpr sim::Bandwidth kLtRate = sim::gbps(4.7);
inline constexpr std::uint64_t kLtFrames = 250'000;
inline constexpr std::uint64_t kLtFlows = 1024;
inline constexpr std::size_t kLtEntry = 2048;
inline constexpr std::size_t kLtRegion = std::size_t{1} << 26;
inline constexpr std::uint64_t kLtHashSeed = 0x9e3779b97f4a7c15ULL;
inline constexpr std::uint16_t kLtBasePort = 20000;

// incast_absorb: 2 -> 1, 1 MB bursts of 1500 B at 40 Gb/s every 1 ms.
inline constexpr int kAbSenders = 2;
inline constexpr std::uint64_t kAbBurstFrames = 667;  // ceil(1 MB / 1500 B)
inline constexpr std::uint64_t kAbBursts = 120;
inline constexpr sim::Time kAbPeriod = sim::milliseconds(1);

// incast_cc: per 7 ms epoch, 16 x 128 KiB incast + 2,800 4 KiB WRITEs.
inline constexpr int kCcSenders = 16;
inline constexpr std::uint64_t kCcBurstFrames = 88;  // ceil(128 KiB / 1500 B)
inline constexpr std::uint64_t kCcEpochs = 40;
inline constexpr sim::Time kCcEpoch = sim::milliseconds(7);
inline constexpr sim::Time kCcTenantStart = sim::microseconds(300);
inline constexpr std::uint64_t kCcOpsPerEpoch = 2800;
inline constexpr std::size_t kCcOpBytes = 4096;
// A 4 KiB WRITE is 4,170 B on the wire (834 ns at 40 Gb/s): 760 ns apart
// is ~1.1x the memory link.
inline constexpr sim::Time kCcOpInterval = sim::nanoseconds(760);
// DCQCN additive-increase step (default 40 Mb/s); see IncastCcWorkload.
inline constexpr sim::Bandwidth kCcAdditiveIncrease = sim::mbps(200);

inline constexpr sim::Time kMaxJitter = sim::microseconds(5);
inline constexpr std::uint16_t kDstPort = 9000;

/// `n` scaled to the run's span, never below 1.
inline std::uint64_t scaled(std::uint64_t n, double scale) {
  return std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::llround(static_cast<double>(n) * scale)));
}
}  // namespace spec

/// The five-tuple key the lookup table computes for a lookup_zipf frame
/// (h0 -> h1, UDP, source port `port`).
inline std::array<std::uint8_t, 13> lookup_key(std::uint16_t port) {
  net::FiveTuple t;
  t.src_ip = net::Ipv4Address::from_index(1);
  t.dst_ip = net::Ipv4Address::from_index(2);
  t.src_port = port;
  t.dst_port = spec::kDstPort;
  t.protocol = 17;
  return t.key_bytes();
}

inline Inputs make_inputs(WorkloadId id, std::uint64_t seed, double scale) {
  const sim::Rng stream = sim::Rng(seed).split(static_cast<std::uint64_t>(id));
  Inputs in;
  in.loss_seed = stream.stream_seed(2);
  sim::Rng draw = stream.split(0);
  auto zipf_ports = [&](std::uint64_t frames, std::uint64_t flows,
                        std::span<const std::uint16_t> port_of_flow) {
    sim::ZipfGenerator zipf(flows, 0.99, draw);
    in.src_ports.resize(frames);
    for (auto& p : in.src_ports) p = port_of_flow[zipf()];
  };
  auto jitter = [&](std::uint64_t bursts, int senders) {
    sim::Rng rng = stream.split(1);
    in.jitter.resize(bursts * static_cast<std::uint64_t>(senders));
    for (auto& j : in.jitter) {
      j = static_cast<sim::Time>(
          rng.uniform(static_cast<std::uint64_t>(spec::kMaxJitter)));
    }
  };
  switch (id) {
    case WorkloadId::kFaCounter: {
      std::vector<std::uint16_t> ports(spec::kFaFlows);
      for (std::size_t f = 0; f < ports.size(); ++f) {
        ports[f] = static_cast<std::uint16_t>(spec::kFaBasePort + f);
      }
      const auto frames = static_cast<std::uint64_t>(
          spec::kFaWindow /
          sim::transmission_time(spec::kFaFrame, spec::kFaRate));
      zipf_ports(spec::scaled(frames, scale), spec::kFaFlows, ports);
      break;
    }
    case WorkloadId::kLookupZipf: {
      // Flow f gets the f-th source port whose table index is still free,
      // so no two installed flows share a slot: the key check never drops
      // a packet, and every lookup miss is a real remote lookup.
      const std::size_t entries = spec::kLtRegion / spec::kLtEntry;
      std::vector<bool> used(entries, false);
      for (std::uint16_t port = spec::kLtBasePort;
           in.table_ports.size() < spec::kLtFlows; ++port) {
        const auto key = lookup_key(port);
        const std::uint64_t idx = core::LookupTablePrimitive::index_for_key(
            std::span<const std::uint8_t>(key.data(), key.size()), entries,
            spec::kLtHashSeed);
        if (used[idx]) continue;
        used[idx] = true;
        in.table_ports.push_back(port);
      }
      zipf_ports(spec::scaled(spec::kLtFrames, scale), spec::kLtFlows,
                 in.table_ports);
      break;
    }
    case WorkloadId::kIncastAbsorb:
      jitter(spec::scaled(spec::kAbBursts, scale), spec::kAbSenders);
      break;
    case WorkloadId::kIncastCc:
      jitter(spec::scaled(spec::kCcEpochs, scale), spec::kCcSenders);
      break;
  }
  return in;
}

/// Open-loop UDP source: frame i leaves at its scheduled time (burst start
/// + i * frame time at `rate`) whatever the network does, carrying a
/// ProbeHeader {i, scheduled time}.
class OpenLoopSource {
 public:
  struct Config {
    net::MacAddress dst_mac;
    net::Ipv4Address dst_ip;
    std::uint16_t src_port = 7000;
    std::size_t frame_size = 1500;
    sim::Bandwidth rate = sim::gbps(10);
    std::uint64_t frames_per_burst = 1;
    std::vector<sim::Time> burst_starts;
    /// Per-frame source ports (Zipf flows); empty = src_port throughout.
    std::span<const std::uint16_t> src_ports;
  };

  /// `send_cost` (traced run only) times every build_udp_packet +
  /// Host::send.
  OpenLoopSource(host::Host& host, Config config, LogHistogram* send_cost)
      : host_(&host),
        config_(std::move(config)),
        send_cost_(send_cost),
        interval_(sim::transmission_time(
            static_cast<std::int64_t>(config_.frame_size), config_.rate)),
        total_(config_.frames_per_burst * config_.burst_starts.size()) {}

  void start() {
    if (total_ > 0) host_->simulator().schedule_at(due(0), [this] { send(); });
  }
  [[nodiscard]] std::uint64_t sent() const { return next_; }
  /// First scheduled send, and the end of the last frame's slot.
  [[nodiscard]] sim::Time window_begin() const { return due(0); }
  [[nodiscard]] sim::Time window_end() const {
    return total_ == 0 ? 0 : due(total_ - 1) + interval_;
  }

 private:
  [[nodiscard]] sim::Time due(std::uint64_t i) const {
    const std::uint64_t burst = i / config_.frames_per_burst;
    const std::uint64_t k = i % config_.frames_per_burst;
    return config_.burst_starts[burst] + static_cast<sim::Time>(k) * interval_;
  }

  void send() {
    const std::int64_t t0 = send_cost_ != nullptr ? host_now_ns() : 0;
    constexpr std::size_t kHeaders = net::kEthernetHeaderBytes +
                                     net::kIpv4HeaderBytes +
                                     net::kUdpHeaderBytes;
    sim::Simulator& sim = host_->simulator();
    std::vector<std::uint8_t> payload(config_.frame_size - kHeaders, 0);
    host::ProbeHeader{next_, due(next_)}.write_to(payload);
    const std::uint16_t port = config_.src_ports.empty()
                                   ? config_.src_port
                                   : config_.src_ports[next_];
    net::Packet packet =
        net::build_udp_packet(host_->mac(), config_.dst_mac, host_->ip(),
                              config_.dst_ip, port, spec::kDstPort, payload);
    packet.meta().created = sim.now();
    packet.meta().app_seq = next_;
    host_->send(std::move(packet));
    if (send_cost_ != nullptr) {
      send_cost_->add(static_cast<std::uint64_t>(host_now_ns() - t0));
    }
    if (++next_ < total_) {
      sim.schedule_at(std::max(due(next_), sim.now()), [this] { send(); });
    }
  }

  host::Host* host_;
  Config config_;
  LogHistogram* send_cost_;
  sim::Time interval_;
  std::uint64_t total_;
  std::uint64_t next_ = 0;
};

/// The tenant receiver: a host::PacketSink fed from the host app handler,
/// plus per-sender sequence tracking (PacketSink keeps one global
/// sequence, which is meaningless with several senders).
class TenantSink {
 public:
  /// `accept_cost` (traced run only) times every PacketSink::accept.
  TenantSink(host::Host& host, LogHistogram* accept_cost)
      : sink_(host, /*install=*/false), accept_cost_(accept_cost) {
    host.set_app([this](net::Packet&& packet, int) { receive(packet); });
  }

  [[nodiscard]] host::PacketSink& sink() { return sink_; }
  [[nodiscard]] const host::PacketSink& sink() const { return sink_; }
  /// Frames that arrived behind a later frame of the same sender.
  [[nodiscard]] std::uint64_t out_of_order() const { return out_of_order_; }

 private:
  void receive(const net::Packet& packet) {
    if (accept_cost_ != nullptr) {
      const std::int64_t t0 = host_now_ns();
      sink_.accept(packet);
      accept_cost_->add(static_cast<std::uint64_t>(host_now_ns() - t0));
    } else {
      sink_.accept(packet);
    }
    constexpr std::size_t kSrcIp = net::kEthernetHeaderBytes + 12;
    constexpr std::size_t kProbe = net::kEthernetHeaderBytes +
                                   net::kIpv4HeaderBytes +
                                   net::kUdpHeaderBytes;
    const auto b = packet.bytes();
    if (b.size() < kProbe + host::ProbeHeader::kBytes) return;
    const std::uint32_t src = (std::uint32_t{b[kSrcIp]} << 24) |
                              (std::uint32_t{b[kSrcIp + 1]} << 16) |
                              (std::uint32_t{b[kSrcIp + 2]} << 8) |
                              std::uint32_t{b[kSrcIp + 3]};
    const std::uint64_t seq =
        host::ProbeHeader::read_from(b.subspan(kProbe)).sequence;
    std::uint64_t& expected = next_seq_[src];
    if (seq < expected) {
      ++out_of_order_;
    } else {
      expected = seq + 1;
    }
  }

  host::PacketSink sink_;
  LogHistogram* accept_cost_;
  std::map<std::uint32_t, std::uint64_t> next_seq_;
  std::uint64_t out_of_order_ = 0;
};

/// What the RNIC replay needs to rebuild memory server 0's responder.
struct RnicSetup {
  control::RdmaChannelConfig channel;
  rnic::NicProfile profile;
  roce::RoceEndpoint server;
  bool tolerate_psn_gaps = true;
  std::uint64_t naks_in_situ = 0;
};

/// Shared skeleton: setup (testbed, channels, primitive, population,
/// traffic) timed as setup_s, then the run to quiescence timed as run_s,
/// then collection of every simulated result and per-layer count.
class Workload {
 public:
  /// `tracer` is non-null only in the traced run.
  Workload(const Inputs& inputs, HostTracer* tracer)
      : in_(inputs), tracer_(tracer) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  void setup() {
    {
      HostTracer::Scope span(tracer_, "control.testbed");
      tb_ = std::make_unique<control::Testbed>(testbed_config());
    }
    if (tracer_ != nullptr) {
      ops_ = std::make_unique<telemetry::OpTracer>(tb_->sim(), "switch");
    }
    {
      HostTracer::Scope span(tracer_, "control.channels");
      build_channels();
    }
    {
      HostTracer::Scope span(tracer_, "control.primitive");
      build_primitive();
    }
    {
      HostTracer::Scope span(tracer_, "control.populate");
      populate();
    }
    HostTracer::Scope span(tracer_, "host.setup");
    sink_ = std::make_unique<TenantSink>(
        tb_->host(sink_host()),
        tracer_ != nullptr ? &tracer_->aggregate("host.sink_accept") : nullptr);
    build_traffic(tracer_ != nullptr ? &tracer_->aggregate("host.send") : nullptr);
    if (tracer_ != nullptr) {
      for (int i = 0; i < tb_->memory_server_count(); ++i) {
        memory_frames_.push_back(
            std::make_unique<FrameCapture>(tb_->memory_server_link(i)));
      }
      tenant_frames_ = std::make_unique<FrameCapture>(tb_->link_of(0));
    }
  }

  /// Drive the fixed simulated span to quiescence, in 1 ms slices.
  void run() {
    start_traffic();
    sim::Simulator& sim = tb_->sim();
    do {
      while (!sim.idle()) {
        HostTracer::Scope span(tracer_, "sim.run_until");
        const Stopwatch slice;
        sim.run_until(sim.now() + sim::milliseconds(1));
        slice_s_.push_back(slice.seconds());
        if (tracer_ != nullptr) {
          depth_samples_.push_back(
              static_cast<double>(sim.queue().live_count()));
        }
      }
    } while (on_idle());
  }

  [[nodiscard]] RepResult collect() {
    RepResult r;
    r.slice_s = slice_s_;
    collect_common(r);
    collect_specific(r);
    faults::InvariantChecker inv;
    add_invariants(inv);
    if (ops_) inv.require_no_open_spans(*ops_);
    const auto violations = inv.run();
    r.exact["faults.violations"] = static_cast<double>(violations.size());
    for (const auto& v : violations) {
      r.check("invariant:" + v.name, false, v.detail);
    }
    r.check("invariants", violations.empty(),
            std::to_string(inv.size()) + " invariants evaluated");
    const double posted = r.exact["core.ops_posted"];
    const double resent = r.exact["core.retransmits"];
    r.exact["core.useful_ratio"] =
        posted > 0 ? posted / (posted + resent) : 1.0;
    r.exact["failed_ratio"] =
        r.exact["attempted"] > 0 ? r.exact["failed"] / r.exact["attempted"] : 0;
    return r;
  }

  [[nodiscard]] telemetry::OpTracer* op_tracer() { return ops_.get(); }
  [[nodiscard]] const std::vector<double>& depth_samples() const {
    return depth_samples_;
  }
  [[nodiscard]] const FrameCapture& memory_frames(std::size_t i) const {
    return *memory_frames_.at(i);
  }
  [[nodiscard]] const FrameCapture& tenant_frames() const {
    return *tenant_frames_;
  }
  [[nodiscard]] RnicSetup rnic_setup() {
    rnic::Rnic& nic = tb_->memory_server(0).rnic();
    return {channel0_, nic.profile(), tb_->memory_server(0).endpoint(),
            nic.find_qp(channel0_.remote_qpn)->tolerate_psn_gaps,
            nic.stats().naks_sent};
  }
  /// LookupCache lookups the primitive performed in the run (0 if none).
  [[nodiscard]] virtual std::uint64_t cache_lookups() const { return 0; }
  /// Extra telemetry artifacts of the traced run: (file suffix, contents).
  [[nodiscard]] virtual std::vector<std::pair<std::string, std::string>>
  telemetry_exports() const {
    return {};
  }

 protected:
  [[nodiscard]] virtual control::Testbed::Config testbed_config() const = 0;
  virtual void build_channels() = 0;
  virtual void build_primitive() = 0;
  virtual void populate() {}
  virtual void build_traffic(LogHistogram* send_cost) = 0;
  [[nodiscard]] virtual int sink_host() const = 0;
  virtual void start_traffic() {
    for (auto& s : sources_) s->start();
  }
  /// Called whenever the event queue runs dry; return true after issuing
  /// more work (e.g. a flush) to keep driving.
  virtual bool on_idle() { return false; }
  virtual void collect_specific(RepResult& r) = 0;
  virtual void add_invariants(faults::InvariantChecker& inv) = 0;

  /// Tenant traffic h<sender> -> h<sink_host()>.
  void add_source(int sender, OpenLoopSource::Config config,
                  LogHistogram* send_cost) {
    config.dst_mac = tb_->host(sink_host()).mac();
    config.dst_ip = tb_->host(sink_host()).ip();
    sources_.push_back(std::make_unique<OpenLoopSource>(
        tb_->host(sender), std::move(config), send_cost));
  }

  /// Sum over the first-transmission ops of a channel set.
  static double ops_posted(const core::ChannelSet& set) {
    double n = 0;
    for (std::size_t i = 0; i < set.size(); ++i) {
      const auto& s = set.at(i).stats();
      n += static_cast<double>(s.writes_sent + s.reads_sent + s.atomics_sent);
    }
    return n;
  }
  static double paced_deferrals(const core::ChannelSet& set) {
    double n = 0;
    for (std::size_t i = 0; i < set.size(); ++i) {
      n += static_cast<double>(set.at(i).stats().paced_deferrals);
    }
    return n;
  }

  const Inputs& in_;
  HostTracer* tracer_;
  std::unique_ptr<control::Testbed> tb_;
  /// Memory server 0's channel, which the RNIC replay rebuilds.
  control::RdmaChannelConfig channel0_;
  std::unique_ptr<telemetry::OpTracer> ops_;
  std::unique_ptr<TenantSink> sink_;
  std::vector<std::unique_ptr<OpenLoopSource>> sources_;

 private:
  void collect_common(RepResult& r) {
    auto& e = r.exact;
    // Every workload reports every metric; the specific part overrides.
    for (const char* name :
         {"core.accumulated", "core.ring_peak", "core.retransmits",
          "core.cache_hit_ratio", "core.paced_deferrals", "telemetry.samples",
          "telemetry.int_records"}) {
      e[name] = 0;
    }
    control::Testbed& tb = *tb_;
    sim::Simulator& sim = tb.sim();
    e["sim.events"] = static_cast<double>(sim.events_executed());
    e["sim.span_ms"] = sim::to_milliseconds(sim.now());

    double frames = 0;
    double fault_drops = 0;
    for (int i = 0; i < tb.host_count(); ++i) {
      const topo::Link& l = tb.link_of(i);
      frames += static_cast<double>(l.tx_frames(0) + l.tx_frames(1));
      fault_drops += static_cast<double>(l.dropped_frames());
    }
    e["topo.frames"] = frames;
    e["topo.fault_drops"] = fault_drops;

    const auto& sw = tb.tor().stats();
    e["switchsim.received"] = static_cast<double>(sw.received);
    e["switchsim.consumed"] = static_cast<double>(sw.consumed);
    e["switchsim.buffer_drops"] = static_cast<double>(sw.buffer_drops);
    e["switchsim.pfc_xoff"] = static_cast<double>(sw.pfc_xoff_sent);
    std::int64_t tm_peak = 0;
    for (int p = 0; p < tb.tor().port_count(); ++p) {
      tm_peak = std::max(tm_peak, tb.tor().tm().port_stats(p).max_depth_bytes);
    }
    e["switchsim.tm_peak_kib"] = static_cast<double>(tm_peak) / 1024.0;

    double roce_frames = 0;
    double roce_bytes = 0;
    double requests = 0;
    double dma = 0;
    double registered = 0;
    double overflow = 0;
    double naks = 0;
    double cnps = 0;
    double ce_marked = 0;
    for (int i = 0; i < tb.memory_server_count(); ++i) {
      const topo::Link& l = tb.memory_server_link(i);
      roce_frames += static_cast<double>(l.tx_frames(0) + l.tx_frames(1));
      roce_bytes += static_cast<double>(l.tx_bytes(0) + l.tx_bytes(1));
      rnic::Rnic& nic = tb.memory_server(i).rnic();
      const auto& s = nic.stats();
      requests += static_cast<double>(s.requests_received);
      dma += static_cast<double>(s.bytes_written + s.bytes_read) +
             8.0 * static_cast<double>(s.atomics);
      registered += static_cast<double>(nic.memory().total_registered_bytes());
      overflow += static_cast<double>(s.requests_dropped_overflow);
      naks += static_cast<double>(s.naks_sent);
      cnps += static_cast<double>(s.cnps_sent);
      ce_marked += static_cast<double>(s.ce_marked_rx);
    }
    e["roce.frames"] = roce_frames;
    e["roce.kib"] = roce_bytes / 1024.0;
    e["rnic.requests"] = requests;
    e["rnic.dma_kib"] = dma / 1024.0;
    e["rnic.registered_mib"] = registered / (1024.0 * 1024.0);
    e["rnic.overflow_drops"] = overflow;
    e["rnic.naks"] = naks;
    e["rnic.cnps"] = cnps;
    e["switchsim.ecn_marked"] = ce_marked;

    std::uint64_t sent = 0;
    sim::Time begin = 0;
    sim::Time end = 0;
    for (std::size_t i = 0; i < sources_.size(); ++i) {
      const OpenLoopSource& s = *sources_[i];
      sent += s.sent();
      begin = i == 0 ? s.window_begin() : std::min(begin, s.window_begin());
      end = std::max(end, s.window_end());
    }
    const host::PacketSink& sink = sink_->sink();
    const std::uint64_t delivered = sink.packets();
    e["host.frames_sent"] = static_cast<double>(sent);
    e["tenant_delivered"] = static_cast<double>(delivered);
    e["goodput_gbps"] =
        end > begin ? static_cast<double>(sink.bytes()) * 8.0 /
                          sim::to_seconds(end - begin) / 1e9
                    : 0.0;
    const stats::Histogram& lat = sink.latency_us();
    // percentile() has an assert-only non-empty precondition.
    e["pkt_samples"] = static_cast<double>(lat.count());
    e["pkt_p50_us"] = lat.empty() ? 0.0 : lat.percentile(50);
    e["pkt_p99_us"] = lat.count() >= 1000 ? lat.percentile(99) : 0.0;
    e["attempted"] = static_cast<double>(sent);
    e["failed"] = static_cast<double>(sent > delivered ? sent - delivered : 0);
    r.check("tenant_delivered", delivered == sent,
            std::to_string(delivered) + "/" + std::to_string(sent) +
                " frames");
  }

  std::vector<std::unique_ptr<FrameCapture>> memory_frames_;
  std::unique_ptr<FrameCapture> tenant_frames_;
  std::vector<double> depth_samples_;
  std::vector<double> slice_s_;
};

// ---------------------------------------------------------------------
// fa_counter (Fig. 3b, §7): every 64 B frame is counted into a per-flow
// remote counter with reliable, exactly-once F&A over a lossy link.
// ---------------------------------------------------------------------
class FaCounterWorkload final : public Workload {
 public:
  using Workload::Workload;

 protected:
  control::Testbed::Config testbed_config() const override {
    control::Testbed::Config cfg;
    cfg.hosts = 2;
    cfg.memory_servers = 1;
    return cfg;
  }
  int sink_host() const override { return 1; }
  void build_channels() override {
    chan_ = tb_->controller().setup_channel(
        tb_->memory_server(0), tb_->memory_server_port(0),
        {.region_bytes = spec::kFaRegion, .tolerate_psn_gaps = false});
    channel0_ = chan_;
    tb_->memory_server_link(0).set_loss_rate(0.001, in_.loss_seed);
  }
  void build_primitive() override {
    store_ = std::make_unique<core::StateStorePrimitive>(
        tb_->tor(), chan_,
        core::StateStorePrimitive::Config{
            .reliable = true, .retransmit_timeout = sim::microseconds(200)});
    store_->attach_telemetry(nullptr, ops_.get(), "state_store");
  }
  void build_traffic(LogHistogram* send_cost) override {
    add_source(0,
               {.frame_size = spec::kFaFrame,
                .rate = spec::kFaRate,
                .frames_per_burst = in_.src_ports.size(),
                .burst_starts = {0},
                .src_ports = in_.src_ports},
               send_cost);
  }
  bool on_idle() override {
    // Drain: push every locally accumulated count out as a final F&A.
    if (store_->quiescent() || ++flushes_ > 50) return false;
    store_->flush();
    return true;
  }
  void collect_specific(RepResult& r) override {
    const auto& s = store_->stats();
    auto& e = r.exact;
    e["core.ops_posted"] = ops_posted(store_->channels());
    e["core.retransmits"] = static_cast<double>(s.retransmits);
    e["core.accumulated"] = static_cast<double>(s.accumulated);
    e["core.ring_peak"] = static_cast<double>(s.max_outstanding_seen);
    e["attempted"] += e["core.ops_posted"];
    const std::uint64_t counted = remote_total();
    e["failed"] += static_cast<double>(s.sampled_packets > counted
                                           ? s.sampled_packets - counted
                                           : counted - s.sampled_packets);
  }
  /// Exactly-once counting under loss: the drained store is quiescent and
  /// the remote counters sum to the sampled frames.
  void add_invariants(faults::InvariantChecker& inv) override {
    inv.require_state_store_exact(*store_, [this] { return remote_total(); });
  }

 private:
  [[nodiscard]] std::uint64_t remote_total() {
    auto region = control::ChannelController::region_bytes(
        tb_->memory_server(0), chan_);
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i + 8 <= region.size(); i += 8) {
      sum += rnic::load_le64(region.subspan(i, 8));
    }
    return sum;
  }

  control::RdmaChannelConfig chan_;
  std::unique_ptr<core::StateStorePrimitive> store_;
  int flushes_ = 0;
};

// ---------------------------------------------------------------------
// lookup_zipf (A10, Fig. 3a): bounce-mode lookups of 2 KiB entries with a
// 1% LFU cache in front; each miss is a WRITE deposit plus a 2 KiB READ.
// ---------------------------------------------------------------------
class LookupZipfWorkload final : public Workload {
 public:
  using Workload::Workload;

  std::uint64_t cache_lookups() const override {
    const auto& c = table_->cache().stats();
    return c.hits + c.misses + c.negative_hits;
  }

 protected:
  control::Testbed::Config testbed_config() const override {
    control::Testbed::Config cfg;
    cfg.hosts = 2;
    cfg.memory_servers = 1;
    // A10's deep RX ring: overload shows up as queueing delay, not as
    // silent tail drops at the NIC.
    cfg.nic.rx_queue_depth = std::size_t{1} << 16;
    return cfg;
  }
  int sink_host() const override { return 1; }
  void build_channels() override {
    chan_ = tb_->controller().setup_channel(
        tb_->memory_server(0), tb_->memory_server_port(0),
        {.region_bytes = spec::kLtRegion});
    channel0_ = chan_;
  }
  void build_primitive() override {
    table_ = std::make_unique<core::LookupTablePrimitive>(
        tb_->tor(), chan_,
        core::LookupTablePrimitive::Config{
            .entry_bytes = spec::kLtEntry,
            .cache_capacity = spec::kLtFlows / 100,
            .cache_policy = core::LookupCache::Policy::kLfu,
            .hash_seed = spec::kLtHashSeed,
            .lookup_timeout = sim::milliseconds(50)});
    table_->attach_telemetry(nullptr, ops_.get(), "lookup_table");
  }
  void populate() override {
    auto region = control::ChannelController::region_bytes(
        tb_->memory_server(0), chan_);
    switchsim::Action forward;
    forward.kind = switchsim::Action::Kind::kForward;
    forward.port = static_cast<std::uint16_t>(tb_->port_of(1));
    for (const std::uint16_t port : in_.table_ports) {
      const auto key = lookup_key(port);
      (void)core::LookupTablePrimitive::install_entry(
          region, spec::kLtEntry,
          std::span<const std::uint8_t>(key.data(), key.size()), forward,
          spec::kLtHashSeed);
    }
  }
  void build_traffic(LogHistogram* send_cost) override {
    add_source(0,
               {.frame_size = spec::kLtFrame,
                .rate = spec::kLtRate,
                .frames_per_burst = in_.src_ports.size(),
                .burst_starts = {0},
                .src_ports = in_.src_ports},
               send_cost);
  }
  void collect_specific(RepResult& r) override {
    const auto& s = table_->stats();
    auto& e = r.exact;
    e["core.ops_posted"] = ops_posted(table_->channels());
    const double keyed = static_cast<double>(s.cache_hits + s.remote_lookups);
    e["core.cache_hit_ratio"] =
        keyed > 0 ? static_cast<double>(s.cache_hits) / keyed : 0.0;
    e["attempted"] += e["core.ops_posted"];
    e["failed"] += static_cast<double>(
        s.lost_responses + s.collision_drops + s.degraded_passthrough +
        s.no_entry_drops + s.oversized_drops);
    r.check("lookup_no_loss",
            s.lost_responses == 0 && s.degraded_passthrough == 0 &&
                s.collision_drops == 0,
            "lost_responses=" + std::to_string(s.lost_responses) +
                " degraded_passthrough=" +
                std::to_string(s.degraded_passthrough) +
                " collision_drops=" + std::to_string(s.collision_drops));
  }
  void add_invariants(faults::InvariantChecker& inv) override {
    inv.add("lookup_drained", [this]() -> std::optional<std::string> {
      if (table_->outstanding() == 0) return std::nullopt;
      return std::to_string(table_->outstanding()) + " lookups outstanding";
    });
  }

 private:
  control::RdmaChannelConfig chan_;
  std::unique_ptr<core::LookupTablePrimitive> table_;
};

// ---------------------------------------------------------------------
// incast_absorb (Fig. 1a, T1): a packet buffer striped over two memory
// servers absorbs 120 repeated 2:1 incasts with reliable stores + loads.
// ---------------------------------------------------------------------
class IncastAbsorbWorkload final : public Workload {
 public:
  using Workload::Workload;

 protected:
  control::Testbed::Config testbed_config() const override {
    control::Testbed::Config cfg;
    cfg.hosts = spec::kAbSenders + 1;
    cfg.memory_servers = 2;
    return cfg;
  }
  int sink_host() const override { return spec::kAbSenders; }
  void build_channels() override {
    pool_ = tb_->setup_memory_pool(
        {.region_bytes = 16 * static_cast<std::size_t>(sim::kMiB)});
    channel0_ = pool_.at(0);
  }
  void build_primitive() override {
    buffer_ = std::make_unique<core::PacketBufferPrimitive>(
        tb_->tor(), pool_,
        core::PacketBufferPrimitive::Config{
            .watch_port = tb_->port_of(sink_host()),
            .divert_threshold_bytes = 100 * 1500,
            .resume_threshold_bytes = 30 * 1500,
            .entry_bytes = 1536,
            .reliable_stores = true,
            .reliable_loads = true});
    buffer_->attach_telemetry(nullptr, ops_.get(), "packet_buffer");
  }
  void build_traffic(LogHistogram* send_cost) override {
    const std::uint64_t bursts = in_.jitter.size() / spec::kAbSenders;
    for (int s = 0; s < spec::kAbSenders; ++s) {
      std::vector<sim::Time> starts(bursts);
      for (std::uint64_t b = 0; b < bursts; ++b) {
        starts[b] = static_cast<sim::Time>(b) * spec::kAbPeriod +
                    in_.jitter[b * spec::kAbSenders +
                               static_cast<std::uint64_t>(s)];
      }
      add_source(s,
                 {.src_port = static_cast<std::uint16_t>(7000 + s),
                  .frame_size = 1500,
                  .rate = sim::gbps(40),
                  .frames_per_burst = spec::kAbBurstFrames,
                  .burst_starts = std::move(starts)},
                 send_cost);
    }
  }
  void collect_specific(RepResult& r) override {
    const auto& s = buffer_->stats();
    auto& e = r.exact;
    e["core.ops_posted"] = ops_posted(buffer_->channels());
    e["core.retransmits"] = static_cast<double>(s.write_retries + s.read_retries);
    e["core.ring_peak"] = static_cast<double>(s.max_ring_depth);
    e["attempted"] += e["core.ops_posted"];
    e["failed"] += static_cast<double>(s.lost_loads + s.ring_full_drops +
                                       s.dead_stripe_drops);
    r.check("per_sender_fifo", sink_->out_of_order() == 0,
            std::to_string(sink_->out_of_order()) +
                " frames behind a later frame of their sender; " +
                std::to_string(s.stored) + " stored, " +
                std::to_string(s.loaded) + " loaded");
  }
  void add_invariants(faults::InvariantChecker& inv) override {
    inv.add("packet_buffer_drained", [this]() -> std::optional<std::string> {
      if (buffer_->quiescent()) return std::nullopt;
      return "ring depth " + std::to_string(buffer_->ring_depth());
    });
    inv.add("packet_buffer_no_loss", [this]() -> std::optional<std::string> {
      const auto& s = buffer_->stats();
      if (s.lost_loads + s.ring_full_drops + s.dead_stripe_drops == 0) {
        return std::nullopt;
      }
      return "lost_loads=" + std::to_string(s.lost_loads) +
             " ring_full_drops=" + std::to_string(s.ring_full_drops);
    });
  }

 private:
  std::vector<control::RdmaChannelConfig> pool_;
  std::unique_ptr<core::PacketBufferPrimitive> buffer_;
};

// ---------------------------------------------------------------------
// incast_cc (A11): a DCQCN+PFC channel posting acknowledged 4 KiB WRITEs
// at ~1.1x the memory link beside a 16:1 tenant incast, with 2% loss on
// the ACK/CNP direction and the telemetry plane on. WRITEs whose ACK does
// not arrive within kRto are reposted under their original PSN (the
// responder re-acks duplicates), so every op completes and the loss shows
// up as retransmits and op latency.
//
// Two ways an epoch can drop the tenant incast, and the sizing that rules
// them out on every seed:
// - The channel enters an epoch at line rate, unpaced. If every CNP is
//   lost until the WRITE queue alone reaches the PFC XOFF threshold, PFC
//   pauses the memory server (its CNPs included) for a whole quantum and
//   the queue fills the shared buffer. At 1.3x the link this took two lost
//   CNPs in a row (~1 run in 20); at 1.1x it takes about seven.
// - When DCQCN recovery reaches line rate, the pacer backlog flushes at
//   wire speed. Recovery must therefore end between epochs: with the
//   default 40 Mb/s additive step it ended as late as 6.96 ms into a 7 ms
//   epoch; with 200 Mb/s it ends 3.4-5.5 ms in.
// ---------------------------------------------------------------------
class IncastCcWorkload final : public Workload {
 public:
  using Workload::Workload;

  std::vector<std::pair<std::string, std::string>> telemetry_exports()
      const override {
    return {{"metrics.json", registry_.to_json()},
            {"timeseries.json", recorder_->to_json()},
            {"int_flows.json", collector_.flows_json()}};
  }

 protected:
  static constexpr sim::Time kRto = sim::milliseconds(5);
  static constexpr std::uint32_t kMaxTries = 16;

  control::Testbed::Config testbed_config() const override {
    control::Testbed::Config cfg;
    cfg.hosts = spec::kCcSenders + 1;
    cfg.memory_servers = 1;
    cfg.switch_config.tm.shared_buffer_bytes = 100 * 1500;
    cfg.switch_config.tm.ecn_mark_threshold_bytes = 9000;
    // ConnectX-class CNP spacing. With the 50 us default, losing the one
    // CNP of an epoch's first marking burst lets the WRITE backlog fill
    // the shared buffer before the next CNP; PFC then pauses the memory
    // server (CNPs included) for a full quantum and the tenant incast is
    // dropped — in ~2% of epochs, so in most seeds.
    cfg.nic.cnp_min_interval = sim::microseconds(4);
    return cfg;
  }
  int sink_host() const override { return spec::kCcSenders; }
  void build_channels() override {
    chan_ = tb_->controller().setup_channel(
        tb_->memory_server(0), tb_->memory_server_port(0),
        {.region_bytes = 64 * 1024, .tolerate_psn_gaps = true});
    channel0_ = chan_;
    // Loss on the control loop only: ACKs and CNPs from the server.
    tb_->memory_server_link(0).set_loss_rate(0.02, in_.loss_seed,
                                             /*direction=*/1);
    tb_->tor().enable_pfc(20 * 1500, 10 * 1500, /*priority_class=*/3);
  }
  void build_primitive() override {
    set_ = std::make_unique<core::ChannelSet>(
        tb_->tor(), std::vector<control::RdmaChannelConfig>{chan_});
    set_->enable_congestion_control(
        {.additive_increase = spec::kCcAdditiveIncrease});
    set_->attach_telemetry(&registry_, ops_.get(), "chan");
    tb_->memory_server(0).register_metrics(registry_, "memsrv");
    recorder_ = std::make_unique<telemetry::TimeSeriesRecorder>(
        tb_->sim(), telemetry::TimeSeriesRecorder::Config{
                        .period = sim::microseconds(20), .capacity = 512});
    recorder_->track_prefix(registry_, "chan");
    recorder_->track_prefix(registry_, "memsrv");
    tb_->enable_int();
    collector_.register_metrics(registry_, "int");
    tb_->tor().add_ingress_stage(
        "xmem-bench-ops",
        [this](switchsim::PipelineContext& ctx) { on_response(ctx); });
    payload_.assign(spec::kCcOpBytes, 0xd6);
    const std::uint64_t epochs = in_.jitter.size() / spec::kCcSenders;
    op_state_.resize(epochs * spec::kCcOpsPerEpoch);
  }
  void build_traffic(LogHistogram* send_cost) override {
    sink_->sink().set_int_collector(&collector_);
    const std::uint64_t epochs = in_.jitter.size() / spec::kCcSenders;
    for (int s = 0; s < spec::kCcSenders; ++s) {
      std::vector<sim::Time> starts(epochs);
      for (std::uint64_t e = 0; e < epochs; ++e) {
        starts[e] = static_cast<sim::Time>(e) * spec::kCcEpoch +
                    spec::kCcTenantStart +
                    in_.jitter[e * spec::kCcSenders +
                               static_cast<std::uint64_t>(s)];
      }
      add_source(s,
                 {.src_port = static_cast<std::uint16_t>(7000 + s),
                  .frame_size = 1500,
                  .rate = sim::gbps(30),
                  .frames_per_burst = spec::kCcBurstFrames,
                  .burst_starts = std::move(starts)},
                 send_cost);
    }
  }
  void start_traffic() override {
    Workload::start_traffic();
    recorder_->start();
    sim::Simulator& sim = tb_->sim();
    const sim::Time end =
        static_cast<sim::Time>(op_state_.size() / spec::kCcOpsPerEpoch) *
        spec::kCcEpoch;
    sim.schedule_at(end, [this] { recorder_->stop(); });
    if (!op_state_.empty()) sim.schedule_at(op_due(0), [this] { post(0); });
  }
  void collect_specific(RepResult& r) override {
    auto& e = r.exact;
    e["core.ops_posted"] = ops_posted(*set_);
    e["core.retransmits"] = static_cast<double>(retransmits_);
    e["core.paced_deferrals"] = paced_deferrals(*set_);
    e["telemetry.samples"] =
        static_cast<double>(recorder_->ticks() * recorder_->series_count());
    e["telemetry.int_records"] = static_cast<double>(collector_.hop_records());
    e["attempted"] += e["core.ops_posted"];
    e["failed"] += static_cast<double>(op_state_.size() - acked_);
    r.check("ops_acknowledged", acked_ == op_state_.size(),
            std::to_string(acked_) + "/" + std::to_string(op_state_.size()) +
                " WRITEs acknowledged, " + std::to_string(retransmits_) +
                " reposted");
  }
  void add_invariants(faults::InvariantChecker& inv) override {
    inv.require_cc_sane(*set_);
  }

 private:
  struct OpState {
    sim::Time due = 0;
    std::uint32_t tries = 0;
    bool acked = false;
  };

  [[nodiscard]] static sim::Time op_due(std::uint64_t i) {
    return static_cast<sim::Time>(i / spec::kCcOpsPerEpoch) * spec::kCcEpoch +
           static_cast<sim::Time>(i % spec::kCcOpsPerEpoch) *
               spec::kCcOpInterval;
  }
  [[nodiscard]] std::uint64_t op_va(std::uint64_t i) const {
    return chan_.base_va + (i % 16) * spec::kCcOpBytes;
  }
  [[nodiscard]] roce::Psn op_psn(std::uint64_t i) const {
    return roce::psn_add(first_psn_, static_cast<std::uint32_t>(i));
  }

  void post(std::uint64_t i) {
    sim::Simulator& sim = tb_->sim();
    const roce::Psn psn = set_->at(0).post_write(op_va(i), payload_, true);
    if (i == 0) first_psn_ = psn;
    op_state_[i].due = sim.now();
    arm_rto(i);
    if (i + 1 < op_state_.size()) {
      sim.schedule_at(op_due(i + 1), [this, i] { post(i + 1); });
    }
  }
  void arm_rto(std::uint64_t i) {
    tb_->sim().schedule_in(kRto, [this, i] {
      OpState& op = op_state_[i];
      if (op.acked || op.tries >= kMaxTries) return;
      ++op.tries;
      ++retransmits_;
      set_->at(0).repost_write(op_va(i), payload_, op_psn(i));
      arm_rto(i);
    });
  }
  void on_response(switchsim::PipelineContext& ctx) {
    auto msg = core::roce_view(ctx);
    if (!msg) return;
    auto shard = set_->owner_of(*msg);
    if (!shard) return;
    ctx.consume();
    if (set_->maybe_cnp(*shard, *msg)) return;
    if (msg->opcode() != roce::Opcode::kAcknowledge || !msg->aeth ||
        msg->aeth->is_nak()) {
      return;
    }
    const auto i = static_cast<std::uint64_t>(
        roce::psn_distance(first_psn_, msg->bth.psn));
    if (i >= op_state_.size() || op_state_[i].acked) return;
    op_state_[i].acked = true;
    ++acked_;
    set_->at(0).trace_complete(msg->bth.psn);
  }

  control::RdmaChannelConfig chan_;
  std::unique_ptr<core::ChannelSet> set_;
  telemetry::MetricsRegistry registry_;
  std::unique_ptr<telemetry::TimeSeriesRecorder> recorder_;
  telemetry::IntCollector collector_;
  std::vector<std::uint8_t> payload_;
  std::vector<OpState> op_state_;
  roce::Psn first_psn_;
  std::uint64_t acked_ = 0;
  std::uint64_t retransmits_ = 0;
};

inline std::unique_ptr<Workload> make_workload(WorkloadId id,
                                               const Inputs& inputs,
                                               HostTracer* tracer) {
  switch (id) {
    case WorkloadId::kFaCounter:
      return std::make_unique<FaCounterWorkload>(inputs, tracer);
    case WorkloadId::kLookupZipf:
      return std::make_unique<LookupZipfWorkload>(inputs, tracer);
    case WorkloadId::kIncastAbsorb:
      return std::make_unique<IncastAbsorbWorkload>(inputs, tracer);
    case WorkloadId::kIncastCc:
      return std::make_unique<IncastCcWorkload>(inputs, tracer);
  }
  return nullptr;
}

}  // namespace xmem::xbench
