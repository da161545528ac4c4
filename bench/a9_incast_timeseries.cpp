// A9 (observability) — the telemetry pipeline watching a live failure.
//
// Two senders incast onto one sink while the ToR counts every packet in
// a reliable state store backed by a single memory server. Mid-run the
// chaos harness hangs that server's RNIC, then restarts it; the control
// plane reconnects the channel against the new NIC epoch and the store
// reposts its held window. A TimeSeriesRecorder samples the store's
// metrics throughout — the acks_received rate IS the remote-memory
// goodput — so the outage appears in the exported series as a dip to
// zero and a recovery to the pre-fault level, while reliable mode keeps
// the counters exact across the epoch change. The exported JSON
// (--timeseries <path>) is what tools/xmem_report renders.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "control/testbed.hpp"
#include "core/state_store.hpp"
#include "faults/fault_plan.hpp"
#include "faults/fault_scheduler.hpp"
#include "host/sink.hpp"
#include "host/traffic_gen.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/sim_metrics.hpp"
#include "telemetry/timeseries.hpp"

using namespace xmem;

namespace {

constexpr std::uint64_t kPacketsPerGen = 7000;
constexpr sim::Time kHangAt = sim::microseconds(900);
constexpr sim::Time kRestartAt = sim::microseconds(1500);

/// Mean of a series over a half-open sim-time window.
double window_mean(const std::vector<telemetry::TimeSeriesRecorder::Point>& pts,
                   sim::Time lo, sim::Time hi) {
  double sum = 0;
  std::uint64_t n = 0;
  for (const auto& p : pts) {
    if (p.t < lo || p.t >= hi) continue;
    sum += p.value;
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::banner("A9 (observability)",
                "incast goodput time series across an RNIC restart",
                "live sampling shows the outage dip and the post-reconnect "
                "recovery; reliable counters stay exact throughout");
  bench::BenchResults results(argc, argv);
  const std::string ts_path =
      bench::flag_value(argc, argv, "--timeseries");

  control::Testbed tb({.hosts = 3, .memory_servers = 1});

  // Reliable store on the single memory server: strict RC so the repost
  // path after the epoch change stays exactly-once.
  control::ChannelController::ChannelSpec spec;
  spec.region_bytes = 4096;
  spec.tolerate_psn_gaps = false;
  auto configs = tb.setup_memory_pool(spec);
  core::StateStorePrimitive store(
      tb.tor(), configs,
      {.reliable = true, .retransmit_timeout = sim::microseconds(50)});

  // Telemetry plane: registry + armed flight recorder + sampler. The
  // flight ring gets the shard's down/up transitions and the fault
  // actions; the sampler tracks every store metric at 25 us resolution
  // and derives the goodput rate from the acks_received counter.
  telemetry::MetricsRegistry registry;
  telemetry::FlightRecorder flight(tb.sim());
  flight.set_registry(&registry);
  telemetry::register_sim_metrics(registry, tb.sim());
  store.attach_telemetry(&registry, nullptr, "store");
  store.channels().set_flight_recorder(&flight);

  // Scripted outage: hang the memory server's RNIC, restart it 600 us
  // later. The restart hook is the control plane: rebuild the channel
  // against the new epoch (fresh QPN/PSN/rkey) and hand it to the store,
  // which reclaims and reposts its held window. initial_psn = the
  // requester's next PSN so pre-crash reposts land as duplicates, not
  // gaps.
  faults::FaultPlan plan;
  plan.events.push_back(faults::FaultEvent::rnic_hang(kHangAt, 0));
  plan.events.push_back(faults::FaultEvent::rnic_restart(kRestartAt, 0));
  faults::FaultScheduler sched(tb.sim(), std::move(plan));
  sched.add_server(tb.memory_server(0).rnic());
  sched.set_flight_recorder(&flight);
  sched.register_metrics(registry, "faults");
  sched.set_restart_hook([&](int /*server*/) {
    control::ChannelController::ChannelSpec re = spec;
    re.initial_psn = store.channels().at(0).next_psn();
    configs[0] = tb.controller().reconnect(tb.memory_server(0), configs[0], re);
    store.reconnect(0, configs[0]);
  });
  sched.start();

  telemetry::TimeSeriesRecorder recorder(
      tb.sim(), telemetry::TimeSeriesRecorder::Config{
                    .period = sim::microseconds(25), .capacity = 4096});
  recorder.track_prefix(registry, "store");
  recorder.track_prefix(registry, "faults");
  recorder.track_rate(registry, "store/acks_received", "ops/s");
  recorder.start();

  // Incast: two senders, one sink, every data packet counted at the ToR.
  host::PacketSink sink(tb.host(2));
  host::CbrTrafficGen gen_a(tb.host(0), {.dst_mac = tb.host(2).mac(),
                                         .dst_ip = tb.host(2).ip(),
                                         .src_port = 7000,
                                         .frame_size = 128,
                                         .rate = sim::gbps(2),
                                         .packet_limit = kPacketsPerGen});
  host::CbrTrafficGen gen_b(tb.host(1), {.dst_mac = tb.host(2).mac(),
                                         .dst_ip = tb.host(2).ip(),
                                         .src_port = 7100,
                                         .frame_size = 128,
                                         .rate = sim::gbps(2),
                                         .packet_limit = kPacketsPerGen});
  gen_a.start();
  gen_b.start();

  // The sampler keeps the event queue populated forever, so drive the
  // sim in bounded slices; flush and drain once the senders finish.
  for (int i = 0; i < 1000; ++i) {
    tb.sim().run_until(tb.sim().now() + sim::microseconds(100));
    if (gen_a.packets_sent() < kPacketsPerGen ||
        gen_b.packets_sent() < kPacketsPerGen) {
      continue;
    }
    if (store.quiescent()) break;
    store.flush();
  }
  recorder.stop();

  // Exactness across the epoch change.
  auto region =
      control::ChannelController::region_bytes(tb.memory_server(0), configs[0]);
  std::uint64_t counted = 0;
  for (std::size_t i = 0; i + 8 <= region.size(); i += 8) {
    counted += rnic::load_le64(region.subspan(i, 8));
  }
  const std::uint64_t sampled = store.stats().sampled_packets;

  // Goodput phases, straight off the recorded series. The outage window
  // starts one retransmit round after the hang (in-flight acks drain
  // first) and ends at the restart; recovery gets a settling gap for the
  // reconnect + repost round trip.
  const auto goodput = recorder.points("store/acks_received/rate");
  const double pre =
      window_mean(goodput, sim::microseconds(200), kHangAt);
  const double out =
      window_mean(goodput, kHangAt + sim::microseconds(100), kRestartAt);
  const double post = window_mean(goodput, kRestartAt + sim::microseconds(200),
                                  sim::microseconds(3300));
  const double dip_ratio = pre > 0 ? out / pre : 1.0;
  const double recovery_ratio = pre > 0 ? post / pre : 0.0;

  // The shard's health transitions, as the flight ring recorded them.
  std::uint64_t ring_downs = 0;
  std::uint64_t ring_ups = 0;
  for (const auto& e : flight.events()) {
    if (e.subject != 0) continue;
    if (e.kind == static_cast<std::uint8_t>(
                      telemetry::FlightEventKind::kChannelDown)) {
      ++ring_downs;
    } else if (e.kind == static_cast<std::uint8_t>(
                             telemetry::FlightEventKind::kChannelUp)) {
      ++ring_ups;
    }
  }
  const auto& shard = store.channels().shard_stats(0);

  stats::TablePrinter table({"phase", "window", "goodput"});
  table.add_row({"pre-fault", "200..900 us",
                 stats::TablePrinter::num(pre / 1e6) + " Mops"});
  table.add_row({"outage (RNIC hung)", "1000..1500 us",
                 stats::TablePrinter::num(out / 1e6) + " Mops"});
  table.add_row({"recovered", "1700..3300 us",
                 stats::TablePrinter::num(post / 1e6) + " Mops"});
  table.print("A9-a: remote-memory goodput through the fault");

  stats::TablePrinter summary({"metric", "value"});
  summary.add_row({"packets counted / sampled", std::to_string(counted) + "/" +
                                                    std::to_string(sampled)});
  summary.add_row({"retransmits",
                   std::to_string(store.stats().retransmits)});
  summary.add_row({"failover reissues",
                   std::to_string(store.stats().failover_reissues)});
  summary.add_row({"RNIC epoch after restart",
                   std::to_string(tb.memory_server(0).rnic().epoch())});
  summary.add_row({"time-series",
                   std::to_string(recorder.series_count()) + " series x " +
                       std::to_string(recorder.ticks()) + " ticks"});
  summary.add_row({"flight-recorder events",
                   std::to_string(flight.total_recorded())});
  summary.print("A9-b: outcome");

  if (!ts_path.empty()) {
    results.write_timeseries(ts_path, recorder.to_json());
  }

  results.add("goodput_pre_mops", pre / 1e6, "Mops");
  results.add("goodput_outage_mops", out / 1e6, "Mops");
  results.add("goodput_recovered_mops", post / 1e6, "Mops");
  results.add("dip_ratio", dip_ratio, "ratio");
  results.add("recovery_ratio", recovery_ratio, "ratio");
  results.add("accuracy_pct",
              100.0 * static_cast<double>(counted) /
                  static_cast<double>(sampled),
              "%");

  results.verdict(counted == sampled && sampled > 0,
                  "reliable counters stayed exact across the RNIC restart");
  results.verdict(sched.stats().rnic_hangs == 1 &&
                      sched.stats().rnic_restarts == 1 &&
                      tb.memory_server(0).rnic().epoch() == 1,
                  "fault plan executed: one hang, one restart, new NIC epoch");
  results.verdict(dip_ratio < 0.25,
                  "goodput series shows the outage (dip below 25% of "
                  "pre-fault)");
  results.verdict(recovery_ratio > 0.75,
                  "goodput series shows the recovery (back above 75% of "
                  "pre-fault)");
  results.verdict(flight.total_recorded() >= 2,
                  "flight recorder captured the fault actions");
  results.verdict(ring_downs >= 1 && ring_ups >= 1 &&
                      ring_downs == shard.down_transitions &&
                      ring_ups == shard.up_transitions,
                  "flight recorder holds the shard's channel_down and "
                  "channel_up events");
  return results.finish();
}
