// Example: surviving an incast with the remote packet buffer (§2.1).
//
// Four senders burst 8 MB at a single receiver behind a deliberately
// small 1.5 MB switch buffer. Run once without the primitive (watch the
// drops), once with it (lossless), printing a live queue-depth trace.
//
// With a trace path, the remote-buffer run records telemetry: one span
// per RDMA op plus queue/ring counter tracks, written as Chrome
// trace-event JSON — load it at https://ui.perfetto.dev.
//
//   $ ./example_incast_remote_buffer [--trace incast.json]
#include <cstdio>
#include <string>
#include <vector>

#include "control/testbed.hpp"
#include "core/packet_buffer.hpp"
#include "host/sink.hpp"
#include "host/traffic_gen.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/op_tracer.hpp"
#include "telemetry/timeseries.hpp"

using namespace xmem;

namespace {

constexpr int kSenders = 4;
constexpr std::int64_t kBurstPerSender = 2 * sim::kMB;

void run(bool with_remote_buffer, const std::string& trace_path = "") {
  std::printf("\n--- %s ---\n", with_remote_buffer
                                    ? "WITH remote packet buffer (2 servers)"
                                    : "baseline drop-tail switch");
  control::Testbed::Config cfg;
  cfg.hosts = kSenders + 1 + 2;  // senders + receiver + 2 memory servers
  cfg.switch_config.tm.shared_buffer_bytes = 1'500'000;  // tiny: 1.5 MB
  control::Testbed tb(cfg);
  const int receiver = kSenders;

  std::unique_ptr<core::PacketBufferPrimitive> pb;
  if (with_remote_buffer) {
    std::vector<control::RdmaChannelConfig> stripes;
    for (int s = 0; s < 2; ++s) {
      const int host = kSenders + 1 + s;
      stripes.push_back(tb.controller().setup_channel(
          tb.host(host), tb.port_of(host),
          {.region_bytes = 16 * static_cast<std::size_t>(sim::kMiB)}));
    }
    pb = std::make_unique<core::PacketBufferPrimitive>(
        tb.tor(), stripes,
        core::PacketBufferPrimitive::Config{
            .watch_port = tb.port_of(receiver),
            .divert_threshold_bytes = 100 * 1500,
            .resume_threshold_bytes = 30 * 1500,
            .entry_bytes = 1536});
  }

  // Optional telemetry: registry for the final snapshot, tracer for the
  // op-span timeline, recorder for the depth counter tracks.
  telemetry::MetricsRegistry registry;
  telemetry::OpTracer tracer(tb.sim(), "incast");
  const bool tracing = !trace_path.empty();
  if (tracing) {
    tb.tor().register_metrics(registry, "switch0");
    if (pb) {
      pb->attach_telemetry(&registry, &tracer, "switch0/pktbuf");
    }
  }

  host::PacketSink sink(tb.host(receiver));
  std::vector<host::Host*> senders;
  for (int i = 0; i < kSenders; ++i) senders.push_back(&tb.host(i));
  host::IncastCoordinator incast(senders,
                                 {.dst_mac = tb.host(receiver).mac(),
                                  .dst_ip = tb.host(receiver).ip(),
                                  .frame_size = 1500,
                                  .burst_bytes_per_sender = kBurstPerSender,
                                  .sender_rate = sim::gbps(15)});
  incast.start(0);

  // True until the senders are done and the queue and ring have drained.
  auto settling = [&]() {
    const bool backlog =
        tb.tor().tm().depth_bytes(tb.port_of(receiver)) > 0 ||
        (pb && pb->ring_depth() > 0);
    return !incast.all_finished() || backlog;
  };

  // Periodic queue/ring depth trace.
  std::function<void()> trace = [&]() {
    const double ms = sim::to_milliseconds(tb.sim().now());
    std::printf("t=%4.1f ms  switch queue %7lld B  ring %6lld entries  "
                "delivered %5llu  drops %llu\n",
                ms,
                static_cast<long long>(
                    tb.tor().tm().depth_bytes(tb.port_of(receiver))),
                static_cast<long long>(pb ? pb->ring_depth() : 0),
                static_cast<unsigned long long>(sink.packets()),
                static_cast<unsigned long long>(tb.tor().tm().total_drops()));
    if (settling()) tb.sim().schedule_in(sim::microseconds(250), trace);
  };
  tb.sim().schedule_at(sim::microseconds(100), trace);

  // Counter tracks mirroring the printed trace: egress-queue depth and
  // remote-ring depth, sampled into the tracer until the incast settles.
  telemetry::TimeSeriesRecorder recorder(
      tb.sim(), {.period = sim::microseconds(25),
                 .until = settling,
                 .tracer = &tracer});
  if (tracing) {
    recorder.track(registry, "switch0/tm/port" +
                                 std::to_string(tb.port_of(receiver)) +
                                 "/queue_depth_bytes");
    if (pb) recorder.track(registry, "switch0/pktbuf/ring_depth");
    recorder.start();
  }

  tb.sim().run();

  const std::uint64_t sent = incast.total_packets_sent();
  std::printf("result: sent=%llu delivered=%llu dropped=%llu (%.1f%%)\n",
              static_cast<unsigned long long>(sent),
              static_cast<unsigned long long>(sink.packets()),
              static_cast<unsigned long long>(sent - sink.packets()),
              100.0 * static_cast<double>(sent - sink.packets()) /
                  static_cast<double>(sent));
  if (pb) {
    std::printf("remote buffer: stored=%llu loaded=%llu max depth=%lld "
                "entries, reordering=0 guaranteed\n",
                static_cast<unsigned long long>(pb->stats().stored),
                static_cast<unsigned long long>(pb->stats().loaded),
                static_cast<long long>(pb->stats().max_ring_depth));
  }
  if (tracing) {
    if (tracer.write_chrome_trace(trace_path)) {
      std::printf("telemetry: %llu spans (%llu still open), %llu counter "
                  "samples -> %s (load in https://ui.perfetto.dev)\n",
                  static_cast<unsigned long long>(tracer.stats().spans_opened),
                  static_cast<unsigned long long>(tracer.open_spans()),
                  static_cast<unsigned long long>(
                      tracer.stats().counter_samples),
                  trace_path.c_str());
    } else {
      std::fprintf(stderr, "telemetry: cannot write %s\n", trace_path.c_str());
    }
    const std::string metrics_path = trace_path + ".metrics.json";
    if (registry.write_json(metrics_path)) {
      std::printf("telemetry: metrics snapshot -> %s\n", metrics_path.c_str());
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--trace") trace_path = argv[i + 1];
  }
  std::printf("Incast: %d senders x %lld MB burst into one 40 Gb/s port, "
              "1.5 MB switch buffer\n",
              kSenders, static_cast<long long>(kBurstPerSender / sim::kMB));
  run(false);
  run(true, trace_path);
  return 0;
}
