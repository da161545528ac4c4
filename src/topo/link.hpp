// Full-duplex point-to-point link with serialization delay, propagation
// delay, a configurable fault model (uniform or Gilbert–Elliott burst
// loss, frame corruption, duplication, reordering, delay jitter — for
// the §7 drop-tolerance experiments and the chaos harness) and a tap
// for traffic accounting.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "net/packet.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/units.hpp"
#include "telemetry/metrics.hpp"
#include "topo/node.hpp"

namespace xmem::topo {

/// Two-state Markov loss model: the channel alternates between a good
/// state (loss_good, usually 0) and a bad/burst state (loss_bad, high).
/// Transition probabilities are evaluated once per frame, so burst
/// lengths are geometric with mean 1/exit_bad. Mean loss rate is
///   pi_bad * loss_bad + (1 - pi_bad) * loss_good,
/// with pi_bad = enter_bad / (enter_bad + exit_bad).
struct GilbertElliott {
  double enter_bad = 0.0;  ///< P(good -> bad) per frame.
  double exit_bad = 1.0;   ///< P(bad -> good) per frame.
  double loss_good = 0.0;  ///< Frame loss probability in the good state.
  double loss_bad = 0.0;   ///< Frame loss probability in the bad state.

  /// Long-run average loss rate of the chain.
  [[nodiscard]] double mean_loss() const {
    const double denom = enter_bad + exit_bad;
    if (denom <= 0.0) return loss_good;
    const double pi_bad = enter_bad / denom;
    return pi_bad * loss_bad + (1.0 - pi_bad) * loss_good;
  }
};

/// Everything a link can do to a frame besides delivering it intact.
/// All probabilities are per-frame and evaluated independently; a frame
/// is first subjected to loss, then (if surviving) corruption,
/// duplication, reordering and jitter.
struct LinkFaultProfile {
  /// Uniform independent loss (kept as the special case burst=nullopt).
  double loss_rate = 0.0;
  /// Burst loss; when set it replaces `loss_rate`.
  std::optional<GilbertElliott> burst;
  /// Flip one payload byte (past the L2/L3/L4 headers, so RoCE frames
  /// deterministically fail ICRC while staying parseable as UDP).
  double corrupt_rate = 0.0;
  /// Deliver the frame twice (second copy after `duplicate_gap`).
  double duplicate_rate = 0.0;
  sim::Time duplicate_gap = sim::nanoseconds(500);
  /// Hold the frame an extra `reorder_delay` so later frames overtake it.
  double reorder_rate = 0.0;
  sim::Time reorder_delay = sim::microseconds(2);
  /// Uniform extra delay in [0, jitter_max] applied to every frame.
  sim::Time jitter_max = 0;

  [[nodiscard]] bool active() const {
    return loss_rate > 0.0 || burst.has_value() || corrupt_rate > 0.0 ||
           duplicate_rate > 0.0 || reorder_rate > 0.0 || jitter_max > 0;
  }
};

class Link {
 public:
  /// Called for each frame as it finishes serializing onto the wire.
  /// `from_end` is 0 or 1.
  using Tap = std::function<void(const net::Packet&, sim::Time, int from_end)>;

  Link(sim::Simulator& simulator, sim::Bandwidth rate, sim::Time propagation)
      : sim_(&simulator), rate_(rate), propagation_(propagation) {}

  /// Wire one end (0 or 1) of the link to `node`'s port `port_index`.
  void attach(int end, Node& node, int port_index);

  [[nodiscard]] sim::Bandwidth rate() const { return rate_; }
  [[nodiscard]] sim::Time propagation() const { return propagation_; }

  /// Independent uniform frame loss (0 disables). Deterministic per seed.
  /// `direction` limits loss to frames sent from that end (0 or 1);
  /// -1 applies to both directions. Shorthand for set_fault_profile with
  /// only `loss_rate` set.
  void set_loss_rate(double rate, std::uint64_t seed = 1, int direction = -1);

  /// Install (or, with a default-constructed profile, clear) the full
  /// fault model. Deterministic per seed; `direction` as above.
  void set_fault_profile(const LinkFaultProfile& profile,
                         std::uint64_t seed = 1, int direction = -1);
  [[nodiscard]] const LinkFaultProfile& fault_profile() const {
    return fault_;
  }

  void set_tap(Tap tap) { tap_ = std::move(tap); }

  /// Tag frames crossing the link with an INT hop record carrying the
  /// sender-side FIFO wait (ingress = when the frame was queued on the
  /// port, egress = serialization completion) and the FIFO depth left
  /// behind. Links are INT *sources*: a frame without a stack gets one
  /// here (subject to the filter below); a frame already tagged upstream
  /// always gets this hop appended.
  void enable_int(std::uint16_t hop_id) {
    int_enabled_ = true;
    int_hop_id_ = hop_id;
  }

  /// Restrict which frames this link *starts* a stack on (return false =
  /// don't tag). Frames already carrying a stack are appended to
  /// regardless — mid-path elements never truncate telemetry. The
  /// canonical use is excluding the RoCE memory fabric's own traffic so
  /// monitoring tenant flows costs nothing per F&A round trip.
  void set_int_filter(std::function<bool(const net::Packet&)> filter) {
    int_filter_ = std::move(filter);
  }

  [[nodiscard]] std::uint64_t dropped_frames() const { return dropped_; }
  [[nodiscard]] std::uint64_t corrupted_frames() const { return corrupted_; }
  [[nodiscard]] std::uint64_t duplicated_frames() const { return duplicated_; }
  [[nodiscard]] std::uint64_t reordered_frames() const { return reordered_; }

  /// Bytes/frames that finished serializing from `end` (0 or 1),
  /// counting frames the loss model then discarded.
  [[nodiscard]] std::int64_t tx_bytes(int end) const {
    return tx_bytes_[end];
  }
  [[nodiscard]] std::uint64_t tx_frames(int end) const {
    return tx_frames_[end];
  }
  /// Fraction of the link's capacity used by `end` since t=0 (0 when the
  /// simulation has not advanced).
  [[nodiscard]] double utilization(int end) const;

  /// Register both directions' tx counters, drop/fault counters and live
  /// utilization gauges as `<prefix>/end<0|1>/...`.
  void register_metrics(telemetry::MetricsRegistry& registry,
                        const std::string& prefix);

  /// Used by Port: ship a fully serialized frame to the far end.
  /// `when_serialized` is the time serialization completed.
  void deliver(int from_end, net::Packet&& packet, sim::Time when_serialized);

 private:
  struct End {
    Node* node = nullptr;
    int port = -1;
  };

  [[nodiscard]] bool fault_applies(int from_end) const {
    return fault_direction_ == -1 || fault_direction_ == from_end;
  }
  [[nodiscard]] bool roll_loss();
  void ship(const End& to, net::Packet&& packet, sim::Time when);

  sim::Simulator* sim_;
  sim::Bandwidth rate_;
  sim::Time propagation_;
  End ends_[2];
  LinkFaultProfile fault_;
  bool int_enabled_ = false;
  std::uint16_t int_hop_id_ = 0;
  std::function<bool(const net::Packet&)> int_filter_;
  int fault_direction_ = -1;
  bool burst_bad_ = false;
  sim::Rng fault_rng_;
  Tap tap_;
  std::uint64_t dropped_ = 0;
  std::uint64_t corrupted_ = 0;
  std::uint64_t duplicated_ = 0;
  std::uint64_t reordered_ = 0;
  std::int64_t tx_bytes_[2] = {0, 0};
  std::uint64_t tx_frames_[2] = {0, 0};
};

/// Convenience: create a link on `simulator` connecting new ports on two
/// nodes; returns the link (caller keeps ownership via unique_ptr).
std::unique_ptr<Link> connect(sim::Simulator& simulator, Node& a, Node& b,
                              sim::Bandwidth rate, sim::Time propagation,
                              int* port_a = nullptr, int* port_b = nullptr);

}  // namespace xmem::topo
