#include "topo/node.hpp"

#include <algorithm>
#include <cassert>

#include "topo/link.hpp"

namespace xmem::topo {

void Port::send(net::Packet&& packet) {
  assert(link_ != nullptr && "Port::send on unconnected port");
  packet.meta().enqueued = sim_->now();
  fifo_.push_back(std::move(packet));
  if (paused()) ++hol_blocked_packets_;
  if (!busy_) start_next_transmission();
}

void Port::apply_pause(sim::Time until) {
  const sim::Time now = sim_->now();
  // Settle paused time accrued under the previous edict before it is
  // replaced; the accessor reports the live remainder on the fly.
  const sim::Time settled_end = std::min(now, pause_until_);
  if (settled_end > pause_accrued_to_) {
    pause_time_total_ += settled_end - pause_accrued_to_;
  }
  pause_accrued_to_ = now;
  const bool was_paused = now < pause_until_;
  pause_until_ = until;
  resume_event_.cancel();
  if (paused()) {
    if (!was_paused) {
      // New pause episode: everything already queued is now blocked.
      hol_blocked_packets_ += fifo_.size();
    }
    // Arrange to restart when the pause lapses (an XON will cancel and
    // resume sooner via the path below).
    resume_event_ = sim_->schedule_at(pause_until_, [this]() {
      if (!busy_) start_next_transmission();
    });
  } else if (!busy_) {
    start_next_transmission();
  }
}

bool Port::paused() const { return sim_->now() < pause_until_; }

sim::Time Port::pause_time_total() const {
  const sim::Time live_end = std::min(sim_->now(), pause_until_);
  sim::Time total = pause_time_total_;
  if (live_end > pause_accrued_to_) total += live_end - pause_accrued_to_;
  return total;
}

void Port::start_next_transmission() {
  if (paused()) {
    busy_ = false;
    return;  // resume_event_ will call back when the pause lapses
  }
  if (fifo_.empty()) {
    busy_ = false;
    if (idle_callback_) idle_callback_();
    return;
  }
  busy_ = true;
  net::Packet packet = std::move(fifo_.front());
  fifo_.pop_front();

  const sim::Time tx =
      sim::transmission_time(packet.wire_size(), link_->rate());
  ++tx_packets_;
  tx_bytes_ += static_cast<std::int64_t>(packet.size());

  const sim::Time done = sim_->now() + tx;
  // Hand the frame to the link at serialization completion, then look for
  // more work. The link adds propagation delay before the far end sees it.
  auto serialized = [this, p = std::move(packet), done]() mutable {
    link_->deliver(link_end_, std::move(p), done);
    start_next_transmission();
  };
  static_assert(sim::InlineFunction::fits_inline<decltype(serialized)>(),
                "every port event would heap-allocate its capture");
  sim_->schedule_at(done, std::move(serialized));
}

}  // namespace xmem::topo
