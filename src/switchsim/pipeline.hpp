// The pipeline context handed to every match-action stage.
#pragma once

#include <functional>
#include <optional>
#include <string>

#include "net/packet.hpp"
#include "roce/packet.hpp"
#include "sim/time.hpp"

namespace xmem::switchsim {

inline constexpr int kNoPort = -1;

class ProgrammableSwitch;

struct PipelineContext {
  net::Packet packet;
  /// The parser's RoCEv2 view, ICRC verified; nullopt for every other
  /// frame. A RoCEv2 frame that fails the check never reaches a stage.
  std::optional<roce::RoceMessage> roce;
  int ingress_port = kNoPort;
  int egress_port = kNoPort;
  sim::Time now = 0;

  /// Terminal verdicts a stage can issue.
  void drop() { drop_ = true; }
  /// The stage has taken ownership of the packet's fate (diverted it to
  /// remote memory, absorbed an RDMA response, ...). Skips forwarding
  /// without counting as a drop.
  void consume() { consumed_ = true; }

  [[nodiscard]] bool dropped() const { return drop_; }
  [[nodiscard]] bool consumed() const { return consumed_; }
  [[nodiscard]] bool finished() const { return drop_ || consumed_; }

 private:
  bool drop_ = false;
  bool consumed_ = false;
};

/// A pipeline stage: a named function over the context. Stages run in
/// registration order until one issues a terminal verdict.
struct Stage {
  std::string name;
  std::function<void(PipelineContext&)> fn;
};

}  // namespace xmem::switchsim
