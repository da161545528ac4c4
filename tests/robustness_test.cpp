// Robustness/property tests: the RoCE parser against random mutation
// (line noise must never crash or mis-parse silently past the ICRC),
// CompareSwap semantics, and multi-QP isolation on one RNIC.
#include <gtest/gtest.h>

#include <map>

#include "control/testbed.hpp"
#include "core/primitive.hpp"
#include "core/rdma_channel.hpp"
#include "rnic/rnic.hpp"
#include "roce/packet.hpp"
#include "sim/rng.hpp"

namespace xmem {
namespace {

using roce::Opcode;
using roce::RoceMessage;

roce::RoceEndpoint ep(int i) {
  return {net::MacAddress::from_index(static_cast<std::uint16_t>(i)),
          net::Ipv4Address::from_index(static_cast<std::uint16_t>(i)),
          0xc000};
}

// ---- Parser fuzz ------------------------------------------------------
TEST(RoceFuzz, SingleBitFlipsNeverParseValid) {
  // Any single-bit corruption after the Ethernet header must be caught
  // by the ICRC (or header validation) — parse_roce_packet returns
  // nullopt, never garbage, never a crash — except in the fields the
  // ICRC masks and nothing else checks: the UDP checksum (bytes 40-41)
  // and BTH resv8a (byte 46). ToS, TTL and the IP checksum are masked
  // too, but their flips fail the IPv4 header checksum.
  auto write = [](std::uint32_t len) {
    RoceMessage msg;
    msg.bth.opcode = Opcode::kRdmaWriteOnly;
    msg.bth.dest_qp = 0x42;
    msg.bth.psn = roce::Psn(77);
    msg.reth = roce::Reth{0x1000, 0xaa, len};
    msg.payload.assign(len, 0x5a);
    return msg;
  };
  RoceMessage read_response;
  read_response.bth.opcode = Opcode::kRdmaReadResponseOnly;
  read_response.bth.dest_qp = 0x42;
  read_response.bth.psn = roce::Psn(78);
  read_response.aeth = roce::Aeth{roce::AckSyndrome::kAck, 3};
  read_response.payload.assign(1536, 0xa5);

  const std::map<std::size_t, int> masked{{40, 8}, {41, 8}, {46, 8}};
  for (const RoceMessage& msg : {write(32), write(1500), read_response}) {
    const net::Packet frame = roce::build_roce_packet(ep(1), ep(2), msg);
    std::map<std::size_t, int> survivors;  // byte offset -> bits
    for (std::size_t byte = net::kEthernetHeaderBytes; byte < frame.size();
         ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        net::Packet mutated = frame.clone();
        mutated.mutable_bytes()[byte] ^= static_cast<std::uint8_t>(1 << bit);
        if (roce::parse_roce_packet(mutated).has_value()) ++survivors[byte];
      }
    }
    EXPECT_EQ(survivors, masked)
        << roce::to_string(msg.opcode()) << ", " << frame.size() << " B";
  }
}

TEST(RoceFuzz, RandomGarbageNeverCrashesParser) {
  sim::Rng rng(1234);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::size_t len = 1 + rng.uniform(200);
    std::vector<std::uint8_t> junk(len);
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next());
    net::Packet p(std::move(junk));
    // Must not throw; almost always nullopt.
    EXPECT_NO_THROW({ auto r = roce::parse_roce_packet(p); (void)r; });
  }
}

TEST(RoceFuzz, TruncationsNeverCrashResponder) {
  control::Testbed tb;
  auto& nic = tb.host(2).rnic();
  auto& mr = nic.memory().register_region(4096, rnic::Access::kAll);
  auto& qp = nic.create_qp();
  nic.connect_qp(qp.qpn, ep(1), 0x99, roce::Psn(0));

  RoceMessage msg;
  msg.bth.opcode = Opcode::kRdmaWriteOnly;
  msg.bth.dest_qp = qp.qpn;
  msg.reth = roce::Reth{mr.base_va(), mr.rkey(), 16};
  msg.payload.assign(16, 1);
  const net::Packet frame =
      roce::build_roce_packet(ep(1), tb.host(2).endpoint(), msg);

  for (std::size_t len = 1; len < frame.size(); ++len) {
    net::Packet truncated(
        std::vector<std::uint8_t>(frame.bytes().begin(),
                                  frame.bytes().begin() +
                                      static_cast<std::ptrdiff_t>(len)));
    EXPECT_NO_THROW((void)nic.handle_frame(truncated));
  }
  tb.sim().run();
  EXPECT_EQ(nic.stats().writes, 0u) << "no truncation may execute";
}

// ---- CompareSwap ------------------------------------------------------
// The responder executes CAS even though no requester in the simulator
// issues it: the tests hand-build the request frames.
class CompareSwapTest : public ::testing::Test {
 protected:
  CompareSwapTest() {
    config_ = tb_.controller().setup_channel(tb_.host(2), tb_.port_of(2),
                                             {.region_bytes = 4096});
    next_psn_ = config_.initial_psn;
    tb_.tor().add_ingress_stage(
        "capture", [this](switchsim::PipelineContext& ctx) {
          if (const auto* msg = core::roce_view(ctx);
              msg && msg->bth.dest_qp == config_.local_qpn &&
              msg->atomic_ack) {
            originals_.push_back(msg->atomic_ack->original_value);
            ctx.consume();
          }
        });
  }

  std::span<std::uint8_t> region() {
    return control::ChannelController::region_bytes(tb_.host(2), config_);
  }

  /// Inject a CAS on the region's first word toward the memory server.
  void compare_swap(std::uint64_t compare, std::uint64_t swap) {
    RoceMessage msg;
    msg.bth.opcode = Opcode::kCompareSwap;
    msg.bth.dest_qp = config_.remote_qpn;
    msg.bth.psn = next_psn_;
    msg.atomic_eth = roce::AtomicEth{config_.base_va, config_.rkey, swap,
                                     compare};
    next_psn_ = roce::psn_add(next_psn_, 1);
    tb_.tor().inject(
        roce::build_roce_packet(config_.local, config_.remote, msg),
        config_.switch_port);
  }

  control::Testbed tb_;
  control::RdmaChannelConfig config_;
  roce::Psn next_psn_;
  std::vector<std::uint64_t> originals_;
};

TEST_F(CompareSwapTest, SwapsWhenCompareMatches) {
  rnic::store_le64(region().subspan(0, 8), 100);
  tb_.sim().schedule_at(0, [&] {
    compare_swap(/*compare=*/100, /*swap=*/777);
  });
  tb_.sim().run();
  ASSERT_EQ(originals_.size(), 1u);
  EXPECT_EQ(originals_[0], 100u);
  EXPECT_EQ(rnic::load_le64(region().subspan(0, 8)), 777u);
}

TEST_F(CompareSwapTest, LeavesValueWhenCompareFails) {
  rnic::store_le64(region().subspan(0, 8), 5);
  tb_.sim().schedule_at(0, [&] {
    compare_swap(/*compare=*/100, /*swap=*/777);
  });
  tb_.sim().run();
  ASSERT_EQ(originals_.size(), 1u);
  EXPECT_EQ(originals_[0], 5u) << "the prior value is still returned";
  EXPECT_EQ(rnic::load_le64(region().subspan(0, 8)), 5u) << "no swap";
}

TEST_F(CompareSwapTest, TwoRacersOnlyOneWins) {
  // Two CAS(0 -> id) on the same word: exactly one sees 0.
  tb_.sim().schedule_at(0, [&] {
    compare_swap(0, 111);
    compare_swap(0, 222);
  });
  tb_.sim().run();
  ASSERT_EQ(originals_.size(), 2u);
  EXPECT_EQ(originals_[0], 0u) << "first claim wins";
  EXPECT_EQ(originals_[1], 111u) << "second sees the winner";
  EXPECT_EQ(rnic::load_le64(region().subspan(0, 8)), 111u);
}

// ---- Multi-QP isolation -----------------------------------------------
TEST(MultiQp, ChannelsOnOneRnicDoNotInterfere) {
  control::Testbed tb;
  auto a = tb.controller().setup_channel(tb.host(2), tb.port_of(2),
                                         {.region_bytes = 4096});
  auto b = tb.controller().setup_channel(tb.host(2), tb.port_of(2),
                                         {.region_bytes = 4096});
  core::RdmaChannel chan_a(tb.tor(), a);
  core::RdmaChannel chan_b(tb.tor(), b);
  tb.tor().add_ingress_stage("sink-roce",
                             [&](switchsim::PipelineContext& ctx) {
                               if (core::roce_view(ctx)) ctx.consume();
                             });

  tb.sim().schedule_at(0, [&] {
    chan_a.post_write(a.base_va, std::vector<std::uint8_t>{1, 1, 1});
    chan_b.post_write(b.base_va, std::vector<std::uint8_t>{2, 2, 2});
  });
  tb.sim().run();

  auto ra = control::ChannelController::region_bytes(tb.host(2), a);
  auto rb = control::ChannelController::region_bytes(tb.host(2), b);
  EXPECT_EQ(ra[0], 1);
  EXPECT_EQ(rb[0], 2);
  // Cross-region writes are impossible: rkeys differ and regions are
  // disjoint; verify via a deliberate wrong-rkey write.
  auto bogus = a;
  bogus.rkey = b.rkey;  // right region, wrong channel's key over QP a...
  core::RdmaChannel chan_bogus(tb.tor(), bogus);
  tb.sim().schedule_at(tb.sim().now() + 1000, [&] {
    // VA from region a with rkey from region b: out of b's bounds.
    chan_bogus.post_write(a.base_va + 100, std::vector<std::uint8_t>{9});
  });
  tb.sim().run();
  EXPECT_EQ(ra[100], 0) << "must not land";
  // Only the two legitimate writes executed: the bogus one was refused
  // (as a stale duplicate on QP a's sequence, or by the bounds check).
  EXPECT_EQ(tb.host(2).rnic().stats().writes, 2u);
}

}  // namespace
}  // namespace xmem
