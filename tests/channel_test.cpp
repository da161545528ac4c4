// Integration tests for the control plane + data-plane RDMA channel: the
// switch crafts RoCE requests, the server RNIC executes them against
// registered DRAM, responses come back to the switch pipeline — with the
// server CPU never involved (the paper's Goal #2).
#include <gtest/gtest.h>

#include "control/testbed.hpp"
#include "core/primitive.hpp"
#include "core/rdma_channel.hpp"

namespace xmem::core {
namespace {

using control::ChannelController;
using control::Testbed;

class ChannelTest : public ::testing::Test {
 protected:
  ChannelTest() {
    config_ = tb_.controller().setup_channel(tb_.host(2), tb_.port_of(2),
                                             {.region_bytes = 1 << 16});
    channel_ = std::make_unique<RdmaChannel>(tb_.tor(), config_);
    // A capture stage standing in for a primitive's response handler.
    tb_.tor().add_ingress_stage("capture", [this](switchsim::PipelineContext& ctx) {
      if (const auto* msg = roce_view(ctx)) {
        if (channel_->owns(*msg)) {
          responses_.push_back(*msg);
          ctx.consume();
        }
      }
    });
  }

  std::span<std::uint8_t> region() {
    return ChannelController::region_bytes(tb_.host(2), config_);
  }

  Testbed tb_;
  control::RdmaChannelConfig config_;
  std::unique_ptr<RdmaChannel> channel_;
  std::vector<roce::RoceMessage> responses_;
};

TEST_F(ChannelTest, SetupProducesConsistentConfig) {
  EXPECT_EQ(config_.remote.mac, tb_.host(2).mac());
  EXPECT_EQ(config_.region_bytes, std::size_t{1 << 16});
  EXPECT_EQ(config_.switch_port, tb_.port_of(2));
  EXPECT_NE(config_.local_qpn, config_.remote_qpn);
  // The server-side QP exists and is armed.
  auto* qp = tb_.host(2).rnic().find_qp(config_.remote_qpn);
  ASSERT_NE(qp, nullptr);
  EXPECT_EQ(qp->state, rnic::QpState::kReadyToReceive);
  EXPECT_EQ(qp->remote_qpn, config_.local_qpn);
}

TEST_F(ChannelTest, DistinctChannelsGetDistinctResources) {
  auto second = tb_.controller().setup_channel(tb_.host(2), tb_.port_of(2),
                                               {.region_bytes = 4096});
  EXPECT_NE(second.local_qpn, config_.local_qpn);
  EXPECT_NE(second.remote_qpn, config_.remote_qpn);
  EXPECT_NE(second.rkey, config_.rkey);
  EXPECT_NE(second.base_va, config_.base_va);
}

TEST_F(ChannelTest, SwitchWriteLandsInServerDram) {
  tb_.sim().schedule_at(0, [&] {
    channel_->post_write(config_.base_va + 64, std::vector<std::uint8_t>{5, 6, 7});
  });
  tb_.sim().run();
  EXPECT_EQ(region()[64], 5);
  EXPECT_EQ(region()[66], 7);
  EXPECT_EQ(channel_->stats().writes_sent, 1u);
  EXPECT_EQ(tb_.host(2).cpu_packets(), 0u) << "zero CPU involvement";
}

TEST_F(ChannelTest, SwitchReadBringsDataBack) {
  region()[100] = 0xbe;
  region()[101] = 0xef;
  tb_.sim().schedule_at(0, [&] { channel_->post_read(config_.base_va + 100, 2); });
  tb_.sim().run();
  ASSERT_EQ(responses_.size(), 1u);
  EXPECT_EQ(responses_[0].opcode(), roce::Opcode::kRdmaReadResponseOnly);
  ASSERT_EQ(responses_[0].payload.size(), 2u);
  EXPECT_EQ(responses_[0].payload[0], 0xbe);
  EXPECT_EQ(responses_[0].payload[1], 0xef);
  EXPECT_EQ(tb_.host(2).cpu_packets(), 0u);
}

TEST_F(ChannelTest, SwitchFetchAddCountsRemotely) {
  tb_.sim().schedule_at(0, [&] { channel_->post_fetch_add(config_.base_va, 3); });
  tb_.sim().schedule_at(sim::microseconds(50),
                        [&] { channel_->post_fetch_add(config_.base_va, 4); });
  tb_.sim().run();
  EXPECT_EQ(rnic::load_le64(region().subspan(0, 8)), 7u);
  ASSERT_EQ(responses_.size(), 2u);
  EXPECT_EQ(responses_[0].opcode(), roce::Opcode::kAtomicAcknowledge);
  EXPECT_EQ(responses_[0].atomic_ack->original_value, 0u);
  EXPECT_EQ(responses_[1].atomic_ack->original_value, 3u);
}

TEST_F(ChannelTest, MultiMtuWriteSegmentsFromSwitch) {
  std::vector<std::uint8_t> big(10000);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i % 251);
  }
  tb_.sim().schedule_at(0, [&] { channel_->post_write(config_.base_va, big); });
  tb_.sim().run();
  for (std::size_t i = 0; i < big.size(); i += 1009) {
    ASSERT_EQ(region()[i], big[i]) << i;
  }
  // PSN advanced by 3 segments (4096+4096+1808).
  EXPECT_EQ(channel_->next_psn(), roce::Psn(3));
}

TEST_F(ChannelTest, PsnRegisterTracksReadSegments) {
  EXPECT_EQ(channel_->segments(0), 1u);
  EXPECT_EQ(channel_->segments(1), 1u);
  EXPECT_EQ(channel_->segments(4096), 1u);
  EXPECT_EQ(channel_->segments(4097), 2u);
  tb_.sim().schedule_at(0, [&] { channel_->post_read(config_.base_va, 9000); });
  tb_.sim().run();
  EXPECT_EQ(channel_->next_psn(), roce::Psn(3));
  EXPECT_EQ(responses_.size(), 3u);
}

TEST_F(ChannelTest, RequestBytesMatchWireFormat) {
  tb_.sim().schedule_at(0, [&] { channel_->post_fetch_add(config_.base_va, 1); });
  tb_.sim().run();
  // Eth 14 + IP 20 + UDP 8 + BTH 12 + AtomicETH 28 + ICRC 4 = 86.
  EXPECT_EQ(channel_->stats().request_bytes, 86);
}

TEST_F(ChannelTest, RegionBytesRejectsUnknownRkey) {
  control::RdmaChannelConfig bogus = config_;
  bogus.rkey = 0xdddd;
  EXPECT_THROW(ChannelController::region_bytes(tb_.host(2), bogus),
               std::invalid_argument);
}

}  // namespace
}  // namespace xmem::core
