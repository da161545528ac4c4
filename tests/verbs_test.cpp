// Host-side verbs requester tests: native server-to-server one-sided
// RDMA over the simulated fabric — writes (incl. multi-MTU), reads,
// atomics, completions, and go-back-N recovery under loss. The loss and
// pipelining cases also pin the requester's wire schedule: a digest of
// every frame on both hosts' links, with the sim time and link end it
// left from.
#include <gtest/gtest.h>

#include <array>

#include "control/testbed.hpp"
#include "core/verbs.hpp"
#include "net/flow.hpp"
#include "telemetry/op_tracer.hpp"

namespace xmem::rnic {
namespace {

using control::Testbed;
using core::RcRequester;
using core::RdmaChannel;
using core::WorkCompletion;

class VerbsTest : public ::testing::Test {
 protected:
  VerbsTest() : tb_() {
    // host 0 = requester, host 1 = memory server.
    auto& server = tb_.host(1);
    mr_ = &server.rnic().memory().register_region(1 << 20, Access::kAll);
    server_qp_ = &server.rnic().create_qp();

    auto& client = tb_.host(0);
    client_qp_ = &client.rnic().create_qp();

    server.rnic().connect_qp(server_qp_->qpn, client.endpoint(),
                             client_qp_->qpn,
                             /*expected_psn=*/roce::Psn(100));
    requester_ = std::make_unique<RcRequester>(tb_.sim(), client.rnic(),
                                               client_qp_->qpn);
    requester_->connect(server.endpoint(), server_qp_->qpn, roce::Psn(100),
                        mr_->rkey());
    for (int link = 0; link < 2; ++link) {
      tb_.link_of(link).set_tap(
          [this, link](const net::Packet& frame, sim::Time at, int from_end) {
            std::array<std::uint8_t, 10> stamp{};
            for (std::size_t i = 0; i < 8; ++i) {
              stamp[i] = static_cast<std::uint8_t>(
                  static_cast<std::uint64_t>(at) >> (8 * i));
            }
            stamp[8] = static_cast<std::uint8_t>(link);
            stamp[9] = static_cast<std::uint8_t>(from_end);
            wire_ = net::fnv1a(frame.bytes(), net::fnv1a(stamp, wire_));
          });
    }
  }

  Testbed tb_;
  MemoryRegion* mr_ = nullptr;
  QueuePair* server_qp_ = nullptr;
  QueuePair* client_qp_ = nullptr;
  std::unique_ptr<RcRequester> requester_;
  std::uint64_t wire_ = net::fnv1a({});  // digest of every frame on the wire
};

TEST_F(VerbsTest, SmallWriteCompletesAndLands) {
  bool done = false;
  requester_->post_write(mr_->base_va() + 8, {1, 2, 3},
                         [&](const WorkCompletion& wc) {
                           EXPECT_TRUE(wc.success);
                           done = true;
                         });
  tb_.sim().run();
  EXPECT_TRUE(done);
  EXPECT_EQ(mr_->bytes()[8], 1);
  EXPECT_EQ(mr_->bytes()[10], 3);
}

TEST_F(VerbsTest, LargeWriteSegmentsAndReassembles) {
  std::vector<std::uint8_t> data(20000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 31);
  }
  bool done = false;
  requester_->post_write(mr_->base_va(), data,
                         [&](const WorkCompletion& wc) {
                           EXPECT_TRUE(wc.success);
                           done = true;
                         });
  tb_.sim().run();
  ASSERT_TRUE(done);
  for (std::size_t i = 0; i < data.size(); i += 997) {
    ASSERT_EQ(mr_->bytes()[i], data[i]) << "at " << i;
  }
  // 20000 bytes at MTU 4096 = 5 packets, one message.
  EXPECT_EQ(server_qp_->writes_executed, 1u);
  EXPECT_EQ(server_qp_->epsn, roce::Psn(105));
}

TEST_F(VerbsTest, ReadReturnsData) {
  auto window = mr_->window(mr_->base_va() + 100, 4);
  window[0] = 0xca;
  window[3] = 0xfe;
  std::vector<std::uint8_t> got;
  requester_->post_read(mr_->base_va() + 100, 4,
                        [&](const WorkCompletion& wc) {
                          EXPECT_TRUE(wc.success);
                          got = wc.read_data;
                        });
  tb_.sim().run();
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got[0], 0xca);
  EXPECT_EQ(got[3], 0xfe);
}

TEST_F(VerbsTest, LargeReadReassemblesSegments) {
  auto bytes = mr_->bytes();
  for (std::size_t i = 0; i < 10000; ++i) {
    bytes[i] = static_cast<std::uint8_t>(i * 7);
  }
  std::vector<std::uint8_t> got;
  requester_->post_read(mr_->base_va(), 10000,
                        [&](const WorkCompletion& wc) { got = wc.read_data; });
  tb_.sim().run();
  ASSERT_EQ(got.size(), 10000u);
  for (std::size_t i = 0; i < got.size(); i += 503) {
    ASSERT_EQ(got[i], static_cast<std::uint8_t>(i * 7)) << i;
  }
}

TEST_F(VerbsTest, FetchAddReturnsOriginal) {
  store_le64(mr_->window(mr_->base_va(), 8), 7);
  std::uint64_t original = 0;
  requester_->post_fetch_add(mr_->base_va(), 5,
                             [&](const WorkCompletion& wc) {
                               original = wc.atomic_original;
                             });
  tb_.sim().run();
  EXPECT_EQ(original, 7u);
  EXPECT_EQ(load_le64(mr_->window(mr_->base_va(), 8)), 12u);
}

TEST_F(VerbsTest, PipelinedWritesCompleteInOrder) {
  std::vector<std::uint64_t> completions;
  for (std::uint64_t i = 0; i < 50; ++i) {
    requester_->post_write(
        mr_->base_va() + i * 64,
        std::vector<std::uint8_t>(64, static_cast<std::uint8_t>(i)),
        [&completions](const WorkCompletion& wc) {
          completions.push_back(wc.wr_id);
        },
        /*wr_id=*/i);
  }
  tb_.sim().run();
  ASSERT_EQ(completions.size(), 50u);
  for (std::uint64_t i = 0; i < 50; ++i) EXPECT_EQ(completions[i], i);
  EXPECT_EQ(mr_->bytes()[49 * 64], 49);
  EXPECT_EQ(wire_, 0xc325ef65350b4ee2ULL);
}

TEST_F(VerbsTest, MixedOpsInterleaveCorrectly) {
  store_le64(mr_->window(mr_->base_va() + 512, 8), 1000);
  int completed = 0;
  requester_->post_write(mr_->base_va(), {42},
                         [&](const WorkCompletion&) { ++completed; });
  requester_->post_fetch_add(mr_->base_va() + 512, 1,
                             [&](const WorkCompletion& wc) {
                               EXPECT_EQ(wc.atomic_original, 1000u);
                               ++completed;
                             });
  requester_->post_read(mr_->base_va(), 1,
                        [&](const WorkCompletion& wc) {
                          ASSERT_EQ(wc.read_data.size(), 1u);
                          EXPECT_EQ(wc.read_data[0], 42);
                          ++completed;
                        });
  tb_.sim().run();
  EXPECT_EQ(completed, 3);
  EXPECT_EQ(wire_, 0x16c31bbc816ca2e1ULL);
}

TEST_F(VerbsTest, RecoversFromRequestLossViaNakOrTimeout) {
  // Drop ~20% of frames between client and switch; go-back-N must still
  // deliver everything exactly once.
  tb_.link_of(0).set_loss_rate(0.2, 11);
  int completed = 0;
  for (std::uint64_t i = 0; i < 30; ++i) {
    requester_->post_write(
        mr_->base_va() + i,
        std::vector<std::uint8_t>(1, static_cast<std::uint8_t>(i + 1)),
        [&](const WorkCompletion& wc) {
          EXPECT_TRUE(wc.success);
          ++completed;
        });
  }
  tb_.sim().run();
  EXPECT_EQ(completed, 30);
  for (std::uint64_t i = 0; i < 30; ++i) {
    EXPECT_EQ(mr_->bytes()[i], static_cast<std::uint8_t>(i + 1));
  }
  EXPECT_GT(requester_->retransmissions(), 0u);
  EXPECT_EQ(wire_, 0x96181e80bca0ad3eULL);
}

TEST_F(VerbsTest, ReadLossRecovered) {
  tb_.link_of(1).set_loss_rate(0.2, 13);
  auto bytes = mr_->bytes();
  for (std::size_t i = 0; i < 9000; ++i) {
    bytes[i] = static_cast<std::uint8_t>(i);
  }
  std::vector<std::uint8_t> got;
  requester_->post_read(mr_->base_va(), 9000,
                        [&](const WorkCompletion& wc) {
                          EXPECT_TRUE(wc.success);
                          got = wc.read_data;
                        });
  tb_.sim().run();
  ASSERT_EQ(got.size(), 9000u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], static_cast<std::uint8_t>(i)) << i;
  }
  EXPECT_EQ(wire_, 0x140cda710747317fULL);
}

TEST_F(VerbsTest, LargeWriteResumesMidMessageUnderLoss) {
  // At this seed the FIRST segment goes out once: every go-back-N round
  // resumes the 5-segment WRITE at one of its MIDDLE PSNs.
  tb_.link_of(0).set_loss_rate(0.2, 16);
  std::vector<std::uint8_t> data(20000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 13 + 5);
  }
  bool done = false;
  requester_->post_write(mr_->base_va(), data,
                         [&](const WorkCompletion& wc) {
                           EXPECT_TRUE(wc.success);
                           done = true;
                         });
  tb_.sim().run();
  ASSERT_TRUE(done);
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_EQ(mr_->bytes()[i], data[i]) << "at " << i;
  }
  EXPECT_EQ(server_qp_->writes_executed, 1u);
  EXPECT_GT(requester_->retransmissions(), 0u);
  EXPECT_EQ(wire_, 0x1e7e11a9c7c189fdULL);
}

// Half the frames from the switch toward the client are lost. The
// responder answers in PSN order, so a later request's response
// acknowledges an earlier one whose own response was lost.
class VerbsLostResponseTest
    : public VerbsTest,
      public ::testing::WithParamInterface<std::uint64_t> {
 protected:
  void SetUp() override {
    tb_.link_of(0).set_loss_rate(0.5, GetParam(), /*direction=*/0);
  }
};

TEST_P(VerbsLostResponseTest, ReadResponseCompletesAnEarlierWrite) {
  // The WRITE's ACK is lost and the READ's response arrives. The READ
  // used to move the window past the WRITE without completing it, and
  // with nothing left in flight both waited forever.
  auto window = mr_->window(mr_->base_va() + 64, 3);
  window[0] = 7;
  window[2] = 9;
  int succeeded = 0;
  std::vector<std::uint8_t> got;
  requester_->post_write(mr_->base_va(), {42}, [&](const WorkCompletion& wc) {
    succeeded += wc.success;
  });
  requester_->post_read(mr_->base_va() + 64, 3,
                        [&](const WorkCompletion& wc) {
                          succeeded += wc.success;
                          got = wc.read_data;
                        });
  tb_.sim().run();
  EXPECT_EQ(succeeded, 2);
  EXPECT_EQ(requester_->pending_work_requests(), 0u);
  EXPECT_EQ(mr_->bytes()[0], 42);
  EXPECT_EQ(got, (std::vector<std::uint8_t>{7, 0, 9}));
}

TEST_P(VerbsLostResponseTest, LaterAckResendsAnUnansweredFetchAdd) {
  // An F&A's result comes only in its own response. A later WRITE's ACK
  // must not move the window past an F&A still waiting for it: the F&A
  // goes out again and the responder's replay cache answers it once.
  store_le64(mr_->window(mr_->base_va() + 512, 8), 1000);
  int succeeded = 0;
  std::uint64_t original = 0;
  requester_->post_fetch_add(mr_->base_va() + 512, 1,
                             [&](const WorkCompletion& wc) {
                               succeeded += wc.success;
                               original = wc.atomic_original;
                             });
  requester_->post_write(mr_->base_va(), {42}, [&](const WorkCompletion& wc) {
    succeeded += wc.success;
  });
  tb_.sim().run();
  EXPECT_EQ(succeeded, 2);
  EXPECT_EQ(original, 1000u);
  EXPECT_EQ(load_le64(mr_->window(mr_->base_va() + 512, 8)), 1001u);
}

// At each seed the first response toward the client is lost.
INSTANTIATE_TEST_SUITE_P(Seeds, VerbsLostResponseTest,
                         ::testing::Values(2, 4, 5));

TEST_F(VerbsTest, ChannelCountsAndTracesHostOps) {
  // Host verbs frame through an RdmaChannel, so its stats and op spans
  // cover them with no code of their own.
  telemetry::OpTracer tracer(tb_.sim(), "host0");
  RdmaChannel& channel = *requester_->channel();
  channel.attach_telemetry(nullptr, &tracer, "qp");
  int completed = 0;
  const auto count = [&](const WorkCompletion&) { ++completed; };
  requester_->post_write(mr_->base_va(), std::vector<std::uint8_t>(9000, 1),
                         count);
  requester_->post_read(mr_->base_va(), 5000, count);
  requester_->post_fetch_add(mr_->base_va() + 9000, 1, count);
  tb_.sim().run();
  EXPECT_EQ(completed, 3);
  EXPECT_EQ(channel.stats().writes_sent, 1u);
  EXPECT_EQ(channel.stats().reads_sent, 1u);
  EXPECT_EQ(channel.stats().atomics_sent, 1u);
  EXPECT_EQ(channel.stats().payload_bytes, 9000);
  EXPECT_EQ(channel.next_psn(), roce::Psn(100 + 3 + 2 + 1));
  EXPECT_EQ(tracer.stats().spans_opened, 3u);
  EXPECT_EQ(tracer.stats().spans_closed, 3u);
  EXPECT_EQ(tracer.open_spans(), 0u);
}

TEST_F(VerbsTest, WindowLimitsInflight) {
  // 1-byte writes take one packet each: no more than the window's 64 go
  // out before the first ACK returns, and all 200 still complete.
  auto& client = tb_.host(0);
  auto& qp2 = client.rnic().create_qp();
  auto& server = tb_.host(1);
  auto& sqp2 = server.rnic().create_qp();
  server.rnic().connect_qp(sqp2.qpn, client.endpoint(), qp2.qpn,
                           roce::Psn(0));
  RcRequester requester(tb_.sim(), client.rnic(), qp2.qpn);
  requester.connect(server.endpoint(), sqp2.qpn, roce::Psn(0), mr_->rkey());

  int completed = 0;
  for (int i = 0; i < 200; ++i) {
    requester.post_write(
        mr_->base_va() + 2048 + static_cast<std::uint64_t>(i),
        {static_cast<std::uint8_t>(i)},
        [&](const WorkCompletion&) { ++completed; });
  }
  EXPECT_EQ(requester.channel()->next_psn(),
            roce::Psn(RcRequester::kMaxInflightPackets));
  tb_.sim().run();
  EXPECT_EQ(completed, 200);
  EXPECT_EQ(requester.channel()->next_psn(), roce::Psn(200));
}

TEST_F(VerbsTest, WriteLongerThanTheWindowCompletes) {
  // 65 segments through the 64-packet window behind a 1-byte WRITE. The
  // window first fills at segment 62, and the 1-byte WRITE's ACK reopens
  // it. It fills again at segment 63 with nothing older outstanding, so
  // that segment must request an ACK, or the window never reopens and
  // the WRITE times out.
  auto& client = tb_.host(0);
  auto& qp2 = client.rnic().create_qp();
  auto& server = tb_.host(1);
  auto& sqp2 = server.rnic().create_qp();
  server.rnic().connect_qp(sqp2.qpn, client.endpoint(), qp2.qpn,
                           roce::Psn(0));
  RcRequester requester(tb_.sim(), client.rnic(), qp2.qpn);
  requester.connect(server.endpoint(), sqp2.qpn, roce::Psn(0), mr_->rkey());

  const std::size_t len = RcRequester::kMaxInflightPackets * 4096 + 3616;
  std::vector<std::uint8_t> data(len, 0x6b);
  int succeeded = 0;
  const auto count = [&](const WorkCompletion& wc) { succeeded += wc.success; };
  requester.post_write(mr_->base_va() + len, {0x6c}, count);
  requester.post_write(mr_->base_va(), data, count);
  tb_.sim().run();
  EXPECT_EQ(succeeded, 2);
  EXPECT_EQ(sqp2.writes_executed, 2u);
  EXPECT_EQ(requester.retransmissions(), 0u);
  EXPECT_EQ(requester.channel()->next_psn(), roce::Psn(1 + 65));
  EXPECT_EQ(mr_->bytes()[len - 1], 0x6b);
}

}  // namespace
}  // namespace xmem::rnic
