// Unit tests for core::InflightTable: PSN-ordered lookup and iteration
// across the 24-bit wrap, snapshot order, Karn's rule on completion, and
// the shared recovery timer.
#include <gtest/gtest.h>

#include <vector>

#include "core/inflight.hpp"

namespace xmem::core {
namespace {

using roce::Psn;

/// Psns base, base+1, ... (wrapping) for `n` ops.
std::vector<Psn> run_of(std::uint32_t base, std::uint32_t n) {
  std::vector<Psn> out;
  for (std::uint32_t i = 0; i < n; ++i) {
    out.push_back(roce::psn_add(Psn(base), i));
  }
  return out;
}

class InflightTableTest : public ::testing::Test {
 protected:
  using Table = InflightTable<int>;

  Table make(std::size_t shards, AdaptiveRtoConfig rto = {}) {
    return Table(sim_, shards, sim::microseconds(100), rto,
                 [this]() { ++fired_; });
  }

  /// Adds `psns` to `shard` with op = position in the run.
  static void fill(Table& t, std::size_t shard, const std::vector<Psn>& psns) {
    for (std::size_t i = 0; i < psns.size(); ++i) {
      t.add(shard, psns[i], static_cast<int>(i));
    }
  }

  static std::vector<int> ops(Table& t, std::size_t shard,
                              std::optional<Psn> from = std::nullopt) {
    std::vector<int> out;
    t.for_each(shard, [&](const Table::Entry& e) { out.push_back(e.op); },
               from);
    return out;
  }

  sim::Simulator sim_;
  int fired_ = 0;
};

TEST_F(InflightTableTest, FindAndEraseInTheMiddleOfAWrappedWindow) {
  Table t = make(1);
  const auto psns = run_of(0xfffffc, 8);  // 0xfffffc..0xffffff, 0..3
  fill(t, 0, psns);
  ASSERT_EQ(t.size(), 8u);

  for (std::size_t i = 0; i < psns.size(); ++i) {
    const Table::Entry* e = t.find(0, psns[i]);
    ASSERT_NE(e, nullptr) << "psn " << psns[i].raw();
    EXPECT_EQ(e->op, static_cast<int>(i));
  }
  EXPECT_EQ(t.find(0, Psn(4)), nullptr);         // just past the window
  EXPECT_EQ(t.find(0, Psn(0xfffffb)), nullptr);  // just before it

  // Erase on both sides of the wrap; neighbours stay findable.
  const auto gone = t.erase(0, Psn(0xffffff));
  ASSERT_TRUE(gone.has_value());
  EXPECT_EQ(gone->op, 3);
  EXPECT_TRUE(t.erase(0, Psn(1)).has_value());
  EXPECT_FALSE(t.erase(0, Psn(1)).has_value());  // already gone
  EXPECT_EQ(t.size(), 6u);
  EXPECT_EQ(t.find(0, Psn(0xffffff)), nullptr);
  EXPECT_EQ(t.find(0, Psn(1)), nullptr);
  ASSERT_NE(t.find(0, Psn(0)), nullptr);
  EXPECT_EQ(t.find(0, Psn(0))->op, 4);
  ASSERT_NE(t.find(0, Psn(2)), nullptr);
  EXPECT_EQ(t.find(0, Psn(2))->op, 6);
  EXPECT_EQ(ops(t, 0), (std::vector<int>{0, 1, 2, 4, 6, 7}));
}

TEST_F(InflightTableTest, ForEachFromAPsnWalksTheSuffixInPsnOrder) {
  Table t = make(1);
  fill(t, 0, run_of(0xfffffc, 8));

  EXPECT_EQ(ops(t, 0, Psn(0xfffffe)), (std::vector<int>{2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(ops(t, 0, Psn(1)), (std::vector<int>{5, 6, 7}));
  // A PSN behind the window starts at the front; one past it walks none.
  EXPECT_EQ(ops(t, 0, Psn(0xfffff0)).size(), 8u);
  EXPECT_TRUE(ops(t, 0, Psn(4)).empty());
  // A start PSN that was erased begins at its successor.
  ASSERT_TRUE(t.erase(0, Psn(0)).has_value());
  EXPECT_EQ(ops(t, 0, Psn(0)), (std::vector<int>{5, 6, 7}));

  // Entries are mutable through for_each (how reposts mark Karn state).
  t.for_each(0, [](Table::Entry& e) { e.retransmitted = true; }, Psn(2));
  EXPECT_FALSE(t.find(0, Psn(1))->retransmitted);
  EXPECT_TRUE(t.find(0, Psn(2))->retransmitted);
}

TEST_F(InflightTableTest, KeysAndTakeFollowShardThenPsnOrder) {
  Table t = make(2);
  fill(t, 1, run_of(0xfffffe, 4));  // 0xfffffe, 0xffffff, 0, 1
  fill(t, 0, run_of(10, 2));

  const auto all = t.keys([](std::size_t, const Table::Entry&) {
    return true;
  });
  ASSERT_EQ(all.size(), 6u);
  const std::vector<std::pair<std::size_t, std::uint32_t>> want = {
      {0, 10}, {0, 11}, {1, 0xfffffe}, {1, 0xffffff}, {1, 0}, {1, 1}};
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(all[i].shard, want[i].first);
    EXPECT_EQ(all[i].psn.raw(), want[i].second);
  }
  const auto odd = t.keys([](std::size_t, const Table::Entry& e) {
    return e.op % 2 == 1;
  });
  ASSERT_EQ(odd.size(), 3u);
  EXPECT_EQ(odd[0].psn.raw(), 11u);
  EXPECT_EQ(odd[1].psn.raw(), 0xffffffu);
  EXPECT_EQ(odd[2].psn.raw(), 1u);

  const auto taken = t.take(1);
  ASSERT_EQ(taken.size(), 4u);
  for (std::size_t i = 0; i < taken.size(); ++i) {
    EXPECT_EQ(taken[i].op, static_cast<int>(i));
  }
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.size(1), 0u);
  EXPECT_EQ(t.size(0), 2u);
}

TEST_F(InflightTableTest, CompleteAppliesBothHalvesOfKarnsRule) {
  AdaptiveRtoConfig rto;
  rto.enabled = true;
  Table t = make(1, rto);
  t.add(0, Psn(1), 1);
  t.add(0, Psn(2), 2);
  t.find(0, Psn(2))->retransmitted = true;
  t.note_timeout(0);
  ASSERT_EQ(t.rto(0).backoff(), 1u);

  // A retransmitted op's response: no sample, and no backoff reset.
  sim_.run_until(sim::microseconds(30));
  const auto ambiguous = t.complete(0, Psn(2));
  ASSERT_TRUE(ambiguous.has_value());
  EXPECT_FALSE(t.rto(0).has_samples());
  EXPECT_EQ(t.rto(0).backoff(), 1u);

  // A clean one samples its RTT and ends the backoff episode.
  const auto clean = t.complete(0, Psn(1));
  ASSERT_TRUE(clean.has_value());
  EXPECT_TRUE(t.rto(0).has_samples());
  EXPECT_EQ(t.rto(0).srtt(), sim::microseconds(30));
  EXPECT_EQ(t.rto(0).backoff(), 0u);

  // erase() never samples; a duplicate completion finds nothing.
  t.add(0, Psn(3), 3);
  sim_.run_until(sim::microseconds(90));
  EXPECT_TRUE(t.erase(0, Psn(3)).has_value());
  EXPECT_EQ(t.rto(0).srtt(), sim::microseconds(30));
  EXPECT_FALSE(t.complete(0, Psn(1)).has_value());
}

TEST_F(InflightTableTest, DeadlinesAreFixedUnlessAdaptive) {
  Table fixed = make(2);
  fixed.note_timeout(1);
  EXPECT_EQ(fixed.timeout(0), sim::microseconds(100));
  EXPECT_EQ(fixed.timeout(1), sim::microseconds(100));
  EXPECT_EQ(fixed.min_timeout(), sim::microseconds(100));

  AdaptiveRtoConfig rto;
  rto.enabled = true;
  rto.jitter_fraction = 0.0;
  Table adaptive = make(2, rto);
  EXPECT_EQ(adaptive.timeout(0), rto.initial_rto);
  adaptive.note_timeout(1);
  EXPECT_EQ(adaptive.timeout(1), 2 * rto.initial_rto);
  EXPECT_EQ(adaptive.min_timeout(), rto.initial_rto);
  adaptive.reset_rto(1);
  EXPECT_EQ(adaptive.timeout(1), rto.initial_rto);
}

TEST_F(InflightTableTest, TimerFiresWhileOpsAreInFlightAndRearms) {
  Table t = make(1);
  t.arm();  // nothing in flight when it fires: no callback, no re-arm
  sim_.run();
  EXPECT_EQ(fired_, 0);

  t.add(0, Psn(7), 7);
  t.arm();
  t.arm();  // already pending: a no-op
  sim_.run_until(sim_.now() + sim::microseconds(250));
  EXPECT_EQ(fired_, 2);  // one deadline later, and again after re-arming
  ASSERT_TRUE(t.erase(0, Psn(7)).has_value());
  sim_.run();
  EXPECT_EQ(fired_, 2);
}

}  // namespace
}  // namespace xmem::core
