// Unit tests for the discrete-event engine: time units, event queue
// ordering/cancellation, simulator run loops, RNG determinism — plus the
// determinism suite that pins the engine's (time, seq) contract across
// engine rewrites (golden counters from a fixed-seed incast run).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "control/testbed.hpp"
#include "host/sink.hpp"
#include "host/traffic_gen.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"
#include "sim/units.hpp"

namespace xmem::sim {
namespace {

TEST(Time, UnitConstruction) {
  EXPECT_EQ(nanoseconds(1), 1'000);
  EXPECT_EQ(microseconds(1), 1'000'000);
  EXPECT_EQ(milliseconds(1), 1'000'000'000);
  EXPECT_EQ(seconds(1), 1'000'000'000'000);
  EXPECT_EQ(microseconds(2.5), 2'500'000);
  EXPECT_EQ(nanoseconds(0.5), 500);
}

TEST(Time, ConversionRoundTrip) {
  EXPECT_DOUBLE_EQ(to_microseconds(microseconds(7)), 7.0);
  EXPECT_DOUBLE_EQ(to_milliseconds(milliseconds(3)), 3.0);
  EXPECT_DOUBLE_EQ(to_seconds(seconds(2)), 2.0);
  EXPECT_DOUBLE_EQ(to_nanoseconds(nanoseconds(9)), 9.0);
}

TEST(Units, TransmissionTimeExact) {
  // 1 byte at 40 Gb/s = 0.2 ns = 200 ps.
  EXPECT_EQ(transmission_time(1, gbps(40)), 200);
  // 1500 bytes at 40 Gb/s = 300 ns.
  EXPECT_EQ(transmission_time(1500, gbps(40)), nanoseconds(300));
  // Rounds up, never down: 8 bits / 3 Gb/s = 2666.67 ps -> 2667 ps.
  EXPECT_EQ(transmission_time(1, gbps(3)), 2667);
}

TEST(Units, TransmissionTimeZeroBytes) {
  EXPECT_EQ(transmission_time(0, gbps(40)), 0);
}

TEST(Units, AchievedRateInvertsTransmissionTime) {
  const Bandwidth rate = gbps(40);
  const std::int64_t bytes = 123456;
  const Time t = transmission_time(bytes, rate);
  const Bandwidth measured = achieved_rate(bytes, t);
  EXPECT_NEAR(to_gbps(measured), 40.0, 0.01);
}

TEST(Units, AchievedRateZeroWindow) {
  EXPECT_EQ(achieved_rate(1000, 0), 0);
}

TEST(Units, FractionalGbpsRoundsHalfAwayFromZero) {
  // Regression: the old +0.5-then-truncate rounding pulled negative
  // rates toward +infinity, so a rate delta of -0.5 Gb/s lost a bit.
  EXPECT_EQ(gbps(0.5), 500'000'000);
  EXPECT_EQ(gbps(-0.5), -500'000'000);
  EXPECT_EQ(gbps(-1.5), -gbps(1.5));
  EXPECT_EQ(gbps(0.0), 0);
}

TEST(Units, AchievedRateRoundsToNearest) {
  // 1 byte over 3 s = 8/3 bit/s = 2.67: rounds to 3, not truncates to 2.
  EXPECT_EQ(achieved_rate(1, 3 * kSecond), 3);
  // 1 byte over 6 s = 4/3 bit/s = 1.33: still rounds down.
  EXPECT_EQ(achieved_rate(1, 6 * kSecond), 1);
}

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(300, [&] { order.push_back(3); });
  q.schedule(100, [&] { order.push_back(1); });
  q.schedule(200, [&] { order.push_back(2); });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakInInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(42, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.run_next();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  EventId id = q.schedule(10, [&] { ran = true; });
  EXPECT_TRUE(id.pending());
  id.cancel();
  EXPECT_FALSE(id.pending());
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelIsIdempotentAndSafeAfterFire) {
  EventQueue q;
  EventId id = q.schedule(10, [] {});
  q.run_next();
  EXPECT_FALSE(id.pending());
  id.cancel();  // no crash, no effect
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, EmptyReclaimsAllCancelled) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 5; ++i) ids.push_back(q.schedule(i, [] {}));
  for (auto& id : ids) id.cancel();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, LiveCountTracksCancellations) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(q.schedule(static_cast<Time>(i + 1), [] {}));
  }
  EXPECT_EQ(q.live_count(), 100u);
  // Cancel 30 from the back half so the front stays live and the dead
  // count stays under the compaction threshold.
  for (int i = 60; i < 90; ++i) ids[static_cast<std::size_t>(i)].cancel();
  EXPECT_EQ(q.live_count(), 70u);
  EXPECT_EQ(q.size_bound(), 100u);  // dead entries not yet reclaimed
  std::size_t fired = 0;
  while (!q.empty()) {
    q.run_next();
    ++fired;
  }
  EXPECT_EQ(fired, 70u);
  EXPECT_EQ(q.live_count(), 0u);
}

TEST(EventQueue, BulkCancellationCompactsHeap) {
  EventQueue q;
  std::vector<EventId> ids;
  std::vector<Time> expected;
  for (int i = 0; i < 200; ++i) {
    ids.push_back(q.schedule(static_cast<Time>(i + 1), [] {}));
  }
  // Kill 150 of 200: beyond both compaction triggers (>= 64 dead and
  // dead >= half the heap), so the sweep must run and shed the entries.
  for (int i = 0; i < 200; ++i) {
    if (i % 4 != 0) {
      ids[static_cast<std::size_t>(i)].cancel();
    } else {
      expected.push_back(static_cast<Time>(i + 1));
    }
  }
  EXPECT_EQ(q.live_count(), 50u);
  // Compaction fires mid-stream (at 100 dead of 200); the sub-threshold
  // tail of later cancellations may still sit in the heap.
  EXPECT_LT(q.size_bound(), 200u);
  EXPECT_LE(q.size_bound() - q.live_count(), 50u);
  std::vector<Time> fired;
  while (!q.empty()) fired.push_back(q.run_next());
  EXPECT_EQ(fired, expected);  // survivors still drain in time order
}

TEST(EventQueue, LargeCaptureCallbackIsBoxedAndFires) {
  EventQueue q;
  std::array<char, 200> big{};  // larger than InlineFunction's inline buffer
  big[0] = 42;
  big[199] = 7;
  int sum = 0;
  q.schedule(1, [big, &sum] { sum = big[0] + big[199]; });
  q.run_next();
  EXPECT_EQ(sum, 49);
}

TEST(EventQueue, CallbackMaySchedule) {
  EventQueue q;
  int count = 0;
  std::function<void()> chain = [&]() {
    if (++count < 5) q.schedule(static_cast<Time>(count), chain);
  };
  q.schedule(0, chain);
  while (!q.empty()) q.run_next();
  EXPECT_EQ(count, 5);
}

TEST(Simulator, NowAdvancesWithEvents) {
  Simulator sim;
  Time seen = -1;
  sim.schedule_at(microseconds(5), [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, microseconds(5));
  EXPECT_EQ(sim.now(), microseconds(5));
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator sim;
  std::vector<Time> stamps;
  sim.schedule_in(picoseconds(100), [&] {
    stamps.push_back(sim.now());
    sim.schedule_in(picoseconds(50), [&] { stamps.push_back(sim.now()); });
  });
  sim.run();
  ASSERT_EQ(stamps.size(), 2u);
  EXPECT_EQ(stamps[0], 100);
  EXPECT_EQ(stamps[1], 150);
}

TEST(Simulator, SchedulingIntoPastThrows) {
  Simulator sim;
  sim.schedule_at(picoseconds(100), [&] {
    EXPECT_THROW(sim.schedule_at(picoseconds(50), [] {}), std::invalid_argument);
  });
  sim.run();
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.schedule_at(microseconds(i), [&] { ++fired; });
  }
  sim.run_until(microseconds(5));
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(sim.now(), microseconds(5));
  sim.run();
  EXPECT_EQ(fired, 10);
}

TEST(Simulator, StopEndsRun) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(picoseconds(1), [&] {
    ++fired;
    sim.stop();
  });
  sim.schedule_at(picoseconds(2), [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.stopped());
  sim.run();  // resumes with remaining events
  EXPECT_EQ(fired, 2);
}

// --- Determinism suite -----------------------------------------------
//
// The engine's documented contract: events fire in (time, schedule
// order). These tests pin that contract hard enough that an engine
// rewrite (heap layout, pooling, callback storage) cannot change any
// simulation result without tripping them.

TEST(Determinism, ManySameTimeEventsFireInScheduleOrder) {
  EventQueue q;
  constexpr int kN = 1000;
  std::vector<int> order;
  order.reserve(kN);
  for (int i = 0; i < kN; ++i) {
    q.schedule(777, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.run_next();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kN));
  for (int i = 0; i < kN; ++i) {
    ASSERT_EQ(order[static_cast<std::size_t>(i)], i) << "at index " << i;
  }
}

TEST(Determinism, CancelRescheduleStressKeepsOrdering) {
  // Deterministic churn: schedule batches at pseudo-random times, cancel
  // a third, reschedule replacements (which take fresh sequence numbers),
  // then drain. The survivors must fire in exact (time, schedule-order)
  // order — computed here as a stable sort by time over the survivors in
  // schedule order.
  EventQueue q;
  Rng rng(2024);
  struct Scheduled {
    EventId id;
    Time at = 0;
    std::uint64_t tag = 0;
    bool cancelled = false;
  };
  std::vector<Scheduled> all;
  std::vector<std::uint64_t> fired;
  std::uint64_t tag = 0;
  auto schedule_one = [&](Time at) {
    const std::uint64_t my = tag++;
    EventId id = q.schedule(at, [&fired, my] { fired.push_back(my); });
    all.push_back({id, at, my, false});
  };
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 50; ++i) {
      schedule_one(static_cast<Time>(rng.uniform(199)));
    }
    for (auto& s : all) {
      if (!s.cancelled && rng.uniform(3) == 0) {
        s.id.cancel();
        s.cancelled = true;
        EXPECT_FALSE(s.id.pending());
      }
    }
    // Replacements for half the cancellations, at fresh times.
    for (int i = 0; i < 8; ++i) {
      schedule_one(static_cast<Time>(rng.uniform(199)));
    }
  }
  while (!q.empty()) q.run_next();

  std::vector<std::pair<Time, std::uint64_t>> expected;
  for (const auto& s : all) {
    if (!s.cancelled) expected.push_back({s.at, s.tag});
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  ASSERT_EQ(fired.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(fired[i], expected[i].second) << "at index " << i;
  }
}

TEST(Determinism, SlotReuseAfterDrainKeepsIdsStale) {
  // Fire a full batch, then schedule a second batch (which may reuse the
  // first batch's pooled storage): first-batch handles must stay dead
  // and cancelling them must not touch the second batch.
  EventQueue q;
  std::vector<EventId> first;
  int fired = 0;
  for (int i = 0; i < 32; ++i) {
    first.push_back(q.schedule(i, [&fired] { ++fired; }));
  }
  while (!q.empty()) q.run_next();
  EXPECT_EQ(fired, 32);
  std::vector<EventId> second;
  for (int i = 0; i < 32; ++i) {
    second.push_back(q.schedule(100 + i, [&fired] { ++fired; }));
  }
  for (auto& id : first) {
    EXPECT_FALSE(id.pending());
    id.cancel();  // must be a no-op against recycled storage
  }
  for (auto& id : second) EXPECT_TRUE(id.pending());
  while (!q.empty()) q.run_next();
  EXPECT_EQ(fired, 64);
}

TEST(Determinism, GoldenIncastCounters) {
  // Scaled-down F1a: 4 senders each burst 1 MB at 40 Gb/s toward one
  // receiver behind a 2 MB shared-buffer ToR, fixed jitter seed. Every
  // counter below is a golden captured from the pre-pool engine
  // (std::priority_queue entries + deep-copy packets); an engine swap
  // must reproduce them bit-for-bit or it changed simulation behaviour.
  control::Testbed::Config cfg;
  cfg.hosts = 5;
  cfg.switch_config.tm.shared_buffer_bytes = 2 * kMB;
  control::Testbed tb(cfg);
  const int receiver = 4;
  host::PacketSink sink(tb.host(receiver));
  std::vector<host::Host*> senders;
  for (int i = 0; i < 4; ++i) senders.push_back(&tb.host(i));
  host::IncastCoordinator incast(
      senders, {.dst_mac = tb.host(receiver).mac(),
                .dst_ip = tb.host(receiver).ip(),
                .frame_size = 1500,
                .burst_bytes_per_sender = 1 * kMB,
                .sender_rate = gbps(40),
                .start_jitter = microseconds(5)});
  incast.start(0);
  tb.sim().run();

  EXPECT_EQ(incast.total_packets_sent(), 2668u);
  EXPECT_EQ(sink.packets(), 2013u);
  EXPECT_EQ(tb.tor().stats().buffer_drops, 655u);
  EXPECT_EQ(sink.last_arrival(), 615286514);
  EXPECT_EQ(tb.sim().events_executed(), 14706u);
  EXPECT_EQ(tb.sim().queue().scheduled_count(), 14706u);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.uniform(17), 17u);
  }
}

TEST(Rng, UniformRangeInclusive) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform_range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, Uniform01InUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ExponentialMean) {
  Rng rng(13);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.2);
}

TEST(Rng, SplitIsReproducible) {
  // split() derives from the seed, not the evolving state: the same
  // (parent seed, stream id) is the same stream no matter when it is
  // split off or how much the parent has drawn.
  Rng parent(42);
  Rng early = parent.split(7);
  for (int i = 0; i < 1000; ++i) parent.next();
  Rng late = parent.split(7);
  Rng direct(parent.stream_seed(7));
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t v = early.next();
    EXPECT_EQ(v, late.next());
    EXPECT_EQ(v, direct.next());
  }
}

TEST(Rng, SplitStreamsDistinct) {
  // Adjacent stream ids must land in unrelated parts of the seed space
  // (the SplitMix64 avalanche), unlike the old `seed + i` arithmetic.
  Rng parent(42);
  Rng a = parent.split(0);
  Rng b = parent.split(1);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, SplitStreamsPairwiseUncorrelatedSmoke) {
  // Smoke statistic over every pair of 8 sibling streams: the Pearson
  // correlation of their uniform01 sequences stays near zero. A lag-0
  // linear dependence (the failure mode of naive seed arithmetic) would
  // push |r| toward 1.
  constexpr int kStreams = 8;
  constexpr int kSamples = 4096;
  Rng parent(0xdecafULL);
  std::vector<std::vector<double>> seq(kStreams);
  for (int s = 0; s < kStreams; ++s) {
    Rng stream = parent.split(static_cast<std::uint64_t>(s));
    seq[static_cast<std::size_t>(s)].reserve(kSamples);
    for (int i = 0; i < kSamples; ++i) {
      seq[static_cast<std::size_t>(s)].push_back(stream.uniform01());
    }
  }
  for (int a = 0; a < kStreams; ++a) {
    for (int b = a + 1; b < kStreams; ++b) {
      double ma = 0, mb = 0;
      for (int i = 0; i < kSamples; ++i) {
        ma += seq[static_cast<std::size_t>(a)][static_cast<std::size_t>(i)];
        mb += seq[static_cast<std::size_t>(b)][static_cast<std::size_t>(i)];
      }
      ma /= kSamples;
      mb /= kSamples;
      double cov = 0, va = 0, vb = 0;
      for (int i = 0; i < kSamples; ++i) {
        const double da =
            seq[static_cast<std::size_t>(a)][static_cast<std::size_t>(i)] - ma;
        const double db =
            seq[static_cast<std::size_t>(b)][static_cast<std::size_t>(i)] - mb;
        cov += da * db;
        va += da * da;
        vb += db * db;
      }
      const double r = cov / std::sqrt(va * vb);
      EXPECT_LT(std::abs(r), 0.08)
          << "streams " << a << " and " << b << " correlate";
    }
  }
}

TEST(Zipf, UniformWhenSkewZero) {
  Rng rng(17);
  ZipfGenerator zipf(10, 0.0, rng);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 50000; ++i) ++counts[zipf()];
  for (const int c : counts) EXPECT_NEAR(c, 5000, 600);
}

TEST(Zipf, SkewConcentratesOnLowRanks) {
  Rng rng(19);
  ZipfGenerator zipf(1000, 0.99, rng);
  std::vector<int> counts(1000, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[zipf()];
  // Rank 0 should dominate and the top-10 should hold a large share.
  EXPECT_GT(counts[0], counts[100] * 5);
  int top10 = 0;
  for (int i = 0; i < 10; ++i) top10 += counts[i];
  EXPECT_GT(top10, n / 4);
}

// Property sweep: transmission_time * rate recovers bytes for many sizes.
class TransmissionRoundTrip : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(TransmissionRoundTrip, RateRecoversBytes) {
  const std::int64_t bytes = GetParam();
  for (const Bandwidth rate : {gbps(1), gbps(10), gbps(40), gbps(100)}) {
    const Time t = transmission_time(bytes, rate);
    // bits / time must equal rate within rounding of one picosecond.
    const double expected_ps =
        static_cast<double>(bytes) * 8.0 * 1e12 / static_cast<double>(rate);
    EXPECT_NEAR(static_cast<double>(t), expected_ps, 1.0)
        << "bytes=" << bytes << " rate=" << rate;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, TransmissionRoundTrip,
                         ::testing::Values(1, 60, 64, 128, 512, 1024, 1500,
                                           1518, 4096, 9000, 65536, 1 << 20));

}  // namespace
}  // namespace xmem::sim
