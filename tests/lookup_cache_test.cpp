// Unit tests for core::LookupCache: hit-after-insert, per-policy
// eviction order (FIFO / LRU / segmented LFU), write-through
// invalidation, negative-entry TTL expiry, shard/epoch tagging, and the
// structural invariants every policy shares.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/lookup_cache.hpp"
#include "telemetry/metrics.hpp"

namespace xmem::core {
namespace {

using switchsim::Action;
using Policy = LookupCache::Policy;

LookupCache::Key key_of(int i) {
  return {static_cast<std::uint8_t>(i), static_cast<std::uint8_t>(i >> 8)};
}

Action forward_to(std::uint16_t port) {
  Action a;
  a.kind = Action::Kind::kForward;
  a.port = port;
  return a;
}

/// True when `key` currently serves a positive hit.
bool present(LookupCache& cache, int i, sim::Time now = 0) {
  auto hit = cache.lookup(key_of(i), now);
  return hit.has_value() && !hit->negative;
}

TEST(LookupCacheTest, HitAfterInsertReturnsTheAction) {
  LookupCache cache({.capacity = 4});
  EXPECT_FALSE(cache.lookup(key_of(1), 0).has_value());
  cache.insert(key_of(1), forward_to(7), /*shard=*/2, /*epoch=*/5, 0);

  auto hit = cache.lookup(key_of(1), 0);
  ASSERT_TRUE(hit.has_value());
  ASSERT_NE(hit->action, nullptr);
  EXPECT_EQ(hit->action->port, 7);
  EXPECT_FALSE(hit->negative);
  EXPECT_EQ(hit->shard, 2u);
  EXPECT_EQ(hit->epoch, 5u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().inserts, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(LookupCacheTest, DisabledCacheServesNothing) {
  LookupCache cache({.capacity = 0});
  EXPECT_FALSE(cache.enabled());
  cache.insert(key_of(1), forward_to(1), 0, 0, 0);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.lookup(key_of(1), 0).has_value());
  EXPECT_EQ(cache.stats().misses, 0u) << "disabled lookups count nothing";
}

TEST(LookupCacheTest, FifoEvictsInInsertionOrderRegardlessOfHits) {
  LookupCache cache({.capacity = 3, .policy = Policy::kFifo});
  for (int i = 1; i <= 3; ++i) cache.insert(key_of(i), forward_to(1), 0, 0, 0);
  // Hammer key 1 — FIFO must ignore the hits and still evict it first.
  for (int n = 0; n < 10; ++n) EXPECT_TRUE(present(cache, 1));

  cache.insert(key_of(4), forward_to(1), 0, 0, 0);
  EXPECT_FALSE(present(cache, 1)) << "oldest insert leaves first";
  EXPECT_TRUE(present(cache, 2));
  EXPECT_TRUE(present(cache, 3));
  EXPECT_TRUE(present(cache, 4));
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(LookupCacheTest, LruEvictsLeastRecentlyUsed) {
  LookupCache cache({.capacity = 3, .policy = Policy::kLru});
  for (int i = 1; i <= 3; ++i) cache.insert(key_of(i), forward_to(1), 0, 0, 0);
  // Touch 1 then 2: the least recently used is now 3.
  EXPECT_TRUE(present(cache, 1));
  EXPECT_TRUE(present(cache, 2));

  cache.insert(key_of(4), forward_to(1), 0, 0, 0);
  EXPECT_FALSE(present(cache, 3)) << "LRU victim";
  EXPECT_TRUE(present(cache, 1));
  EXPECT_TRUE(present(cache, 2));
  EXPECT_TRUE(present(cache, 4));
}

TEST(LookupCacheTest, LfuProtectsTheHotWorkingSet) {
  // Capacity 4, protected segment 3 (kProtectedFraction of 4, rounded
  // down): keys 1 and 2 earn promotion with a hit; a stream of one-hit
  // wonders must churn through probation without displacing them.
  LookupCache cache({.capacity = 4, .policy = Policy::kLfu});
  cache.insert(key_of(1), forward_to(1), 0, 0, 0);
  cache.insert(key_of(2), forward_to(1), 0, 0, 0);
  EXPECT_TRUE(present(cache, 1));  // promote
  EXPECT_TRUE(present(cache, 2));  // promote
  EXPECT_EQ(cache.stats().promotions, 2u);

  for (int i = 100; i < 120; ++i) {
    cache.insert(key_of(i), forward_to(1), 0, 0, 0);
  }
  EXPECT_TRUE(present(cache, 1)) << "protected survives the scan";
  EXPECT_TRUE(present(cache, 2)) << "protected survives the scan";
  EXPECT_EQ(cache.size(), 4u);
  // Victims were all probationers (the scan keys themselves).
  EXPECT_EQ(cache.stats().evictions, 18u);
}

TEST(LookupCacheTest, LfuProtectedOverflowDemotesNotEvicts) {
  LookupCache cache({.capacity = 4, .policy = Policy::kLfu});
  for (int i = 1; i <= 4; ++i) cache.insert(key_of(i), forward_to(1), 0, 0, 0);
  // Promote four into a protected segment that holds three: the first
  // promoted (key 1) is demoted back to probation, not dropped.
  for (int i = 1; i <= 4; ++i) EXPECT_TRUE(present(cache, i));
  EXPECT_EQ(cache.stats().promotions, 4u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_TRUE(present(cache, 1)) << "demoted, still resident";
}

TEST(LookupCacheTest, InsertOverExistingKeyRefreshesInPlace) {
  LookupCache cache({.capacity = 2});
  cache.insert(key_of(1), forward_to(7), 0, /*epoch=*/0, 0);
  cache.insert(key_of(1), forward_to(9), 0, /*epoch=*/1, 0);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().inserts, 1u);
  EXPECT_EQ(cache.stats().refreshes, 1u);

  auto hit = cache.lookup(key_of(1), 0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->action->port, 9) << "newer value wins";
  EXPECT_EQ(hit->epoch, 1u) << "fill origin re-tagged";
}

TEST(LookupCacheTest, InvalidateDropsExactlyTheKey) {
  LookupCache cache({.capacity = 4});
  cache.insert(key_of(1), forward_to(1), 0, 0, 0);
  cache.insert(key_of(2), forward_to(1), 0, 0, 0);
  EXPECT_TRUE(cache.invalidate(key_of(1)));
  EXPECT_FALSE(cache.invalidate(key_of(1))) << "second call finds nothing";
  EXPECT_FALSE(present(cache, 1));
  EXPECT_TRUE(present(cache, 2));
  EXPECT_EQ(cache.stats().invalidations, 1u);
}

TEST(LookupCacheTest, NegativeEntryServesThenExpires) {
  LookupCache cache(
      {.capacity = 4, .negative_ttl = sim::microseconds(10)});
  cache.insert_negative(key_of(1), /*shard=*/3, /*epoch=*/0,
                        sim::microseconds(100));

  auto hit = cache.lookup(key_of(1), sim::microseconds(105));
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->negative);
  EXPECT_EQ(hit->action, nullptr);
  EXPECT_EQ(hit->shard, 3u);
  EXPECT_EQ(cache.stats().negative_hits, 1u);

  // Past the TTL the verdict is stale: the lookup is a miss and the slot
  // is reclaimed, so the caller refetches.
  EXPECT_FALSE(cache.lookup(key_of(1), sim::microseconds(111)).has_value());
  EXPECT_EQ(cache.stats().negative_expired, 1u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(LookupCacheTest, NegativeInsertIsNoopWhenDisabled) {
  LookupCache cache({.capacity = 4});  // negative_ttl defaults to 0
  cache.insert_negative(key_of(1), 0, 0, 0);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().negative_inserts, 0u);
}

TEST(LookupCacheTest, RejectsInvalidConfigsAtConstruction) {
  // A negative TTL used to switch negative caching off without a word.
  EXPECT_THROW(LookupCache({.capacity = 4, .negative_ttl = -1}),
               std::invalid_argument);
}

TEST(LookupCacheTest, PolicyNamesAreStable) {
  // a10 prints these names in its policy shoot-out rows.
  EXPECT_EQ(LookupCache::policy_name(Policy::kFifo), "fifo");
  EXPECT_EQ(LookupCache::policy_name(Policy::kLru), "lru");
  EXPECT_EQ(LookupCache::policy_name(Policy::kLfu), "lfu");
}

class LookupCachePolicyTest : public ::testing::TestWithParam<Policy> {};

// Whatever the policy, the structural invariants hold: bounded
// occupancy, hit-after-insert, and eviction accounting that matches the
// insert/occupancy delta.
TEST_P(LookupCachePolicyTest, MatrixPolicyInvariantsHold) {
  LookupCache cache({.capacity = 8, .policy = GetParam()});

  for (int i = 0; i < 100; ++i) {
    cache.insert(key_of(i), forward_to(static_cast<std::uint16_t>(i)), 0, 0,
                 0);
    ASSERT_LE(cache.size(), 8u) << "capacity is a hard bound";
    auto hit = cache.lookup(key_of(i), 0);
    ASSERT_TRUE(hit.has_value()) << "just-inserted key must be resident";
    ASSERT_EQ(hit->action->port, i);
  }
  EXPECT_EQ(cache.stats().inserts, 100u);
  EXPECT_EQ(cache.stats().evictions, 100u - cache.size());
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, LookupCachePolicyTest,
    ::testing::Values(Policy::kFifo, Policy::kLru, Policy::kLfu),
    [](const ::testing::TestParamInfo<Policy>& p) {
      return std::string(LookupCache::policy_name(p.param));
    });

TEST(LookupCacheTest, TelemetryExportsCountersAndOccupancy) {
  LookupCache cache(
      {.capacity = 2, .negative_ttl = sim::microseconds(5)});
  telemetry::MetricsRegistry reg;
  cache.attach_telemetry(&reg, "cache");

  cache.insert(key_of(1), forward_to(1), 0, 0, 0);
  cache.insert(key_of(2), forward_to(1), 0, 0, 0);
  cache.insert(key_of(3), forward_to(1), 0, 0, 0);  // evicts
  (void)cache.lookup(key_of(3), 0);
  (void)cache.lookup(key_of(99), 0);
  cache.insert_negative(key_of(4), 0, 0, 0);  // evicts

  EXPECT_EQ(reg.read("cache/inserts"), 3.0);
  EXPECT_EQ(reg.read("cache/evictions"), 2.0);
  EXPECT_EQ(reg.read("cache/hits"), 1.0);
  EXPECT_EQ(reg.read("cache/misses"), 1.0);
  EXPECT_EQ(reg.read("cache/negative_inserts"), 1.0);
  EXPECT_EQ(reg.read("cache/occupancy"), 2.0);
  EXPECT_EQ(reg.read("cache/capacity"), 2.0);
}

}  // namespace
}  // namespace xmem::core
