// PlanCache: signature stability under quantization, LRU eviction, hit/miss
// accounting, structural invalidation via signature change.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "easched/common/contracts.hpp"
#include "easched/service/plan_cache.hpp"

namespace easched {
namespace {

std::vector<std::pair<TaskId, Task>> live_set() {
  return {{0, Task{0.0, 10.0, 8.0}}, {2, Task{2.0, 18.0, 14.0}}};
}

TEST(PlanSignatureTest, IdenticalSetsShareASignature) {
  const auto a = live_set();
  const auto b = live_set();
  EXPECT_EQ(plan_signature(a), plan_signature(b));
}

TEST(PlanSignatureTest, QuantizationAbsorbsFloatNoise) {
  auto a = live_set();
  auto b = live_set();
  b[0].second.work += 1e-9;  // below the default 1e-6 quantum
  EXPECT_EQ(plan_signature(a), plan_signature(b));
  b[0].second.work += 1e-3;  // above it
  EXPECT_NE(plan_signature(a), plan_signature(b));
}

TEST(PlanSignatureTest, IdsAndFieldsAllMatter) {
  auto base = live_set();
  auto other_id = live_set();
  other_id[1].first = 3;
  EXPECT_NE(plan_signature(base), plan_signature(other_id));
  auto other_deadline = live_set();
  other_deadline[1].second.deadline += 1.0;
  EXPECT_NE(plan_signature(base), plan_signature(other_deadline));
}

TEST(PlanSignatureTest, RejectsNonPositiveQuantum) {
  const auto set = live_set();
  EXPECT_THROW(plan_signature(set, 0.0), ContractViolation);
}

TEST(PlanCacheTest, MissThenHit) {
  PlanCache cache(4);
  EXPECT_FALSE(cache.lookup("sig"));
  CachedPlan plan;
  plan.energy = 42.0;
  cache.insert("sig", plan);
  const auto hit = cache.lookup("sig");
  ASSERT_TRUE(hit);
  EXPECT_DOUBLE_EQ(hit->energy, 42.0);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_DOUBLE_EQ(cache.hit_rate(), 0.5);
}

TEST(PlanCacheTest, HitSharesTheInsertedPlanWithoutCopying) {
  PlanCache cache(4);
  const auto plan = std::make_shared<const CachedPlan>(CachedPlan{7.0, {}});
  cache.insert("sig", plan);
  EXPECT_EQ(cache.lookup("sig"), plan);
  EXPECT_THROW(cache.insert("null", std::shared_ptr<const CachedPlan>{}), ContractViolation);
}

TEST(PlanCacheTest, LruEvictsTheColdestEntry) {
  PlanCache cache(2);
  cache.insert("a", CachedPlan{1.0, {}});
  cache.insert("b", CachedPlan{2.0, {}});
  ASSERT_TRUE(cache.lookup("a"));  // refresh "a"; "b" is now coldest
  cache.insert("c", CachedPlan{3.0, {}});
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_TRUE(cache.lookup("a"));
  EXPECT_FALSE(cache.lookup("b"));
  EXPECT_TRUE(cache.lookup("c"));
}

TEST(PlanCacheTest, InsertOverwritesInPlace) {
  PlanCache cache(2);
  cache.insert("a", CachedPlan{1.0, {}});
  cache.insert("a", CachedPlan{9.0, {}});
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_DOUBLE_EQ(cache.lookup("a")->energy, 9.0);
}

TEST(PlanCacheTest, ZeroCapacityDisablesCaching) {
  PlanCache cache(0);
  cache.insert("a", CachedPlan{1.0, {}});
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.lookup("a"));
}

TEST(PlanSignatureTest, HugeCoordinatesDoNotCollide) {
  // Regression: `llround(x / quantum)` saturates once |x / quantum| leaves
  // the exact long-long range, so every huge coordinate used to collapse
  // onto the same quantized key. With work 1e13 and the default 1e-6
  // quantum, these two distinct sets collided — and the cache would then
  // serve set A's plan for set B.
  const std::vector<std::pair<TaskId, Task>> a = {{0, Task{0.0, 1.0, 1e13}}};
  const std::vector<std::pair<TaskId, Task>> b = {{0, Task{0.0, 1.0, 2e13}}};
  EXPECT_NE(plan_signature(a, 1e-6), plan_signature(b, 1e-6));
}

TEST(PlanSignatureTest, HugeCoordinateSignaturesAreStillDeterministic) {
  const std::vector<std::pair<TaskId, Task>> a = {{0, Task{0.0, 1.0, 1e13}}};
  const std::vector<std::pair<TaskId, Task>> same = {{0, Task{0.0, 1.0, 1e13}}};
  EXPECT_EQ(plan_signature(a, 1e-6), plan_signature(same, 1e-6));
}

TEST(PlanCacheTest, DistinctSetsBeyondTheQuantRangeNeverShareAPlan) {
  const std::vector<std::pair<TaskId, Task>> a = {{0, Task{0.0, 1.0, 1e13}}};
  const std::vector<std::pair<TaskId, Task>> b = {{0, Task{0.0, 1.0, 2e13}}};
  const std::string sig_a = plan_signature(a, 1e-6);
  const std::string sig_b = plan_signature(b, 1e-6);
  ASSERT_NE(sig_a, sig_b);
  PlanCache cache(4);
  cache.insert(sig_a, CachedPlan{1.0, {}});
  EXPECT_FALSE(cache.lookup(sig_b)) << "set B must not be served set A's plan";
}

TEST(PlanCacheTest, ClearKeepsLifetimeStats) {
  PlanCache cache(4);
  cache.insert("a", CachedPlan{1.0, {}});
  ASSERT_TRUE(cache.lookup("a"));
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.lookup("a"));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

}  // namespace
}  // namespace easched
