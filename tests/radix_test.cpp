// Property test of `radix_sort_keys`: for every size from 0 to 300, crossing
// the small-n insertion-sort cutoff, the permutation it produces equals
// `std::stable_sort` by key — ascending key, equal keys in input order — on
// the key shapes its callers feed it.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "easched/common/radix.hpp"
#include "easched/common/rng.hpp"

namespace easched {
namespace {

using KeyPairs = std::vector<std::pair<std::uint64_t, std::uint32_t>>;

constexpr std::size_t kMaxSize = 300;

void expect_matches_stable_sort(KeyPairs keys) {
  KeyPairs want = keys;
  std::stable_sort(want.begin(), want.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  KeyPairs swap;
  radix_sort_keys(keys, swap);
  ASSERT_EQ(keys, want) << "n=" << keys.size();
}

template <typename KeyOf>
void check_all_sizes(const char* label, KeyOf&& key_of) {
  Rng rng(Rng::seed_of(label));
  for (std::size_t n = 0; n <= kMaxSize; ++n) {
    KeyPairs keys;
    for (std::size_t i = 0; i < n; ++i) {
      keys.emplace_back(key_of(rng), static_cast<std::uint32_t>(i));
    }
    expect_matches_stable_sort(std::move(keys));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(RadixSortKeys, CutoffLiesInsideTheTestedSizes) {
  EXPECT_GT(kRadixSmallN, std::size_t{2});
  EXPECT_LT(kRadixSmallN, kMaxSize);
}

// The allocator's keys: `~bits` of positive DERs, so ascending key is
// descending DER.
TEST(RadixSortKeys, DerKeysMatchStableSort) {
  check_all_sizes("radix-der", [](Rng& rng) {
    return ~std::bit_cast<std::uint64_t>(rng.uniform(1e-3, 5.0));
  });
}

// A handful of distinct DERs, so most keys tie: only a stable sort keeps the
// tied indices ascending.
TEST(RadixSortKeys, ManyEqualKeysKeepInputOrder) {
  const double values[] = {0.25, 0.5, 1.0, 3.75};
  check_all_sizes("radix-ties", [&](Rng& rng) {
    return ~std::bit_cast<std::uint64_t>(values[rng.uniform_index(4)]);
  });
}

// `Schedule::validate`'s keys: `ordered_double_key` of start times, negatives
// and zeros of both signs included.
TEST(RadixSortKeys, OrderedDoubleKeysIncludingNegativesMatchStableSort) {
  check_all_sizes("radix-ordered", [](Rng& rng) {
    const double r = rng.uniform();
    if (r < 0.05) return ordered_double_key(0.0);
    if (r < 0.10) return ordered_double_key(-0.0);
    return ordered_double_key(rng.uniform(-1e6, 1e6));
  });
}

TEST(RadixSortKeys, OrderedDoubleKeyOrdersLikeTheValues) {
  const double values[] = {-1e300, -2.5, -1e-300, 0.0, 1e-300, 2.5, 1e300};
  for (std::size_t i = 0; i + 1 < std::size(values); ++i) {
    EXPECT_LT(ordered_double_key(values[i]), ordered_double_key(values[i + 1])) << i;
  }
}

}  // namespace
}  // namespace easched
