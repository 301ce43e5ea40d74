#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

/// Stable sorting of (u64 key, u32 index) pairs, shared by the allocator's
/// descending-DER order (Algorithm 2) and `Schedule::validate`'s start-time
/// ordering. Their sizes span four orders of magnitude: a heavy column of an
/// admission-sized plan sorts ~15 DER keys, a validate of a large plan sorts
/// hundreds of thousands of start times. Large inputs take LSD byte-histogram
/// passes, which beat a comparison sort's cache-hostile indirection; small
/// ones take an insertion sort, because a single 256-bucket pass already
/// costs more than the whole comparison sort of a few dozen keys.

namespace easched {

/// Inputs shorter than this sort by insertion instead of byte passes: the
/// crossover measured on DER keys (a 4-vCPU x86-64 VM, -O2) sits between 64
/// and 96 keys, where both take ~3 µs.
inline constexpr std::size_t kRadixSmallN = 64;

/// Stable sort of (key, index) pairs by ascending key. Stability keeps equal
/// keys in their input order, whichever strategy runs, so both produce the
/// same permutation. In the radix strategy, a byte pass whose histogram lands
/// everything in one bucket is the identity and is skipped, which prunes most
/// high-byte passes — keys produced from doubles in one schedule usually
/// share an exponent. `b` is the radix ping-pong buffer.
inline void radix_sort_keys(std::vector<std::pair<std::uint64_t, std::uint32_t>>& a,
                            std::vector<std::pair<std::uint64_t, std::uint32_t>>& b) {
  const std::size_t n = a.size();
  if (n < 2) return;
  if (n < kRadixSmallN) {
    // Strict `>` never moves a key past an equal one: stable.
    for (std::size_t i = 1; i < n; ++i) {
      const auto x = a[i];
      std::size_t j = i;
      for (; j > 0 && a[j - 1].first > x.first; --j) a[j] = a[j - 1];
      a[j] = x;
    }
    return;
  }
  b.resize(n);
  std::size_t pos[256];
  for (int shift = 0; shift < 64; shift += 8) {
    std::size_t count[256] = {};
    for (const auto& e : a) ++count[(e.first >> shift) & 0xff];
    if (count[(a[0].first >> shift) & 0xff] == n) continue;
    std::size_t run = 0;
    for (std::size_t bucket = 0; bucket < 256; ++bucket) {
      pos[bucket] = run;
      run += count[bucket];
    }
    for (const auto& e : a) b[pos[(e.first >> shift) & 0xff]++] = e;
    a.swap(b);
  }
}

/// Order-preserving u64 key for any finite double: ascending key order is
/// ascending value order over the full range, negatives included (flip all
/// bits of negatives, flip only the sign bit of non-negatives).
inline std::uint64_t ordered_double_key(double value) {
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(value);
  return bits ^ ((bits >> 63) != 0 ? ~std::uint64_t{0} : (std::uint64_t{1} << 63));
}

}  // namespace easched
