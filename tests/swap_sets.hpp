// Random disjoint qubit-transposition sets for the bit-permutation mover
// tests (test_sched: the kernel against a naive swap; test_dist_sv: the
// distributed pack/unpack against hpc).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <random>
#include <vector>

#include "common/types.hpp"

namespace qc::testing {

/// Where a set's pairs sit relative to a boundary bit `split` (the
/// mover's shortest run, or the dist local/global boundary).
enum class SwapShape {
  Any,       ///< pairs drawn from every qubit
  WithBit0,  ///< Any, with qubit 0 in the first pair
  WithTop,   ///< Any, with qubit n - 1 in the first pair
  AllLow,    ///< both bits of every pair below split
  AllHigh,   ///< both bits of every pair at or above split
  LowHigh,   ///< one bit of every pair below split, one at or above it
};

inline constexpr std::array<SwapShape, 6> kSwapShapes = {
    SwapShape::Any,    SwapShape::WithBit0, SwapShape::WithTop,
    SwapShape::AllLow, SwapShape::AllHigh,  SwapShape::LowHigh};

/// Most pairs a `shape` set can hold on n qubits.
inline std::size_t max_swap_pairs(qubit_t n, SwapShape shape, qubit_t split) {
  const qubit_t low = std::min(n, split), high = n - low;
  switch (shape) {
    case SwapShape::AllLow: return low / 2;
    case SwapShape::AllHigh: return high / 2;
    case SwapShape::LowHigh: return std::min(low, high);
    default: return n / 2;
  }
}

/// `pairs` disjoint transpositions of `shape` (pairs <= max_swap_pairs),
/// each pair in a random order.
inline std::vector<std::array<qubit_t, 2>> random_swap_set(qubit_t n, std::size_t pairs,
                                                           SwapShape shape, qubit_t split,
                                                           std::mt19937_64& rng) {
  std::vector<qubit_t> low, high, all;
  for (qubit_t q = 0; q < n; ++q) (q < split ? low : high).push_back(q);
  std::shuffle(low.begin(), low.end(), rng);
  std::shuffle(high.begin(), high.end(), rng);
  all = low;
  all.insert(all.end(), high.begin(), high.end());
  std::shuffle(all.begin(), all.end(), rng);
  const auto lead = [&](qubit_t q) {
    std::iter_swap(all.begin(), std::find(all.begin(), all.end(), q));
  };
  if (shape == SwapShape::WithBit0 && n > 0) lead(0);
  if (shape == SwapShape::WithTop && n > 0) lead(n - 1);
  std::vector<std::array<qubit_t, 2>> out;
  for (std::size_t i = 0; i < pairs; ++i) {
    std::array<qubit_t, 2> p{};
    switch (shape) {
      case SwapShape::AllLow: p = {low[2 * i], low[2 * i + 1]}; break;
      case SwapShape::AllHigh: p = {high[2 * i], high[2 * i + 1]}; break;
      case SwapShape::LowHigh: p = {low[i], high[i]}; break;
      default: p = {all[2 * i], all[2 * i + 1]}; break;
    }
    if (rng() & 1) std::swap(p[0], p[1]);
    out.push_back(p);
  }
  return out;
}

/// The pair counts a test runs for one (n, shape): every count from 1 to
/// the maximum when `every` is set, else 1, 2 and the maximum.
inline std::vector<std::size_t> swap_pair_counts(qubit_t n, SwapShape shape, qubit_t split,
                                                 bool every) {
  const std::size_t max = max_swap_pairs(n, shape, split);
  std::vector<std::size_t> out;
  for (std::size_t k = 1; k <= max; ++k)
    if (every || k <= 2 || k == max) out.push_back(k);
  return out;
}

/// Index i's image under the transpositions: bits a and b of i swapped
/// for every pair {a, b}.
inline index_t swap_image(index_t i, const std::vector<std::array<qubit_t, 2>>& pairs) {
  index_t j = i;
  for (const auto& p : pairs)
    if (((i >> p[0]) & 1) != ((i >> p[1]) & 1)) j ^= (index_t{1} << p[0]) | (index_t{1} << p[1]);
  return j;
}

}  // namespace qc::testing
