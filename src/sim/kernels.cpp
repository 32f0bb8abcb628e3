#include "sim/kernels.hpp"

#include <omp.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>

#include "common/aligned.hpp"
#include "sim/kernels_dispatch.hpp"

namespace qc::sim::kernels {

BitPositions sorted_bit_positions(index_t mask, std::initializer_list<qubit_t> extra) {
  BitPositions out;
  for (qubit_t k = 0; mask >> k; ++k)
    if (bits::test(mask, k)) out.pos[out.count++] = k;
  for (const qubit_t e : extra) {
    assert(out.count < out.pos.size() && !bits::test(mask, e));
    std::size_t i = out.count++;
    for (; i > 0 && out.pos[i - 1] > e; --i) out.pos[i] = out.pos[i - 1];
    out.pos[i] = e;
  }
  return out;
}

namespace {

/// log2 of the longest run (in amplitudes) handed to one microkernel
/// call: short enough that flattening (group, segment) pairs keeps every
/// thread busy even when the target is a top qubit (one giant run), long
/// enough to amortize dispatch.
inline constexpr qubit_t kSegmentLog = 12;

/// Splats a 2x2 block into the row-major {re, im} coefficient layout the
/// dense2 microkernel consumes.
template <typename T>
std::array<T, 8> u2_coef(const U2T<T>& u) noexcept {
  return {u.m00.real(), u.m00.imag(), u.m01.real(), u.m01.imag(),
          u.m10.real(), u.m10.imag(), u.m11.real(), u.m11.imag()};
}

/// The one place a kernel meets OpenMP: calls body(begin, end) to cover
/// [0, count). With Par, and `work` amplitudes worth a fork, each thread
/// of one `omp parallel` region takes one contiguous share; otherwise
/// the calling thread runs the whole range and no region is opened.
template <bool Par, typename F>
void for_ranges(index_t count, index_t work, F&& body) {
  if constexpr (Par) {
#pragma omp parallel if (worth_parallelizing(work))
    {
      const auto t = static_cast<index_t>(omp_get_thread_num());
      const auto threads = static_cast<index_t>(omp_get_num_threads());
      body(count * t / threads, count * (t + 1) / threads);
    }
  } else {
    body(index_t{0}, count);
  }
}

/// Calls f(i) for every index of the 2^n-amplitude state whose bits at
/// the ascending positions `pos` are 0. The 1/2/3-position cases (one
/// target plus up to two controls — nearly every gate) inline the
/// insert_bit chain so the loop stays tight; BitExpander's runtime
/// position loop costs ~2x on these sweeps (measured at 22 qubits).
template <bool Par, typename F>
void expanded_loop(qubit_t n, std::span<const qubit_t> pos, F&& f) {
  const index_t count = dim(n) >> pos.size();
  for_ranges<Par>(count, count, [&](index_t lo, index_t hi) {
    switch (pos.size()) {
      case 1: {
        const qubit_t p0 = pos[0];
        for (index_t j = lo; j < hi; ++j) f(bits::insert_bit(j, p0));
        return;
      }
      case 2: {
        const qubit_t p0 = pos[0], p1 = pos[1];
        for (index_t j = lo; j < hi; ++j) f(bits::insert_bit(bits::insert_bit(j, p0), p1));
        return;
      }
      case 3: {
        const qubit_t p0 = pos[0], p1 = pos[1], p2 = pos[2];
        for (index_t j = lo; j < hi; ++j)
          f(bits::insert_bit(bits::insert_bit(bits::insert_bit(j, p0), p1), p2));
        return;
      }
      default: {
        const BitExpander expand{pos};
        for (index_t j = lo; j < hi; ++j) f(expand(j));
        return;
      }
    }
  });
}

/// Uncontrolled single-qubit gates pair the contiguous target=0 and
/// target=1 runs of 2^target amplitudes. Calls f(base, len) for every
/// segment of a target=0 run (its partner starts at base + 2^target),
/// with (run, segment) flattened into one index so the threads stay
/// balanced whether the target is qubit 0 (many short runs) or the top
/// qubit (one run spanning half the vector). Every size is a power of
/// two, so the index splits with shifts, not divisions.
template <bool Par, typename F>
void for_run_pairs(qubit_t n, qubit_t target, F&& f) {
  const qubit_t seg_log = std::min(target, kSegmentLog);
  const qubit_t run_log = target - seg_log;  // log2 segments per run
  const index_t total = dim(n) >> (target + 1 - run_log);
  for_ranges<Par>(total, dim(n), [&](index_t lo, index_t hi) {
    for (index_t s = lo; s < hi; ++s)
      f(((s >> run_log) << (target + 1)) | ((s & bits::low_mask(run_log)) << seg_log),
        dim(seg_log));
  });
}

}  // namespace

template <typename T, bool Par>
void apply_generic_masked(std::span<basic_complex_t<T>> a, qubit_t n, qubit_t target,
                          index_t cmask, const U2T<T>& u) {
  using C = basic_complex_t<T>;
  const index_t tbit = index_t{1} << target;
  const qubit_t pos[1] = {target};
  expanded_loop<Par>(n, pos, [&](index_t i0) {
    if ((i0 & cmask) != cmask) return;
    const index_t i1 = i0 | tbit;
    const C x0 = a[i0], x1 = a[i1];
    a[i0] = u.m00 * x0 + u.m01 * x1;
    a[i1] = u.m10 * x0 + u.m11 * x1;
  });
}

template <typename T, bool Par>
void apply_folded(std::span<basic_complex_t<T>> a, qubit_t n, qubit_t target, index_t cmask,
                  const U2T<T>& u) {
  using C = basic_complex_t<T>;
  const index_t tbit = index_t{1} << target;
  if (cmask == 0) {
    // Uncontrolled: hand the contiguous partner runs to the
    // runtime-dispatched dense2 microkernel.
    const auto& mk = active_microkernels<T>();
    const std::array<T, 8> coef = u2_coef(u);
    T* p = real_imag_planes(a.data());
    for_run_pairs<Par>(n, target, [&](index_t base, index_t len) {
      mk.dense2(p + 2 * base, p + 2 * (base + tbit), len, coef.data());
    });
    return;
  }
  const auto pos = sorted_bit_positions(cmask, {target});
  expanded_loop<Par>(n, pos, [&](index_t expanded) {
    const index_t i0 = expanded | cmask;
    const index_t i1 = i0 | tbit;
    const C x0 = a[i0], x1 = a[i1];
    a[i0] = u.m00 * x0 + u.m01 * x1;
    a[i1] = u.m10 * x0 + u.m11 * x1;
  });
}

template <typename T, bool Par>
void apply_diagonal(std::span<basic_complex_t<T>> a, qubit_t n, qubit_t target,
                    basic_complex_t<T> d0, basic_complex_t<T> d1, index_t cmask) {
  using C = basic_complex_t<T>;
  const index_t tbit = index_t{1} << target;
  const bool skip0 = d0 == C{T{1}};
  if (cmask == 0) {
    // Uncontrolled: scale the target=1 (and, unless d0 == 1, target=0)
    // runs through the dispatched run-scale microkernel.
    const auto& mk = active_microkernels<T>();
    T* p = real_imag_planes(a.data());
    for_run_pairs<Par>(n, target, [&](index_t base, index_t len) {
      if (!skip0) mk.scale(p + 2 * base, len, d0.real(), d0.imag());
      mk.scale(p + 2 * (base + tbit), len, d1.real(), d1.imag());
    });
    return;
  }
  if (skip0) {
    // Phase-type gate: only amplitudes with target=1 and controls=1
    // change — a quarter of the vector for the paper's CR gate.
    const auto pos = sorted_bit_positions(cmask, {target});
    const index_t set_mask = cmask | tbit;
    expanded_loop<Par>(n, pos, [&](index_t expanded) { a[expanded | set_mask] *= d1; });
    return;
  }
  // General diagonal (e.g. Rz): one in-place sweep over the controls=1
  // part, choosing d0/d1 by the target bit.
  const auto pos = sorted_bit_positions(cmask, {});
  expanded_loop<Par>(n, pos, [&](index_t expanded) {
    const index_t i = expanded | cmask;
    a[i] *= (i & tbit) ? d1 : d0;
  });
}

template <typename T, bool Par>
void apply_x(std::span<basic_complex_t<T>> a, qubit_t n, qubit_t target, index_t cmask) {
  const index_t tbit = index_t{1} << target;
  if (cmask == 0) {
    // Uncontrolled NOT: exchange the contiguous target=0 / target=1 runs.
    basic_complex_t<T>* p = a.data();
    for_run_pairs<Par>(n, target, [&](index_t base, index_t len) {
      std::swap_ranges(p + base, p + base + len, p + base + tbit);
    });
    return;
  }
  const auto pos = sorted_bit_positions(cmask, {target});
  expanded_loop<Par>(n, pos, [&](index_t expanded) {
    const index_t i0 = expanded | cmask;
    std::swap(a[i0], a[i0 | tbit]);
  });
}

template <typename T, bool Par>
void apply_swap(std::span<basic_complex_t<T>> a, qubit_t n, qubit_t qa, qubit_t qb,
                index_t cmask) {
  // Touches only indices where the two bits differ: enumerate with both
  // bits removed, swap (qa=1,qb=0) with (qa=0,qb=1).
  const auto pos = sorted_bit_positions(cmask, {qa, qb});
  const index_t abit = index_t{1} << qa;
  const index_t bbit = index_t{1} << qb;
  expanded_loop<Par>(n, pos, [&](index_t expanded) {
    const index_t base = expanded | cmask;
    std::swap(a[base | abit], a[base | bbit]);
  });
}

namespace {

/// Spreads the k local bits of every b in [0, 2^k) to the global
/// positions `targets`, so base | offs[b] walks one amplitude block.
template <index_t B>
std::array<index_t, B> block_offsets(std::span<const qubit_t> targets) {
  std::array<index_t, B> offs{};
  for (index_t b = 0; b < B; ++b) {
    index_t o = 0;
    for (std::size_t l = 0; l < targets.size(); ++l)
      if (bits::test(b, static_cast<qubit_t>(l))) o = bits::set(o, targets[l]);
    offs[b] = o;
  }
  return offs;
}

/// Width-templated block apply: the compile-time block size lets the
/// compiler fully unroll / FMA-vectorize the mat-vec, and the unitary is
/// split once into real/imag planes so the hot loop is plain scalar
/// arithmetic (std::complex products inhibit vectorization).
template <typename T, unsigned K, bool Par>
void apply_multi_t(std::span<basic_complex_t<T>> a, qubit_t n, std::span<const qubit_t> targets,
                   std::span<const basic_complex_t<T>> u) {
  using C = basic_complex_t<T>;
  constexpr index_t B = index_t{1} << K;
  const BitExpander expand{targets};
  const std::array<index_t, B> offs = block_offsets<B>(targets);
  alignas(64) std::array<T, B * B> ur, ui;
  for (index_t i = 0; i < B * B; ++i) {
    ur[i] = u[i].real();
    ui[i] = u[i].imag();
  }
  const index_t count = dim(n) >> K;
  for_ranges<Par>(count, count, [&](index_t lo, index_t hi) {
    alignas(64) std::array<T, B> xr, xi, yr, yi;
    for (index_t j = lo; j < hi; ++j) {
      const index_t base = expand(j);
      for (index_t b = 0; b < B; ++b) {
        const C v = a[base | offs[b]];
        xr[b] = v.real();
        xi[b] = v.imag();
      }
      for (index_t r = 0; r < B; ++r) {
        const T* urow = ur.data() + r * B;
        const T* uirow = ui.data() + r * B;
        T accr{}, acci{};
        for (index_t c = 0; c < B; ++c) {
          accr += urow[c] * xr[c] - uirow[c] * xi[c];
          acci += urow[c] * xi[c] + uirow[c] * xr[c];
        }
        yr[r] = accr;
        yi[r] = acci;
      }
      for (index_t b = 0; b < B; ++b) a[base | offs[b]] = C{yr[b], yi[b]};
    }
  });
}

/// Generic fallback for the widest blocks (heap-sized scratch).
template <typename T, bool Par>
void apply_multi_generic(std::span<basic_complex_t<T>> a, qubit_t n,
                         std::span<const qubit_t> targets,
                         std::span<const basic_complex_t<T>> u) {
  using C = basic_complex_t<T>;
  const auto k = static_cast<qubit_t>(targets.size());
  const index_t block = dim(k);
  const BitExpander expand{targets};
  const auto offs = block_offsets<dim(kMaxFusedWidth)>(targets);
  const C* um = u.data();
  const index_t count = dim(n) >> k;
  for_ranges<Par>(count, count, [&](index_t lo, index_t hi) {
    std::vector<C> x(block), y(block);
    for (index_t j = lo; j < hi; ++j) {
      const index_t base = expand(j);
      for (index_t b = 0; b < block; ++b) x[b] = a[base | offs[b]];
      for (index_t r = 0; r < block; ++r) {
        const C* row = um + r * block;
        C acc{};
        for (index_t c = 0; c < block; ++c) acc += row[c] * x[c];
        y[r] = acc;
      }
      for (index_t b = 0; b < block; ++b) a[base | offs[b]] = y[b];
    }
  });
}

/// 2-qubit dense apply through the dispatched 4x4 microkernel: the
/// generic gather kernel pays per-block staging (~2x at B = 4); this
/// walks the four target-bit runs {00, 01, 10, 11} directly so the
/// contiguous low-bit run vectorizes, with (group, segment) pairs
/// flattened like for_run_pairs so high targets still load-balance.
template <typename T, bool Par>
void apply_multi2(std::span<basic_complex_t<T>> a, qubit_t n, qubit_t t0, qubit_t t1,
                  std::span<const basic_complex_t<T>> u) {
  const index_t size = dim(n);
  const index_t b0 = index_t{1} << t0;
  const index_t b1 = index_t{1} << t1;
  // Unitary coefficient planes, row-major 4x4 (local bit 0 <-> t0).
  alignas(64) T ur[16], ui[16];
  for (int i = 0; i < 16; ++i) {
    ur[i] = u[i].real();
    ui[i] = u[i].imag();
  }
  const auto& mk = active_microkernels<T>();
  T* p = real_imag_planes(a.data());
  const qubit_t seg_log = std::min(t0, kSegmentLog);
  const qubit_t run_log = t0 - seg_log;            // log2 segments per b0 run
  const qubit_t group_log = t1 - t0 - 1 + run_log;  // log2 segments per b1 group
  const index_t total = size >> (t1 + 1 - group_log);
  for_ranges<Par>(total, size, [&](index_t lo, index_t hi) {
    for (index_t s = lo; s < hi; ++s) {
      const index_t rem = s & bits::low_mask(group_log);
      const index_t base = ((s >> group_log) << (t1 + 1)) | ((rem >> run_log) << (t0 + 1)) |
                           ((rem & bits::low_mask(run_log)) << seg_log);
      mk.dense4(p + 2 * base, p + 2 * (base + b0), p + 2 * (base + b1),
                p + 2 * (base + b0 + b1), dim(seg_log), ur, ui);
    }
  });
}

}  // namespace

template <typename T, bool Par>
void apply_multi(std::span<basic_complex_t<T>> a, qubit_t n, std::span<const qubit_t> targets,
                 std::span<const basic_complex_t<T>> u) {
  const auto k = static_cast<qubit_t>(targets.size());
  assert(k >= 1 && k <= kMaxFusedWidth && k <= n);
  assert(u.size() == dim(k) * dim(k));
  assert(std::is_sorted(targets.begin(), targets.end()));
  switch (k) {
    case 1: {
      // Route through the folded 2x2 path so fused single-qubit blocks
      // hit the dispatched dense2 microkernel.
      const U2T<T> u2{u[0], u[1], u[2], u[3]};
      return apply_folded<T, Par>(a, n, targets[0], 0, u2);
    }
    case 2: return apply_multi2<T, Par>(a, n, targets[0], targets[1], u);
    case 3: return apply_multi_t<T, 3, Par>(a, n, targets, u);
    case 4: return apply_multi_t<T, 4, Par>(a, n, targets, u);
    case 5: return apply_multi_t<T, 5, Par>(a, n, targets, u);
    case 6: return apply_multi_t<T, 6, Par>(a, n, targets, u);
    default: return apply_multi_generic<T, Par>(a, n, targets, u);
  }
}

template <typename T, bool Par>
void apply_multi_diagonal(std::span<basic_complex_t<T>> a, qubit_t n,
                          std::span<const qubit_t> targets,
                          std::span<const basic_complex_t<T>> d) {
  const auto k = static_cast<qubit_t>(targets.size());
  assert(k >= 1 && k <= kMaxFusedWidth && k <= n);
  assert(d.size() == dim(k));
  const index_t size = dim(n);
  for_ranges<Par>(size, size, [&](index_t lo, index_t hi) {
    for (index_t i = lo; i < hi; ++i) {
      index_t b = 0;
      for (qubit_t l = 0; l < k; ++l) b |= bits::get(i, targets[l]) << l;
      a[i] *= d[b];
    }
  });
}

namespace {

/// log2 of the largest tile the mover stages: two tiles of 2^12
/// amplitudes (128 KiB at fp64) sit in L2 and stay below glibc's
/// default mmap threshold. Larger buffers timed the same but, once
/// freed, raise that threshold, so the process keeps other freed blocks
/// resident: 2^14 tiles added 9 MiB to the peak RSS of a 22-qubit
/// 2-rank run, 2^12 tiles under 1 MiB.
inline constexpr qubit_t kTileLog = 12;
/// Shortest run (log2 amplitudes) a bare swap_ranges streams well; pairs
/// reaching below it go through tiles.
inline constexpr qubit_t kMinRunLog = 9;

}  // namespace

qubit_t swap_run_bits(qubit_t n, std::span<const std::array<qubit_t, 2>> pairs) {
  qubit_t lo_min = n;
  for (const auto& p : pairs) lo_min = std::min({lo_min, p[0], p[1]});
  // A lone pair swaps runs down to 4 amplitudes: it then moves only the
  // half of the state that changes, where a tile copies all of it.
  if (lo_min >= kMinRunLog || (pairs.size() == 1 && lo_min >= 2))
    return std::min(lo_min, kTileLog);
  // Largest R whose tile (2^R runs x 2^k slots of the k pairs straddling
  // R) fits the cap; R = lo_min + 1 always does, so the loop ends above
  // lo_min and the tile really permutes.
  for (qubit_t r = std::min(n, kTileLog);; --r) {
    qubit_t k = 0;
    for (const auto& p : pairs) k += std::min(p[0], p[1]) < r && std::max(p[0], p[1]) >= r;
    if (r + k <= kTileLog) return r;
  }
}

template <typename T>
void apply_qubit_swaps(std::span<basic_complex_t<T>> a, qubit_t n,
                       std::span<const std::array<qubit_t, 2>> pairs) {
  using C = basic_complex_t<T>;
  if (pairs.empty()) return;
#ifndef NDEBUG
  index_t seen = 0;
  for (const auto& p : pairs) {
    assert(p[0] < n && p[1] < n && p[0] != p[1]);
    assert(!bits::test(seen, p[0]) && !bits::test(seen, p[1]));
    seen = bits::set(bits::set(seen, p[0]), p[1]);
  }
#endif
  // Index i = (outer bits, k slot bits, R run bits). Pairs with both bits
  // >= R ("outer") map a tile's base to its partner tile's base; pairs
  // reaching below R permute bits inside the tile, whose local bit j is
  // run bit j (j < R) or slot j - R.
  const qubit_t run_bits = swap_run_bits(n, pairs);
  index_t slot_mask = 0;
  std::vector<std::array<qubit_t, 2>> outer;
  for (const auto& p : pairs) {
    const qubit_t hi = std::max(p[0], p[1]);
    if (std::min(p[0], p[1]) >= run_bits) {
      outer.push_back(p);
    } else if (hi >= run_bits) {
      slot_mask = bits::set(slot_mask, hi);
    }
  }
  const BitPositions slots = sorted_bit_positions(slot_mask);
  const auto tile_bits = static_cast<qubit_t>(run_bits + slots.size());
  const index_t run = dim(run_bits);
  const index_t tile = dim(tile_bits);
  const index_t slot_count = dim(static_cast<qubit_t>(slots.size()));
  std::vector<index_t> slot_offset(slot_count);  // slot s's run, relative to a tile's base
  for (index_t s = 1; s < slot_count; ++s)
    slot_offset[s] = slot_offset[s & (s - 1)] | bits::bit(slots.pos[std::countr_zero(s)]);

  // Tile-local permutation table (empty when every pair is outer: then
  // partner tiles are single runs that swap whole).
  std::vector<std::uint16_t> table;
  if (outer.size() < pairs.size()) {
    static_assert(kTileLog <= 16, "tile indices are stored as uint16_t");
    const auto local_bit = [&](qubit_t q) {
      return q < run_bits ? q
                          : static_cast<qubit_t>(run_bits +
                                                 std::popcount(slot_mask & bits::low_mask(q)));
    };
    std::array<qubit_t, kTileLog> image{};
    std::iota(image.begin(), image.begin() + tile_bits, qubit_t{0});
    for (const auto& p : pairs)
      if (std::min(p[0], p[1]) < run_bits)
        std::swap(image[local_bit(p[0])], image[local_bit(p[1])]);
    table.resize(tile);
    for (index_t d = 1; d < tile; ++d)
      table[d] = static_cast<std::uint16_t>(table[d & (d - 1)] |
                                            bits::bit(image[std::countr_zero(d)]));
  }

  const index_t outer_count = dim(n - tile_bits);
  const BitExpander expand{slots};
  const index_t chunk = std::max<index_t>(1, dim(kTileLog) >> tile_bits);
#pragma omp parallel if (worth_parallelizing(dim(n)))
  {
    uninit_aligned_vector<C> buf(table.empty() ? 0 : 2 * tile);
    const auto gather = [&](index_t base, C* out) {
      for (index_t s = 0; s < slot_count; ++s)
        std::copy_n(a.data() + (base | slot_offset[s]), run, out + s * run);
    };
    const auto scatter = [&](index_t base, const C* in) {
      for (index_t s = 0; s < slot_count; ++s) {
        C* dst = a.data() + (base | slot_offset[s]);
        const std::uint16_t* idx = table.data() + s * run;
        for (index_t r = 0; r < run; ++r) dst[r] = in[idx[r]];
      }
    };
#pragma omp for schedule(dynamic, chunk)
    for (index_t o = 0; o < outer_count; ++o) {
      const index_t base = expand(o << run_bits);
      index_t partner = base;
      for (const auto& p : outer)
        if (bits::get(base, p[0]) != bits::get(base, p[1]))
          partner ^= bits::bit(p[0]) | bits::bit(p[1]);
      // Each tile pair is moved once, by its lower member.
      if (partner < base || (partner == base && table.empty())) continue;
      if (table.empty()) {
        std::swap_ranges(a.data() + base, a.data() + base + run, a.data() + partner);
        continue;
      }
      gather(base, buf.data());
      if (partner == base) {
        scatter(base, buf.data());
        continue;
      }
      gather(partner, buf.data() + tile);
      scatter(base, buf.data() + tile);
      scatter(partner, buf.data());
    }
  }
}

// ---------------------------------------------------------------------
// Explicit instantiations: the kernel surface exists exactly for the
// two amplitude precisions the engine exposes (Precision::kF64/kF32).
// ---------------------------------------------------------------------

#define QC_INSTANTIATE_KERNELS(T, Par)                                                        \
  template void apply_generic_masked<T, Par>(std::span<basic_complex_t<T>>, qubit_t, qubit_t, \
                                             index_t, const U2T<T>&);                         \
  template void apply_folded<T, Par>(std::span<basic_complex_t<T>>, qubit_t, qubit_t,         \
                                     index_t, const U2T<T>&);                                 \
  template void apply_diagonal<T, Par>(std::span<basic_complex_t<T>>, qubit_t, qubit_t,       \
                                       basic_complex_t<T>, basic_complex_t<T>, index_t);      \
  template void apply_x<T, Par>(std::span<basic_complex_t<T>>, qubit_t, qubit_t, index_t);    \
  template void apply_swap<T, Par>(std::span<basic_complex_t<T>>, qubit_t, qubit_t, qubit_t,  \
                                   index_t);                                                  \
  template void apply_multi<T, Par>(std::span<basic_complex_t<T>>, qubit_t,                   \
                                    std::span<const qubit_t>,                                 \
                                    std::span<const basic_complex_t<T>>);                     \
  template void apply_multi_diagonal<T, Par>(std::span<basic_complex_t<T>>, qubit_t,          \
                                             std::span<const qubit_t>,                        \
                                             std::span<const basic_complex_t<T>>);

QC_INSTANTIATE_KERNELS(float, true)
QC_INSTANTIATE_KERNELS(float, false)
QC_INSTANTIATE_KERNELS(double, true)
QC_INSTANTIATE_KERNELS(double, false)

#undef QC_INSTANTIATE_KERNELS

template void apply_qubit_swaps<float>(std::span<basic_complex_t<float>>, qubit_t,
                                       std::span<const std::array<qubit_t, 2>>);
template void apply_qubit_swaps<double>(std::span<basic_complex_t<double>>, qubit_t,
                                        std::span<const std::array<qubit_t, 2>>);

}  // namespace qc::sim::kernels
