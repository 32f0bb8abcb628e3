// Gate-application kernels on raw amplitude arrays.
//
// Two tiers, matching the simulators the paper benchmarks against each
// other (§4.5):
//
//  * generic_masked — the unspecialized kernel: traverses every
//    (target=0, target=1) amplitude pair, checks the control mask per
//    pair, and performs the full 2x2 complex multiply even for diagonal
//    or permutation gates. LiquidLike runs it serial, QhipsterLike
//    parallel.
//
//  * folded / diagonal / x / swap fast paths and the k-qubit dense and
//    diagonal blocks — "our simulator": enumerate only the amplitudes a
//    gate actually changes. A controlled phase shift touches a quarter
//    of the state vector (the paper's §3.2 counts exactly this), a NOT
//    is a pure swap with zero flops, and controls fold into the index
//    enumeration instead of a per-pair branch.
//
// Every kernel body is written once, as a template on the real
// amplitude scalar T in {float, double} and on `bool Par`:
//
//  * T: fp64 is the reference, fp32 halves the bytes each sweep moves
//    (the paper's figure of merit is bandwidth, §4.2). The contiguous-run
//    inner loops of the dense 2x2 / 4x4 and diagonal kernels go through
//    runtime-dispatched SIMD microkernels (kernels_dispatch.hpp), so one
//    portable binary still saturates AVX2 / AVX-512 hosts.
//  * Par = true (the default) splits the kernel's index range into one
//    contiguous share per thread inside a single `omp parallel` region,
//    when the state is large enough to amortize the fork. Par = false
//    runs the same body over the whole range on the calling thread and
//    never opens a region: the cache-blocked executor (qc::sched) calls
//    it on one cache-resident chunk from inside its own cross-chunk
//    parallel loop.
//
// All kernels are race-free: index j of the split range maps to a
// unique amplitude (pair or block), so the shares touch disjoint memory.
#pragma once

#include <array>
#include <cassert>
#include <span>
#include <type_traits>

#include "common/bits.hpp"
#include "common/parallel.hpp"
#include "common/types.hpp"

namespace qc::sim::kernels {

/// Dense 2x2 unitary block, row-major, over real scalar T.
template <typename T>
struct U2T {
  basic_complex_t<T> m00, m01, m10, m11;
};

/// Double-precision alias — the default across the non-templated API.
using U2 = U2T<double>;

/// Converts a 2x2 block between amplitude precisions (planning stays
/// fp64; executors narrow the block once per gate, not per amplitude).
template <typename T>
constexpr U2T<T> u2_cast(const U2& u) noexcept {
  if constexpr (std::is_same_v<T, double>) {
    return u;
  } else {
    return U2T<T>{static_cast<basic_complex_t<T>>(u.m00), static_cast<basic_complex_t<T>>(u.m01),
                  static_cast<basic_complex_t<T>>(u.m10), static_cast<basic_complex_t<T>>(u.m11)};
  }
}

/// The sanctioned way to view a run of complex amplitudes as interleaved
/// {re, im} scalar pairs (amplitude j at planes[2j], planes[2j + 1]).
/// [complex.numbers.general]/4 guarantees this array compatibility: for
/// an array a of std::complex<T>, reinterpret_cast<T*>(a)[2j]
/// and [2j + 1] designate the real and imaginary parts of a[j]. The
/// vectorized kernels use it to operate on contiguous runs; every
/// complex->scalar reinterpretation in the codebase must go through this
/// accessor so the (single, standard-blessed) aliasing assumption is
/// written down exactly once.
template <typename T>
inline T* real_imag_planes(basic_complex_t<T>* c) noexcept {
  return reinterpret_cast<T*>(c);
}

template <typename T>
inline const T* real_imag_planes(const basic_complex_t<T>* c) noexcept {
  return reinterpret_cast<const T*>(c);
}

/// Expands a compressed index to a full basis index by re-inserting 0
/// bits at the given (ascending) positions. Enumerating j in
/// [0, 2^{n-k}) and expanding visits every index whose k special bits
/// are 0 exactly once.
class BitExpander {
 public:
  BitExpander() = default;

  /// `positions` must be strictly ascending qubit labels.
  explicit BitExpander(std::span<const qubit_t> positions) : count_(positions.size()) {
    assert(positions.size() <= pos_.size());
    for (std::size_t i = 0; i < positions.size(); ++i) pos_[i] = positions[i];
  }

  [[nodiscard]] index_t operator()(index_t j) const noexcept {
    index_t r = j;
    for (std::size_t i = 0; i < count_; ++i) r = bits::insert_bit(r, pos_[i]);
    return r;
  }

  [[nodiscard]] std::size_t count() const noexcept { return count_; }

 private:
  std::array<qubit_t, 16> pos_{};
  std::size_t count_ = 0;
};

/// Ascending bit positions in a fixed-capacity array (an index_t has at
/// most 64 bits), so a kernel collects its control and target positions
/// without a heap allocation. Views as std::span<const qubit_t>.
struct BitPositions {
  std::array<qubit_t, 64> pos{};
  std::size_t count = 0;

  [[nodiscard]] std::size_t size() const noexcept { return count; }
  [[nodiscard]] const qubit_t* begin() const noexcept { return pos.data(); }
  [[nodiscard]] const qubit_t* end() const noexcept { return pos.data() + count; }
  operator std::span<const qubit_t>() const noexcept { return {pos.data(), count}; }
};

/// Sorted set bits of `mask` plus optionally extra bits (not in `mask`).
BitPositions sorted_bit_positions(index_t mask, std::initializer_list<qubit_t> extra = {});

// ---------------------------------------------------------------------
// Unspecialized tier.
// ---------------------------------------------------------------------

/// Full pair traversal with per-pair control check and dense 2x2 math.
template <typename T, bool Par = true>
void apply_generic_masked(std::span<basic_complex_t<T>> a, qubit_t n, qubit_t target,
                          index_t cmask, const U2T<T>& u);

// ---------------------------------------------------------------------
// Specialized tier ("our simulator").
// ---------------------------------------------------------------------

/// Control-folded dense 2x2: enumerates only pairs whose controls are
/// satisfied (2^{n-1-c} pairs instead of 2^{n-1}).
template <typename T, bool Par = true>
void apply_folded(std::span<basic_complex_t<T>> a, qubit_t n, qubit_t target, index_t cmask,
                  const U2T<T>& u);

/// Diagonal gate diag(d0, d1) on `target`, controls folded. If d0 == 1
/// (Z, S, T, R(theta)/CR) only the target=1, controls=1 quarter/half is
/// touched; otherwise a single in-place sweep of the controls=1 part.
template <typename T, bool Par = true>
void apply_diagonal(std::span<basic_complex_t<T>> a, qubit_t n, qubit_t target,
                    basic_complex_t<T> d0, basic_complex_t<T> d1, index_t cmask);

/// NOT/CNOT/Toffoli as a pure amplitude swap (no flops), controls folded.
template <typename T, bool Par = true>
void apply_x(std::span<basic_complex_t<T>> a, qubit_t n, qubit_t target, index_t cmask);

/// SWAP gate: exchanges amplitudes where the two target bits differ.
template <typename T, bool Par = true>
void apply_swap(std::span<basic_complex_t<T>> a, qubit_t n, qubit_t qa, qubit_t qb,
                index_t cmask);

// ---------------------------------------------------------------------
// k-qubit dense tier (gate fusion).
// ---------------------------------------------------------------------

/// Widest fused block apply_multi supports. Bounds the per-thread gather
/// scratch (2^k amplitudes) and the fused unitary (2^k x 2^k); beyond
/// ~6 qubits the per-amplitude mat-vec work dominates the memory-pass
/// saving anyway (see bench/ablation_fusion).
inline constexpr qubit_t kMaxFusedWidth = 8;

/// Applies a dense 2^k x 2^k unitary `u` (row-major) to the k qubits
/// `targets` (strictly ascending global labels, k in [1, kMaxFusedWidth])
/// in one sweep: for each of the 2^{n-k} outer indices, gathers the
/// 2^k-amplitude block, multiplies by `u`, scatters back. This is the
/// generalized-BitExpander execution engine for fused gate blocks: one
/// memory pass replaces one pass per original gate.
template <typename T, bool Par = true>
void apply_multi(std::span<basic_complex_t<T>> a, qubit_t n, std::span<const qubit_t> targets,
                 std::span<const basic_complex_t<T>> u);

/// Diagonal specialization of apply_multi: multiplies each amplitude by
/// the diagonal entry `d[b]` selected by its k target bits (d has 2^k
/// entries). Single in-place sweep, no gather/scatter.
template <typename T, bool Par = true>
void apply_multi_diagonal(std::span<basic_complex_t<T>> a, qubit_t n,
                          std::span<const qubit_t> targets,
                          std::span<const basic_complex_t<T>> d);

// ---------------------------------------------------------------------
// Qubit remapping (cache-blocked scheduler's local/global relocation).
// ---------------------------------------------------------------------

/// Applies a set of disjoint qubit transpositions in place: amplitude i
/// exchanges with the index obtained by swapping, for every pair {a, b},
/// bits a and b of i. This is the one amplitude mover for a bit
/// permutation — the sched layer's remaps (relocating "high" qubits into
/// the cache-local low block) and dist's local pairs and sub-block
/// packing all run through it. It streams contiguous memory:
///
///  * when every pair's bits are >= 9 (or a lone pair's are >= 2) it
///    swaps whole runs of 2^R amplitudes (R = the lowest swapped bit, at
///    most 12) with swap_ranges, touching only the runs that move;
///  * otherwise it works on tiles of 2^R-amplitude runs x the 2^k
///    high-side slots of the k pairs that reach below R: a tile and its
///    partner are read into a per-thread buffer and written back
///    permuted through one index table. R shrinks until a tile holds at
///    most 2^12 amplitudes, so two tiles stay in L2.
///
/// Threads share only the moving tile pairs (dynamic split), so a pair
/// with the top bit keeps every thread busy, and nothing state-sized is
/// allocated. All pair members must be distinct qubits below n.
template <typename T>
void apply_qubit_swaps(std::span<basic_complex_t<T>> a, qubit_t n,
                       std::span<const std::array<qubit_t, 2>> pairs);

/// log2 of the contiguous run the mover copies for this pair set (the R
/// above); reported on remap spans as `run_bits`.
qubit_t swap_run_bits(qubit_t n, std::span<const std::array<qubit_t, 2>> pairs);

// ---------------------------------------------------------------------
// Phase template (inlined per callsite; used by the emulator's phase
// shortcuts and by tests).
// ---------------------------------------------------------------------

/// Multiplies each amplitude by a per-index factor: a[i] *= f(i).
template <typename T, typename F>
void apply_phase_oracle(std::span<basic_complex_t<T>> a, F&& f) {
  const index_t size = a.size();
#pragma omp parallel for if (worth_parallelizing(size))
  for (index_t i = 0; i < size; ++i) a[i] *= static_cast<basic_complex_t<T>>(f(i));
}

}  // namespace qc::sim::kernels
