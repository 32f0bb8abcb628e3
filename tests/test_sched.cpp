// Tests for the cache-blocked execution layer (src/sched): the sweep
// scheduler's partitioning/coverage invariants, the qubit-remap
// machinery (swap kernel, unitary re-permutation, restore-to-identity),
// the kernels' serial and parallel instantiations, and randomized agreement between the
// "cached" backend preset and HpcSimulator across qubit counts, chunk widths,
// and remap-triggering workloads.
#include <gtest/gtest.h>
#include <omp.h>

#include <algorithm>
#include <numbers>
#include <numeric>
#include <set>

#include "circuit/builders.hpp"
#include "engine/backend.hpp"
#include "models/perf_model.hpp"
#include "sched/cached_simulator.hpp"
#include "sim/kernels.hpp"
#include "sched/verify_plan.hpp"
#include "sim/simulator.hpp"
#include "swap_sets.hpp"

namespace qc::sched {
namespace {

using circuit::Circuit;
using circuit::Gate;
using circuit::GateKind;

sim::StateVector random_state(qubit_t n, std::uint64_t seed) {
  sim::StateVector sv(n);
  Rng rng(seed);
  sv.randomize(rng);
  return sv;
}

sim::StateVector copy_state(const sim::StateVector& in) {
  sim::StateVector out(in.qubits());
  std::copy(in.amplitudes().begin(), in.amplitudes().end(), out.amplitudes().begin());
  return out;
}

/// max_abs_diff between the "cached" backend preset and HpcSimulator on
/// `c`, with the fusion and schedule options of `opts`.
double backend_divergence(const Circuit& c, const engine::RunOptions& opts,
                          std::uint64_t seed) {
  sim::StateVector a = random_state(c.qubits(), seed);
  sim::StateVector b = copy_state(a);
  sim::HpcSimulator().run(a, c);
  engine::make_backend("cached", opts)->run_gates(b, c);
  return a.max_abs_diff(b);
}

/// A QFT acting only on the TOP `k` qubits of an n-qubit register: every
/// gate has all-high support, so no op is chunk-local until the
/// scheduler remaps the high qubits into the low block.
Circuit high_qubit_qft(qubit_t n, qubit_t k) {
  std::vector<qubit_t> mapping(k);
  for (qubit_t i = 0; i < k; ++i) mapping[i] = n - k + i;
  Circuit c(n);
  c.compose_mapped(circuit::qft(k), mapping);
  return c;
}

// --- chunk width selection ---------------------------------------------

TEST(ChooseChunkWidth, ExplicitWidthClampedToState) {
  ScheduleOptions opts;
  opts.chunk_width = 14;
  EXPECT_EQ(choose_chunk_width(20, opts), 14u);
  EXPECT_EQ(choose_chunk_width(8, opts), 8u);  // chunk >= state: one chunk
}

TEST(ChooseChunkWidth, AutoFitsCacheBudget) {
  ScheduleOptions opts;  // 1 MiB default = 2^16 amplitudes
  const qubit_t w = choose_chunk_width(26, opts);
  EXPECT_LE(dim(w) * sizeof(complex_t), opts.cache_bytes);
  EXPECT_GE(w, 10u);
  EXPECT_EQ(choose_chunk_width(6, opts), 6u);  // never wider than the state
}

// --- scheduler invariants ----------------------------------------------

TEST(Schedule, CoversEveryFusedOpExactlyOnceInOrder) {
  Rng rng(7);
  const Circuit c = circuit::random_circuit(10, 120, rng);
  const fuse::FusedCircuit fc = fuse::fuse_circuit(c, {});
  ScheduleOptions opts;
  opts.chunk_width = 5;
  const BlockedPlan plan = schedule(fc, opts);
  std::vector<std::size_t> seen;
  for (const PlanItem& item : plan.items) {
    if (item.kind == PlanItem::Kind::Sweep)
      for (const ChunkOp& op : item.ops) seen.push_back(op.source_index);
    if (item.kind == PlanItem::Kind::Global) seen.push_back(item.global.source_index);
  }
  ASSERT_EQ(seen.size(), fc.items.size());
  for (std::size_t i = 0; i < seen.size(); ++i)
    EXPECT_EQ(seen[i], i) << "fused op executed out of order or more than once";
  EXPECT_EQ(plan.source_ops, fc.items.size());
}

TEST(Schedule, AllLowCircuitIsOneSweepNoRemaps) {
  Rng rng(3);
  // Gates confined to qubits [0, 6) of a 12-qubit register, chunk 2^8.
  const Circuit c = circuit::random_dense_circuit(6, 60, rng).widened(12);
  ScheduleOptions opts;
  opts.chunk_width = 8;
  const BlockedPlan plan = schedule(fuse::fuse_circuit(c, {}), opts);
  EXPECT_EQ(plan.remaps(), 0u);
  EXPECT_EQ(plan.globals(), 0u);
  EXPECT_EQ(plan.sweeps(), 1u);
  EXPECT_EQ(plan.passes(), 1u) << plan.to_string();
}

TEST(Schedule, ChunkAtLeastStateIsOneSweep) {
  Rng rng(4);
  const Circuit c = circuit::random_circuit(9, 80, rng);
  ScheduleOptions opts;
  opts.chunk_width = 20;  // wider than the 9-qubit state
  const BlockedPlan plan = schedule(fuse::fuse_circuit(c, {}), opts);
  EXPECT_EQ(plan.chunk_width, 9u);
  EXPECT_EQ(plan.sweeps(), 1u);
  EXPECT_EQ(plan.remaps(), 0u);
}

TEST(Schedule, HighQubitRunTriggersRemapAndRestores) {
  const Circuit c = high_qubit_qft(12, 6);
  ScheduleOptions opts;
  opts.chunk_width = 6;
  const BlockedPlan plan = schedule(fuse::fuse_circuit(c, {}), opts);
  EXPECT_GE(plan.remaps(), 2u) << plan.to_string();  // remap in + restore
  // Far fewer passes than one per op: the remapped ops share sweeps.
  EXPECT_LT(plan.passes(), plan.source_ops + 2);
}

TEST(Schedule, RestoreTakesAtMostTwoRemaps) {
  // Random 20-qubit plans with a small chunk remap often; whatever
  // permutation they end in, the restore is at most two rounds.
  std::size_t long_cycles = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    const Circuit c = circuit::random_dense_circuit(20, 120, rng);
    engine::RunOptions opts;
    opts.sched.chunk_width = 12;
    const BlockedPlan plan = cached_plan(c, opts.fusion, opts.sched);
    EXPECT_NO_THROW(verify_plan(plan)) << plan.to_string();
    std::size_t trailing = 0;
    for (auto it = plan.items.rbegin();
         it != plan.items.rend() && it->kind == PlanItem::Kind::Remap; ++it)
      ++trailing;
    EXPECT_GE(trailing, 1u) << plan.to_string();
    EXPECT_LE(trailing, 2u) << plan.to_string();
    EXPECT_LT(backend_divergence(c, opts, seed), 1e-12);
    long_cycles += trailing == 2;
  }
  // At least one plan ended in a cycle longer than a transposition.
  EXPECT_GT(long_cycles, 0u);
}

TEST(Schedule, LoneHighOpStaysGlobalInsteadOfRemapping) {
  // One high-qubit gate amid a long already-low run: a remap would add
  // passes (remap + restore) without making anything new chunk-local,
  // so the scheduler must emit the high op as a single global pass.
  Rng rng(13);
  Circuit c(12);
  c.h(11);
  c.compose(circuit::random_dense_circuit(3, 90, rng).widened(12));
  ScheduleOptions opts;
  opts.chunk_width = 6;
  const BlockedPlan plan = schedule(fuse::fuse_circuit(c, {}), opts);
  EXPECT_EQ(plan.remaps(), 0u) << plan.to_string();
  EXPECT_EQ(plan.globals(), 1u);
}

TEST(Schedule, RemapDisabledFallsBackToGlobals) {
  const Circuit c = high_qubit_qft(12, 6);
  ScheduleOptions opts;
  opts.chunk_width = 6;
  opts.remap = false;
  const BlockedPlan plan = schedule(fuse::fuse_circuit(c, {}), opts);
  EXPECT_EQ(plan.remaps(), 0u);
  EXPECT_GT(plan.globals(), 0u);
}

TEST(Schedule, WideGateStaysGlobal) {
  Circuit c(12);
  for (qubit_t q = 0; q < 6; ++q) c.h(q);
  Gate mcz = circuit::make_gate(GateKind::Z, 11);
  for (qubit_t q = 0; q < 11; ++q) mcz.controls.push_back(q);
  c.append(mcz);  // 12-qubit support: wider than any chunk
  ScheduleOptions opts;
  opts.chunk_width = 6;
  const BlockedPlan plan = schedule(fuse::fuse_circuit(c, {}), opts);
  EXPECT_GE(plan.globals(), 1u) << plan.to_string();
}

TEST(Schedule, DiagonalOnlyCircuitSweepsDiagonalOps) {
  Circuit c(10);
  for (qubit_t q = 0; q < 10; ++q) c.t(q);
  for (qubit_t q = 0; q + 1 < 10; ++q) c.cr(q, q + 1, std::numbers::pi / (2 + q));
  for (qubit_t q = 0; q < 10; ++q) c.rz(q, 0.3 * (q + 1));
  ScheduleOptions opts;
  opts.chunk_width = 10;
  const BlockedPlan plan = schedule(fuse::fuse_circuit(c, {}), opts);
  bool saw_diagonal = false;
  for (const PlanItem& item : plan.items)
    if (item.kind == PlanItem::Kind::Sweep)
      for (const ChunkOp& op : item.ops) saw_diagonal |= op.kind == ChunkOp::Kind::Diagonal;
  EXPECT_TRUE(saw_diagonal) << plan.to_string();
}

// --- kernels -----------------------------------------------------------

TEST(QubitSwapKernel, MatchesSwapGates) {
  const qubit_t n = 10;
  sim::StateVector a = random_state(n, 11);
  sim::StateVector b = copy_state(a);
  const std::vector<std::array<qubit_t, 2>> pairs{{0, 7}, {2, 9}, {3, 5}};
  sim::kernels::apply_qubit_swaps(a.amplitudes(), n, pairs);
  const sim::HpcSimulator hpc;
  for (const auto& p : pairs) {
    Circuit c(n);
    c.swap(p[0], p[1]);
    hpc.run(b, c);
  }
  EXPECT_LT(a.max_abs_diff(b), 1e-14);
}

TEST(QubitSwapKernel, InvolutionRoundTrips) {
  const qubit_t n = 9;
  sim::StateVector a = random_state(n, 12);
  const sim::StateVector orig = copy_state(a);
  const std::vector<std::array<qubit_t, 2>> pairs{{1, 8}, {0, 4}};
  sim::kernels::apply_qubit_swaps(a.amplitudes(), n, pairs);
  EXPECT_GT(a.max_abs_diff(orig), 1e-6);  // actually moved something
  sim::kernels::apply_qubit_swaps(a.amplitudes(), n, pairs);
  EXPECT_LT(a.max_abs_diff(orig), 1e-15);
}

/// Applies `pairs` with the mover and with a naive per-index swap and
/// compares bit for bit. Amplitude i starts as (i, -i), exact in float at
/// these sizes, so any misplaced amplitude shows.
template <typename T>
void check_mover(qubit_t n, const std::vector<std::array<qubit_t, 2>>& pairs) {
  using C = basic_complex_t<T>;
  std::vector<C> a(dim(n)), ref(dim(n));
  for (index_t i = 0; i < dim(n); ++i) a[i] = C(static_cast<T>(i), -static_cast<T>(i));
  for (index_t i = 0; i < dim(n); ++i) ref[testing::swap_image(i, pairs)] = a[i];
  sim::kernels::apply_qubit_swaps<T>(a, n, pairs);
  EXPECT_TRUE(a == ref) << "n=" << n << " run_bits=" << sim::kernels::swap_run_bits(n, pairs);
}

TEST(QubitSwapKernel, RandomPairSetsMatchNaiveSwapBitForBit) {
  // Split at the mover's shortest bare run (2^9): AllHigh sets take the
  // run path, AllLow and LowHigh sets the tile path, and LowHigh sets of
  // more than 5 pairs (n >= 15) overflow the 2^12-amplitude tile cap at
  // R = 9, so R shrinks.
  constexpr qubit_t kSplit = 9;
  std::mt19937_64 rng(1606);
  std::size_t capped = 0;
  const int threads = omp_get_max_threads();
  for (const int t : {1, 4}) {
    omp_set_num_threads(t);
    for (qubit_t n = 1; n <= 18; ++n) {
      check_mover<float>(n, {});
      for (const testing::SwapShape shape : testing::kSwapShapes) {
        const bool every = shape == testing::SwapShape::Any;
        for (const std::size_t k : testing::swap_pair_counts(n, shape, kSplit, every)) {
          const auto pairs = testing::random_swap_set(n, k, shape, kSplit, rng);
          SCOPED_TRACE("threads=" + std::to_string(t) + " shape=" +
                       std::to_string(static_cast<int>(shape)) + " pairs=" + std::to_string(k));
          check_mover<float>(n, pairs);
          check_mover<double>(n, pairs);
          if (shape == testing::SwapShape::LowHigh && k > 5) {
            ++capped;
            EXPECT_LT(sim::kernels::swap_run_bits(n, pairs), kSplit);
          }
        }
      }
    }
  }
  omp_set_num_threads(threads);
  EXPECT_GT(capped, 0u);
}

// --- one kernel body, instantiated serial and parallel ------------------
//
// Every single-gate kernel and the k-qubit dense / diagonal kernels run
// at Par in {true, false} x {float, double} against a plain fp64
// reference loop. n = 16 is large enough that Par = true really forks
// (the split kicks in from 2^12 iterations) for up to three controls.

namespace kn = sim::kernels;

enum class KernelKind { Generic, Folded, Phase, Diagonal, X, Swap };

/// Reference controlled 2x2 on `t` (or controlled SWAP of t, t2): a
/// plain loop over every index.
void reference_gate(std::vector<complex_t>& a, KernelKind kind, qubit_t t, qubit_t t2,
                    index_t cmask, const kn::U2& u) {
  const index_t tbit = index_t{1} << t, t2bit = index_t{1} << t2;
  for (index_t i = 0; i < a.size(); ++i) {
    if ((i & cmask) != cmask || (i & tbit) != 0) continue;
    if (kind == KernelKind::Swap) {
      if ((i & t2bit) != 0) std::swap(a[i], a[(i | tbit) & ~t2bit]);
      continue;
    }
    const complex_t x0 = a[i], x1 = a[i | tbit];
    a[i] = u.m00 * x0 + u.m01 * x1;
    a[i | tbit] = u.m10 * x0 + u.m11 * x1;
  }
}

/// n distinct qubits in random order, with `first` moved to the front.
std::vector<qubit_t> shuffled_qubits(qubit_t n, qubit_t first, Rng& rng) {
  std::vector<qubit_t> qs(n);
  std::iota(qs.begin(), qs.end(), qubit_t{0});
  for (qubit_t i = n - 1; i > 0; --i) std::swap(qs[i], qs[rng.uniform_u64(i + 1)]);
  std::swap(qs[0], *std::find(qs.begin(), qs.end(), first));
  return qs;
}

template <typename T>
std::vector<complex_t> widened(const sim::BasicStateVector<T>& sv) {
  const auto a = sv.amplitudes();
  return {a.begin(), a.end()};
}

template <typename T>
double max_diff(const sim::BasicStateVector<T>& sv, const std::vector<complex_t>& ref) {
  double m = 0;
  for (index_t i = 0; i < ref.size(); ++i)
    m = std::max(m, std::abs(static_cast<complex_t>(sv.amplitudes()[i]) - ref[i]));
  return m;
}

template <typename T, bool Par>
void check_single_gate_kernels(double tol) {
  using C = basic_complex_t<T>;
  const qubit_t n = 16;
  Rng rng(Par ? 101 : 202);
  for (const KernelKind kind : {KernelKind::Generic, KernelKind::Folded, KernelKind::Phase,
                                KernelKind::Diagonal, KernelKind::X, KernelKind::Swap}) {
    for (qubit_t controls = 0; controls <= 3; ++controls) {
      // Target on the top qubit (one run spanning half the state), on
      // qubit 0 (many one-amplitude runs), and on a random qubit.
      for (const qubit_t first : {qubit_t{n - 1}, qubit_t{0},
                                  static_cast<qubit_t>(rng.uniform_u64(n))}) {
        const std::vector<qubit_t> qs = shuffled_qubits(n, first, rng);
        const qubit_t t = qs[0], t2 = qs[1];
        index_t cmask = 0;
        for (qubit_t c = 0; c < controls; ++c) cmask = bits::set(cmask, qs[2 + c]);
        const complex_t p0 = std::polar(1.0, rng.uniform(0, 6.3));
        const complex_t p1 = std::polar(1.0, rng.uniform(0, 6.3));
        const linalg::Matrix m = linalg::Matrix::random_unitary(2, rng);
        kn::U2 u{m(0, 0), m(0, 1), m(1, 0), m(1, 1)};
        if (kind == KernelKind::Phase) u = {1.0, 0.0, 0.0, p1};
        if (kind == KernelKind::Diagonal) u = {p0, 0.0, 0.0, p1};
        if (kind == KernelKind::X) u = {0.0, 1.0, 1.0, 0.0};

        sim::BasicStateVector<T> sv(n);
        sv.randomize_deterministic(rng.next_u64());
        std::vector<complex_t> ref = widened(sv);
        const auto a = sv.amplitudes();
        switch (kind) {
          case KernelKind::Generic:
            kn::apply_generic_masked<T, Par>(a, n, t, cmask, kn::u2_cast<T>(u));
            break;
          case KernelKind::Folded: kn::apply_folded<T, Par>(a, n, t, cmask, kn::u2_cast<T>(u)); break;
          case KernelKind::Phase:
          case KernelKind::Diagonal:
            kn::apply_diagonal<T, Par>(a, n, t, static_cast<C>(u.m00), static_cast<C>(u.m11),
                                       cmask);
            break;
          case KernelKind::X: kn::apply_x<T, Par>(a, n, t, cmask); break;
          case KernelKind::Swap: kn::apply_swap<T, Par>(a, n, t, t2, cmask); break;
        }
        reference_gate(ref, kind, t, t2, cmask, u);
        EXPECT_LT(max_diff(sv, ref), tol) << "kind " << static_cast<int>(kind) << " controls "
                                          << controls << " target " << t;
      }
    }
  }
}

template <typename T, bool Par>
void check_multi_kernels(double tol) {
  using C = basic_complex_t<T>;
  const qubit_t n = 16;
  Rng rng(Par ? 303 : 404);
  for (qubit_t k = 1; k <= 7; ++k) {
    std::vector<qubit_t> targets = shuffled_qubits(n, 0, rng);
    targets.resize(k);
    std::sort(targets.begin(), targets.end());
    const index_t block = dim(k);
    const linalg::Matrix u = linalg::Matrix::random_unitary(block, rng);
    std::vector<complex_t> d(block);
    for (complex_t& x : d) x = std::polar(1.0, rng.uniform(0, 6.3));
    std::vector<C> ut(u.data(), u.data() + block * block), dt(d.begin(), d.end());
    for (const bool diagonal : {false, true}) {
      sim::BasicStateVector<T> sv(n);
      sv.randomize_deterministic(rng.next_u64());
      std::vector<complex_t> ref = widened(sv);
      if (diagonal) {
        kn::apply_multi_diagonal<T, Par>(sv.amplitudes(), n, targets, dt);
      } else {
        kn::apply_multi<T, Par>(sv.amplitudes(), n, targets, ut);
      }
      // Reference: gather each 2^k block (local bit l <-> targets[l]).
      std::vector<complex_t> x(block);
      std::vector<index_t> offs(block, 0);
      for (index_t b = 0; b < block; ++b)
        for (qubit_t l = 0; l < k; ++l)
          if (bits::test(b, l)) offs[b] = bits::set(offs[b], targets[l]);
      for (index_t i = 0; i < ref.size(); ++i) {
        if ((i & offs[block - 1]) != 0) continue;
        for (index_t b = 0; b < block; ++b) x[b] = ref[i | offs[b]];
        for (index_t r = 0; r < block; ++r) {
          complex_t acc{};
          for (index_t c = 0; c < block; ++c)
            acc += diagonal ? (r == c ? d[r] : complex_t{}) * x[c] : u(r, c) * x[c];
          ref[i | offs[r]] = acc;
        }
      }
      EXPECT_LT(max_diff(sv, ref), tol) << "k=" << k << " diagonal " << diagonal;
    }
  }
}

TEST(SerialKernels, SingleGateKernelsMatchReference) {
  check_single_gate_kernels<double, false>(1e-12);
  check_single_gate_kernels<float, false>(1e-6);
  check_single_gate_kernels<double, true>(1e-12);
  check_single_gate_kernels<float, true>(1e-6);
}

TEST(SerialKernels, MultiKernelsMatchReference) {
  check_multi_kernels<double, false>(1e-12);
  check_multi_kernels<float, false>(1e-6);
  check_multi_kernels<double, true>(1e-12);
  check_multi_kernels<float, true>(1e-6);
}

// --- fused-plan diagonal hoist (satellite: no alloc in execute) --------

TEST(FusedPlan, DiagonalExtractedAtPlanTime) {
  Circuit c(6);
  for (qubit_t q = 0; q < 4; ++q) c.t(q);
  c.cr(0, 3, 0.5).cz(1, 2);
  const fuse::FusedCircuit fc = fuse::fuse_circuit(c, {});
  bool saw_diag_block = false;
  for (const auto& item : fc.items) {
    if (item.kind != fuse::FusedItem::Kind::Block || !item.block.diagonal) continue;
    saw_diag_block = true;
    ASSERT_EQ(item.block.diag.size(), dim(item.block.width()));
    for (index_t d = 0; d < item.block.diag.size(); ++d)
      EXPECT_EQ(item.block.diag[d], item.block.unitary(d, d));
  }
  EXPECT_TRUE(saw_diag_block);
}

// --- cost model --------------------------------------------------------

TEST(BlockingModel, RemapProfitability) {
  EXPECT_FALSE(models::remap_profitable(0));
  EXPECT_FALSE(models::remap_profitable(3));  // saves 2 passes, costs 2
  EXPECT_TRUE(models::remap_profitable(4));
  EXPECT_TRUE(models::remap_profitable(100));
  EXPECT_FALSE(models::remap_profitable(4, 4.0));
}

TEST(BlockingModel, PassSecondsScaleWithSizeAndBandwidth) {
  const auto m = models::MachineParams::stampede();
  EXPECT_DOUBLE_EQ(models::t_state_pass_seconds(21, m),
                   2.0 * models::t_state_pass_seconds(20, m));
  EXPECT_DOUBLE_EQ(models::t_blocked_execution_seconds(20, 10, m),
                   10.0 * models::t_state_pass_seconds(20, m));
}

// --- end-to-end agreement ----------------------------------------------

TEST(CachedBackend, AgreesWithHpcAcrossSizesAndChunkWidths) {
  for (qubit_t n = 4; n <= 16; n += 3) {
    Rng rng(100 + n);
    const Circuit c = circuit::random_circuit(n, 20 * n, rng);
    for (qubit_t chunk : {qubit_t{5}, qubit_t{8}, static_cast<qubit_t>(n + 4)}) {
      engine::RunOptions opts;
      opts.sched.chunk_width = chunk;
      EXPECT_LT(backend_divergence(c, opts, 200 + n), 1e-12)
          << "n=" << n << " chunk=" << chunk;
    }
  }
}

TEST(CachedBackend, AgreesAtChunkEqualToOpWidth) {
  // Chunk width exactly the fused-block width: every block fills a whole
  // chunk (the degenerate one-op-per-chunk schedule).
  Rng rng(9);
  const Circuit c = circuit::random_dense_circuit(12, 150, rng);
  engine::RunOptions opts;
  opts.fusion.max_width = 5;
  opts.sched.max_block_width = 5;
  opts.sched.chunk_width = 5;
  EXPECT_LT(backend_divergence(c, opts, 10), 1e-12);
}

TEST(CachedBackend, AgreesOnHighQubitQftWithRemaps) {
  const Circuit c = high_qubit_qft(13, 6);
  engine::RunOptions opts;
  opts.sched.chunk_width = 6;
  const BlockedPlan plan = cached_plan(c, opts.fusion, opts.sched);
  ASSERT_GE(plan.remaps(), 2u) << plan.to_string();
  EXPECT_LT(backend_divergence(c, opts, 77), 1e-12);
}

TEST(CachedBackend, AgreesOnFullQftBothOrders) {
  for (qubit_t n : {qubit_t{10}, qubit_t{13}}) {
    engine::RunOptions opts;
    opts.sched.chunk_width = 7;
    EXPECT_LT(backend_divergence(circuit::qft(n), opts, n), 1e-12);
    EXPECT_LT(backend_divergence(circuit::inverse_qft(n), opts, n + 1), 1e-12);
  }
}

TEST(CachedBackend, AgreesOnDiagonalOnlyCircuit) {
  Circuit c(11);
  for (qubit_t q = 0; q < 11; ++q) c.t(q);
  for (qubit_t q = 0; q + 1 < 11; ++q) c.cr(q, q + 1, 0.2 * (q + 1));
  for (qubit_t q = 0; q < 11; ++q) c.rz(q, 0.15 * (q + 3));
  engine::RunOptions opts;
  opts.sched.chunk_width = 6;
  EXPECT_LT(backend_divergence(c, opts, 42), 1e-12);
}

TEST(CachedBackend, AgreesWithFusionDisabled) {
  Rng rng(19);
  const Circuit c = circuit::random_circuit(10, 80, rng);
  engine::RunOptions opts;
  opts.fusion.enabled = false;  // every op is a passthrough gate
  opts.sched.chunk_width = 6;
  EXPECT_LT(backend_divergence(c, opts, 20), 1e-12);
}

TEST(CachedBackend, RegisteredInEngineRegistry) {
  const auto names = engine::backend_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "cached"), names.end());
  EXPECT_EQ(engine::make_backend("cached")->name(), "cached");
}

TEST(CachedPlan, NarrowsFusionWidthToBlockCap) {
  // Fusion asks for 5-qubit blocks; the in-cache cap of 3 must win.
  Rng rng(29);
  const Circuit c = circuit::random_dense_circuit(12, 200, rng);
  engine::RunOptions opts;
  opts.fusion.max_width = 5;
  opts.fusion.cost_gate = false;
  opts.sched.max_block_width = 3;
  opts.sched.chunk_width = 8;
  const BlockedPlan plan = cached_plan(c, opts.fusion, opts.sched);
  std::size_t widest = 0;
  const auto widen = [&](const ChunkOp& op) {
    if (op.kind != ChunkOp::Kind::Gate) widest = std::max(widest, op.qubits.size());
  };
  for (const PlanItem& item : plan.items) {
    for (const ChunkOp& op : item.ops) widen(op);
    if (item.kind == PlanItem::Kind::Global) widen(item.global);
  }
  EXPECT_EQ(widest, 3u) << plan.to_string();
  EXPECT_LT(backend_divergence(c, opts, 30), 1e-12);
}

// --- state vector first-touch init (satellite sanity) ------------------

TEST(StateVectorInit, StartsInZeroBasisState) {
  sim::StateVector sv(13);
  EXPECT_EQ(sv[0], complex_t{1.0});
  EXPECT_NEAR(sv.norm_sq(), 1.0, 1e-15);
  sv.set_basis(5);
  EXPECT_EQ(sv[5], complex_t{1.0});
  EXPECT_EQ(sv[0], complex_t{});
  EXPECT_NEAR(sv.norm_sq(), 1.0, 1e-15);
}

}  // namespace
}  // namespace qc::sched
