// The gate-to-kernel maps of the three per-gate tiers benchmarked in the
// paper's §4.5, and the fp64 reference simulator built on the first.
//
//  * apply_gate_hpc — "our simulator": control-folded enumeration,
//    diagonal and NOT fast paths, native SWAP kernel. This is the
//    baseline the emulator's speedups are measured against (so those
//    speedups are not artifacts of a slow simulator — the point of the
//    paper's Figs. 4-6).
//
//  * apply_gate_generic — stands in for qHiPSTER: a well-parallelized
//    but unspecialized simulator. Every gate runs through the generic
//    masked 2x2 pair kernel (full read+write of the state vector even
//    for diagonal gates); SWAP is lowered to three CNOTs.
//
//  * apply_gate_generic<T, false> — stands in for LIQUi|>: the same
//    generic kernel, single-threaded. (LIQUi|> is closed-source .NET;
//    this models "correct but unspecialized, non-parallel" — see
//    DESIGN.md for the substitution rationale.)
//
// The engine's "hpc", "qhipster-like" and "liquid-like" backend presets
// are per-gate loops over these three maps (engine/backend.hpp); all
// three produce identical states to 1e-12 on identical circuits, and
// the test suite enforces it.
#pragma once

#include "circuit/circuit.hpp"
#include "sim/kernels.hpp"
#include "sim/state_vector.hpp"

namespace qc::sim {

/// OR of the control bits of a gate.
[[nodiscard]] index_t control_mask(const circuit::Gate& g);

/// The 2x2 target block of a non-SWAP gate as a kernel U2.
[[nodiscard]] kernels::U2 target_block(const circuit::Gate& g);

/// Diagonal entries (d0, d1) of a diagonal gate's target block.
[[nodiscard]] std::pair<complex_t, complex_t> diagonal_entries(const circuit::Gate& g);

/// The one map from a circuit::Gate to a specialized kernel, on a raw
/// array of 2^n amplitudes. HpcSimulator, the cache-blocked sweeps
/// (Par = false, on one chunk), blocked-plan Global items and the
/// distributed state's rank-local gates all apply gates through it.
/// Templated on the amplitude scalar; the (double-precision) gate block
/// is narrowed once per gate, not per amplitude.
template <typename T, bool Par = true>
void apply_gate_hpc(std::span<basic_complex_t<T>> a, qubit_t n, const circuit::Gate& g);

/// The unspecialized per-gate dispatch (the qhipster-/liquid-like tier)
/// on a raw amplitude array: every gate through the generic masked 2x2
/// kernel, SWAP lowered to three CNOTs.
template <typename T, bool Par = true>
void apply_gate_generic(std::span<basic_complex_t<T>> a, qubit_t n, const circuit::Gate& g);

/// The reference simulator: a per-gate loop over apply_gate_hpc at fp64.
/// Tests, the emulator's circuit-side helpers and the benchmark probes
/// use it as the ground truth every backend preset is checked against.
class HpcSimulator {
 public:
  /// Applies one gate to the state.
  void apply_gate(StateVector& sv, const circuit::Gate& g) const;

  /// Applies a whole circuit; throws std::invalid_argument on a qubit
  /// count mismatch.
  void run(StateVector& sv, const circuit::Circuit& c) const;
};

}  // namespace qc::sim
