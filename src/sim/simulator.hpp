// The three gate-level simulators benchmarked in the paper's §4.5.
//
//  * HpcSimulator — "our simulator": control-folded enumeration, diagonal
//    and NOT fast paths, native SWAP kernel. This is the baseline the emulator's speedups are measured
//    against (so those speedups are not artifacts of a slow simulator —
//    the point of the paper's Figs. 4-6).
//
//  * QhipsterLikeSimulator — stands in for qHiPSTER: a well-parallelized
//    but unspecialized simulator. Every gate runs through the generic
//    masked 2x2 pair kernel (full read+write of the state vector even
//    for diagonal gates); SWAP is lowered to three CNOTs.
//
//  * LiquidLikeSimulator — stands in for LIQUi|>: the same generic
//    kernel, single-threaded. (LIQUi|> is closed-source .NET; this
//    models "correct but unspecialized, non-parallel" — see DESIGN.md
//    for the substitution rationale.)
//
// All three produce identical states to 1e-12 on identical circuits;
// the test suite enforces it.
#pragma once

#include <memory>
#include <string>

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

class Simulator {
 public:
  virtual ~Simulator() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Applies one gate to the state.
  virtual void apply_gate(StateVector& sv, const circuit::Gate& g) const = 0;

  /// Applies a whole circuit (overridable for cross-gate optimization).
  virtual void run(StateVector& sv, const circuit::Circuit& c) const;
};

class LiquidLikeSimulator final : public Simulator {
 public:
  [[nodiscard]] std::string name() const override { return "liquid-like"; }
  void apply_gate(StateVector& sv, const circuit::Gate& g) const override;
};

class QhipsterLikeSimulator final : public Simulator {
 public:
  [[nodiscard]] std::string name() const override { return "qhipster-like"; }
  void apply_gate(StateVector& sv, const circuit::Gate& g) const override;
};

class HpcSimulator final : public Simulator {
 public:
  [[nodiscard]] std::string name() const override { return "hpc"; }
  void apply_gate(StateVector& sv, const circuit::Gate& g) const override;
};

/// Factory by name ("hpc", "qhipster-like", "liquid-like", "fused",
/// "cached") for benches and tools. "fused" is fuse::FusedSimulator —
/// the gate-fusion backend layered on top of HpcSimulator's fast paths;
/// "cached" is sched::CachedSimulator — fusion plus cache-blocked sweep
/// execution. A thin shim over
/// engine::make_gate_simulator (the backend registry is the authority on
/// names; unknown names throw std::invalid_argument enumerating the
/// valid ones). Emulation-only backends like "auto" are not plain
/// Simulators — run those through engine::Engine.
std::unique_ptr<Simulator> make_simulator(const std::string& name);

}  // namespace qc::sim
