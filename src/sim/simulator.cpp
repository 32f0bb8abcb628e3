#include "sim/simulator.hpp"

#include <stdexcept>

#include "engine/backend.hpp"

namespace qc::sim {

using circuit::Gate;
using circuit::GateKind;

index_t control_mask(const Gate& g) {
  index_t m = 0;
  for (qubit_t c : g.controls) m = bits::set(m, c);
  return m;
}

kernels::U2 target_block(const Gate& g) {
  if (g.kind == GateKind::Swap) throw std::invalid_argument("target_block: SWAP has no 2x2 block");
  const linalg::Matrix m = gate_block_matrix(g);
  return {m(0, 0), m(0, 1), m(1, 0), m(1, 1)};
}

std::pair<complex_t, complex_t> diagonal_entries(const Gate& g) {
  if (!g.diagonal()) throw std::invalid_argument("diagonal_entries: gate is not diagonal");
  const linalg::Matrix m = gate_block_matrix(g);
  return {m(0, 0), m(1, 1)};
}

void Simulator::run(StateVector& sv, const circuit::Circuit& c) const {
  if (c.qubits() != sv.qubits()) throw std::invalid_argument("run: qubit count mismatch");
  for (const Gate& g : c.gates()) apply_gate(sv, g);
}

template <typename T, bool Par>
void apply_gate_generic(std::span<basic_complex_t<T>> a, qubit_t n, const Gate& g) {
  using C = basic_complex_t<T>;
  if (g.kind == GateKind::Swap) {
    // Lower SWAP to three CNOTs through the generic kernel — what an
    // unspecialized simulator does.
    const qubit_t qa = g.targets[0], qb = g.targets[1];
    const index_t cmask = control_mask(g);
    const kernels::U2T<T> x{C{}, C{T{1}}, C{T{1}}, C{}};
    kernels::apply_generic_masked<T, Par>(a, n, qb, cmask | (index_t{1} << qa), x);
    kernels::apply_generic_masked<T, Par>(a, n, qa, cmask | (index_t{1} << qb), x);
    kernels::apply_generic_masked<T, Par>(a, n, qb, cmask | (index_t{1} << qa), x);
    return;
  }
  kernels::apply_generic_masked<T, Par>(a, n, g.targets[0], control_mask(g),
                                        kernels::u2_cast<T>(target_block(g)));
}

void LiquidLikeSimulator::apply_gate(StateVector& sv, const Gate& g) const {
  apply_gate_generic<double, false>(sv.amplitudes(), sv.qubits(), g);
}

void QhipsterLikeSimulator::apply_gate(StateVector& sv, const Gate& g) const {
  apply_gate_generic<double>(sv.amplitudes(), sv.qubits(), g);
}

template <typename T, bool Par>
void apply_gate_hpc(std::span<basic_complex_t<T>> a, qubit_t n, const Gate& g) {
  using C = basic_complex_t<T>;
  const index_t cmask = control_mask(g);
  if (g.kind == GateKind::Swap) {
    kernels::apply_swap<T, Par>(a, n, g.targets[0], g.targets[1], cmask);
    return;
  }
  const qubit_t t = g.targets[0];
  if (g.kind == GateKind::X) {
    kernels::apply_x<T, Par>(a, n, t, cmask);
    return;
  }
  if (g.diagonal()) {
    const auto [d0, d1] = diagonal_entries(g);
    kernels::apply_diagonal<T, Par>(a, n, t, static_cast<C>(d0), static_cast<C>(d1), cmask);
    return;
  }
  kernels::apply_folded<T, Par>(a, n, t, cmask, kernels::u2_cast<T>(target_block(g)));
}

#define QC_INSTANTIATE_GATE_DISPATCH(T, Par)                                                  \
  template void apply_gate_generic<T, Par>(std::span<basic_complex_t<T>>, qubit_t,            \
                                           const Gate&);                                      \
  template void apply_gate_hpc<T, Par>(std::span<basic_complex_t<T>>, qubit_t, const Gate&);

QC_INSTANTIATE_GATE_DISPATCH(float, true)
QC_INSTANTIATE_GATE_DISPATCH(float, false)
QC_INSTANTIATE_GATE_DISPATCH(double, true)
QC_INSTANTIATE_GATE_DISPATCH(double, false)

#undef QC_INSTANTIATE_GATE_DISPATCH

void HpcSimulator::apply_gate(StateVector& sv, const Gate& g) const {
  apply_gate_hpc<double>(sv.amplitudes(), sv.qubits(), g);
}

std::unique_ptr<Simulator> make_simulator(const std::string& name) {
  // Thin source-compatibility shim: the engine's backend registry is the
  // single authority on names, and its unknown-name error enumerates
  // engine::backend_names().
  return engine::make_gate_simulator(name);
}

}  // namespace qc::sim
