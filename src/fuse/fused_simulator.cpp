#include "fuse/fused_simulator.hpp"

#include <stdexcept>

#include "sched/cached_simulator.hpp"

namespace qc::fuse {

void FusedSimulator::apply_gate(sim::StateVector& sv, const circuit::Gate& g) const {
  sim::apply_gate_hpc<double>(sv.amplitudes(), sv.qubits(), g);
}

FusedCircuit FusedSimulator::plan(const circuit::Circuit& c) const {
  return fuse_circuit(c, opts_.fusion);
}

void FusedSimulator::execute(sim::StateVector& sv, const FusedCircuit& plan) const {
  if (plan.n != sv.qubits()) throw std::invalid_argument("execute: qubit count mismatch");
  sched::execute_blocked<double>(sv.amplitudes(), sched::global_plan(plan));
}

void FusedSimulator::run(sim::StateVector& sv, const circuit::Circuit& c) const {
  if (c.qubits() != sv.qubits()) throw std::invalid_argument("run: qubit count mismatch");
  execute(sv, plan(c));
}

}  // namespace qc::fuse
