// FusedSimulator — the gate-fusion backend ("fused" in make_simulator).
//
// run() first lowers the circuit through fuse::fuse_circuit, then runs
// the fused ops through sched::execute_blocked on sched::global_plan:
// one Global item per op, so each multi-gate block is one parallel pass
// of the k-qubit kernels (apply_multi / apply_multi_diagonal) and every
// other gate takes the specialized fast paths of sim::apply_gate_hpc.
// Per-gate apply_gate() is HpcSimulator's (fusion is a cross-gate
// optimization; there is nothing to fuse for a single gate).
//
// For repeated execution of one circuit (iterative algorithms, benches),
// plan() + execute() let callers pay the fusion GEMMs once.
#pragma once

#include "fuse/fusion.hpp"
#include "sim/simulator.hpp"

namespace qc::fuse {

class FusedSimulator final : public sim::Simulator {
 public:
  struct Options {
    FusionOptions fusion;
  };

  FusedSimulator() = default;
  explicit FusedSimulator(Options opts) : opts_(opts) {}

  [[nodiscard]] std::string name() const override { return "fused"; }

  void apply_gate(sim::StateVector& sv, const circuit::Gate& g) const override;
  void run(sim::StateVector& sv, const circuit::Circuit& c) const override;

  /// The fusion pass this backend would run on `c`.
  [[nodiscard]] FusedCircuit plan(const circuit::Circuit& c) const;

  /// Executes a prebuilt plan (must match sv's qubit count).
  void execute(sim::StateVector& sv, const FusedCircuit& plan) const;

 private:
  Options opts_;
};

}  // namespace qc::fuse
