// Quantum phase estimation of a transverse-field Ising Trotter step —
// the exact workload of the paper's Table 2.
//
// Runs all three strategies on the same eigenstate input:
//   * gate-level simulation (controlled-U applied 2^b - 1 times),
//   * emulation by repeated squaring of the dense unitary (§3.3),
//   * emulation by eigendecomposition (§3.3),
// prints the agreeing outcome distributions, the timings, and the
// crossover heuristic's verdict.
//
// Run: ./qpe_ising [--qubits 5] [--bits 7] [--dt 0.1]
#include <cstdio>

#include "circuit/builders.hpp"
#include "common/cli.hpp"
#include "emu/qpe.hpp"
#include "engine/engine.hpp"
#include "models/perf_model.hpp"

static int cli_main(int argc, char** argv) {
  using namespace qc;
  const Cli cli(argc, argv);
  const qubit_t n = cli.get_qubits("qubits", 5);
  const unsigned b = static_cast<unsigned>(cli.get_int("bits", 7));
  const double dt = cli.get_double("dt", 0.1);

  const circuit::Circuit u = circuit::tfim_trotter_step(n, dt);
  std::printf("QPE of exp(-i H dt) for the 1-D TFIM, n = %u qubits, G = %zu gates,\n"
              "b = %u bits of precision\n\n",
              n, u.size(), b);

  // Prepare an eigenvector of U (via our eigensolver) so all three
  // strategies target the same sharp phase.
  const linalg::Matrix dense = emu::build_unitary(u);
  const linalg::EigResult eig = linalg::eig(dense);
  sim::StateVector input(n);
  for (index_t i = 0; i < dim(n); ++i) input[i] = eig.vectors(i, 1);
  const double true_phase = std::arg(eig.values[1]);
  std::printf("target eigenphase (from eigensolver): %.6f rad\n\n", true_phase);

  for (const auto strategy :
       {emu::QpeStrategy::SimulateCircuit, emu::QpeStrategy::RepeatedSquaring,
        emu::QpeStrategy::Eigendecomposition}) {
    emu::QpeOptions opt;
    opt.bits = b;
    opt.strategy = strategy;
    const emu::QpeResult r = emu::phase_estimation(u, input, opt);
    std::printf("%-28s estimate %.6f rad (outcome %llu/%llu), P = %.4f\n",
                r.strategy_used.c_str(), r.phase_estimate,
                static_cast<unsigned long long>(r.most_likely),
                static_cast<unsigned long long>(index_t{1} << b),
                r.distribution[r.most_likely]);
    if (r.seconds_simulate > 0) std::printf("    t_simulate = %.3f s\n", r.seconds_simulate);
    if (r.seconds_construct > 0)
      std::printf("    t_construct = %.3f s\n", r.seconds_construct);
    if (r.seconds_power > 0) std::printf("    t_power = %.3f s\n", r.seconds_power);
    if (r.seconds_eig > 0) std::printf("    t_eig = %.3f s\n", r.seconds_eig);
  }

  // The paper's asymptotic crossover guidance (§3.3).
  std::printf("\ncrossover rules of thumb: emulation wins when b >= 2n = %u (GEMM),\n"
              "b > 1.8n = %.1f (Strassen), b > n = %u (coherent QPE + eig).\n",
              2 * n, models::asymptotic_crossover_strassen(n), n);

  // --- bonus: Trotter evolution through the engine front door ----------
  // The same Trotter step as an engine Program — gate segments
  // interleaved with exact one-pass <Z_i Z_{i+1}> readouts (§3.4), with
  // the per-op wall-clock trace the perf models calibrate against.
  engine::Program evolution(n);
  for (int step = 0; step < 4; ++step) {
    evolution.gates(u);
    evolution.expectation_z(0b11);  // nearest-neighbor ZZ correlator
  }
  const engine::Result evolved = engine::Engine().run(evolution);
  std::printf("\n4 Trotter steps via engine::Engine (auto backend):\n");
  for (std::size_t i = 0; i < evolved.expectations.size(); ++i)
    std::printf("  after step %zu: <Z0 Z1> = %+.4f  (%.6f s/step)\n", i + 1,
                evolved.expectations[i], evolved.trace[2 * i].seconds);
  return 0;
}

int main(int argc, char** argv) { return qc::run_main(argc, argv, cli_main); }
