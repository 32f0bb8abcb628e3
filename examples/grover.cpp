// Grover search with an emulated oracle, as one engine::Program.
//
// The oracle — "is x the marked item?" — is a classical predicate,
// expressed as a first-class phase_oracle op. On the default "auto"
// backend it runs as one in-place phase sweep per iteration (§3.1
// applied to a predicate); the diffusion operator is an ordinary gate
// segment. Pass --backend hpc (or fused, qhipster-like, liquid-like)
// and the engine lowers the same program to gates — the oracle becomes
// the X-conjugated multi-controlled-Z network a simulator must pay for.
//
// Run: ./grover [--qubits 12] [--marked 1234] [--backend auto]
//               [--precision f64|f32]   — f32 runs gate segments on the
//               float kernels; Grover tolerates the drift easily (the
//               readout only needs the marked item's peak to survive)
#include <cmath>
#include <cstdio>
#include <numbers>

#include "common/cli.hpp"
#include "engine/engine.hpp"

static int cli_main(int argc, char** argv) {
  using namespace qc;
  const Cli cli(argc, argv);
  const qubit_t n = cli.get_qubits("qubits", 12);
  const index_t marked =
      static_cast<index_t>(cli.get_int("marked", 1234)) % dim(n);

  std::printf("Grover search over %llu items for marked item %llu\n",
              static_cast<unsigned long long>(dim(n)),
              static_cast<unsigned long long>(marked));

  // Diffusion operator: H^n X^n (C^{n-1}Z) X^n H^n.
  circuit::Circuit diffusion(n);
  for (qubit_t q = 0; q < n; ++q) diffusion.h(q);
  for (qubit_t q = 0; q < n; ++q) diffusion.x(q);
  {
    circuit::Gate cz = circuit::make_gate(circuit::GateKind::Z, n - 1);
    for (qubit_t q = 0; q + 1 < n; ++q) cz.controls.push_back(q);
    diffusion.append(cz);
  }
  for (qubit_t q = 0; q < n; ++q) diffusion.x(q);
  for (qubit_t q = 0; q < n; ++q) diffusion.h(q);

  const int iterations = static_cast<int>(
      std::round(std::numbers::pi / 4.0 * std::sqrt(static_cast<double>(dim(n)))));
  std::printf("running %d Grover iterations (pi/4 sqrt(N))\n", iterations);

  engine::Program program(n);
  for (qubit_t q = 0; q < n; ++q) program.h(q);
  for (int it = 0; it < iterations; ++it) {
    program.phase_oracle([marked](index_t i) { return i == marked; });
    program.gates(diffusion);
  }

  engine::RunOptions opts;
  opts.backend = cli.get_string("backend", "auto");
  opts.precision =
      cli.get_string("precision", "f64") == "f32" ? Precision::kF32 : Precision::kF64;
  const engine::Result result = engine::Engine().run(program, opts);

  // Read out the answer from the exact distribution (§3.4 shortcut).
  index_t best = 0;
  double best_p = 0;
  const auto dist = result.state.register_distribution(0, n);
  for (index_t i = 0; i < dist.size(); ++i)
    if (dist[i] > best_p) {
      best_p = dist[i];
      best = i;
    }
  std::printf("most likely outcome: %llu with probability %.4f "
              "(backend %s, %.3f s)\n",
              static_cast<unsigned long long>(best), best_p, result.backend.c_str(),
              result.total_seconds);
  std::printf("%s\n", best == marked ? "FOUND the marked item" : "FAILED");
  return best == marked ? 0 : 1;
}

int main(int argc, char** argv) { return qc::run_main(argc, argv, cli_main); }
