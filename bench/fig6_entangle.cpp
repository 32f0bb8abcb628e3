// Figure 6: single-node entangling operation (H on qubit 0, then a CNOT
// chain conditioned on it) across the three per-gate presets.
//
// Usage: fig6_entangle [--min-qubits N] [--max-qubits N] [--full]
//   defaults: n = 15..22; --full: 15..24
#include <cstdio>

#include "bench_util.hpp"
#include "circuit/builders.hpp"
#include "engine/backend.hpp"

namespace {

using namespace qc;

double time_entangle(engine::Backend& backend, qubit_t n) {
  sim::StateVector sv(n);
  const circuit::Circuit c = circuit::entangle(n);
  backend.run_gates(sv, c);  // warm-up
  // Repeat until >= 0.3 s: a single entangle pass is microseconds at
  // small n, far below OpenMP fork/join noise.
  return time_per_rep([&] { backend.run_gates(sv, c); }, 0.3, 1000);
}

}  // namespace

static int cli_main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const bool full = cli.has("full");
  const long n_min = cli.get_int("min-qubits", 15);
  const long n_max = cli.get_int("max-qubits", full ? 24 : 22);

  bench::print_header("fig6_entangle",
                      "Fig. 6 — entangling operation: ours vs qHiPSTER vs LIQUi|>");

  const auto ours = engine::make_backend("hpc");
  const auto qhip = engine::make_backend("qhipster-like");
  const auto liquid = engine::make_backend("liquid-like");

  Table table({"qubits", "T_ours [s]", "T_qhip [s]", "T_liquid [s]", "vs qhip",
               "vs liquid", "paper(qhip/liquid)~"});
  for (qubit_t n = static_cast<qubit_t>(n_min); n <= static_cast<qubit_t>(n_max); ++n) {
    const double t_ours = time_entangle(*ours, n);
    const double t_qhip = time_entangle(*qhip, n);
    const double t_liquid = time_entangle(*liquid, n);
    table.add_row({std::to_string(n), sci(t_ours), sci(t_qhip), sci(t_liquid),
                   fixed(t_qhip / t_ours, 2) + "x", fixed(t_liquid / t_ours, 1) + "x",
                   "~2x / ~6x"});
  }
  table.print("time per entangling operation (H + CNOT chain)");
  std::printf("\npaper: ~2x over qHiPSTER and ~6x over LIQUi|> (Fig. 6). Mechanism\n"
              "here: the CNOT chain is control-folded (half the pairs, zero\n"
              "flops) instead of a full masked 2x2 sweep per gate.\n");
  return 0;
}

int main(int argc, char** argv) { return qc::run_main(argc, argv, cli_main); }
