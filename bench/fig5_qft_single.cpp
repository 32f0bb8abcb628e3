// Figure 5: single-node QFT across the three per-gate presets (ours,
// qHiPSTER-like, LIQUi|>-like stand-ins — see DESIGN.md).
//
// Usage: fig5_qft_single [--min-qubits N] [--max-qubits N] [--full]
//   defaults: n = 18..21; --full: 18..23
#include <cstdio>

#include "bench_util.hpp"
#include "circuit/builders.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "engine/backend.hpp"

namespace {

using namespace qc;

double time_qft(engine::Backend& backend, qubit_t n) {
  sim::StateVector sv(n);
  Rng rng(n);
  sv.randomize(rng);
  const circuit::Circuit c = circuit::qft(n);
  backend.run_gates(sv, c);  // warm-up (page faults, code paths)
  // Repeat until >= 0.3 s so small sizes aren't fork/join noise.
  return time_per_rep([&] { backend.run_gates(sv, c); }, 0.3, 50);
}

}  // namespace

static int cli_main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const bool full = cli.has("full");
  const long n_min = cli.get_int("min-qubits", 18);
  const long n_max = cli.get_int("max-qubits", full ? 23 : 21);

  bench::print_header("fig5_qft_single",
                      "Fig. 5 — single-node QFT: ours vs qHiPSTER vs LIQUi|>");

  const auto ours = engine::make_backend("hpc");
  const auto qhip = engine::make_backend("qhipster-like");
  const auto liquid = engine::make_backend("liquid-like");

  Table table({"qubits", "T_ours [s]", "T_qhip [s]", "T_liquid [s]", "vs qhip",
               "vs liquid", "paper(qhip/liquid)~"});
  for (qubit_t n = static_cast<qubit_t>(n_min); n <= static_cast<qubit_t>(n_max); ++n) {
    const double t_ours = time_qft(*ours, n);
    const double t_qhip = time_qft(*qhip, n);
    const double t_liquid = time_qft(*liquid, n);
    table.add_row({std::to_string(n), sci(t_ours), sci(t_qhip), sci(t_liquid),
                   fixed(t_qhip / t_ours, 2) + "x", fixed(t_liquid / t_ours, 1) + "x",
                   "1.2-2x / 10-14x"});
  }
  table.print("time per QFT");
  std::printf("\npaper: our simulator is ~1.2-2x faster than qHiPSTER and ~10-14x\n"
              "faster than LIQUi|> (Fig. 5). Mechanisms here: diagonal (CR) gates\n"
              "touch a quarter of the state in one in-place pass instead of a\n"
              "full generic read+write sweep; LIQUi|>-like additionally runs\n"
              "single-threaded (%d threads available).\n",
              max_threads());
  return 0;
}

int main(int argc, char** argv) { return qc::run_main(argc, argv, cli_main); }
