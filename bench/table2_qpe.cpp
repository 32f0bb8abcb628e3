// Table 2: quantum phase estimation of a 1-D transverse-field Ising
// Trotter step (G = 4n - 3 gates). Measures the four primitive timings
// the paper reports — T_applyU (gate-level), T_construct (dense U),
// T_zgemm (one squaring), T_zgeev (one eigendecomposition) — and derives
// the crossover precision at which each emulation strategy beats
// simulation, exactly as the paper's lower panel does.
//
// Usage: table2_qpe [--min-qubits N] [--max-qubits N] [--full]
//   defaults: n = 6..9 measured, 10..14 modeled by complexity scaling
//   --full:   n = 6..11 measured
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "circuit/builders.hpp"
#include "common/rng.hpp"
#include "emu/qpe.hpp"
#include "linalg/eig.hpp"
#include "linalg/gemm.hpp"
#include "models/perf_model.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace qc;

struct PaperRow {
  double apply_u, construct, gemm, eig;
  unsigned cross_rs, cross_ed;
};

/// Paper Table 2, n = 8..14.
const PaperRow kPaper[] = {
    {1.44e-4, 7.60e-4, 8.39e-4, 9.60e-2, 6, 10},
    {1.60e-4, 3.46e-3, 6.71e-3, 5.27e-1, 9, 12},
    {1.80e-4, 1.55e-2, 5.37e-2, 1.70, 12, 14},
    {2.11e-4, 6.88e-2, 4.29e-1, 6.72, 15, 15},
    {2.44e-4, 3.02e-1, 3.44, 3.22e1, 18, 18},
    {3.46e-4, 1.32, 2.75e1, 1.80e2, 21, 19},
    {4.92e-4, 5.69, 2.20e2, 9.01e2, 24, 21},
};

const PaperRow* paper_row(qubit_t n) {
  return (n >= 8 && n <= 14) ? &kPaper[n - 8] : nullptr;
}

models::QpeCosts measure(qubit_t n) {
  return emu::measure_qpe_costs(circuit::tfim_trotter_step(n, 0.1));
}

/// Extrapolates measured costs one qubit up using the §3.3 complexity
/// exponents (G = 4n - 3 for the TFIM Trotter step).
models::QpeCosts scale_up(const models::QpeCosts& c, qubit_t n_from) {
  return emu::scale_qpe_costs(c, n_from, n_from + 1, 4 * n_from - 3, 4 * (n_from + 1) - 3);
}

}  // namespace

static int cli_main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const bool full = cli.has("full");
  const qubit_t n_min = cli.get_qubits("min-qubits", 6);
  const qubit_t n_meas_max = cli.get_qubits("max-qubits", full ? 11 : 9);
  const qubit_t n_model_max = 14;

  bench::print_header("table2_qpe",
                      "Table 2 — QPE on a TFIM Trotter step: timings & crossovers");
  std::printf("G = 4n-3 gates; measured rows up to n = %u, then modeled by the\n"
              "paper's complexity exponents (labelled). paper columns in ().\n\n",
              n_meas_max);

  Table table({"n", "G", "T_applyU [s]", "T_construct [s]", "T_gemm [s]", "T_eig [s]",
               "cross RS", "cross ED", "kind"});
  models::QpeCosts last;
  for (qubit_t n = n_min; n <= n_model_max; ++n) {
    models::QpeCosts costs;
    const char* kind;
    if (n <= n_meas_max) {
      costs = measure(n);
      kind = "measured";
    } else {
      costs = scale_up(last, n - 1);
      kind = "modeled";
    }
    last = costs;
    const unsigned rs = models::crossover_bits_repeated_squaring(costs);
    const unsigned ed = models::crossover_bits_eigendecomposition(costs);
    const PaperRow* p = paper_row(n);
    auto cross_cell = [&](unsigned mine, unsigned paper) {
      return std::to_string(mine) + (p ? " (" + std::to_string(paper) + ")" : "");
    };
    table.add_row({std::to_string(n), std::to_string(4 * n - 3),
                   sci(costs.t_apply_u) + (p ? " (" + sci(p->apply_u, 1) + ")" : ""),
                   sci(costs.t_construct) + (p ? " (" + sci(p->construct, 1) + ")" : ""),
                   sci(costs.t_gemm) + (p ? " (" + sci(p->gemm, 1) + ")" : ""),
                   sci(costs.t_eig) + (p ? " (" + sci(p->eig, 1) + ")" : ""),
                   cross_cell(rs, p ? p->cross_rs : 0), cross_cell(ed, p ? p->cross_ed : 0),
                   kind});
  }
  table.print("QPE primitive timings and crossover precision (bits)");

  // Verification note: the crossover solver reproduces the paper's lower
  // panel exactly when fed the paper's own timings (tested in
  // tests/test_models.cpp, Table2CrossoversReproduced).
  std::printf("\npaper: crossovers 6,9,12,15,18,21,24 bits (repeated squaring) and\n"
              "10,12,14,15,18,19,21 bits (eigendecomposition) for n = 8..14; the\n"
              "small-n values sit well below the asymptotic b >= 2n rule because\n"
              "constant factors dominate (paper §4.4). Shapes here follow the\n"
              "same pattern; absolute values shift with this machine's GEMM/eig\n"
              "rates relative to MKL on the paper's Xeon.\n");
  return 0;
}

int main(int argc, char** argv) { return qc::run_main(argc, argv, cli_main); }
