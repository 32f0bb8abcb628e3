// Arithmetic on superpositions: the paper's §3.1 worked example, as one
// engine::Program run on two backends.
//
// The program superposes inputs (a, b) and computes c += a * b. Run on
// "hpc", the engine lowers the multiply op to the Cuccaro shift-and-add
// network (appending the carry work qubit itself) and simulates it gate
// by gate; run on "auto", the same op is one amplitude permutation.
// Prints both per-op timings and verifies the states agree — then does
// the same for a transcendental function (sin), which has no practical
// reversible circuit at all.
//
// Run: ./arithmetic_demo [--m 6]
#include <cmath>
#include <cstdio>
#include <numbers>

#include "common/cli.hpp"
#include "engine/engine.hpp"

namespace {

/// Seconds the trace recorded for the op at `index`.
double op_seconds(const qc::engine::Result& r, std::size_t index) {
  return index < r.trace.size() ? r.trace[index].seconds : 0.0;
}

}  // namespace

static int cli_main(int argc, char** argv) {
  using namespace qc;
  const Cli cli(argc, argv);
  const qubit_t m = cli.get_qubits("m", 6);

  std::printf("multiplying two %u-bit registers on a superposition of all %llu\n"
              "input pairs\n\n",
              m, static_cast<unsigned long long>(dim(2 * m)));

  engine::Program program(3 * m);
  for (qubit_t q = 0; q < 2 * m; ++q) program.h(q);
  program.multiply({0, m}, {m, m}, {2 * m, m});

  const engine::Engine eng;
  engine::RunOptions opts;

  // --- simulation (the engine lowers multiply to the Cuccaro network) --
  opts.backend = "hpc";
  const engine::Result sim_result = eng.run(program, opts);
  const double t_sim = op_seconds(sim_result, 1);
  std::printf("simulation: reversible network on %u qubits (incl. carry): %.4f s\n",
              sim_result.run_qubits, t_sim);

  // --- emulation -------------------------------------------------------
  opts.backend = "auto";
  const engine::Result emu_result = eng.run(program, opts);
  const double t_emu = op_seconds(emu_result, 1);
  std::printf("emulation:  one permutation of the state vector:          %.4f s\n", t_emu);
  std::printf("speedup: %.0fx    max |state difference|: %.2e\n\n",
              t_emu > 0 ? t_sim / t_emu : 0.0,
              sim_result.state.max_abs_diff(emu_result.state));

  // --- a function with no practical reversible circuit -----------------
  // out += round(sin(x) * scale): the paper's point about trigonometric
  // functions — a reversible implementation needs a series expansion
  // with m work qubits per intermediate; the emulator needs one pass.
  const double scale = static_cast<double>(dim(m) - 1);
  engine::Program fprog(2 * m);
  for (qubit_t q = 0; q < m; ++q) fprog.h(q);
  fprog.apply_function({0, m}, {m, m}, [m, scale](index_t x) {
    const double s = std::sin(2.0 * std::numbers::pi * static_cast<double>(x) /
                              static_cast<double>(dim(m)));
    return static_cast<index_t>(std::llround((s + 1.0) * 0.5 * scale));
  });
  const engine::Result fres = eng.run(fprog, opts);
  std::printf("emulated out += sin(x) lookup on all %llu basis states: %.4f s\n",
              static_cast<unsigned long long>(dim(m)), op_seconds(fres, 1));
  std::printf("(a gate-level implementation would need a reversible series\n"
              "expansion with ~m work qubits per intermediate result — an\n"
              "exponential simulation cost the emulator never pays)\n");
  return 0;
}

int main(int argc, char** argv) { return qc::run_main(argc, argv, cli_main); }
