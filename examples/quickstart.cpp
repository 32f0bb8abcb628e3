// Quickstart: the 60-second tour of the library, through its front door.
//
//  1. build one engine::Program mixing gate segments with high-level ops
//     (arithmetic, QFT, measurement — the paper's §3 shortcuts);
//  2. run it on the "auto" backend: high-level ops execute at their
//     mathematical description, gate segments on the fused simulator;
//  3. run the *same program* on a gate-level backend (default "hpc"):
//     the engine lowers every shortcut to a reversible network first —
//     and the states agree to 1e-12 (the paper's core contract);
//  4. read the per-op wall-clock trace that makes the emulation-vs-
//     simulation gap visible.
//
// Run: ./quickstart
//      ./quickstart --backend dist --ranks 4 --trace trace.json
//
// Options:
//   --backend NAME   gate-level comparison backend (default hpc)
//   --ranks N        rank count for --backend dist (default 4)
//   --precision P    amplitude precision of the gate-level run: f64
//                    (default) or f32 — fp32 runs the float kernels and
//                    loosens the agreement check to the 1e-6 drift bound
//   --trace FILE     write a Chrome trace_event JSON of the gate-level
//                    run (open in about:tracing / Perfetto) and print
//                    the span summary + model-drift report
//   --metrics FILE   write the flat metrics JSON of the same run
#include <cstdio>
#include <string>

#include "common/cli.hpp"
#include "engine/engine.hpp"
#include "obs/report.hpp"

namespace {

bool write_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
  return true;
}

}  // namespace

static int cli_main(int argc, char** argv) {
  using namespace qc;
  const Cli cli(argc, argv);
  const std::string backend = cli.get_string("backend", "hpc");
  const std::string precision = cli.get_string("precision", "f64");
  const std::string trace_file = cli.get_string("trace", "");
  const std::string metrics_file = cli.get_string("metrics", "");
  if (precision != "f64" && precision != "f32") {
    std::printf("unknown --precision '%s' (f64 or f32)\n", precision.c_str());
    return 1;
  }
  // fp32 kernels are exact to ~1e-7 per gate; the shared drift bound is
  // the RunOptions::precision contract (see tests/test_precision.cpp).
  const double tol = precision == "f32" ? 1e-6 : 1e-12;

  // --- 1. one program, gate-level and high-level ops mixed -------------
  const qubit_t n = 6;
  engine::Program program(n);
  program.h(0).cnot(0, 1)                      // gate segment: Bell pair
      .multiply({0, 2}, {2, 2}, {4, 2})        // §3.1: c += a*b, one permutation
      .qft({0, 4})                             // §3.2: QFT as an FFT
      .inverse_qft({0, 4})
      .expectation_z(0b11)                     // §3.4: exact <Z0 Z1>, one pass
      .measure({0, 2});                        // sampled from the exact distribution
  std::printf("%s\n", program.to_string().c_str());

  // --- 2. run on the auto backend (emulation shortcuts) ----------------
  engine::RunOptions opts;
  opts.backend = "auto";
  opts.seed = 7;
  const engine::Engine eng;
  const engine::Result emulated = eng.run(program, opts);
  std::printf("auto backend: <Z0 Z1> = %+.3f, measured a = %llu\n",
              emulated.expectations[0],
              static_cast<unsigned long long>(emulated.measurements[0]));

  // --- 3. same program, gate-level backend -----------------------------
  // The engine lowers multiply to the Cuccaro shift-and-add network
  // (plus a carry ancilla it appends and projects away) and the QFTs to
  // the O(n^2) gate cascade. Same seed, same outcomes, same state.
  opts.backend = backend;
  opts.precision = precision == "f32" ? Precision::kF32 : Precision::kF64;
  opts.dist_ranks = static_cast<int>(cli.get_int("ranks", 4));
  opts.trace = !trace_file.empty() || !metrics_file.empty();
  const engine::Result simulated = eng.run(program, opts);
  std::printf("%s backend:  <Z0 Z1> = %+.3f, measured a = %llu "
              "(ran on %u qubits incl. ancillas)\n",
              backend.c_str(), simulated.expectations[0],
              static_cast<unsigned long long>(simulated.measurements[0]),
              simulated.run_qubits);
  const double diff = emulated.state.max_abs_diff(simulated.state);
  std::printf("max |state difference| = %.2e\n\n", diff);

  // --- 4. the per-op trace ---------------------------------------------
  std::printf("per-op trace (auto backend):\n");
  for (const engine::OpTrace& t : emulated.trace)
    std::printf("  %-28s %9.6f s\n", t.op.c_str(), t.seconds);

  // --- 5. structured trace exports (--trace / --metrics) ----------------
  if (simulated.trace_data != nullptr) {
    const obs::TraceData& data = *simulated.trace_data;
    if (!trace_file.empty()) {
      if (!write_file(trace_file, obs::chrome_trace_json(data))) {
        std::printf("cannot write %s\n", trace_file.c_str());
        return 1;
      }
      std::printf("\nwrote Chrome trace (%zu spans) to %s\n", data.spans.size(),
                  trace_file.c_str());
      std::printf("\nspan summary (%s backend):\n%s", backend.c_str(),
                  obs::summary_table(data).to_string().c_str());
      const auto rows = obs::model_report(data);
      if (!rows.empty())
        std::printf("\nmodel drift (measured vs predicted):\n%s",
                    obs::model_report_table(rows).to_string().c_str());
    }
    if (!metrics_file.empty()) {
      if (!write_file(metrics_file, obs::metrics_json(data))) {
        std::printf("cannot write %s\n", metrics_file.c_str());
        return 1;
      }
      std::printf("wrote metrics JSON to %s\n", metrics_file.c_str());
    }
  }

  std::printf("\nregistered backends:");
  for (const std::string& name : engine::backend_names())
    std::printf(" %s", name.c_str());
  std::printf("\n");

  if (diff > tol || emulated.measurements[0] != simulated.measurements[0]) {
    std::printf("MISMATCH between auto and %s backends\n", backend.c_str());
    return 1;
  }
  std::printf("ok: auto and %s (%s) agree to %.0e\n", backend.c_str(), precision.c_str(),
              tol);
  return 0;
}

int main(int argc, char** argv) { return qc::run_main(argc, argv, cli_main); }
