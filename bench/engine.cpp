// bench_engine — the engine front door's first BENCH datapoint: one
// QFT-dominated Program executed by every requested backend, per-op
// wall-clock trace emitted as JSON.
//
// The program (prep rotations + QFT + inverse QFT on the full register)
// is the paper's §3.2 emulation showcase: the "auto" backend runs each
// QFT as one FFT over the amplitudes, a gate-level backend pays the
// O(n^2) gate cascade — at the default 20 qubits the auto backend is
// expected >= 5x faster than "hpc" end to end.
//
// Run: ./bench_engine [--qubits 20] [--backends auto,hpc,fused] [--reps 3]
//      [--precision f64|f32] — amplitude precision of the gate segments
//                     (f32 runs the float kernels; emulation stays fp64)
//      [--metrics]  — re-run each backend once with tracing on and embed
//                     the flat obs metrics (spans/lanes/imbalance) per run
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "engine/engine.hpp"
#include "obs/report.hpp"

namespace {

using namespace qc;

/// Comma-separated backend list -> names.
std::vector<std::string> split_names(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::string item = csv.substr(start, comma - start);
    if (!item.empty()) out.push_back(item);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s)
    if (c == '"' || c == '\\')
      (out += '\\') += c;
    else
      out += c;
  return out;
}

}  // namespace

static int cli_main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const qubit_t n = cli.get_qubits("qubits", 20);
  const int reps = static_cast<int>(cli.get_int("reps", 3));
  const bool metrics = cli.has("metrics");
  const std::string precision = cli.get_string("precision", "f64");
  const std::vector<std::string> backends =
      split_names(cli.get_string("backends", "auto,hpc,fused"));

  engine::Program program(n);
  for (qubit_t q = 0; q < n; ++q) {
    program.h(q);
    program.rz(q, 0.13 * static_cast<double>(q + 1));
  }
  program.qft().inverse_qft().qft();

  std::printf("{\n  \"bench\": \"bench_engine\",\n  \"qubits\": %u,\n  \"reps\": %d,\n", n,
              reps);
  std::printf("  \"precision\": \"%s\",\n", precision.c_str());
  std::printf("  \"program\": [");
  for (std::size_t i = 0; i < program.ops().size(); ++i)
    std::printf("%s\"%s\"", i ? ", " : "", json_escape(program.ops()[i].label()).c_str());
  std::printf("],\n  \"runs\": [\n");

  const engine::Engine eng;
  double total_auto = 0, total_hpc = 0;
  for (std::size_t b = 0; b < backends.size(); ++b) {
    engine::RunOptions opts;
    opts.backend = backends[b];
    opts.precision = precision == "f32" ? Precision::kF32 : Precision::kF64;
    // Best-of-reps end-to-end, trace taken from the fastest run (first
    // runs pay first-touch page faults; see bench_util notes).
    engine::Result best = eng.run(program, opts);
    for (int rep = 1; rep < reps; ++rep) {
      engine::Result r = eng.run(program, opts);
      if (r.total_seconds < best.total_seconds) best = std::move(r);
    }
    if (backends[b] == "auto") total_auto = best.total_seconds;
    if (backends[b] == "hpc") total_hpc = best.total_seconds;
    std::printf("    {\"backend\": \"%s\", \"run_qubits\": %u, \"total_seconds\": %.6f, "
                "\"ops\": [",
                json_escape(best.backend).c_str(), best.run_qubits, best.total_seconds);
    for (std::size_t i = 0; i < best.trace.size(); ++i)
      std::printf("%s{\"op\": \"%s\", \"seconds\": %.6f}", i ? ", " : "",
                  json_escape(best.trace[i].op).c_str(), best.trace[i].seconds);
    std::printf("]");
    if (metrics) {
      // One extra traced run (kept out of the headline best-of-reps so
      // the timing numbers never include instrumentation).
      opts.trace = true;
      const engine::Result traced = eng.run(program, opts);
      if (traced.trace_data != nullptr)
        std::printf(", \"metrics\": %s", obs::metrics_json(*traced.trace_data).c_str());
    }
    std::printf("}%s\n", b + 1 < backends.size() ? "," : "");
  }
  std::printf("  ]");
  if (total_auto > 0 && total_hpc > 0)
    std::printf(",\n  \"speedup_auto_vs_hpc\": %.2f", total_hpc / total_auto);
  std::printf("\n}\n");
  return 0;
}

int main(int argc, char** argv) { return qc::run_main(argc, argv, cli_main); }
