// Figure 4: our simulator vs qHiPSTER on the distributed QFT (weak
// scaling). The structural difference reproduced here: our simulator
// applies diagonal gates (the QFT's conditional phase shifts) on global
// qubits without any communication, while the unspecialized simulator
// performs the pairwise chunk exchange for every global-target gate —
// so our advantage grows with the number of distributed qubits. The
// third column runs the PR 4 distributed plan (rank-local fused +
// cache-blocked sweeps with amortized global<->local exchange passes)
// on the same workload.
//
// The fourth comparison is engine-level: a multi-op program (the QFT
// cut into gate segments with measurements and expectation values
// interleaved) run on the "dist" backend with its persistent cluster
// session (one scatter, one gather per run, permutation carried across
// segments). Its measured host staging bytes sit next to the
// models::t_host_staging_seconds price of the resident run and of a
// per-op scatter/gather, which stages twice per mutating op and once
// per read-only op.
//
// Usage: fig4_sim_weak [--local-qubits L] [--max-ranks P] [--json FILE]
//                      [--metrics [FILE]] [--full]
//   --json: write machine-readable per-point timings + communication
//           volumes (the CI bench-smoke step uploads this as
//           BENCH_pr5.json alongside PR 3's blocking ablation)
//   --metrics: re-run the largest engine point with tracing on, print
//           the span summary + model-drift report (predicted vs
//           measured sweep/exchange time), and — given a FILE — write
//           the flat metrics JSON there
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "circuit/builders.hpp"
#include "common/parallel.hpp"
#include "engine/engine.hpp"
#include "models/perf_model.hpp"
#include "obs/report.hpp"
#include "sched/dist_schedule.hpp"
#include "sim/dist_sv.hpp"

namespace {

using namespace qc;

struct Row {
  qubit_t n;
  int ranks;
  double t_ours;
  double t_qhip;
  double t_plan;
  std::uint64_t bytes_ours;
  std::uint64_t bytes_qhip;
  std::uint64_t bytes_plan;
};

Row run_point(qubit_t local_qubits, int ranks) {
  const qubit_t n = local_qubits + bits::log2_floor(static_cast<index_t>(ranks));
  Row row{n, ranks, 0, 0, 0, 0, 0, 0};
  cluster::Cluster cluster(ranks);
  const circuit::Circuit qft_circuit = circuit::qft(n);
  const sched::DistPlan plan = sched::dist_schedule(qft_circuit, local_qubits, {});
  cluster.run([&](cluster::Comm& comm) {
    sim::DistStateVector ours(comm, n);
    ours.randomize(n);
    ours.run(qft_circuit, sim::CommPolicy::Specialized);  // warm-up
    ours.randomize(n);
    comm.barrier();
    WallTimer t;
    ours.run(qft_circuit, sim::CommPolicy::Specialized);
    const double t_ours = comm.allreduce_max(t.seconds());

    sim::DistStateVector qhip(comm, n);
    qhip.randomize(n);
    comm.barrier();
    t.reset();
    qhip.run(qft_circuit, sim::CommPolicy::Exchange);
    const double t_qhip = comm.allreduce_max(t.seconds());

    sim::DistStateVector planned(comm, n);
    planned.randomize(n);
    comm.barrier();
    t.reset();
    sched::run_dist_plan(planned, plan, sim::CommPolicy::Specialized);
    const double t_plan = comm.allreduce_max(t.seconds());

    // Sanity: identical states.
    const double diff = ours.max_abs_diff(qhip);
    const double diff_plan = ours.max_abs_diff(planned);
    if (comm.rank() == 0) {
      if (diff > 1e-10) std::fprintf(stderr, "WARNING: policies disagree (%g)\n", diff);
      if (diff_plan > 1e-10)
        std::fprintf(stderr, "WARNING: dist plan disagrees (%g)\n", diff_plan);
      row.t_ours = t_ours;
      row.t_qhip = t_qhip;
      row.t_plan = t_plan;
      row.bytes_ours = ours.bytes_communicated();
      row.bytes_qhip = qhip.bytes_communicated();
      row.bytes_plan = planned.bytes_communicated();
    }
  });
  return row;
}

/// Fig. 4's speedup, eyeballed: ~1x single node growing toward ~2x at
/// 256 nodes.
double paper_speedup(int ranks) { return ranks == 1 ? 1.0 : (ranks >= 8 ? 1.5 : 1.2); }

// --- resident session vs per-op scatter/gather (engine level) ----------

struct EngineRow {
  qubit_t n;
  int ranks;
  double t_resident;
  std::uint64_t host_resident;  ///< Host<->rank staging bytes, resident run.
  double staging_resident;      ///< Model seconds of the resident run's stagings.
  double staging_perop;         ///< Model seconds of per-op scatter/gather.
};

/// The QFT cut into four gate segments with an ExpectationZ between
/// each and a final measurement: every op boundary is a point where the
/// pre-session backend re-scattered and re-gathered the full state.
engine::Program engine_program(qubit_t n) {
  const circuit::Circuit qc = circuit::qft(n);
  const auto& gates = qc.gates();
  engine::Program p(n);
  const std::size_t seg = (gates.size() + 3) / 4;
  for (std::size_t start = 0; start < gates.size(); start += seg) {
    circuit::Circuit s(n);
    for (std::size_t i = start; i < std::min(gates.size(), start + seg); ++i)
      s.append(gates[i]);
    p.gates(s);
    p.expectation_z(0b11);
  }
  p.measure({0, std::min<qubit_t>(4, n)});
  return p;
}

EngineRow run_engine_point(qubit_t local_qubits, int ranks) {
  const qubit_t n = local_qubits + bits::log2_floor(static_cast<index_t>(ranks));
  const engine::Program p = engine_program(n);
  engine::RunOptions opts;
  opts.backend = "dist";
  opts.dist_ranks = ranks;
  opts.collapse_measurements = false;  // keep the workload purely unitary
  (void)engine::Engine().run(p, opts);  // warm-up
  const engine::Result resident = engine::Engine().run(p, opts);
  // Per-op staging: two per gate segment, one per read-only op (the
  // measurement does not collapse).
  std::size_t perop_transfers = 0;
  for (const engine::Op& op : p.ops())
    perop_transfers += op.kind == engine::OpKind::GateSegment ? 2 : 1;
  return EngineRow{n,
                   ranks,
                   resident.total_seconds,
                   resident.host_bytes,
                   models::t_host_staging_seconds(n, 2, {}),
                   models::t_host_staging_seconds(n, perop_transfers, {})};
}

void write_json(const std::string& path, qubit_t local_qubits, const std::vector<Row>& rows,
                const std::vector<EngineRow>& engine_rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"fig4_sim_weak\",\n  \"local_qubits\": %u,\n"
               "  \"threads\": %d,\n  \"results\": [\n",
               local_qubits, qc::max_threads());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"qubits\": %u, \"ranks\": %d, \"t_ours\": %.6e,"
                 " \"t_qhip\": %.6e, \"t_plan\": %.6e, \"bytes_ours\": %llu,"
                 " \"bytes_qhip\": %llu, \"bytes_plan\": %llu}%s\n",
                 r.n, r.ranks, r.t_ours, r.t_qhip, r.t_plan,
                 static_cast<unsigned long long>(r.bytes_ours),
                 static_cast<unsigned long long>(r.bytes_qhip),
                 static_cast<unsigned long long>(r.bytes_plan),
                 i + 1 < rows.size() ? "," : "");
  }
  // The resident-session column: the same weak-scaling points run as a
  // multi-op engine program, with the model's staging prices.
  std::fprintf(f, "  ],\n  \"engine_results\": [\n");
  for (std::size_t i = 0; i < engine_rows.size(); ++i) {
    const EngineRow& r = engine_rows[i];
    std::fprintf(f,
                 "    {\"qubits\": %u, \"ranks\": %d, \"t_resident\": %.6e,"
                 " \"host_bytes_resident\": %llu, \"t_staging_model_resident\": %.6e,"
                 " \"t_staging_model_perop\": %.6e}%s\n",
                 r.n, r.ranks, r.t_resident, static_cast<unsigned long long>(r.host_resident),
                 r.staging_resident, r.staging_perop, i + 1 < engine_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

static int cli_main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const bool full = cli.has("full");
  const long local_qubits = cli.get_int("local-qubits", full ? 22 : 20);
  const long max_ranks = cli.get_int("max-ranks", full ? 16 : 8);
  const std::string json_path = cli.get_string("json", "");

  bench::print_header("fig4_sim_weak",
                      "Fig. 4 — our simulator vs qHiPSTER-like, distributed QFT");
  std::printf("advantage mechanism: diagonal gates on distributed qubits move zero\n"
              "bytes under our policy, a full chunk exchange under the generic one;\n"
              "the dist plan additionally batches rank-local work into fused sweeps\n\n");

  std::vector<Row> rows;
  Table table({"qubits", "ranks", "T_ours [s]", "T_qhip [s]", "T_plan [s]", "speedup",
               "MB_ours", "MB_qhip", "MB_plan", "paper~"});
  for (int p = 1; p <= max_ranks; p *= 2) {
    const Row r = run_point(static_cast<qubit_t>(local_qubits), p);
    rows.push_back(r);
    table.add_row({std::to_string(r.n), std::to_string(r.ranks), sci(r.t_ours),
                   sci(r.t_qhip), sci(r.t_plan), fixed(r.t_qhip / r.t_ours, 2) + "x",
                   fixed(static_cast<double>(r.bytes_ours) / 1e6, 1),
                   fixed(static_cast<double>(r.bytes_qhip) / 1e6, 1),
                   fixed(static_cast<double>(r.bytes_plan) / 1e6, 1),
                   fixed(paper_speedup(p), 1) + "x"});
  }
  table.print("weak scaling, rank-0 communication volume in MB");
  std::printf("\npaper: the advantage grows with required communication, from ~1x\n"
              "on a single node to ~2x at 256 nodes (Fig. 4). Single-node rows\n"
              "differ only by local kernel specialization.\n");

  std::vector<EngineRow> engine_rows;
  Table etable({"qubits", "ranks", "T_resident [s]", "MB_host_res", "model staging res [s]",
                "model staging per-op [s]"});
  for (int p = 1; p <= max_ranks; p *= 2) {
    const EngineRow r = run_engine_point(static_cast<qubit_t>(local_qubits), p);
    engine_rows.push_back(r);
    etable.add_row({std::to_string(r.n), std::to_string(r.ranks), sci(r.t_resident),
                    fixed(static_cast<double>(r.host_resident) / 1e6, 1),
                    sci(r.staging_resident), sci(r.staging_perop)});
  }
  etable.print(
      "resident cluster session — multi-op engine program (QFT in 4 gate\n"
      "segments + interleaved ExpectationZ + Measure); the resident run stages\n"
      "the host state exactly twice, a per-op scatter/gather would stage twice\n"
      "per mutating op plus once per read-only op (model-priced)");

  if (cli.has("metrics")) {
    // One traced run of the largest engine point: the per-rank lane
    // breakdown plus the model-validation report (sweep memory time vs
    // models::t_state_pass_seconds, Eq. 6 chunk-exchange time vs
    // models::t_chunk_exchange_seconds).
    const qubit_t n =
        static_cast<qubit_t>(local_qubits) +
        bits::log2_floor(static_cast<index_t>(max_ranks));
    engine::RunOptions opts;
    opts.backend = "dist";
    opts.dist_ranks = static_cast<int>(max_ranks);
    opts.collapse_measurements = false;
    opts.trace = true;
    const engine::Result traced = engine::Engine().run(engine_program(n), opts);
    if (traced.trace_data != nullptr) {
      const obs::TraceData& data = *traced.trace_data;
      obs::summary_table(data).print("traced dist run — span summary");
      obs::model_report_table(obs::model_report(data), data)
          .print("model drift: measured vs predicted (drift > 1: model optimistic)");
      std::printf("load imbalance (max/mean rank exec - 1): %.3f\n",
                  obs::load_imbalance(data));
      const std::string metrics_path = cli.get_string("metrics", "");
      if (!metrics_path.empty()) {
        std::FILE* f = std::fopen(metrics_path.c_str(), "w");
        if (f != nullptr) {
          const std::string json = obs::metrics_json(data);
          std::fwrite(json.data(), 1, json.size(), f);
          std::fclose(f);
          std::printf("wrote %s\n", metrics_path.c_str());
        }
      }
    }
  }

  if (!json_path.empty())
    write_json(json_path, static_cast<qubit_t>(local_qubits), rows, engine_rows);
  return 0;
}

int main(int argc, char** argv) { return qc::run_main(argc, argv, cli_main); }
