#include "sched/cached_simulator.hpp"

#include <algorithm>
#include <stdexcept>
#include <type_traits>

#include "common/parallel.hpp"
#include "models/perf_model.hpp"
#include "obs/trace.hpp"
#include "sched/verify_plan.hpp"
#include "sim/kernels.hpp"

namespace qc::sched {

namespace {

/// A plan op with its dense/diagonal payload narrowed to the execution
/// scalar ONCE, outside the chunk loop (the plan itself stays double
/// precision). For T = double the views alias the plan storage.
template <typename T>
struct TypedOp {
  const ChunkOp* op;
  std::vector<basic_complex_t<T>> unitary, diag;  // storage only when T != double

  explicit TypedOp(const ChunkOp& o) : op(&o) {
    if constexpr (!std::is_same_v<T, double>) {
      if (o.kind == ChunkOp::Kind::Dense) {
        const std::size_t count = o.unitary.rows() * o.unitary.cols();
        unitary.resize(count);
        for (std::size_t i = 0; i < count; ++i)
          unitary[i] = static_cast<basic_complex_t<T>>(o.unitary.data()[i]);
      } else if (o.kind == ChunkOp::Kind::Diagonal) {
        diag.resize(o.diag.size());
        for (std::size_t i = 0; i < o.diag.size(); ++i)
          diag[i] = static_cast<basic_complex_t<T>>(o.diag[i]);
      }
    }
  }

  [[nodiscard]] std::span<const basic_complex_t<T>> unitary_view() const {
    if constexpr (std::is_same_v<T, double>) {
      return {op->unitary.data(), op->unitary.rows() * op->unitary.cols()};
    } else {
      return {unitary.data(), unitary.size()};
    }
  }
  [[nodiscard]] std::span<const basic_complex_t<T>> diag_view() const {
    if constexpr (std::is_same_v<T, double>) {
      return {op->diag.data(), op->diag.size()};
    } else {
      return {diag.data(), diag.size()};
    }
  }
};

/// The one map from a plan op to a kernel: serial (Par = false) on a
/// cache-resident chunk inside a sweep, parallel on the whole state for
/// a Global item.
template <typename T, bool Par>
void apply_chunk_op(std::span<basic_complex_t<T>> a, qubit_t n, const TypedOp<T>& top) {
  switch (top.op->kind) {
    case ChunkOp::Kind::Dense:
      sim::kernels::apply_multi<T, Par>(a, n, top.op->qubits, top.unitary_view());
      return;
    case ChunkOp::Kind::Diagonal:
      sim::kernels::apply_multi_diagonal<T, Par>(a, n, top.op->qubits, top.diag_view());
      return;
    case ChunkOp::Kind::Gate:
      sim::apply_gate_hpc<T, Par>(a, n, top.op->gate);
      return;
  }
}

/// One DRAM pass for the whole sweep: every op applies to a chunk while
/// it is cache resident; parallelism is across chunks.
template <typename T>
void run_sweep(std::span<basic_complex_t<T>> a, qubit_t n, qubit_t chunk_width,
               std::span<const TypedOp<T>> ops) {
  const qubit_t width = std::min(chunk_width, n);
  const index_t chunk_size = dim(width);
  const auto chunks = static_cast<std::int64_t>(dim(n) >> width);
#pragma omp parallel for schedule(static) if (worth_parallelizing(dim(n)) && chunks > 1)
  for (std::int64_t c = 0; c < chunks; ++c) {
    const std::span<basic_complex_t<T>> chunk =
        a.subspan(static_cast<index_t>(c) * chunk_size, chunk_size);
    for (const TypedOp<T>& op : ops) apply_chunk_op<T, false>(chunk, width, op);
  }
}

}  // namespace

void CachedSimulator::apply_gate(sim::StateVector& sv, const circuit::Gate& g) const {
  sim::apply_gate_hpc<double>(sv.amplitudes(), sv.qubits(), g);
}

BlockedPlan CachedSimulator::plan(const circuit::Circuit& c) const {
  // Narrow the fusion width to the scheduler's in-cache optimum: the
  // full-pass saving that justifies wide blocks does not apply inside a
  // chunk-resident sweep (see ScheduleOptions::max_block_width).
  fuse::FusionOptions fusion = opts_.fusion;
  fusion.max_width = std::min(fusion.max_width, opts_.sched.max_block_width);
  return schedule(fuse::fuse_circuit(c, fusion), opts_.sched);
}

template <typename T>
void execute_blocked(std::span<basic_complex_t<T>> a, const BlockedPlan& plan) {
  if (a.size() != dim(plan.n))
    throw std::invalid_argument("execute_blocked: amplitude count mismatch");
#if QC_ENABLE_CHECKS
  // Debug/sanitizer builds re-verify every plan at the execution
  // boundary: anything that reaches the kernels has proven coverage,
  // bijective remaps and in-budget chunks (see sched/verify_plan.hpp).
  verify_plan(plan);
#endif
  // Sweeps and global items are priced at one full memory pass
  // (t_state_pass_seconds), remaps at the bytes they move, so the model
  // report can show how far this machine is from the Eq. 6 bandwidth
  // term the scheduler traded in. The cost follows the execution
  // scalar: an fp32 pass moves half the bytes.
  const double pass_pred =
      obs::enabled() ? models::t_state_pass_seconds(plan.n, {}, sizeof(basic_complex_t<T>)) : 0;
  for (const PlanItem& item : plan.items) {
    switch (item.kind) {
      case PlanItem::Kind::Sweep: {
        obs::Span span("sched.sweep");
        if (obs::enabled()) {
          span.arg("ops", static_cast<double>(item.ops.size()));
          span.arg("pred_s", pass_pred);
        }
        std::vector<TypedOp<T>> typed;
        typed.reserve(item.ops.size());
        for (const ChunkOp& op : item.ops) typed.emplace_back(op);
        run_sweep<T>(a, plan.n, plan.chunk_width, {typed.data(), typed.size()});
        break;
      }
      case PlanItem::Kind::Remap: {
        obs::Span span("sched.remap");
        if (obs::enabled()) {
          const double bytes =
              models::remap_bytes(plan.n, item.swaps.size(), sizeof(basic_complex_t<T>));
          span.arg("pairs", static_cast<double>(item.swaps.size()));
          span.arg("run_bits", sim::kernels::swap_run_bits(plan.n, item.swaps));
          span.arg("mem_bytes", bytes);
          span.arg("pred_s", models::t_mem_seconds(bytes, {}));
        }
        sim::kernels::apply_qubit_swaps<T>(a, plan.n, item.swaps);
        break;
      }
      case PlanItem::Kind::Global: {
        obs::Span span("sched.global");
        if (obs::enabled()) span.arg("pred_s", pass_pred);
        apply_chunk_op<T, true>(a, plan.n, TypedOp<T>(item.global));
        break;
      }
    }
  }
}

template void execute_blocked<float>(std::span<basic_complex_t<float>>, const BlockedPlan&);
template void execute_blocked<double>(std::span<basic_complex_t<double>>, const BlockedPlan&);

void CachedSimulator::execute(sim::StateVector& sv, const BlockedPlan& plan) const {
  if (plan.n != sv.qubits()) throw std::invalid_argument("execute: qubit count mismatch");
  execute_blocked<double>(sv.amplitudes(), plan);
}

void CachedSimulator::run(sim::StateVector& sv, const circuit::Circuit& c) const {
  if (c.qubits() != sv.qubits()) throw std::invalid_argument("run: qubit count mismatch");
  execute(sv, plan(c));
}

}  // namespace qc::sched
