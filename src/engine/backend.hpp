// Backend registry — one namespace for every way this library can
// execute a Program.
//
// A Backend executes the *unitary* ops of a Program; Measure /
// ExpectationZ ops are routed through the measurement virtuals below
// with an engine-supplied uniform draw, so the recorded streams stay
// backend-independent for one seed. Two families:
//
//  * gate-level backends ("hpc", "fused", "cached", "qhipster-like",
//    "liquid-like", and the distributed "dist") only ever see gate
//    segments — Engine::run lowers high-level ops first;
//  * emulating backends ("auto") report emulates() == true and execute
//    high-level ops at their mathematical description (emu::Emulator),
//    dispatching gate segments to the cached preset — the paper's §3
//    contract expressed as one dispatch rule.
//
// Every single-node name ("hpc", "qhipster-like", "liquid-like",
// "fused", "cached", and "auto" on top of "cached") is a preset of one
// backend class: a per-gate loop over one of the three gate-to-kernel
// maps (sim/simulator.hpp) or a blocked plan run by
// sched::execute_blocked, generic over the amplitude scalar, with the
// one fp32 branch in front. "dist" is its own backend (a resident
// cluster session).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "engine/program.hpp"
#include "fuse/fusion.hpp"
#include "sched/schedule.hpp"
#include "sim/dist_sv.hpp"

namespace qc::engine {

/// Per-run knobs carried into Engine::run and the backend factories.
struct RunOptions {
  /// Registered backend name ("auto", "hpc", "fused", ...).
  std::string backend = "auto";
  /// Seed for measurement sampling (one uniform draw per Measure op, in
  /// program order — identical draw sequence on every backend).
  std::uint64_t seed = 1;
  /// Gate-fusion options for backends that fuse ("auto", "fused",
  /// "cached").
  fuse::FusionOptions fusion;
  /// Cache-blocking options for backends that sweep-schedule ("auto",
  /// "cached").
  sched::ScheduleOptions sched;
  /// Amplitude precision gate segments execute at. kF64 (default) is
  /// the reference. kF32 runs the float-instantiated kernels: the host
  /// state stays fp64 and is narrowed once per gate segment (resp. held
  /// float-resident on the dist backend's ranks, halving exchange
  /// bytes); measurement sampling and reductions stay double either
  /// way. Accuracy is bounded by the precision-drift test gate (fp32 vs
  /// fp64 <= 1e-6 max amplitude error on deep QFT/random circuits).
  Precision precision = Precision::kF64;
  /// Initial computational basis state |initial_basis> of the *program*
  /// register (lowering ancillas always start at |0>).
  index_t initial_basis = 0;
  /// Collapse the measured register after each Measure op (off: record
  /// the sampled outcome but leave the state untouched).
  bool collapse_measurements = true;
  /// Lowering options used when the backend is gate-level.
  LowerOptions lower;
  /// Rank count for the "dist" backend — a power of two; the in-process
  /// cluster spawns this many rank threads (clamped so every rank holds
  /// at least one amplitude of the run's register).
  int dist_ranks = 2;
  /// Communication policy for the "dist" backend's per-gate fallbacks
  /// (Specialized skips exchanges for diagonal global targets and
  /// unsatisfied global controls; Exchange is the qHiPSTER-like
  /// every-global-gate exchange).
  sim::CommPolicy dist_policy = sim::CommPolicy::Specialized;
  /// Allow the "dist" backend's cost-gated global<->local qubit
  /// exchange passes (off: every global-qubit gate runs per-gate).
  bool dist_remap = true;
  /// Collect a structured trace of the run (obs::Tracer): hierarchical
  /// spans across every layer — engine op, fusion, sweep scheduling,
  /// chunk sweeps, dist exchanges, per-rank cluster jobs — returned in
  /// Result.trace_data for the Chrome-trace / metrics / model-report
  /// exporters (obs/report.hpp). Off (default): instrumentation costs
  /// one relaxed atomic load per site.
  bool trace = false;

  // --- failure domain (see README "Failure model") ----------------------

  /// Deadline budget (seconds) for the dist backend's cluster session:
  /// a blocking recv/barrier that waits longer aborts the cluster and
  /// raises cluster::TimeoutError; sync() runs a watchdog at a grace
  /// multiple of the same budget. <= 0: deadlines off (unless
  /// QC_CLUSTER_TIMEOUT_S arms them process-wide).
  double dist_timeout_s = 0;
  /// Segment-granular checkpoint policy for the dist backend:
  ///   -1   off — a retryable fault cannot replay (the run degrades or
  ///        fails instead);
  ///    0   auto (default) — checkpoint when the predicted replay cost
  ///        of the uncheckpointed segment log exceeds a few checkpoints
  ///        (models::checkpoint_due), armed only while a fault source
  ///        exists (an installed FaultInjector or a timeout budget), so
  ///        fault-free runs pay nothing;
  ///    N>0 checkpoint every N gate segments, unconditionally.
  int dist_checkpoint_interval = 0;
  /// Retry budget per op for retryable cluster faults (timeout,
  /// injected fault, allocation failure): each retry restores the last
  /// checkpoint, replays the segment log and re-runs the op. 0: faults
  /// propagate immediately.
  int dist_max_retries = 2;
  /// Deterministic fault-injection schedule installed for the whole run
  /// (cluster::FaultInjector::parse grammar, e.g.
  /// "abort@cluster.barrier#2;drop@cluster.send#1/0"). Empty: the
  /// QC_FAULTS environment variable, if set.
  std::string fault_spec;
  /// Degradation ladder: on an unrecoverable cluster error mid-run,
  /// restart the program on the single-node "cached" backend (recorded
  /// in Result.degraded and the trace) instead of failing. Off: the
  /// typed error propagates to the caller.
  bool degrade = true;
};

/// Monotone byte counters a backend exposes for the per-op engine
/// trace. `host_bytes` is data staged between the engine's host state
/// and backend-resident storage (the dist backend's scatter/gather);
/// `net_bytes` is data moved between ranks. Engine::run records per-op
/// deltas, so a resident run shows one scatter on the first op and one
/// gather at finalize instead of two stagings on every op.
struct BackendCounters {
  std::uint64_t host_bytes = 0;
  std::uint64_t net_bytes = 0;
};

class Backend {
 public:
  virtual ~Backend() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// True if this backend executes high-level ops natively; false means
  /// Engine::run must lower() the program to gates first.
  [[nodiscard]] virtual bool emulates() const { return false; }

  /// Executes a gate segment.
  virtual void run_gates(sim::StateVector& sv, const circuit::Circuit& c) = 0;

  /// Executes a high-level unitary op. Default throws std::logic_error —
  /// gate-level backends never see one.
  virtual void run_highlevel(sim::StateVector& sv, const Op& op);

  /// Samples a measurement outcome of register `r` using the
  /// engine-supplied uniform draw `u` (exactly one per Measure op, so
  /// the recorded stream is identical across backends for one seed),
  /// optionally collapsing the register. Default: one distribution pass
  /// plus the shared zero-probability-safe inverse-CDF sampler.
  /// Backends with their own state layout ("dist") override with a
  /// collective implementation.
  virtual index_t measure_register(sim::StateVector& sv, RegRef r, double u, bool collapse);

  /// <Z_mask> of the current state. Default: serial one-pass reduction;
  /// "dist" overrides with the collective reduction.
  virtual double expectation_z(sim::StateVector& sv, index_t mask);

  /// Called once by Engine::run after the last op. Backends holding
  /// state resident elsewhere ("dist") flush it back into `sv` here —
  /// the at-most-one gather of a resident run. Default: no-op.
  virtual void end_run(sim::StateVector& sv);

  /// Monotone counters behind the engine trace's per-op byte columns.
  /// Default: all zero (purely host-side backends move nothing).
  [[nodiscard]] virtual BackendCounters counters() const;
};

using BackendFactory = std::function<std::unique_ptr<Backend>(const RunOptions&)>;

/// Registers a backend under `name`. Throws std::invalid_argument on an
/// empty name, a null factory or a duplicate name.
void register_backend(const std::string& name, BackendFactory factory);

/// Sorted names of every registered backend (builtins plus user
/// registrations).
[[nodiscard]] std::vector<std::string> backend_names();

/// Instantiates a registered backend; unknown names throw
/// std::invalid_argument listing backend_names().
[[nodiscard]] std::unique_ptr<Backend> make_backend(const std::string& name,
                                                    const RunOptions& opts = {});

}  // namespace qc::engine
