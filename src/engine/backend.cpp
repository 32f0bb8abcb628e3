#include "engine/backend.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <numeric>
#include <span>
#include <stdexcept>
#include <thread>
#include <utility>

#include "cluster/cluster.hpp"
#include "cluster/fault.hpp"
#include "emu/dist_emu.hpp"
#include "emu/observables.hpp"
#include "models/perf_model.hpp"
#include "obs/trace.hpp"
#include "sched/cached_simulator.hpp"
#include "sched/dist_schedule.hpp"
#include "sim/sampling.hpp"

namespace qc::engine {

void Backend::run_highlevel(sim::StateVector&, const Op& op) {
  throw std::logic_error("backend '" + name() + "' is gate-level and cannot run '" +
                         op.label() + "'; lower() the program first");
}

index_t Backend::measure_register(sim::StateVector& sv, RegRef r, double u, bool collapse) {
  // §3.4: one distribution pass, one uniform draw — through the shared
  // sampler, which never picks a zero-probability outcome — and one
  // collapse pass that reuses the outcome's probability.
  const std::vector<double> dist = sv.register_distribution(r.offset, r.width);
  const index_t outcome = sim::SampleCdf::from_weights(dist).sample(u);
  if (collapse) {
    obs::Span span("sim.collapse");
    sv.collapse_register(r.offset, r.width, outcome, dist[outcome]);
  }
  return outcome;
}

double Backend::expectation_z(sim::StateVector& sv, index_t mask) {
  return emu::expectation_z_string(sv, mask);
}

void Backend::end_run(sim::StateVector&) {}

BackendCounters Backend::counters() const { return {}; }

namespace {

/// The single-node execution presets. The first three are per-gate
/// loops over one gate-to-kernel map; the last two run a blocked plan.
enum class Preset { Hpc, QhipsterLike, LiquidLike, Fused, Cached };

/// Narrows the fp64 host state into an fp32 working copy, runs `run` on
/// its amplitudes through the float-instantiated kernels, and widens the
/// result back — two extra state passes per gate segment, amortized over
/// its gates, while every kernel sweep inside moves half the bytes.
template <typename F>
void run_narrowed(sim::StateVector& sv, F&& run) {
  sim::BasicStateVector<float> work = sv.cast<float>();
  run(work.amplitudes());
  const auto s = work.amplitudes();
  const auto d = sv.amplitudes();
  const index_t count = s.size();
#pragma omp parallel for schedule(static) if (worth_parallelizing(count))
  for (index_t i = 0; i < count; ++i) d[i] = static_cast<complex_t>(s[i]);
}

/// Every single-node backend: one preset run generic over the amplitude
/// scalar, behind the one fp32 branch. With `emulate` set ("auto"), it
/// also executes high-level ops through emu::Emulator — the paper's
/// dispatch rule: high-level ops at their mathematical description,
/// gate segments through the cached preset. Measurement ops read the
/// fp64 host state through the default virtuals at either precision.
class PresetBackend final : public Backend {
 public:
  PresetBackend(std::string name, Preset preset, const RunOptions& opts, bool emulate = false)
      : name_(std::move(name)),
        preset_(preset),
        fusion_(opts.fusion),
        sched_(opts.sched),
        precision_(opts.precision),
        emulate_(emulate) {}

  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] bool emulates() const override { return emulate_; }

  void run_gates(sim::StateVector& sv, const circuit::Circuit& c) override {
    if (c.qubits() != sv.qubits()) throw std::invalid_argument("run: qubit count mismatch");
    if (precision_ == Precision::kF32) {
      // Convert at the segment boundary: the emulator's high-level
      // shortcuts (FFTs, permutations) stay fp64 on the host state.
      if (c.empty()) return;
      run_narrowed(sv, [&](std::span<basic_complex_t<float>> a) { run_preset<float>(a, c); });
      return;
    }
    run_preset<double>(sv.amplitudes(), c);
  }

  void run_highlevel(sim::StateVector& sv, const Op& op) override {
    if (!emulate_) {
      Backend::run_highlevel(sv, op);
      return;
    }
    emu::Emulator& em = emulator_for(sv);
    switch (op.kind) {
      case OpKind::Add: em.add(op.a, op.b); return;
      case OpKind::Multiply: em.multiply(op.a, op.b, op.c); return;
      case OpKind::MultiplyMod: em.multiply_mod(op.a, op.k, op.modulus); return;
      case OpKind::Divide: em.divide(op.a, op.b, op.c); return;
      case OpKind::ApplyFunction: em.apply_function(op.a, op.b, op.func); return;
      case OpKind::PhaseFunction: em.apply_phase_function(op.phase_fn); return;
      case OpKind::PhaseOracle: em.apply_phase_oracle(op.predicate); return;
      case OpKind::Qft: em.qft(op.a); return;
      case OpKind::InverseQft: em.inverse_qft(op.a); return;
      default:
        throw std::logic_error(name_ + " backend: unexpected op '" + op.label() + "'");
    }
  }

 private:
  template <typename T>
  void run_preset(std::span<basic_complex_t<T>> a, const circuit::Circuit& c) const {
    const qubit_t n = c.qubits();
    switch (preset_) {
      case Preset::Hpc:
        for (const circuit::Gate& g : c.gates()) sim::apply_gate_hpc<T>(a, n, g);
        return;
      case Preset::QhipsterLike:
        for (const circuit::Gate& g : c.gates()) sim::apply_gate_generic<T>(a, n, g);
        return;
      case Preset::LiquidLike:
        for (const circuit::Gate& g : c.gates()) sim::apply_gate_generic<T, false>(a, n, g);
        return;
      case Preset::Fused:
        sched::execute_blocked<T>(a, sched::global_plan(fuse::fuse_circuit(c, fusion_)));
        return;
      case Preset::Cached:
        sched::execute_blocked<T>(a, sched::cached_plan(c, fusion_, sched_));
        return;
    }
  }

  /// The Emulator binds to one StateVector and caches scratch + FFT
  /// plans; rebuild only when the engine hands us a different state.
  emu::Emulator& emulator_for(sim::StateVector& sv) {
    if (emulator_ == nullptr || bound_ != &sv) {
      emulator_ = std::make_unique<emu::Emulator>(sv);
      bound_ = &sv;
    }
    return *emulator_;
  }

  std::string name_;
  Preset preset_;
  fuse::FusionOptions fusion_;
  sched::ScheduleOptions sched_;
  Precision precision_;
  bool emulate_;
  std::unique_ptr<emu::Emulator> emulator_;
  sim::StateVector* bound_ = nullptr;
};

/// The distributed execution backend ("dist"), built around a
/// persistent cluster::ClusterSession. The first op that needs the
/// distributed state opens the session (rank threads spawned once,
/// parked on the job queue) and scatters the engine's host state into
/// per-rank resident DistStateVector chunks — exactly once per
/// Engine::run. Every subsequent gate segment, exchange pass, Measure,
/// ExpectationZ and collapse is submitted as a job against those
/// *resident* chunks: gate segments chain their logical->physical qubit
/// permutation forward (dist_schedule's perm_io) instead of restoring
/// logical order between segments, and the measurement surface reads
/// straight through the live permutation. While resident_ the bound
/// host state (host_) is stale and is refreshed by at most one gather,
/// at end_run — so a multi-op program pays two host stagings total instead
/// of two per op (models::t_host_staging_seconds prices the
/// difference; counters() reports the actual bytes into the engine
/// trace). Measurement ops still consume the engine's uniform draw, so
/// recorded streams match the serial backends seed for seed.
///
/// Templated on the resident amplitude scalar T: under fp32 the ranks
/// hold float chunks (the host state narrows at scatter, widens at
/// gather), so every chunk exchange, checkpoint and host staging moves
/// exactly half the fp64 bytes on the same plan — Result.net_bytes and
/// the model predictions both reflect sizeof(value_type).
template <typename T>
class DistBackendT final : public Backend {
 public:
  using value_type = basic_complex_t<T>;

  explicit DistBackendT(const RunOptions& opts)
      : ranks_(opts.dist_ranks),
        policy_(opts.dist_policy),
        timeout_s_(opts.dist_timeout_s),
        ckpt_interval_(opts.dist_checkpoint_interval),
        max_retries_(opts.dist_max_retries) {
    if (ranks_ < 1 || !bits::is_pow2(static_cast<index_t>(ranks_)))
      throw std::invalid_argument("dist backend: rank count must be a power of two >= 1");
    dopts_.fusion = opts.fusion;
    dopts_.sched = opts.sched;
    dopts_.remap = opts.dist_remap;
    dopts_.policy = opts.dist_policy;
  }

  /// Drops resident chunks without gathering (the engine's end_run is
  /// the one gather point); the session destructor joins the parked
  /// rank threads.
  ~DistBackendT() override { release_slots(); }

  [[nodiscard]] std::string name() const override { return "dist"; }

  void run_gates(sim::StateVector& sv, const circuit::Circuit& c) override {
    if (c.empty()) return;
    ensure_resident(sv);
    // Checkpoint *before* planning, so the segment about to run joins
    // the replay log of the checkpoint it would restore to.
    maybe_checkpoint();
    const auto nl = static_cast<qubit_t>(resident_n_ - session_global_qubits());
    for (int attempt = 0;; ++attempt) {
      const std::vector<qubit_t> perm_before = perm_;
      try {
        sched::DistPlan plan = sched::dist_schedule(c, nl, dopts_, &perm_);
        session_->submit([this, plan](cluster::Comm& comm) {
          sched::run_dist_plan(*slots_[static_cast<std::size_t>(comm.rank())], plan,
                               policy_);
        });
        session_->sync();
        snapshot_net();
        if (checkpoints_enabled()) {
          replay_pred_s_ += sched::predicted_seconds(plan, {});
          ++segments_since_ckpt_;
          replay_log_.push_back({std::move(plan), perm_});
        }
        break;
      } catch (...) {
        perm_ = perm_before;
        // Retry only with a complete replay log: without checkpointing
        // there is no way back to the segment's start state, so the
        // typed error propagates (the engine may degrade).
        if (!checkpoints_enabled() || !cluster::retryable_fault(std::current_exception()) ||
            attempt >= max_retries_)
          throw;
        note_retry(attempt);
        restore_and_replay();
      }
    }
  }

  index_t measure_register(sim::StateVector& sv, RegRef r, double u,
                           bool collapse) override {
    ensure_resident(sv);
    // Collapse destroys the pre-measurement state, and — unlike a gate
    // segment — cannot be replayed from the plan log. Force a checkpoint
    // of the pre-collapse state so a mid-collapse fault can retry.
    if (collapse) maybe_checkpoint(/*force=*/true);
    // Measure through the live permutation: bit j of the outcome reads
    // the physical position of logical qubit offset+j. No restore pass.
    std::vector<qubit_t> phys(r.width);
    for (qubit_t j = 0; j < r.width; ++j) phys[j] = perm_[r.offset + j];
    index_t outcome = 0;
    for (int attempt = 0;; ++attempt) {
      try {
        session_->submit([this, phys, u, collapse, &outcome](cluster::Comm& comm) {
          auto& dsv = *slots_[static_cast<std::size_t>(comm.rank())];
          const std::vector<double> dist =
              dsv.register_distribution(std::span<const qubit_t>(phys));
          const index_t o = sim::SampleCdf::from_weights(dist).sample(u);
          if (comm.rank() == 0) outcome = o;
          if (!collapse) return;  // read-only: resident state untouched
          // Every rank holds the same dist, so p needs no collective.
          obs::Span span("sim.collapse");
          dsv.collapse_register(phys, o, dist[o]);
        });
        session_->sync();
        snapshot_net();
        break;
      } catch (...) {
        // A collapsing retry needs the pre-collapse checkpoint back; a
        // read-only measure can always re-run against intact chunks.
        if (!cluster::retryable_fault(std::current_exception()) || attempt >= max_retries_ ||
            (collapse && !checkpoints_enabled()))
          throw;
        note_retry(attempt);
        if (collapse) restore_and_replay();
      }
    }
    // The collapsed state is a new point of no return the plan log
    // cannot reach; re-checkpoint it so later segment retries restore
    // *post*-measurement state.
    if (collapse && checkpoints_enabled()) take_checkpoint();
    return outcome;
  }

  double expectation_z(sim::StateVector& sv, index_t mask) override {
    ensure_resident(sv);
    // <Z_mask> is permutation-covariant: map the logical mask to the
    // physical bit positions and reduce in place.
    index_t pmask = 0;
    for (qubit_t q = 0; mask >> q; ++q)
      if (bits::test(mask, q)) pmask = bits::set(pmask, perm_[q]);
    double value = 0;
    for (int attempt = 0;; ++attempt) {
      try {
        session_->submit([this, pmask, &value](cluster::Comm& comm) {
          auto& dsv = *slots_[static_cast<std::size_t>(comm.rank())];
          const double v = emu::expectation_z_string(dsv, pmask);
          if (comm.rank() == 0) value = v;
        });
        session_->sync();
        snapshot_net();
        break;
      } catch (...) {
        // Read-only reduction: the chunks are intact after a failed
        // attempt, so retry in place without any restore.
        if (!cluster::retryable_fault(std::current_exception()) || attempt >= max_retries_)
          throw;
        note_retry(attempt);
      }
    }
    return value;
  }

  void end_run(sim::StateVector& sv) override {
    if (resident_ && host_ == &sv) flush_to_host();
  }

  /// Counters are *snapshots taken at op boundaries* (snapshot_net after
  /// every sync), not live reads of the per-rank DistStateVector
  /// counters — a live read could fold bytes a later submission is
  /// already accumulating into the wrong op's trace row.
  [[nodiscard]] BackendCounters counters() const override {
    return {host_bytes_, net_bytes_};
  }

 private:
  /// Every rank must keep at least one *local* qubit (the distributed
  /// planner schedules within the local block), so the rank count clamps
  /// to 2^(n-1) for narrow registers (lowered programs can be tiny).
  [[nodiscard]] int effective_ranks(qubit_t n) const {
    if (n <= 1) return 1;
    return static_cast<int>(
        std::min<index_t>(static_cast<index_t>(ranks_), dim(static_cast<qubit_t>(n - 1))));
  }

  [[nodiscard]] qubit_t session_global_qubits() const {
    return static_cast<qubit_t>(
        bits::log2_floor(static_cast<index_t>(session_->ranks())));
  }

  /// Binds `sv` as the resident distributed state: opens (or reuses)
  /// the session and scatters the host amplitudes into per-rank chunks.
  /// Subsequent calls with the same bound state are free — this is the
  /// "exactly one scatter per run" point. A *different* state (or a
  /// width change, e.g. the clamp lifting when the register widens)
  /// first flushes the old resident state back, and reuses the already
  /// parked rank threads whenever the clamp resolves to the same rank
  /// count instead of silently rebuilding the session per op.
  void ensure_resident(sim::StateVector& sv) {
    if (resident_ && host_ == &sv && resident_n_ == sv.qubits()) return;
    if (resident_) flush_to_host();
    const int eff = effective_ranks(sv.qubits());
    if (session_ == nullptr || session_->ranks() != eff)
      session_ = std::make_unique<cluster::ClusterSession>(eff);
    if (timeout_s_ > 0) session_->set_timeout(timeout_s_);
    const qubit_t n = sv.qubits();
    const auto amps = sv.amplitudes();
    obs::Span scatter_span("dist.scatter");
    scatter_span.arg("host_bytes",
                     static_cast<double>(models::staging_bytes(n, sizeof(value_type))));
    scatter_span.arg("pred_s", models::t_host_staging_seconds(n, 1, {}, sizeof(value_type)));
    // The scatter retries without a checkpoint: the host state it reads
    // from is untouched by a failed attempt, so each retry just rebuilds
    // the slots from scratch.
    for (int attempt = 0;; ++attempt) {
      release_slots();
      slots_.resize(static_cast<std::size_t>(eff));
      slot_bytes_seen_.assign(static_cast<std::size_t>(eff), 0);
      try {
        session_->submit([this, n, amps](cluster::Comm& comm) {
          cluster::fault_point("dist.scatter", comm.rank());
          auto dsv = std::make_unique<sim::BasicDistStateVector<T>>(comm, n);
          const index_t chunk = dim(dsv->local_qubits());
          const auto base =
              static_cast<std::ptrdiff_t>(comm.rank()) * static_cast<std::ptrdiff_t>(chunk);
          std::transform(amps.begin() + base,
                         amps.begin() + base + static_cast<std::ptrdiff_t>(chunk),
                         dsv->local().begin(),
                         [](const complex_t& z) { return static_cast<value_type>(z); });
          slots_[static_cast<std::size_t>(comm.rank())] = std::move(dsv);
        });
        session_->sync();
        break;
      } catch (...) {
        if (!cluster::retryable_fault(std::current_exception()) || attempt >= max_retries_)
          throw;
        note_retry(attempt);
      }
    }
    scatter_span.end();
    host_ = &sv;
    resident_ = true;
    resident_n_ = n;
    perm_.resize(n);
    std::iota(perm_.begin(), perm_.end(), qubit_t{0});
    host_bytes_ += models::staging_bytes(n, sizeof(value_type));
    // Fresh residency: any previous checkpoint/replay state described a
    // different (or stale) resident state.
    ckpt_valid_ = false;
    ckpt_chunks_.clear();
    ckpt_perm_.clear();
    replay_log_.clear();
    replay_pred_s_ = 0;
    segments_since_ckpt_ = 0;
  }

  /// The at-most-one gather: restores physical qubit order (the only
  /// restore of the whole run — segments deferred theirs via perm_io),
  /// copies the chunks back into the bound host state, and drops the
  /// resident slots. The session stays open for reuse.
  void flush_to_host() {
    if (!resident_) return;
    const auto amps = host_->amplitudes();
    obs::Span gather_span("dist.gather");
    gather_span.arg("host_bytes", static_cast<double>(models::staging_bytes(
                                      resident_n_, sizeof(value_type))));
    gather_span.arg("pred_s",
                    models::t_host_staging_seconds(resident_n_, 1, {}, sizeof(value_type)));
    for (int attempt = 0;; ++attempt) {
      // Recompute the restore rounds per attempt: a restore_and_replay
      // below resets perm_ to the checkpoint's permutation.
      const auto rounds = sched::restore_rounds(perm_);
      try {
        session_->submit([this, rounds, amps](cluster::Comm& comm) {
          cluster::fault_point("dist.gather", comm.rank());
          auto& dsv = *slots_[static_cast<std::size_t>(comm.rank())];
          for (const auto& swaps : rounds) dsv.apply_qubit_swaps(swaps);
          const index_t chunk = dim(dsv.local_qubits());
          const auto base =
              static_cast<std::ptrdiff_t>(comm.rank()) * static_cast<std::ptrdiff_t>(chunk);
          std::transform(dsv.local().begin(), dsv.local().end(), amps.begin() + base,
                         [](const value_type& z) { return static_cast<complex_t>(z); });
        });
        session_->sync();
        break;
      } catch (...) {
        // The restore rounds mutate the chunks mid-gather, so a failed
        // attempt needs the checkpoint back before retrying.
        if (!checkpoints_enabled() || !cluster::retryable_fault(std::current_exception()) ||
            attempt >= max_retries_)
          throw;
        note_retry(attempt);
        restore_and_replay();
      }
    }
    gather_span.end();
    release_slots();
    host_bytes_ += models::staging_bytes(resident_n_, sizeof(value_type));
    resident_ = false;
    host_ = nullptr;
  }

  // --- failure domain: checkpoint / restore / retry ---------------------

  /// Whether segment checkpointing is armed. interval -1 disables it
  /// outright; 0 ("auto") arms it only while a fault source exists — an
  /// installed FaultInjector or a deadline budget — so the default
  /// fault-free configuration pays zero checkpoint overhead.
  [[nodiscard]] bool checkpoints_enabled() const {
    if (ckpt_interval_ < 0) return false;
    if (ckpt_interval_ > 0) return true;
    return timeout_s_ > 0 || session_timeout() > 0 ||
           cluster::current_injector() != nullptr;
  }

  [[nodiscard]] double session_timeout() const {
    return session_ != nullptr ? session_->timeout() : 0.0;
  }

  /// Counts a retry and sleeps an exponential backoff (capped well under
  /// a second — the cluster is in-process, the backoff only prevents a
  /// hot retry loop against a still-unhealthy session).
  void note_retry(int attempt) {
    obs::instant("fault.retry");
    obs::counter_add("fault.retries", 1);
    const double backoff_s = 0.0005 * std::ldexp(1.0, std::min(attempt, 8));
    obs::counter_add("fault.backoff_ms", backoff_s * 1e3);
    std::this_thread::sleep_for(std::chrono::duration<double>(backoff_s));
  }

  /// Checkpoint policy gate. Unforced: every ckpt_interval_ segments, or
  /// (auto) when the predicted replay cost of the uncheckpointed segment
  /// log exceeds a few checkpoint costs (models::checkpoint_due).
  /// Forced (pre-collapse): whenever the current state is not already
  /// captured by checkpoint + replay log... i.e. always capturable, so a
  /// force only spends a checkpoint when it shortens the restore path.
  void maybe_checkpoint(bool force = false) {
    if (!resident_ || !checkpoints_enabled()) return;
    bool due = false;
    if (force) {
      due = !ckpt_valid_ || !replay_log_.empty();
    } else if (ckpt_interval_ > 0) {
      due = segments_since_ckpt_ >= static_cast<std::size_t>(ckpt_interval_);
    } else {
      due = models::checkpoint_due(replay_pred_s_, resident_n_, {});
    }
    if (due) take_checkpoint();
  }

  /// Copies every rank's resident chunk (and the carried permutation)
  /// into host-side checkpoint storage. The copy job is communication-
  /// free but still runs on the rank threads, so injected cluster.job
  /// faults exercise checkpoint failure too. The old checkpoint's
  /// buffers are reused as storage, so it is marked invalid for the
  /// duration of the copy.
  void take_checkpoint() {
    obs::Span span("dist.checkpoint");
    span.arg("bytes", static_cast<double>(
                          models::staging_bytes(resident_n_, sizeof(value_type))));
    ckpt_valid_ = false;
    ckpt_chunks_.resize(slots_.size());
    for (int attempt = 0;; ++attempt) {
      try {
        session_->submit([this](cluster::Comm& comm) {
          const auto r = static_cast<std::size_t>(comm.rank());
          const auto& local = slots_[r]->local();
          ckpt_chunks_[r].assign(local.begin(), local.end());
        });
        session_->sync();
        snapshot_net();
        break;
      } catch (...) {
        if (!cluster::retryable_fault(std::current_exception()) || attempt >= max_retries_)
          throw;
        note_retry(attempt);
      }
    }
    ckpt_perm_ = perm_;
    ckpt_valid_ = true;
    replay_log_.clear();
    replay_pred_s_ = 0;
    segments_since_ckpt_ = 0;
    obs::counter_add("checkpoint.count", 1);
    obs::counter_add("checkpoint.bytes",
                     static_cast<double>(
                         models::staging_bytes(resident_n_, sizeof(value_type))));
  }

  /// Restores the last checkpoint (or the original scattered host state
  /// when no checkpoint was taken yet) and replays the logged segments,
  /// leaving chunks and perm_ exactly as before the failed op. The
  /// restore itself can hit injected faults; it retries under the same
  /// budget and rethrows typed errors to the caller when exhausted.
  void restore_and_replay() {
    for (int attempt = 0;; ++attempt) {
      try {
        restore_once();
        return;
      } catch (...) {
        if (!cluster::retryable_fault(std::current_exception()) || attempt >= max_retries_)
          throw;
        note_retry(attempt);
      }
    }
  }

  void restore_once() {
    obs::Span span("dist.restore");
    span.arg("segments", static_cast<double>(replay_log_.size()));
    obs::counter_add("checkpoint.restores", 1);
    const bool from_ckpt = ckpt_valid_;
    const qubit_t n = resident_n_;
    const auto amps = host_->amplitudes();
    session_->submit([this, from_ckpt, n, amps](cluster::Comm& comm) {
      const auto r = static_cast<std::size_t>(comm.rank());
      // An aborted alloc-fail can leave a slot null; recreate it (the
      // constructor re-passes the dist.alloc fault site).
      if (slots_[r] == nullptr)
        slots_[r] = std::make_unique<sim::BasicDistStateVector<T>>(comm, n);
      auto& dsv = *slots_[r];
      if (from_ckpt) {
        std::copy(ckpt_chunks_[r].begin(), ckpt_chunks_[r].end(), dsv.local().begin());
      } else {
        // No checkpoint yet: the bound host state still holds the
        // amplitudes the residency was scattered from (it only goes
        // stale at flush_to_host, which happens after the run's ops).
        const index_t chunk = dim(dsv.local_qubits());
        const auto base =
            static_cast<std::ptrdiff_t>(comm.rank()) * static_cast<std::ptrdiff_t>(chunk);
        std::transform(amps.begin() + base,
                       amps.begin() + base + static_cast<std::ptrdiff_t>(chunk),
                       dsv.local().begin(),
                       [](const complex_t& z) { return static_cast<value_type>(z); });
      }
    });
    session_->sync();
    // A recreated slot's communication counter restarted from zero;
    // resync the snapshot baseline so the next delta cannot underflow.
    for (std::size_t r = 0; r < slots_.size(); ++r)
      slot_bytes_seen_[r] = slots_[r] != nullptr ? slots_[r]->bytes_communicated() : 0;
    if (from_ckpt) {
      perm_ = ckpt_perm_;
    } else {
      perm_.assign(static_cast<std::size_t>(n), 0);
      std::iota(perm_.begin(), perm_.end(), qubit_t{0});
    }
    // Replay the logged segments on top of the restored state.
    for (std::size_t s = 0; s < replay_log_.size(); ++s) {
      session_->submit([this, s](cluster::Comm& comm) {
        sched::run_dist_plan(*slots_[static_cast<std::size_t>(comm.rank())],
                             replay_log_[s].plan, policy_);
      });
      session_->sync();
      perm_ = replay_log_[s].perm_after;
    }
    snapshot_net();
  }

  /// Folds the *delta* of every rank's communication counter since the
  /// previous snapshot into net_bytes_. Called after each sync, so the
  /// engine's per-op counter reads see bytes attributed to the op that
  /// actually moved them (not lumped into whichever op released the
  /// slots).
  void snapshot_net() {
    for (std::size_t r = 0; r < slots_.size(); ++r)
      if (slots_[r] != nullptr) {
        const std::uint64_t seen = slots_[r]->bytes_communicated();
        net_bytes_ += seen - slot_bytes_seen_[r];
        slot_bytes_seen_[r] = seen;
      }
  }

  /// Takes a final snapshot and frees the chunks (host-side:
  /// DistStateVector's destructor does not communicate).
  void release_slots() {
    snapshot_net();
    slots_.clear();
    slot_bytes_seen_.clear();
  }

  int ranks_;
  sim::CommPolicy policy_;
  sched::DistScheduleOptions dopts_;

  std::unique_ptr<cluster::ClusterSession> session_;
  std::vector<std::unique_ptr<sim::BasicDistStateVector<T>>> slots_;  ///< One per rank.
  /// Per-rank bytes_communicated() value at the last snapshot_net —
  /// deltas against these attribute communication to the right op.
  std::vector<std::uint64_t> slot_bytes_seen_;
  sim::StateVector* host_ = nullptr;  ///< Host state the residency is bound to.
  bool resident_ = false;
  qubit_t resident_n_ = 0;
  std::vector<qubit_t> perm_;  ///< Logical->physical, carried across segments.
  std::uint64_t host_bytes_ = 0;
  std::uint64_t net_bytes_ = 0;

  // Failure domain (see README "Failure model").
  double timeout_s_ = 0;   ///< RunOptions::dist_timeout_s.
  int ckpt_interval_ = 0;  ///< RunOptions::dist_checkpoint_interval.
  int max_retries_ = 2;    ///< RunOptions::dist_max_retries.
  /// One executed gate segment since the last checkpoint: enough to
  /// replay it (the plan) and to land on the right permutation after.
  struct SegmentLog {
    sched::DistPlan plan;
    std::vector<qubit_t> perm_after;
  };
  std::vector<SegmentLog> replay_log_;
  double replay_pred_s_ = 0;  ///< Predicted replay cost of replay_log_ (model s).
  std::size_t segments_since_ckpt_ = 0;
  std::vector<std::vector<value_type>> ckpt_chunks_;  ///< Per-rank chunk copies.
  std::vector<qubit_t> ckpt_perm_;                   ///< perm_ at checkpoint time.
  bool ckpt_valid_ = false;
};

std::map<std::string, BackendFactory>& registry() {
  static std::map<std::string, BackendFactory> reg = [] {
    std::map<std::string, BackendFactory> r;
    const auto preset = [](const char* name, Preset p, bool emulate = false) {
      return [name, p, emulate](const RunOptions& opts) -> std::unique_ptr<Backend> {
        return std::make_unique<PresetBackend>(name, p, opts, emulate);
      };
    };
    r["hpc"] = preset("hpc", Preset::Hpc);
    r["qhipster-like"] = preset("qhipster-like", Preset::QhipsterLike);
    r["liquid-like"] = preset("liquid-like", Preset::LiquidLike);
    r["fused"] = preset("fused", Preset::Fused);
    r["cached"] = preset("cached", Preset::Cached);
    r["auto"] = preset("auto", Preset::Cached, /*emulate=*/true);
    r["dist"] = [](const RunOptions& opts) -> std::unique_ptr<Backend> {
      if (opts.precision == Precision::kF32) return std::make_unique<DistBackendT<float>>(opts);
      return std::make_unique<DistBackendT<double>>(opts);
    };
    return r;
  }();
  return reg;
}

}  // namespace

void register_backend(const std::string& name, BackendFactory factory) {
  if (name.empty() || !factory)
    throw std::invalid_argument("register_backend: empty name or null factory");
  auto [it, inserted] = registry().emplace(name, std::move(factory));
  if (!inserted)
    throw std::invalid_argument("register_backend: '" + name + "' already registered");
}

std::vector<std::string> backend_names() {
  std::vector<std::string> names;
  names.reserve(registry().size());
  for (const auto& [name, factory] : registry()) names.push_back(name);
  return names;  // std::map iterates sorted
}

std::unique_ptr<Backend> make_backend(const std::string& name, const RunOptions& opts) {
  const auto it = registry().find(name);
  if (it == registry().end()) {
    std::string names;
    for (const std::string& n : backend_names()) {
      if (!names.empty()) names += ", ";
      names += n;
    }
    throw std::invalid_argument("make_backend: unknown backend '" + name + "' (valid: " + names +
                                ")");
  }
  return it->second(opts);
}

}  // namespace qc::engine
