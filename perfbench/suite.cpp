// qc_suite — the canonical end-to-end benchmark of the emulator.
//
// One binary, three workloads (see README.md next to this file for why
// each exists and which per-layer metric should move which end-to-end
// metric):
//
//   qft    22 qubits: H+Rz prep, QFT, inverse QFT, QFT.
//   dense  25 qubits: a 50-gate circuit::random_dense_circuit, no
//          high-level ops.
//   shor   order finding for a = 7 mod N = 221 (order 48): 17 exponent
//          + 8 work qubits on the emulating backend; the gate-level
//          backends run the same program with a 9-qubit exponent, whose
//          lowered oracle (about 9k gates) they finish in under a second.
//
// Every timed sample is the wall clock around one whole Engine::run
// (lowering, allocation, first touch and ancilla projection included)
// and every result passes through the workload's correctness oracle
// before it counts. Modes:
//
//   --trace 0        end-to-end samples, backends taking turns for
//                    --seconds; prints per-backend medians.
//   --trace 1        one untraced and one traced Engine::run per backend
//                    plus spans the benchmark records around direct calls
//                    into each layer; prints the per-layer metrics.
//   --setup-probe    builds the workload and runs it once, cold, on
//                    "auto" in this fresh process; prints the time from
//                    main() to the checked result (run.py spawns several
//                    and reports the median as setup_s).
//
// Usage: qc_suite --workload qft|dense|shor --seed N --seconds S
//                 --trace 0|1 [--toy] [--setup-probe] [--inject amp|expect]
//
// --toy shrinks every workload to seconds; --inject corrupts each result
// before its check, so the self-test can prove failures are counted.
// The last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
#include <omp.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <complex>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <numbers>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "circuit/builders.hpp"
#include "common/timer.hpp"
#include "emu/emulator.hpp"
#include "engine/engine.hpp"
#include "fft/fft.hpp"
#include "fuse/fusion.hpp"
#include "obs/report.hpp"
#include "sched/cached_simulator.hpp"
#include "sched/dist_schedule.hpp"
#include "sim/kernels_dispatch.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace qc;

// ---------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool toy = false;
  bool setup_probe = false;
  std::string inject;  ///< "", "amp" or "expect".
};

std::uint64_t parse_u64(const std::string& flag, const std::string& v) {
  std::size_t used = 0;
  unsigned long long x = 0;
  try {
    x = std::stoull(v, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != v.size() || v.empty() || v[0] == '-')
    throw std::invalid_argument(flag + ": expected a non-negative integer, got '" + v + "'");
  return x;
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(flag + ": missing value");
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = parse_u64(flag, value());
    } else if (flag == "--seconds") {
      const std::uint64_t s = parse_u64(flag, value());
      if (s < 1 || s > 600) throw std::invalid_argument("--seconds: expected 1..600");
      a.seconds = static_cast<double>(s);
    } else if (flag == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") throw std::invalid_argument("--trace: expected 0 or 1");
      a.trace = v == "1";
    } else if (flag == "--toy") {
      a.toy = true;
    } else if (flag == "--setup-probe") {
      a.setup_probe = true;
    } else if (flag == "--inject") {
      a.inject = value();
      if (a.inject != "amp" && a.inject != "expect")
        throw std::invalid_argument("--inject: expected amp or expect");
    } else {
      throw std::invalid_argument("unknown flag '" + flag + "'");
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (a.workload != "qft" && a.workload != "dense" && a.workload != "shor")
    throw std::invalid_argument("--workload: expected qft, dense or shor");
  return a;
}

// ---------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

/// CPU time the hypervisor has stolen from this machine so far, summed
/// over CPUs, seconds (the "steal" column of /proc/stat; 0 on bare metal).
double steal_seconds() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  double field = 0, steal = 0;
  f >> cpu;
  for (int i = 0; i < 8 && f >> field; ++i) steal = field;  // user ... steal
  const long tick = sysconf(_SC_CLK_TCK);
  return tick > 0 ? steal / static_cast<double>(tick) : 0;
}

/// Peak resident set of this process (VmHWM), MiB.
double peak_rss_mib() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

/// Size of the largest data/unified cache level the kernel reports for
/// cpu0 (the LLC), bytes; 0 when unknown.
std::size_t detect_llc_bytes() {
  std::size_t best = 0;
  int best_level = 0;
  for (int idx = 0; idx < 16; ++idx) {
    const std::string dir = "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(idx);
    std::ifstream level_f(dir + "/level"), size_f(dir + "/size"), type_f(dir + "/type");
    if (!level_f || !size_f) break;
    int level = 0;
    std::string size_s, type;
    level_f >> level;
    size_f >> size_s;
    type_f >> type;
    if (type == "Instruction") continue;
    std::size_t bytes = std::strtoull(size_s.c_str(), nullptr, 10);
    if (!size_s.empty() && (size_s.back() == 'K' || size_s.back() == 'k')) bytes <<= 10;
    if (!size_s.empty() && (size_s.back() == 'M' || size_s.back() == 'm')) bytes <<= 20;
    if (level > best_level || (level == best_level && bytes > best)) {
      best_level = level;
      best = bytes;
    }
  }
  return best;
}

std::string env_or(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? v : fallback;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

// ---------------------------------------------------------------------
// Workloads and their correctness oracles
// ---------------------------------------------------------------------

struct Sizes {
  qubit_t qft_n;
  qubit_t dense_n;
  std::size_t dense_gates;
  qubit_t shor_m;       ///< Exponent qubits on the emulating backend.
  qubit_t shor_gate_m;  ///< Exponent qubits on the gate-level backends.
};
constexpr Sizes kFull{22, 25, 50, 17, 9};
constexpr Sizes kToy{10, 12, 40, 8, 5};

constexpr std::uint64_t kDenseStructureSeed = 2016;

constexpr index_t kShorN = 221;
constexpr index_t kShorA = 7;
constexpr qubit_t kShorWork = 8;  ///< ceil(log2 221).

/// Outcome of one oracle check.
struct Check {
  bool ok = true;
  std::string why;
};

/// Per-run verdict tolerance: fp64 results meet the workload's own
/// bound; fp32 runs meet the repository's fp32 gate (1e-6).
constexpr double kF32Tol = 1e-6;

/// Closed-form QFT of the product state prod_q (e^{-i t_q/2}|0> +
/// e^{i t_q/2}|1>)/sqrt2 (H then Rz(t_q) on each qubit): amplitude y is
/// N^{-1/2} prod_q (a_q + b_q w^{2^q y}), w = e^{2 pi i / N} — the
/// engine's QFT sign (emu::Emulator::qft uses fft::Sign::Positive).
std::vector<complex_t> qft_closed_form(qubit_t n, const std::vector<double>& theta) {
  const index_t N = dim(n);
  std::vector<complex_t> roots(N);
  for (index_t t = 0; t < N; ++t)
    roots[t] = std::polar(1.0, 2 * std::numbers::pi * static_cast<double>(t) / static_cast<double>(N));
  std::vector<complex_t> a(n), b(n);
  for (qubit_t q = 0; q < n; ++q) {
    a[q] = std::polar(std::numbers::sqrt2 / 2, -theta[q] / 2);
    b[q] = std::polar(std::numbers::sqrt2 / 2, theta[q] / 2);
  }
  std::vector<complex_t> out(N);
  const double scale = 1.0 / std::sqrt(static_cast<double>(N));
#pragma omp parallel for schedule(static)
  for (index_t y = 0; y < N; ++y) {
    complex_t amp = scale;
    for (qubit_t q = 0; q < n; ++q) amp *= a[q] + b[q] * roots[(y << q) & (N - 1)];
    out[y] = amp;
  }
  return out;
}

/// Exact statistics of the order-finding circuit
///   H^m on e, |w> += a^e mod N, inverse QFT on e
/// for a of order r. Classes c = e mod r (c < min(r, M)) hold
/// J_c = #{e < M : e = c mod r} exponents and map to w = a^c mod N, so
///   P(k, w = a^c) = |sum_{j<J_c} exp(2 pi i r j k / M)|^2 / M^2,
/// which needs no state vector and is independent of the QFT sign.
class ShorOracle {
 public:
  explicit ShorOracle(qubit_t m) : m_(m), M_(dim(m)) {
    index_t pw = 1;
    for (index_t c = 0;; ++c) {
      if (c > 0 && pw == 1) break;
      residues_.push_back(pw);
      pw = pw * kShorA % kShorN;
    }
    r_ = residues_.size();
    for (index_t c = 0; c < std::min<index_t>(r_, M_); ++c) {
      const index_t J = (M_ - 1 - c) / r_ + 1;
      counts_.push_back(J);
      if (!g_.contains(J)) g_[J] = geometric(J);
    }
  }

  [[nodiscard]] index_t order() const { return r_; }
  [[nodiscard]] qubit_t exponent_bits() const { return m_; }

  /// a^e mod N for every exponent value (the program's lookup table).
  [[nodiscard]] std::vector<index_t> power_table() const {
    std::vector<index_t> t(M_);
    for (index_t e = 0; e < M_; ++e) t[e] = residues_[e % r_];
    return t;
  }

  /// <Z_mask> over the full (exponent | work << m) register.
  [[nodiscard]] double expectation(index_t mask) const {
    const index_t mk = mask & (M_ - 1);
    const index_t mw = mask >> m_;
    std::map<index_t, double> s;  // J -> sum_k G_J(k) chi(k)
    for (const auto& [J, g] : g_) {
      double acc = 0;
      for (index_t k = 0; k < M_; ++k) acc += (std::popcount(k & mk) & 1) ? -g[k] : g[k];
      s[J] = acc;
    }
    double e = 0;
    for (std::size_t c = 0; c < counts_.size(); ++c) {
      const double sign = (std::popcount(residues_[c] & mw) & 1) ? -1.0 : 1.0;
      e += sign * s.at(counts_[c]);
    }
    const double Md = static_cast<double>(M_);
    return e / (Md * Md);
  }

  /// True when exponent outcome k has non-zero analytic probability:
  /// some class's geometric sum does not vanish at k (it vanishes when
  /// r k J = 0 mod M while r k != 0).
  [[nodiscard]] bool possible(index_t k) const {
    const index_t rk = (r_ * k) % M_;
    return std::any_of(counts_.begin(), counts_.end(),
                       [&](index_t J) { return rk == 0 || (rk * J) % M_ != 0; });
  }

  /// Work-register values the oracle can produce: a^c mod N.
  [[nodiscard]] std::vector<index_t> orbit() const {
    return {residues_.begin(), residues_.begin() + static_cast<std::ptrdiff_t>(counts_.size())};
  }

  /// |amplitude| of |k>|a^c mod N> once the exponent register collapsed
  /// onto k, per class c (aligned with orbit()): sqrt(G_{J_c}(k) / sum_c G).
  [[nodiscard]] std::vector<double> collapsed_magnitudes(index_t k) const {
    double total = 0;
    for (const index_t J : counts_) total += g_.at(J)[k];
    std::vector<double> mags;
    for (const index_t J : counts_) mags.push_back(std::sqrt(g_.at(J)[k] / total));
    return mags;
  }

 private:
  /// G_J(k) = |sum_{j<J} exp(2 pi i r j k / M)|^2 = sin^2(pi J x)/sin^2(pi x),
  /// x = r k / M (J^2 where x is an integer).
  [[nodiscard]] std::vector<double> geometric(index_t J) const {
    std::vector<double> g(M_);
    const double Jd = static_cast<double>(J);
    for (index_t k = 0; k < M_; ++k) {
      const index_t rk = (r_ * k) % M_;
      if (rk == 0) {
        g[k] = Jd * Jd;
        continue;
      }
      const double x = static_cast<double>(rk) / static_cast<double>(M_);
      const double num_s = std::sin(std::numbers::pi * std::fmod(Jd * x, 2.0));
      const double den_s = std::sin(std::numbers::pi * x);
      g[k] = (num_s * num_s) / (den_s * den_s);
    }
    return g;
  }

  qubit_t m_;
  index_t M_;
  index_t r_ = 0;
  std::vector<index_t> residues_;  ///< a^c mod N, c < r.
  std::vector<index_t> counts_;    ///< J_c.
  std::map<index_t, std::vector<double>> g_;
};

/// One backend configuration of the suite: which end-to-end metric it
/// feeds and which program it runs.
struct Config {
  std::string metric;
  std::string backend;
  Precision precision = Precision::kF64;
  bool gate_program = false;  ///< Runs Workload::gate instead of ::emu.
};

/// hpc first: on `dense` its first result is the reference every other
/// backend is compared against.
const std::vector<Config> kConfigs = {
    {"hpc_s", "hpc", Precision::kF64, true},
    {"auto_s", "auto", Precision::kF64, false},
    {"auto_f32_s", "auto", Precision::kF32, false},
    {"cached_s", "cached", Precision::kF64, true},
    {"dist_s", "dist", Precision::kF64, true},
};

struct Workload {
  std::string name;
  engine::Program emu;   ///< Run on the emulating backend ("auto").
  engine::Program gate;  ///< Run on the gate-level backends.
  /// Verdict on one result. `reference` is the dense workload's hpc
  /// state (null elsewhere).
  std::function<Check(const engine::Result&, const Config&, const sim::StateVector* reference)>
      check;
  /// Amplitude an injected fault corrupts (the one the oracle reads).
  std::function<index_t(const engine::Result&)> probe_index;
  /// check() compares against the state an hpc run of `gate` produced.
  bool hpc_reference = false;
};

Check tolerance_check(double err, double tol, const char* what) {
  if (err <= tol) return {};
  return {false, std::string(what) + " error " + num(err) + " > " + num(tol)};
}

/// Program of the order-finding workload with an m-qubit exponent.
engine::Program shor_program(const ShorOracle& oracle, const std::vector<index_t>& masks) {
  const qubit_t m = oracle.exponent_bits();
  engine::Program p(m + kShorWork);
  for (qubit_t q = 0; q < m; ++q) p.h(q);
  auto table = std::make_shared<const std::vector<index_t>>(oracle.power_table());
  p.apply_function({0, m}, {m, kShorWork}, [table](index_t e) { return (*table)[e]; });
  p.inverse_qft({0, m});
  for (const index_t mask : masks) p.expectation_z(mask);
  p.measure({0, m});
  return p;
}

/// Builds workload `name` from `seed`. The gate program is only built
/// when `with_gate` (the setup probe needs just the emulated one).
Workload make_workload(const std::string& name, std::uint64_t seed, const Sizes& sz,
                       bool with_gate) {
  Rng rng(seed);
  Workload w;
  w.name = name;
  w.probe_index = [](const engine::Result&) { return index_t{0}; };
  if (name == "qft") {
    const qubit_t n = sz.qft_n;
    std::vector<double> theta(n);
    for (auto& t : theta) t = rng.uniform(0, 2 * std::numbers::pi);
    engine::Program p(n);
    for (qubit_t q = 0; q < n; ++q) p.h(q).rz(q, theta[q]);
    p.qft().inverse_qft().qft();
    w.emu = p;
    if (with_gate) w.gate = p;
    // Computed on first use: the setup probe's clock has stopped by then.
    auto expected = std::make_shared<std::vector<complex_t>>();
    w.check = [n, theta, expected](const engine::Result& r, const Config& cfg,
                                   const sim::StateVector*) -> Check {
      if (expected->empty()) *expected = qft_closed_form(n, theta);
      const auto amps = r.state.amplitudes();
      if (amps.size() != expected->size()) return {false, "state size mismatch"};
      if (cfg.precision == Precision::kF32) {
        double err = 0;
        for (index_t i = 0; i < amps.size(); ++i)
          err = std::max(err, std::abs(amps[i] - (*expected)[i]));
        return tolerance_check(err, kF32Tol, "fp32 amplitude");
      }
      complex_t overlap = 0;
      for (index_t i = 0; i < amps.size(); ++i) overlap += std::conj((*expected)[i]) * amps[i];
      return tolerance_check(1.0 - std::norm(overlap), 1e-10, "QFT infidelity");
    };
  } else if (name == "dense") {
    // The gate sequence (kinds and qubits) is drawn once from a fixed
    // seed so every --seed costs the same to run; --seed redraws only
    // the rotation angles and the U2 unitaries.
    Rng structure_rng(kDenseStructureSeed);
    const circuit::Circuit shape =
        circuit::random_dense_circuit(sz.dense_n, sz.dense_gates, structure_rng);
    circuit::Circuit c(sz.dense_n);
    for (circuit::Gate g : shape.gates()) {
      using K = circuit::GateKind;
      if (g.kind == K::Rx || g.kind == K::Ry || g.kind == K::Rz || g.kind == K::Phase)
        g.angle = rng.uniform(0, 2 * std::numbers::pi);
      if (g.kind == K::U2) {
        const linalg::Matrix u = linalg::Matrix::random_unitary(2, rng);
        g.u2 = {u(0, 0), u(0, 1), u(1, 0), u(1, 1)};
      }
      c.append(g);
    }
    engine::Program p(sz.dense_n);
    p.gates(c);
    w.emu = p;
    if (with_gate) w.gate = p;
    w.hpc_reference = true;
    w.check = [](const engine::Result& r, const Config& cfg,
                 const sim::StateVector* ref) -> Check {
      if (ref == nullptr) return {false, "no hpc reference state"};
      if (r.state.qubits() != ref->qubits()) return {false, "state size mismatch"};
      return tolerance_check(r.state.max_abs_diff(*ref),
                             cfg.precision == Precision::kF32 ? kF32Tol : 1e-10,
                             "amplitude vs hpc");
    };
  } else {
    // Expectation masks: one on exponent bits, one on work bits, one
    // mixed — each a seeded non-empty subset.
    auto masks_for = [&rng](qubit_t m) {
      const index_t exp_mask = dim(m) - 1, work_mask = (dim(kShorWork) - 1) << m;
      std::vector<index_t> masks;
      for (const index_t space : {exp_mask, work_mask, exp_mask | work_mask}) {
        index_t mk = 0;
        while (mk == 0) mk = rng.next_u64() & space;
        masks.push_back(mk);
      }
      return masks;
    };
    auto emu_oracle = std::make_shared<ShorOracle>(sz.shor_m);
    const std::vector<index_t> emu_masks = masks_for(sz.shor_m);
    w.emu = shor_program(*emu_oracle, emu_masks);
    std::shared_ptr<ShorOracle> gate_oracle;
    std::vector<index_t> gate_masks;
    if (with_gate) {
      gate_oracle = std::make_shared<ShorOracle>(sz.shor_gate_m);
      gate_masks = masks_for(sz.shor_gate_m);
      w.gate = shor_program(*gate_oracle, gate_masks);
    }
    // The amplitude an injected fault zeroes: the largest one left after
    // the exponent register collapsed onto the measured value.
    w.probe_index = [](const engine::Result& r) {
      if (r.measurements.empty()) return index_t{0};
      const qubit_t em = r.state.qubits() - kShorWork;
      index_t best = r.measurements.back();
      for (index_t wv = 0; wv < dim(kShorWork); ++wv) {
        const index_t i = r.measurements.back() | (wv << em);
        if (std::norm(r.state[i]) > std::norm(r.state[best])) best = i;
      }
      return best;
    };
    w.check = [emu_oracle, emu_masks, gate_oracle, gate_masks](
                  const engine::Result& r, const Config& cfg, const sim::StateVector*) -> Check {
      const ShorOracle& o = cfg.gate_program ? *gate_oracle : *emu_oracle;
      const std::vector<index_t>& masks = cfg.gate_program ? gate_masks : emu_masks;
      const double tol = cfg.precision == Precision::kF32 ? kF32Tol : 1e-9;
      if (o.order() != 48) return {false, "order of 7 mod 221 is not 48"};
      if (r.expectations.size() != masks.size() || r.measurements.size() != 1)
        return {false, "missing expectation or measurement"};
      for (std::size_t i = 0; i < masks.size(); ++i) {
        const Check c = tolerance_check(std::abs(r.expectations[i] - o.expectation(masks[i])),
                                        tol, "expectation_z");
        if (!c.ok) return c;
      }
      const index_t k = r.measurements[0];
      if (!o.possible(k))
        return {false, "sampled exponent " + std::to_string(k) + " has probability 0"};
      // The Measure collapsed the exponent register onto k: every
      // |k>|a^c mod N> amplitude has its closed-form magnitude.
      const qubit_t m = o.exponent_bits();
      if (k >= dim(m) || r.state.qubits() != m + kShorWork) return {false, "bad register"};
      const std::vector<index_t> orbit = o.orbit();
      const std::vector<double> mags = o.collapsed_magnitudes(k);
      double err = 0;
      for (std::size_t c = 0; c < orbit.size(); ++c)
        err = std::max(err, std::abs(std::abs(r.state[k | (orbit[c] << m)]) - mags[c]));
      return tolerance_check(err, tol, "collapsed amplitude");
    };
  }
  return w;
}

// ---------------------------------------------------------------------
// Running and checking
// ---------------------------------------------------------------------

struct Tally {
  long attempted = 0;
  long failed = 0;
};

engine::RunOptions options_for(const Config& cfg, std::uint64_t seed, bool trace) {
  engine::RunOptions o;
  o.backend = cfg.backend;
  o.precision = cfg.precision;
  o.seed = seed;
  o.trace = trace;
  o.dist_ranks = 2;
  return o;
}

/// One checked run: wall clock around the whole Engine::run. Returns the
/// result (nullopt when the run threw) and the seconds it took.
struct Timed {
  std::optional<engine::Result> result;
  double seconds = 0;
  bool ok = false;
};

/// Corrupts a result as --inject asks, before its check.
void inject(const Args& a, const Workload& w, engine::Result& r) {
  if (a.inject == "amp" && r.state.size() > 0) r.state[w.probe_index(r)] = 0;
  if (a.inject == "expect" && !r.expectations.empty()) r.expectations[0] += 1e-3;
}

class Runner {
 public:
  Runner(const Workload& w, const Args& args) : w_(w), args_(args) {}

  Timed run(const Config& cfg, bool trace) {
    Timed t;
    ++tally_.attempted;
    const engine::Program& p = cfg.gate_program ? w_.gate : w_.emu;
    try {
      WallTimer clock;
      engine::Result r = engine_.run(p, options_for(cfg, args_.seed, trace));
      t.seconds = clock.seconds();
      if (w_.hpc_reference && !reference_ && cfg.backend == "hpc") reference_.emplace(r.state);
      inject(args_, w_, r);
      const Check c = w_.check(r, cfg, reference_ ? &*reference_ : nullptr);
      t.ok = c.ok;
      if (!c.ok) std::fprintf(stderr, "check failed: %s: %s\n", cfg.metric.c_str(), c.why.c_str());
      t.result.emplace(std::move(r));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "run failed: %s: %s\n", cfg.metric.c_str(), e.what());
    }
    if (!t.ok) ++tally_.failed;
    return t;
  }

  [[nodiscard]] const Tally& tally() const { return tally_; }

 private:
  const Workload& w_;
  const Args& args_;
  engine::Engine engine_;
  std::optional<sim::StateVector> reference_;
  Tally tally_;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(const Tally& t, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += t.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(t.attempted);
  out += ", \"failed\": " + std::to_string(t.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", " : "") + json_str(metrics[i].name) + ": {\"value\": " +
           num(metrics[i].value) + ", \"unit\": " + json_str(metrics[i].unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------
// Environment record
// ---------------------------------------------------------------------

std::size_t state_bytes(qubit_t n) { return dim(n) * sizeof(complex_t); }

void print_env(const Args& a, const Workload& w) {
  const std::size_t llc = detect_llc_bytes();
  const std::size_t emu_bytes = state_bytes(w.emu.qubits());
  std::string s = "{\"env\": {";
  s += "\"workload\": " + json_str(a.workload);
  s += ", \"seed\": " + std::to_string(a.seed);
  s += ", \"toy\": " + std::string(a.toy ? "true" : "false");
  s += ", \"omp_max_threads\": " + std::to_string(omp_get_max_threads());
  s += ", \"OMP_NUM_THREADS\": " + json_str(env_or("OMP_NUM_THREADS", "unset"));
  s += ", \"OMP_PROC_BIND\": " + json_str(env_or("OMP_PROC_BIND", "unset"));
  s += ", \"OMP_WAIT_POLICY\": " + json_str(env_or("OMP_WAIT_POLICY", "unset"));
  s += ", \"OMP_DYNAMIC\": " + json_str(env_or("OMP_DYNAMIC", "unset"));
  s += ", \"isa\": " + json_str(sim::kernels::isa_name(sim::kernels::active_isa()));
  s += ", \"dist_ranks\": 2";
  s += ", \"llc_bytes\": " + std::to_string(llc);
  s += ", \"emu_qubits\": " + std::to_string(w.emu.qubits());
  s += ", \"gate_qubits\": " + std::to_string(w.gate.qubits());
  s += ", \"emu_state_over_llc\": " +
       num(llc > 0 ? static_cast<double>(emu_bytes) / static_cast<double>(llc) : 0);
  s += ", \"fp_bits\": {";
  for (std::size_t i = 0; i < kConfigs.size(); ++i)
    s += (i ? ", " : "") + json_str(kConfigs[i].metric) + ": " +
         std::to_string(precision_bits(kConfigs[i].precision));
  s += "}}}";
  std::printf("%s\n", s.c_str());
}

// ---------------------------------------------------------------------
// Mode: end-to-end samples
// ---------------------------------------------------------------------

/// Share of the machine's CPU time the hypervisor may steal during a
/// sample before the sample is set aside: on a shared host a starved
/// sample measures the neighbours, not the program. The floor keeps one
/// or two clock ticks of steal from setting aside a millisecond sample.
constexpr double kMaxStealShare = 0.03;
constexpr double kMinStealSeconds = 0.025;

std::vector<Metric> end_to_end(Runner& runner, const Args& a) {
  std::map<std::string, std::vector<double>> samples, starved;
  std::vector<double> spent(kConfigs.size(), 0), last(kConfigs.size(), 0);
  const double cpus = static_cast<double>(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN)));
  WallTimer clock;
  // Backends take turns, each getting a share of --seconds that grows
  // with the square root of its run time (the split that minimises the
  // summed variance of the medians when every run is equally noisy):
  // the next run goes to the backend with the least spent / sqrt(last).
  // Interleaving makes slow drift in the machine hit every backend
  // alike. Stop once that run would overrun --seconds.
  for (std::size_t runs = 0;; ++runs) {
    std::size_t next = runs;  // first pass: every backend once, in order
    if (runs >= kConfigs.size()) {
      auto weight = [&](std::size_t c) { return spent[c] / std::sqrt(std::max(last[c], 1e-3)); };
      next = 0;
      for (std::size_t c = 1; c < kConfigs.size(); ++c)
        if (weight(c) < weight(next)) next = c;
      if (clock.seconds() + last[next] > a.seconds) break;
    }
    const Config& cfg = kConfigs[next];
    const double steal_before = steal_seconds();
    const Timed t = runner.run(cfg, /*trace=*/false);
    const double stolen = steal_seconds() - steal_before;
    // A failed run still used its share; its time is not a sample.
    last[next] = t.seconds;
    spent[next] += std::max(t.seconds, 1e-3);
    if (!t.ok) continue;
    const bool starving = stolen > std::max(kMinStealSeconds, kMaxStealShare * cpus * t.seconds);
    (starving ? starved : samples)[cfg.metric].push_back(t.seconds);
  }
  // Starved samples count only when a backend has nothing else.
  for (const Config& cfg : kConfigs)
    if (samples[cfg.metric].empty()) samples[cfg.metric] = starved[cfg.metric];
  std::string spread = "{\"seconds\": " + num(clock.seconds()) + ", \"starved\": {";
  for (std::size_t i = 0; i < kConfigs.size(); ++i)
    spread += (i ? ", " : "") + json_str(kConfigs[i].metric) + ": " +
              std::to_string(starved[kConfigs[i].metric].size());
  spread += "}";
  std::vector<Metric> out;
  for (const Config& cfg : kConfigs) {
    const std::vector<double>& v = samples[cfg.metric];
    out.push_back({cfg.metric, median(v), "s"});
    if (!v.empty())
      spread += ", " + json_str(cfg.metric) + ": [" + std::to_string(v.size()) + ", " +
                num(*std::min_element(v.begin(), v.end())) + ", " + num(median(v)) + ", " +
                num(*std::max_element(v.begin(), v.end())) + "]";
  }
  std::printf("{\"samples_count_min_median_max\": %s}}\n", spread.c_str());
  out.push_back({"peak_rss_mib", peak_rss_mib(), "MiB"});
  return out;
}

// ---------------------------------------------------------------------
// Mode: traced per-layer breakdown
// ---------------------------------------------------------------------

/// STREAM-triad-like a[i] = b[i] + s*c[i] over three arrays, each at
/// least 4x the LLC; median of several sweeps, GB/s counting 3 arrays
/// moved per sweep (write-allocate traffic not counted).
double triad_gbs(std::size_t llc) {
  const std::size_t bytes_each = std::max<std::size_t>(4 * llc, std::size_t{64} << 20);
  const std::size_t n = bytes_each / sizeof(double);
  std::vector<double> a(n), b(n), c(n);
#pragma omp parallel for schedule(static)
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = 0;
    b[i] = 1.0 + static_cast<double>(i % 7);
    c[i] = 2.0;
  }
  std::vector<double> rates;
  double s = 0;
  for (int rep = 0; rep < 7; ++rep) {
    s = 0.5 + rep;
    WallTimer t;
#pragma omp parallel for schedule(static)
    for (std::size_t i = 0; i < n; ++i) a[i] = b[i] + s * c[i];
    rates.push_back(3.0 * static_cast<double>(bytes_each) / t.seconds() / 1e9);
  }
  if (a[n / 2] != b[n / 2] + s * c[n / 2]) throw std::logic_error("triad miscomputed");
  return median(rates);
}

double span_total(const std::vector<obs::SpanStats>& stats, const std::string& name) {
  for (const auto& s : stats)
    if (s.name == name) return s.total_s;
  return 0;
}

double drift(const obs::TraceData& d, const std::string& name) {
  for (const auto& row : obs::model_report(d))
    if (row.name == name) return row.drift();
  return 0;
}

/// Sum of the trace rows Engine::run itself reports.
double trace_rows_s(const engine::Result& r) {
  double s = 0;
  for (const auto& row : r.trace) s += row.seconds;
  return s;
}

using Put = std::function<void(const std::string&, double, const char*)>;

/// One untraced and one traced Engine::run per backend: engine self
/// time, trace overhead, and the sched / cluster / model numbers the
/// library's own spans record.
void engine_runs(Runner& runner, const Put& put) {
  std::map<std::string, std::shared_ptr<const obs::TraceData>> traces;
  double engine_self = 0, dist_net_bytes = 0, dist_host_bytes = 0;
  for (const Config& cfg : kConfigs) {
    const std::string key = cfg.metric.substr(0, cfg.metric.size() - 2);  // "hpc_s" -> "hpc"
    double plain_s = 0;
    {
      const Timed plain = runner.run(cfg, /*trace=*/false);
      if (plain.result) engine_self += plain.seconds - trace_rows_s(*plain.result);
      plain_s = plain.seconds;
    }
    const Timed traced = runner.run(cfg, /*trace=*/true);
    put("obs.trace_overhead." + key,
        plain_s > 0 && traced.result ? traced.seconds / plain_s - 1 : 0, "ratio");
    if (traced.result) {
      traces[key] = traced.result->trace_data;
      if (key == "dist") {
        dist_net_bytes = static_cast<double>(traced.result->net_bytes);
        dist_host_bytes = static_cast<double>(traced.result->host_bytes);
      }
    }
  }
  put("engine.self_s", engine_self, "s");

  // A backend whose traced run failed contributes an empty trace: its
  // metrics read 0 and the failure shows in attempted/failed.
  const obs::TraceData empty;
  auto trace_of = [&](const std::string& key) -> const obs::TraceData& {
    const auto it = traces.find(key);
    return it != traces.end() && it->second != nullptr ? *it->second : empty;
  };
  const obs::TraceData& cached_trace = trace_of("cached");
  const obs::TraceData& dist_trace = trace_of("dist");
  const auto cached_stats = obs::span_stats(cached_trace);
  put("sched.sweep_s", span_total(cached_stats, "sched.sweep"), "s");
  put("sched.remap_s", span_total(cached_stats, "sched.remap"), "s");
  put("sched.global_s", span_total(cached_stats, "sched.global"), "s");
  put("models.drift.sched.sweep", drift(cached_trace, "sched.sweep"), "ratio");
  put("models.drift.sched.remap", drift(cached_trace, "sched.remap"), "ratio");
  put("models.drift.dist.exchange", drift(dist_trace, "dist.exchange"), "ratio");
  put("cluster.net_bytes", dist_net_bytes, "bytes");
  put("cluster.host_bytes", dist_host_bytes, "bytes");
  put("cluster.exchange_s", span_total(obs::span_stats(dist_trace), "dist.exchange"), "s");
  double park = 0;
  for (const auto& lane : obs::lane_stats(dist_trace)) park += lane.park_s;
  put("cluster.park_s", park, "s");
  put("cluster.imbalance", obs::load_imbalance(dist_trace), "ratio");
  const obs::DispatchInfo di = obs::dispatch_info(trace_of("auto"));
  std::printf("{\"dispatch\": {\"isa\": %s, \"fp_bits\": %d}}\n", json_str(di.isa).c_str(),
              di.fp_bits);
}

/// Direct calls into lower, fuse, sched and sim on the workload's
/// gate-level program, each inside a "bench.*" span.
void gate_layer_probes(const Workload& w, double triad_gbs, const Put& put) {
  obs::Tracer tracer;
  const obs::ScopedTracer scoped(&tracer);
  engine::Program lowered;
  {
    obs::Span s("bench.engine.lower");
    lowered = engine::lower(w.gate);
  }
  const qubit_t ng = lowered.qubits();
  // Fusion width as CachedSimulator::plan narrows it.
  fuse::FusionOptions fusion;
  const sched::ScheduleOptions sopts;
  fusion.max_width = std::min(fusion.max_width, sopts.max_block_width);
  sim::StateVector sv(ng);
  sv.set_basis(0);
  sim::BasicStateVector<float> sv32 = sv.cast<float>();
  const sim::HpcSimulator hpc;
  std::vector<qubit_t> dist_perm(ng);
  std::iota(dist_perm.begin(), dist_perm.end(), qubit_t{0});
  double gates = 0, blocks = 0, fused_gates = 0, sweeps = 0, remaps = 0, globals = 0,
         exchanges = 0, fallbacks = 0, passes = 0;
  for (const engine::Op& op : lowered.ops()) {
    if (op.kind != engine::OpKind::GateSegment || op.gates.empty()) continue;
    gates += static_cast<double>(op.gates.size());
    fuse::FusedCircuit fc;
    {
      obs::Span s("bench.fuse.fuse");
      fc = fuse::fuse_circuit(op.gates, fusion);
    }
    blocks += static_cast<double>(fc.blocks());
    fused_gates += static_cast<double>(fc.fused_gates());
    sched::BlockedPlan plan;
    {
      obs::Span s("bench.sched.plan");
      plan = sched::schedule(fc, sopts);
    }
    sweeps += static_cast<double>(plan.sweeps());
    remaps += static_cast<double>(plan.remaps());
    globals += static_cast<double>(plan.globals());
    passes += static_cast<double>(plan.passes());
    {
      obs::Span s("bench.sched.execute");
      sched::execute_blocked<double>(sv.amplitudes(), plan);
    }
    {
      obs::Span s("bench.sched.execute_f32");
      sched::execute_blocked<float>(sv32.amplitudes(), plan);
    }
    {
      // Two ranks, permutation chained across segments as the dist
      // backend does.
      obs::Span s("bench.sched.dist_plan");
      const sched::DistPlan dp = sched::dist_schedule(op.gates, ng - 1, {}, &dist_perm);
      exchanges += static_cast<double>(dp.exchanges());
      fallbacks += static_cast<double>(dp.globals());
    }
    {
      obs::Span s("bench.sim.hpc_run");
      hpc.run(sv, op.gates);
    }
  }
  const auto stats = obs::span_stats(tracer.collect());
  const double execute_s = span_total(stats, "bench.sched.execute");
  const double hpc_s = span_total(stats, "bench.sim.hpc_run");
  const double state = static_cast<double>(state_bytes(ng));
  put("engine.lower_s", span_total(stats, "bench.engine.lower"), "s");
  put("engine.lowered_gates", gates, "count");
  put("fuse.fuse_s", span_total(stats, "bench.fuse.fuse"), "s");
  put("fuse.blocks", blocks, "count");
  put("fuse.gates_per_block", blocks > 0 ? fused_gates / blocks : 0, "gates");
  put("sched.plan_s", span_total(stats, "bench.sched.plan"), "s");
  put("sched.sweeps", sweeps, "count");
  put("sched.remaps", remaps, "count");
  put("sched.globals", globals, "count");
  put("sched.execute_s", execute_s, "s");
  put("sched.execute_f32_s", span_total(stats, "bench.sched.execute_f32"), "s");
  // Computed, not measured: one read + one write of the state per plan
  // pass (per gate for hpc); cache misses are not counted.
  put("sched.computed_gbs", execute_s > 0 ? 2 * passes * state / execute_s / 1e9 : 0, "GB/s");
  put("sched.dist_plan_s", span_total(stats, "bench.sched.dist_plan"), "s");
  put("sched.dist_exchanges", exchanges, "count");
  put("sched.dist_gate_fallbacks", fallbacks, "count");
  const double hpc_gbs = hpc_s > 0 ? 2 * gates * state / hpc_s / 1e9 : 0;
  put("sim.hpc_run_s", hpc_s, "s");
  put("sim.hpc_computed_gbs", hpc_gbs, "GB/s");
  put("sim.hpc_bw_frac", triad_gbs > 0 ? hpc_gbs / triad_gbs : 0, "ratio");
}

/// Direct calls into emu, fft, the measurement virtuals and the
/// precision cast at the size the emulating backend runs the workload,
/// on the order-finding shape (input = low n-8 qubits, output = top 8).
void emu_layer_probes(const Workload& w, const Put& put) {
  obs::Tracer tracer;
  const obs::ScopedTracer scoped(&tracer);
  const qubit_t n = w.emu.qubits();
  const qubit_t in_w = n - kShorWork;
  sim::StateVector st(n);
  {
    const auto amps = st.amplitudes();
    const double v = 1.0 / std::sqrt(static_cast<double>(dim(in_w)));
#pragma omp parallel for schedule(static)
    for (index_t i = 0; i < amps.size(); ++i) amps[i] = i < dim(in_w) ? v : 0.0;
  }
  const std::vector<index_t> table = ShorOracle(in_w).power_table();
  {
    emu::Emulator em(st);
    {
      obs::Span s("bench.emu.apply_function");
      em.apply_function({0, in_w}, {in_w, kShorWork}, [&table](index_t e) { return table[e]; });
    }
    {
      obs::Span s("bench.emu.qft_sub");
      em.inverse_qft({0, in_w});
    }
    {
      obs::Span s("bench.emu.qft_full");
      em.qft();
    }
  }
  const auto backend = engine::make_backend("auto");
  {
    obs::Span s("bench.engine.expectation");
    (void)backend->expectation_z(st, (index_t{1} << (n - 1)) | 1);
  }
  {
    obs::Span s("bench.engine.measure");
    (void)backend->measure_register(st, {0, in_w}, 0.5, /*collapse=*/false);
  }
  {
    obs::Span s("bench.sim.cast");
    const sim::BasicStateVector<float> narrow = st.cast<float>();
    const sim::StateVector wide = narrow.cast<double>();
    if (wide.size() != st.size()) throw std::logic_error("cast changed the register size");
  }
  {
    const fft::FftPlan plan(n, fft::Sign::Positive);
    aligned_vector<complex_t> scratch(dim(n));
    obs::Span s("bench.fft.execute");
    plan.execute(st.amplitudes(), {scratch.data(), scratch.size()}, fft::Norm::Unitary);
  }
  const auto stats = obs::span_stats(tracer.collect());
  auto bench = [&stats](const char* name) { return span_total(stats, name); };
  put("engine.measure_s", bench("bench.engine.measure"), "s");
  put("engine.expectation_s", bench("bench.engine.expectation"), "s");
  put("emu.apply_function_s", bench("bench.emu.apply_function"), "s");
  put("emu.qft_sub_s", bench("bench.emu.qft_sub"), "s");
  put("emu.qft_full_s", bench("bench.emu.qft_full"), "s");
  const double fft_s = bench("bench.fft.execute");
  const double N = static_cast<double>(dim(n));
  put("fft.execute_s", fft_s, "s");
  put("fft.computed_gflops", fft_s > 0 ? 5 * N * std::log2(N) / fft_s / 1e9 : 0, "GFLOP/s");
  put("sim.cast_s", bench("bench.sim.cast"), "s");
}

std::vector<Metric> per_layer(Runner& runner, const Workload& w) {
  std::vector<Metric> out;
  const Put put = [&out](const std::string& name, double v, const char* unit) {
    out.push_back({name, v, unit});
  };
  // The machine reference first, before any state is resident.
  const double triad = triad_gbs(detect_llc_bytes());
  put("machine.triad_gbs", triad, "GB/s");
  engine_runs(runner, put);
  gate_layer_probes(w, triad, put);
  emu_layer_probes(w, put);
  std::printf("{\"dropped\": {\"cluster.barrier_s\": \"no measured path calls "
              "Comm::barrier; it read 0 on every workload\"}}\n");
  return out;
}

// ---------------------------------------------------------------------
// Mode: setup probe
// ---------------------------------------------------------------------

int setup_probe(const Args& a, const WallTimer& since_main) {
  const Sizes& sz = a.toy ? kToy : kFull;
  const Workload w = make_workload(a.workload, a.seed, sz, /*with_gate=*/false);
  const Config cfg{"auto_s", "auto", Precision::kF64, false};
  const engine::Engine eng;
  double seconds = 0;
  Check c;
  try {
    engine::Result r = eng.run(w.emu, options_for(cfg, a.seed, false));
    seconds = since_main.seconds();
    std::optional<engine::Result> ref;
    if (w.hpc_reference) {  // after the clock; gate == emu on such workloads
      const Config hpc{"hpc_s", "hpc", Precision::kF64, true};
      ref.emplace(eng.run(w.emu, options_for(hpc, a.seed, false)));
    }
    inject(a, w, r);
    c = w.check(r, cfg, ref ? &ref->state : nullptr);
  } catch (const std::exception& e) {
    c = {false, e.what()};
  }
  if (!c.ok) std::fprintf(stderr, "setup probe check failed: %s\n", c.why.c_str());
  std::printf("{\"setup_s\": %s, \"ok\": %s}\n", num(seconds).c_str(), c.ok ? "true" : "false");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const WallTimer since_main;
  try {
    const Args a = parse_args(argc, argv);
    if (a.setup_probe) return setup_probe(a, since_main);
    const Sizes& sz = a.toy ? kToy : kFull;
    const Workload w = make_workload(a.workload, a.seed, sz, /*with_gate=*/true);
    print_env(a, w);
    Runner runner(w, a);
    const std::vector<Metric> metrics = a.trace ? per_layer(runner, w) : end_to_end(runner, a);
    print_result(runner.tally(), metrics);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qc_suite: %s\n", e.what());
    return 2;
  }
}
