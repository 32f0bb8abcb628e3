// Shor's algorithm — the paper's flagship use case (§3.1 names Shor as
// the most famous application of classical functions on a quantum
// computer), written as one four-op engine::Program:
//
//   Hadamards on the exponent register   (gate segment)
//   x += a^e mod N                       (apply_function op)
//   inverse QFT on the exponent          (inverse_qft op)
//   measure the exponent                 (measure op)
//
// On the default "auto" backend the function evaluation is ONE
// amplitude permutation (no reversible modular-arithmetic network, no
// work qubits), the inverse QFT a batched FFT, and the measurement a
// single pass over the exact distribution. The same program lowers to a
// full gate-level run on any registered simulator (see
// shor_gate_level / --backend). Classical pre/post-processing (gcd,
// continued fractions) completes the factorization.
//
// Run: ./shor [--N 15] [--a 7] [--seed 1] [--backend auto]
#include <cstdio>
#include <numeric>
#include <string>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "engine/engine.hpp"

namespace {

using namespace qc;

index_t pow_mod(index_t base, index_t e, index_t mod) {
  index_t r = 1 % mod;
  base %= mod;
  while (e > 0) {
    if (e & 1) r = r * base % mod;
    base = base * base % mod;
    e >>= 1;
  }
  return r;
}

/// Denominator of the best continued-fraction convergent of x/2^bits
/// with denominator <= max_den.
index_t best_denominator(index_t x, unsigned bits, index_t max_den) {
  double value = static_cast<double>(x) / std::ldexp(1.0, static_cast<int>(bits));
  // Convergent recurrence h_i = a_i h_{i-1} + h_{i-2}: (p1, q1) is the
  // current convergent h_0/k_0 = 0/1, (p0, q0) the previous (1, 0).
  index_t p0 = 1, q0 = 0, p1 = 0, q1 = 1;
  for (int iter = 0; iter < 64 && value > 1e-12; ++iter) {
    const double inv = 1.0 / value;
    const index_t a = static_cast<index_t>(inv);
    const index_t p2 = a * p1 + p0, q2 = a * q1 + q0;
    if (q2 > max_den) break;
    p0 = p1; q0 = q1; p1 = p2; q1 = q2;
    value = inv - static_cast<double>(a);
  }
  return q1 == 0 ? 1 : q1;
}

/// One order-finding run through the engine: returns a candidate order
/// of a mod N.
index_t find_order(index_t a, index_t N, Rng& rng, const std::string& backend) {
  qubit_t work = 1;
  while (dim(work) < N + 1) ++work;
  const qubit_t t_bits = 2 * work + 1;  // standard precision choice

  engine::Program program(t_bits + work);
  for (qubit_t q = 0; q < t_bits; ++q) program.h(q);
  program
      .apply_function({0, t_bits}, {t_bits, work},
                      [a, N](index_t e) { return pow_mod(a, e, N); })
      .inverse_qft({0, t_bits})
      .measure({0, t_bits});

  engine::RunOptions opts;
  opts.backend = backend;
  opts.seed = rng.next_u64();
  const engine::Result result = engine::Engine().run(program, opts);
  return best_denominator(result.measurements[0], t_bits, N);
}

}  // namespace

static int cli_main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const index_t N = static_cast<index_t>(cli.get_int("N", 15));
  index_t a = static_cast<index_t>(cli.get_int("a", 0));
  Rng rng(static_cast<std::uint64_t>(cli.get_int("seed", 1)));
  const std::string backend = cli.get_string("backend", "auto");

  std::printf("Shor's algorithm (order finding on the '%s' backend), N = %llu\n",
              backend.c_str(), static_cast<unsigned long long>(N));
  if (N % 2 == 0) {
    std::printf("N is even: trivial factor 2.\n");
    return 0;
  }

  for (int attempt = 1; attempt <= 16; ++attempt) {
    if (a == 0 || attempt > 1) a = 2 + rng.uniform_u64(N - 3);
    const index_t g = std::gcd(a, N);
    if (g > 1) {
      std::printf("  lucky guess: gcd(%llu, N) = %llu is a factor\n",
                  static_cast<unsigned long long>(a), static_cast<unsigned long long>(g));
      continue;
    }
    index_t r = find_order(a, N, rng, backend);
    // The sampled denominator may be a divisor of the order; grow it.
    while (r < N && pow_mod(a, r, N) != 1) r *= 2;
    if (r == 0 || pow_mod(a, r, N) != 1 || r % 2 == 1) {
      std::printf("  attempt %d: a = %llu gave unusable order candidate %llu, retrying\n",
                  attempt, static_cast<unsigned long long>(a),
                  static_cast<unsigned long long>(r));
      continue;
    }
    const index_t half = pow_mod(a, r / 2, N);
    if (half == N - 1) {
      std::printf("  attempt %d: a = %llu has a^(r/2) = -1 mod N, retrying\n", attempt,
                  static_cast<unsigned long long>(a));
      continue;
    }
    const index_t f1 = std::gcd(half - 1, N);
    const index_t f2 = std::gcd(half + 1, N);
    if (f1 > 1 && f1 < N) {
      std::printf("  a = %llu, order r = %llu\n", static_cast<unsigned long long>(a),
                  static_cast<unsigned long long>(r));
      std::printf("SUCCESS: %llu = %llu x %llu\n", static_cast<unsigned long long>(N),
                  static_cast<unsigned long long>(f1),
                  static_cast<unsigned long long>(N / f1));
      return 0;
    }
    if (f2 > 1 && f2 < N) {
      std::printf("  a = %llu, order r = %llu\n", static_cast<unsigned long long>(a),
                  static_cast<unsigned long long>(r));
      std::printf("SUCCESS: %llu = %llu x %llu\n", static_cast<unsigned long long>(N),
                  static_cast<unsigned long long>(f2),
                  static_cast<unsigned long long>(N / f2));
      return 0;
    }
    std::printf("  attempt %d: factors degenerate, retrying\n", attempt);
  }
  std::printf("no factor found (N prime, a prime power, or unlucky sampling)\n");
  return 1;
}

int main(int argc, char** argv) { return qc::run_main(argc, argv, cli_main); }
