// Tests for the from-scratch FFT: correctness against the naive DFT,
// unitarity, round trips, plan reuse, bit reversal, and the QFT (Eq. 4)
// convention the emulator relies on.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "common/bits.hpp"
#include "common/rng.hpp"
#include "fft/fft.hpp"

namespace qc::fft {
namespace {

aligned_vector<complex_t> random_signal(qubit_t n, std::uint64_t seed) {
  Rng rng(seed);
  aligned_vector<complex_t> v(dim(n));
  for (auto& x : v) x = rng.normal_complex();
  return v;
}

double max_diff(std::span<const complex_t> a, std::span<const complex_t> b) {
  double m = 0;
  for (std::size_t i = 0; i < a.size(); ++i) m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

class FftSizes : public ::testing::TestWithParam<qubit_t> {};

TEST_P(FftSizes, MatchesNaiveDftBothSigns) {
  const qubit_t n = GetParam();
  for (const Sign sign : {Sign::Negative, Sign::Positive}) {
    const auto in = random_signal(n, 100 + n);
    aligned_vector<complex_t> expected(in.size());
    dft_naive(in, expected, sign);
    aligned_vector<complex_t> got = in;
    fft_inplace(got, sign);
    EXPECT_LT(max_diff(got, expected), 1e-9 * std::sqrt(static_cast<double>(in.size())))
        << "n=" << n << " sign=" << static_cast<int>(sign);
  }
}

TEST_P(FftSizes, ForwardInverseRoundTrip) {
  const qubit_t n = GetParam();
  const auto in = random_signal(n, 200 + n);
  aligned_vector<complex_t> work = in;
  fft_inplace(work, Sign::Negative, Norm::None);
  fft_inplace(work, Sign::Positive, Norm::Inverse);
  EXPECT_LT(max_diff(work, in), 1e-10 * static_cast<double>(n + 1));
}

TEST_P(FftSizes, UnitaryNormPreservesEnergy) {
  const qubit_t n = GetParam();
  auto v = random_signal(n, 300 + n);
  double before = 0;
  for (const auto& x : v) before += std::norm(x);
  fft_inplace(v, Sign::Positive, Norm::Unitary);
  double after = 0;
  for (const auto& x : v) after += std::norm(x);
  EXPECT_NEAR(after, before, 1e-8 * before);  // Parseval
}

// Capped at 15: the O(N^2) naive-DFT oracle dominates the suite's
// runtime beyond that; LargeTransformStaysAccurate covers 2^20 via the
// round-trip property instead.
INSTANTIATE_TEST_SUITE_P(Sizes, FftSizes, ::testing::Values(0, 1, 2, 3, 5, 8, 11, 14, 15));

TEST(Fft, LinearityHolds) {
  const qubit_t n = 8;
  const auto a = random_signal(n, 1);
  const auto b = random_signal(n, 2);
  const complex_t alpha{0.3, -1.2}, beta{2.0, 0.7};
  aligned_vector<complex_t> combo(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) combo[i] = alpha * a[i] + beta * b[i];
  aligned_vector<complex_t> fa = a, fb = b;
  fft_inplace(fa, Sign::Negative);
  fft_inplace(fb, Sign::Negative);
  fft_inplace(combo, Sign::Negative);
  double m = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    m = std::max(m, std::abs(combo[i] - (alpha * fa[i] + beta * fb[i])));
  EXPECT_LT(m, 1e-9);
}

TEST(Fft, DeltaTransformsToConstant) {
  aligned_vector<complex_t> v(16, complex_t{});
  v[0] = 1.0;
  fft_inplace(v, Sign::Negative);
  for (const auto& x : v) EXPECT_NEAR(std::abs(x - complex_t{1.0}), 0.0, 1e-12);
}

TEST(Fft, ShiftedDeltaGivesTwiddleRamp) {
  const qubit_t n = 4;
  aligned_vector<complex_t> v(dim(n), complex_t{});
  v[3] = 1.0;
  fft_inplace(v, Sign::Positive);
  for (index_t k = 0; k < v.size(); ++k) {
    const complex_t expect =
        std::polar(1.0, 2.0 * std::numbers::pi * 3.0 * static_cast<double>(k) / 16.0);
    EXPECT_NEAR(std::abs(v[k] - expect), 0.0, 1e-12);
  }
}

TEST(Fft, PlanIsReusable) {
  const FftPlan plan(10, Sign::Negative);
  const auto in = random_signal(10, 5);
  aligned_vector<complex_t> a = in, b = in;
  plan.execute(a);
  plan.execute(b);
  EXPECT_EQ(max_diff(a, b), 0.0);
  aligned_vector<complex_t> expected(in.size());
  dft_naive(in, expected, Sign::Negative);
  EXPECT_LT(max_diff(a, expected), 1e-9);
}

TEST(Fft, PlanRejectsWrongSize) {
  const FftPlan plan(4, Sign::Negative);
  aligned_vector<complex_t> v(8);
  EXPECT_THROW(plan.execute(v), std::invalid_argument);
}

TEST(Fft, RejectsNonPowerOfTwo) {
  aligned_vector<complex_t> v(12);
  EXPECT_THROW(fft_inplace(v, Sign::Negative), std::invalid_argument);
}

TEST(BitReverse, PermutationIsInvolution) {
  const qubit_t n = 10;
  const auto in = random_signal(n, 7);
  aligned_vector<complex_t> v = in;
  bit_reverse_permute(v, n);
  EXPECT_GT(max_diff(v, in), 0.0);  // actually permuted something
  bit_reverse_permute(v, n);
  EXPECT_EQ(max_diff(v, in), 0.0);
}

TEST(BitReverse, MatchesIndexReverse) {
  const qubit_t n = 6;
  aligned_vector<complex_t> v(dim(n));
  for (index_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i);
  bit_reverse_permute(v, n);
  for (index_t i = 0; i < v.size(); ++i)
    EXPECT_EQ(v[i].real(), static_cast<double>(bits::reverse(i, n)));
}

TEST(Fft, QftConventionEq4) {
  // Paper Eq. (4): alpha_l <- 2^{-n/2} sum_k alpha_k exp(+2 pi i k l / N):
  // Sign::Positive with Norm::Unitary.
  const qubit_t n = 6;
  const auto in = random_signal(n, 8);
  const index_t size = in.size();
  aligned_vector<complex_t> expected(size);
  for (index_t l = 0; l < size; ++l) {
    complex_t acc{};
    for (index_t k = 0; k < size; ++k)
      acc += in[k] * std::polar(1.0, 2.0 * std::numbers::pi * static_cast<double>(k) *
                                         static_cast<double>(l) / static_cast<double>(size));
    expected[l] = acc / std::sqrt(static_cast<double>(size));
  }
  aligned_vector<complex_t> got = in;
  fft_inplace(got, Sign::Positive, Norm::Unitary);
  EXPECT_LT(max_diff(got, expected), 1e-10);
}

TEST(Fft, SchedulesProduceIdenticalResults) {
  // The fused two-stage sweep must match the textbook single-stage
  // schedule exactly (same arithmetic, different memory order) for both
  // odd and even stage counts. The four-step Stockham schedule computes
  // in a different order, so it agrees to rounding: 1e-12 up to 2^15
  // points, then the same bound relative to the output magnitude, which
  // grows as sqrt(N) (at 2^17 each schedule alone is ~1.5e-12 from a
  // long-double reference).
  for (const qubit_t n : {1u, 2u, 3u, 6u, 9u, 12u, 15u, 16u, 17u}) {
    const auto in = random_signal(n, 400 + n);
    aligned_vector<complex_t> single = in, fused = in, stockham = in;
    FftPlan(n, Sign::Positive, Schedule::SingleStage).execute(single);
    FftPlan(n, Sign::Positive, Schedule::FusedPairs).execute(fused);
    FftPlan(n, Sign::Positive, Schedule::Stockham).execute(stockham);
    EXPECT_LT(max_diff(single, fused), 1e-12) << "n=" << n;
    const double magnitude = std::sqrt(static_cast<double>(dim(n)) / static_cast<double>(dim(15)));
    EXPECT_LT(max_diff(single, stockham), 1e-12 * std::max(1.0, magnitude)) << "n=" << n;
    if (n > 15) continue;  // the O(N^2) oracle; FftPaths covers larger n
    aligned_vector<complex_t> expected(in.size());
    dft_naive(in, expected, Sign::Positive);
    EXPECT_LT(max_diff(fused, expected), 1e-9 * std::sqrt(static_cast<double>(in.size())))
        << "n=" << n;
  }
}

TEST(Fft, StockhamCallerScratchMatchesThreadLocalPath) {
  for (const qubit_t n : {4u, 11u}) {
    const auto in = random_signal(n, 77 + n);
    aligned_vector<complex_t> a = in, b = in;
    aligned_vector<complex_t> scratch(in.size());
    const FftPlan plan(n, Sign::Negative);
    plan.execute(a, Norm::Unitary);
    plan.execute(b, {scratch.data(), scratch.size()}, Norm::Unitary);
    EXPECT_LT(max_diff(a, b), 1e-15) << "n=" << n;
  }
  // Bad scratch: too small, or aliasing the data.
  aligned_vector<complex_t> v = random_signal(4, 5);
  aligned_vector<complex_t> small(v.size() / 2);
  const FftPlan plan(4, Sign::Negative);
  EXPECT_THROW(plan.execute(v, {small.data(), small.size()}, Norm::None),
               std::invalid_argument);
  EXPECT_THROW(plan.execute(v, {v.data(), v.size()}, Norm::None), std::invalid_argument);
}

double norm_factor(Norm norm, index_t size) {
  const auto n = static_cast<double>(size);
  return norm == Norm::Unitary ? 1.0 / std::sqrt(n) : norm == Norm::Inverse ? 1.0 / n : 1.0;
}

// Sizes on both sides of the one-pass limit (2^11) and of the tile width,
// with odd and even halves for the two-pass split.
class FftPaths : public ::testing::TestWithParam<qubit_t> {};

TEST_P(FftPaths, ScratchAndThreadLocalPathsMatchReference) {
  const qubit_t n = GetParam();
  const index_t size = dim(n);
  for (const Sign sign : {Sign::Negative, Sign::Positive}) {
    const auto in = random_signal(n, 500 + n);
    // Reference without normalization: the naive DFT while it is cheap,
    // the in-place fused-pairs schedule above that.
    aligned_vector<complex_t> ref(size);
    if (n <= 12) {
      dft_naive(in, ref, sign);
    } else {
      ref = in;
      FftPlan(n, sign, Schedule::FusedPairs).execute(ref);
    }
    const FftPlan plan(n, sign);
    aligned_vector<complex_t> scratch(size);
    for (const Norm norm : {Norm::None, Norm::Unitary, Norm::Inverse}) {
      const double f = norm_factor(norm, size);
      aligned_vector<complex_t> expected(size);
      for (index_t i = 0; i < size; ++i) expected[i] = ref[i] * f;
      aligned_vector<complex_t> tls = in, caller = in;
      plan.execute(tls, norm);
      plan.execute(caller, {scratch.data(), scratch.size()}, norm);
      const double tol = 1e-9 * std::sqrt(static_cast<double>(size)) * f;
      EXPECT_LT(max_diff(tls, expected), tol)
          << "n=" << n << " sign=" << static_cast<int>(sign) << " norm=" << static_cast<int>(norm);
      EXPECT_LT(max_diff(caller, expected), tol)
          << "n=" << n << " sign=" << static_cast<int>(sign) << " norm=" << static_cast<int>(norm);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftPaths,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 6, 7, 8, 12, 16, 17, 20, 21));

TEST(Fft, BatchedStridedMatchesPerSequencePlan) {
  // execute_batched at stride 2^s transforms every sequence of 2^w
  // elements spaced 2^s apart; compare with gathering each sequence and
  // running the plan on it. Widths 5 (one pass; lanes cross batches when
  // 2^s < 8) and 12/13 (two passes), strides below, at and above 8.
  const qubit_t n = 16;
  for (const qubit_t w : {5u, 12u, 13u}) {
    for (const qubit_t s : {0u, 1u, 2u, 3u, 4u}) {
      if (w + s > n) continue;
      const auto in = random_signal(n, 600 + 8 * w + s);
      const FftPlan plan(w, Sign::Positive);
      aligned_vector<complex_t> got = in, scratch(in.size());
      plan.execute_batched(got, {scratch.data(), scratch.size()}, s, Norm::Unitary);
      aligned_vector<complex_t> expected = in, seq(dim(w));
      const index_t lo_count = dim(s);
      for (index_t hi = 0; hi < dim(n - w - s); ++hi)
        for (index_t lo = 0; lo < lo_count; ++lo) {
          const index_t base = (hi << (w + s)) | lo;
          for (index_t k = 0; k < seq.size(); ++k) seq[k] = in[base | (k << s)];
          FftPlan(w, Sign::Positive, Schedule::FusedPairs).execute(seq, Norm::Unitary);
          for (index_t k = 0; k < seq.size(); ++k) expected[base | (k << s)] = seq[k];
        }
      EXPECT_LT(max_diff(got, expected), 1e-12) << "w=" << w << " s=" << s;
    }
  }
  aligned_vector<complex_t> v(dim(6)), scratch(v.size());
  EXPECT_THROW(FftPlan(4, Sign::Positive).execute_batched(v, {scratch.data(), scratch.size()}, 3,
                                                           Norm::None),
               std::invalid_argument);
}

TEST(Fft, LargeTransformStaysAccurate) {
  // Round-trip error at 2^20 points stays near machine precision —
  // guards against twiddle-table accuracy regressions.
  const qubit_t n = 20;
  const auto in = random_signal(n, 9);
  aligned_vector<complex_t> v = in;
  fft_inplace(v, Sign::Negative);
  fft_inplace(v, Sign::Positive, Norm::Inverse);
  EXPECT_LT(max_diff(v, in), 1e-10);
}

}  // namespace
}  // namespace qc::fft
