// Complex power-of-two FFT (the FFTW/MKL-CFFT role).
//
// The paper's §3.2 replaces the O(n^2)-gate quantum Fourier transform
// circuit with one classical FFT over the 2^n-entry state vector. No FFT
// library is available offline, so this module implements it from
// scratch as a two-pass four-step FFT (the node-local form of dist_fft's
// Eq. 5 split) over the 2^n points viewed as a 2^n1 x 2^n2 matrix: pass 1
// runs the column FFTs on tiles of 8 contiguous columns and applies the
// W_N^(j2*k1) twiddles (data -> scratch); pass 2 runs the row FFTs 8 rows
// at a time and writes them transposed into natural order, normalized
// (scratch -> data). In a tile each lane is a radix-4 Stockham FFT on
// split re/im arrays, vectorized across lanes. Up to 2^11 points, pass 1
// alone does the transform. A plan holds O(sqrt N) twiddles.
//
// Convention: Sign::Negative computes y_k = sum_l x_l exp(-2*pi*i*k*l/N)
// (the classical "forward" DFT); Sign::Positive uses exp(+...). The QFT
// of the paper's Eq. (4) is Sign::Positive with Norm::Unitary.
#pragma once

#include <span>

#include "common/aligned.hpp"
#include "common/types.hpp"

namespace qc::fft {

enum class Sign : int { Negative = -1, Positive = +1 };

enum class Norm {
  None,     ///< No scaling.
  Unitary,  ///< Scale by 1/sqrt(N) — preserves state-vector norm.
  Inverse,  ///< Scale by 1/N (classical inverse-transform convention).
};

/// Opposite sign (used to build inverse transforms).
constexpr Sign opposite(Sign s) noexcept {
  return s == Sign::Negative ? Sign::Positive : Sign::Negative;
}

/// Butterfly schedule. SingleStage and FusedPairs sweep the whole array
/// in place after a bit-reversal permutation, one or two radix-2 stages
/// per sweep. Stockham is the two-pass four-step above: two sweeps
/// through a scratch buffer, self-sorting, with radix-4 Stockham FFTs
/// inside cache-resident tiles.
enum class Schedule {
  SingleStage,  ///< One in-place sweep per radix-2 stage (textbook).
  FusedPairs,   ///< Two stages per in-place sweep where possible.
  Stockham,     ///< Two-pass four-step through a scratch buffer (default).
};

/// Reusable transform plan for a fixed size and sign. Holds O(sqrt N)
/// twiddles, so repeated transforms pay the trigonometry once and a
/// rebuild (e.g. on a QFT -> inverse QFT sign flip) is cheap.
class FftPlan {
 public:
  /// Plan for transforms of 2^n_qubits points with the given sign.
  FftPlan(qubit_t n_qubits, Sign sign, Schedule schedule = Schedule::Stockham);

  /// In-place transform of exactly 2^n_qubits points. The Stockham
  /// schedule runs through a per-thread scratch buffer (grown on demand,
  /// reused across calls, capped at 64 MiB — larger transforms fall back
  /// to the in-place fused-pairs sweeps rather than pinning a
  /// state-vector-sized buffer per thread).
  void execute(std::span<complex_t> data, Norm norm = Norm::None) const;

  /// Same transform with caller-provided scratch (>= data.size();
  /// distinct from data). Lets long-lived callers reuse an existing
  /// buffer instead of the per-thread one. Only the Stockham schedule
  /// touches the scratch; an empty scratch selects the in-place
  /// fused-pairs fallback.
  void execute(std::span<complex_t> data, std::span<complex_t> scratch, Norm norm) const;

  /// Batched strided transform: for every assignment of the other
  /// index bits, transforms the 2^n_qubits elements whose indices differ
  /// only in bits [stride_log, stride_log + n_qubits). data.size() must
  /// be a power of two and at least 2^(n_qubits + stride_log); scratch as
  /// above. The norm scales by 2^n_qubits. This is the QFT of a
  /// sub-register at offset stride_log, with no gather or scatter.
  void execute_batched(std::span<complex_t> data, std::span<complex_t> scratch,
                       qubit_t stride_log, Norm norm) const;

  [[nodiscard]] qubit_t qubits() const noexcept { return n_; }
  [[nodiscard]] Sign sign() const noexcept { return sign_; }
  [[nodiscard]] Schedule schedule() const noexcept { return schedule_; }
  /// Passes over the data (each one read + write) execute_batched makes:
  /// 1 up to 2^11 points, whose column FFT is the whole transform, else 2.
  [[nodiscard]] unsigned passes() const noexcept { return n2_ == 0 ? 1 : 2; }

 private:
  [[nodiscard]] complex_t twiddle(index_t e) const noexcept;  // W_N^e, e < N
  void run_stage(complex_t* a, qubit_t s) const;
  void run_fused_pair(complex_t* a, qubit_t s) const;
  void four_step(complex_t* data, complex_t* scratch, index_t size, qubit_t stride_log,
                 double scale) const;

  qubit_t n_;
  qubit_t n1_;  // column-FFT length 2^n1_ (pass 1)
  qubit_t n2_;  // row-FFT length 2^n2_ (pass 2); 0 = one pass
  Sign sign_;
  Schedule schedule_;
  aligned_vector<complex_t> col_tw_;  // W_{2^n1}^j, j < 2^n1
  aligned_vector<complex_t> row_tw_;  // W_{2^n2}^j, j < 2^n2
  aligned_vector<complex_t> lo_tw_;   // W_N^j, j < 2^h (h = ceil(n/2))
  aligned_vector<complex_t> hi_tw_;   // W_N^(j * 2^h), j < 2^(n-h)
  aligned_vector<double> lane_tw_;    // W_N^(b * k1), b < 8, k1 < 2^n1 (two-pass); re, then im
};

/// One-shot in-place FFT (builds a plan internally).
void fft_inplace(std::span<complex_t> data, Sign sign, Norm norm = Norm::None);

/// In-place bit-reversal permutation of 2^n points (exposed for tests and
/// for the QFT output-order conversion).
void bit_reverse_permute(std::span<complex_t> data, qubit_t n);

/// O(N^2) reference DFT — the correctness oracle for every FFT test.
void dft_naive(std::span<const complex_t> in, std::span<complex_t> out, Sign sign,
               Norm norm = Norm::None);

}  // namespace qc::fft
