#include "fft/fft.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "common/bits.hpp"
#include "common/parallel.hpp"

namespace qc::fft {
namespace {

/// Factor a transform of len points is scaled by under `norm`.
double norm_scale(Norm norm, index_t len) {
  const auto n = static_cast<double>(len);
  return norm == Norm::Unitary ? 1.0 / std::sqrt(n) : norm == Norm::Inverse ? 1.0 / n : 1.0;
}

void apply_norm(std::span<complex_t> data, Norm norm) {
  if (norm == Norm::None) return;
  const double factor = norm_scale(norm, data.size());
#pragma omp parallel for if (worth_parallelizing(data.size()))
  for (std::size_t i = 0; i < data.size(); ++i) data[i] *= factor;
}

constexpr index_t kLanes = 8;           // columns per tile: 8 complex doubles = 128 bytes
constexpr index_t kAdjacent[kLanes] = {0, 1, 2, 3, 4, 5, 6, 7};
constexpr qubit_t kMaxOnePassLog = 11;  // up to 2^11 points: pass 1 alone (256 KiB tiles)

/// std::complex's operator* calls __muldc3 for its NaN recovery; the
/// butterflies need the plain four-multiply product.
inline complex_t cmul(complex_t a, complex_t b) noexcept {
  return {a.real() * b.real() - a.imag() * b.imag(), a.real() * b.imag() + a.imag() * b.real()};
}

aligned_vector<complex_t> roots(index_t count, index_t step, index_t size, Sign sign) {
  // Direct std::polar per entry keeps every twiddle accurate to one ulp.
  aligned_vector<complex_t> t(count);
  const double base = static_cast<double>(static_cast<int>(sign)) * 2.0 *
                      std::numbers::pi / static_cast<double>(size);
  for (index_t j = 0; j < count; ++j) t[j] = std::polar(1.0, base * static_cast<double>(j * step));
  return t;
}

/// A tile holds kLanes sequences of len points, split re/im: point j of
/// lane b is at x[j * kLanes + b], the im block len * kLanes after it.
/// Two tiles (ping-pong) per thread, kept across calls: buffers freed
/// after each call left more resident memory behind in malloc's arenas
/// than these hold. Zeroed on growth, so unused lanes hold finite values.
double* thread_tiles(index_t len) {
  static thread_local aligned_vector<double> tiles;
  if (tiles.size() < 4 * len * kLanes) tiles.assign(4 * len * kLanes, 0.0);
  return tiles.data();
}

/// Copies point j of lane b, in[j * stride + off[b]], into tile x.
void load_tile(const complex_t* in, index_t stride, const index_t* off, index_t lanes,
               index_t len, double* x) {
  const index_t tot = len * kLanes;
  if (lanes == kLanes && off[kLanes - 1] == kLanes - 1) {  // adjacent lanes: off[b] == b
    const double* d = reinterpret_cast<const double*>(in);
    for (index_t j = 0; j < len; ++j)
#pragma omp simd
      for (index_t b = 0; b < kLanes; ++b) {
        x[j * kLanes + b] = d[2 * (j * stride + b)];
        x[tot + j * kLanes + b] = d[2 * (j * stride + b) + 1];
      }
    return;
  }
  for (index_t j = 0; j < len; ++j)
    for (index_t b = 0; b < lanes; ++b) {
      x[j * kLanes + b] = in[j * stride + off[b]].real();
      x[tot + j * kLanes + b] = in[j * stride + off[b]].imag();
    }
}

/// Writes point k of lane b of tile r (len points), times scale, to
/// out[k * stride + off[b]].
void store_tile(const double* r, index_t len, double scale, complex_t* out, index_t stride,
                const index_t* off, index_t lanes) {
  const index_t tot = len * kLanes;
  double* d = reinterpret_cast<double*>(out);
  for (index_t k = 0; k < len; ++k)
#pragma omp simd
    for (index_t b = 0; b < lanes; ++b) {
      d[2 * (k * stride + off[b])] = r[k * kLanes + b] * scale;
      d[2 * (k * stride + off[b]) + 1] = r[tot + k * kLanes + b] * scale;
    }
}

/// One radix-4 Stockham DIF stage of every lane: sub-transforms of n
/// points at stride s (n * s = len) read from x land self-sorted in y.
/// tw[j] = W_len^j; sgn * i is W_4.
void radix4_stage(const double* x, double* y, index_t len, index_t n, index_t s,
                  const complex_t* tw, double sgn) {
  const index_t tot = len * kLanes, q = n / 4, sb = s * kLanes;
  for (index_t p = 0; p < q; ++p) {
    const complex_t w1 = tw[p * s], w2 = tw[2 * p * s], w3 = tw[3 * p * s];
    const double* a = x + p * sb;
    const double *b = a + q * sb, *c = b + q * sb, *d = c + q * sb;
    double* z = y + 4 * p * sb;
#pragma omp simd
    for (index_t t = 0; t < sb; ++t) {
      const double apc_r = a[t] + c[t], apc_i = a[tot + t] + c[tot + t];
      const double amc_r = a[t] - c[t], amc_i = a[tot + t] - c[tot + t];
      const double bpd_r = b[t] + d[t], bpd_i = b[tot + t] + d[tot + t];
      const double jr = -sgn * (b[tot + t] - d[tot + t]), ji = sgn * (b[t] - d[t]);
      const auto put = [&](index_t k, double re, double im, complex_t w) {
        z[k * sb + t] = re * w.real() - im * w.imag();
        z[tot + k * sb + t] = re * w.imag() + im * w.real();
      };
      z[t] = apc_r + bpd_r;
      z[tot + t] = apc_i + bpd_i;
      put(1, amc_r + jr, amc_i + ji, w1);
      put(2, apc_r - bpd_r, apc_i - bpd_i, w2);
      put(3, amc_r - jr, amc_i - ji, w3);
    }
  }
}

/// FFT of every lane of tile x (2^log points), ping-ponging with y.
/// Returns the tile that holds the natural-order result.
const double* tile_fft(double* x, double* y, qubit_t log, const complex_t* tw, double sgn) {
  const index_t len = index_t{1} << log;
  index_t n = len, s = 1;
  for (; n >= 4; n /= 4, s *= 4) {
    radix4_stage(x, y, len, n, s, tw, sgn);
    std::swap(x, y);
  }
  if (n == 2) {  // odd log: a last radix-2 stage, twiddle 1; sb = len * kLanes / 2
    const index_t sb = s * kLanes;
    for (index_t blk = 0; blk < 4 * sb; blk += 2 * sb) {  // re block, then im block
#pragma omp simd
      for (index_t t = blk; t < blk + sb; ++t) {
        y[t] = x[t] + x[t + sb];
        y[t + sb] = x[t] - x[t + sb];
      }
    }
    std::swap(x, y);
  }
  return x;
}

}  // namespace

void bit_reverse_permute(std::span<complex_t> data, qubit_t n) {
  const index_t size = index_t{1} << n;
  if (data.size() != size) throw std::invalid_argument("bit_reverse_permute: size mismatch");
#pragma omp parallel for if (worth_parallelizing(size))
  for (index_t i = 0; i < size; ++i) {
    const index_t j = bits::reverse(i, n);
    if (i < j) std::swap(data[i], data[j]);
  }
}

FftPlan::FftPlan(qubit_t n_qubits, Sign sign, Schedule schedule)
    : n_(n_qubits),
      n1_(n_qubits <= kMaxOnePassLog ? n_qubits : n_qubits - n_qubits / 2),
      n2_(n_qubits - n1_),
      sign_(sign),
      schedule_(schedule) {
  const qubit_t h = n_ - n_ / 2;
  const index_t size = index_t{1} << n_;
  col_tw_ = roots(index_t{1} << n1_, index_t{1} << n2_, size, sign);
  row_tw_ = roots(index_t{1} << n2_, index_t{1} << n1_, size, sign);
  lo_tw_ = roots(index_t{1} << h, 1, size, sign);
  hi_tw_ = roots(index_t{1} << (n_ - h), index_t{1} << h, size, sign);
  if (n2_ == 0) return;
  const index_t l1 = index_t{1} << n1_;
  lane_tw_.resize(2 * kLanes * l1);
  for (index_t i = 0; i < kLanes * l1; ++i) {
    const complex_t w = twiddle((i % kLanes) * (i / kLanes));
    lane_tw_[i] = w.real();
    lane_tw_[kLanes * l1 + i] = w.imag();
  }
}

complex_t FftPlan::twiddle(index_t e) const noexcept {
  const qubit_t h = n_ - n_ / 2;
  return cmul(hi_tw_[e >> h], lo_tw_[e & bits::low_mask(h)]);
}

void FftPlan::run_stage(complex_t* a, qubit_t s) const {
  const index_t size = index_t{1} << n_;
  const index_t len = index_t{1} << s;   // butterfly span of this stage
  const index_t half = len >> 1;
  const index_t stride = size >> s;      // twiddle stride: W_N^(j*stride) = w_len^j
  const index_t blocks = size >> s;

  auto butterfly = [&](complex_t* blk, index_t j) {
    const complex_t u = blk[j];
    const complex_t v = cmul(blk[j + half], twiddle(j * stride));
    blk[j] = u + v;
    blk[j + half] = u - v;
  };

  if (blocks >= static_cast<index_t>(max_threads()) * 2 || !worth_parallelizing(size)) {
    // Many independent blocks: parallelize across blocks, keep the
    // inner butterfly loop serial and cache-contiguous.
#pragma omp parallel for schedule(static) if (worth_parallelizing(size))
    for (index_t b = 0; b < blocks; ++b)
      for (index_t j = 0; j < half; ++j) butterfly(a + b * len, j);
  } else {
    // Few wide blocks (late stages): parallelize inside each block.
    for (index_t b = 0; b < blocks; ++b) {
#pragma omp parallel for schedule(static)
      for (index_t j = 0; j < half; ++j) butterfly(a + b * len, j);
    }
  }
}

void FftPlan::run_fused_pair(complex_t* a, qubit_t s) const {
  // Stages s and s+1 in one sweep (radix-2^2): for each quadruple
  // (i0, i1, i2, i3) the stage-s butterflies feed directly into the
  // stage-(s+1) butterflies while everything is in registers.
  const index_t size = index_t{1} << n_;
  const index_t len = index_t{1} << s;
  const index_t half = len >> 1;
  const index_t len2 = len << 1;
  const index_t stride_s = size >> s;
  const index_t stride_s1 = size >> (s + 1);
  const index_t blocks = size / len2;

  auto quad = [&](complex_t* blk, index_t j) {
    const complex_t ws = twiddle(j * stride_s);
    const complex_t u0 = blk[j];
    const complex_t v0 = cmul(blk[j + half], ws);
    const complex_t u1 = blk[j + len];
    const complex_t v1 = cmul(blk[j + len + half], ws);
    const complex_t x0 = u0 + v0, x1 = u0 - v0;
    const complex_t y0 = cmul(u1 + v1, twiddle(j * stride_s1));
    const complex_t y1 = cmul(u1 - v1, twiddle((j + half) * stride_s1));
    blk[j] = x0 + y0;
    blk[j + len] = x0 - y0;
    blk[j + half] = x1 + y1;
    blk[j + len + half] = x1 - y1;
  };

  if (blocks >= static_cast<index_t>(max_threads()) * 2 || !worth_parallelizing(size)) {
#pragma omp parallel for schedule(static) if (worth_parallelizing(size))
    for (index_t b = 0; b < blocks; ++b) {
      complex_t* blk = a + b * len2;
      for (index_t j = 0; j < half; ++j) quad(blk, j);
    }
  } else {
    for (index_t b = 0; b < blocks; ++b) {
      complex_t* blk = a + b * len2;
#pragma omp parallel for schedule(static)
      for (index_t j = 0; j < half; ++j) quad(blk, j);
    }
  }
}

void FftPlan::four_step(complex_t* data, complex_t* scratch, index_t size, qubit_t stride_log,
                        double scale) const {
  // Matrix view of each batch (2^n_ points at stride S): row j1 < L1
  // holds C = L2 * S contiguous columns, column c = j2 * S + lo. A tile's
  // lanes are consecutive columns (pass 1) or rows (k1, lo) (pass 2) of
  // this view; in one-pass mode they run on across batches when one
  // batch has fewer than kLanes columns.
  const index_t S = index_t{1} << stride_log;
  const index_t L1 = index_t{1} << n1_, L2 = index_t{1} << n2_;
  const index_t C = L2 * S, batch = L1 * C, rows = L1 * S;
  const index_t lanes = std::min(kLanes, size / L1);
  const index_t tile_len = std::max(L1, L2);
  const double sgn = static_cast<double>(static_cast<int>(sign_));
  const bool one_pass = n2_ == 0;

  const auto pass1 = [&](index_t tile, double* x, double* y) {
    const auto at = [&](index_t g) { return g / C * batch + g % C; };  // column g, row 0
    const index_t g0 = tile * lanes, base = at(g0);
    index_t off[kLanes]{};
    for (index_t b = 0; b < lanes; ++b) off[b] = at(g0 + b) - base;
    load_tile(data + base, C, off, lanes, L1, x);
    const double* r = tile_fft(x, y, n1_, col_tw_.data(), sgn);
    if (one_pass) {
      store_tile(r, L1, scale, data + base, C, off, lanes);
      return;
    }
    // W_N^(j2 * k1) = W_N^(j2_0 * k1) * W_N^((b >> stride_log) * k1): lane
    // b's column is j2_0 + (b >> stride_log), tiles being kLanes-aligned.
    const index_t j2_0 = g0 % C >> stride_log, tot = L1 * kLanes;
    const double* lr = lane_tw_.data();
    const double* li = lr + tot;
    double* d = reinterpret_cast<double*>(scratch + base);
    for (index_t k = 0; k < L1; ++k) {
      const complex_t w0 = twiddle(j2_0 * k);
#pragma omp simd
      for (index_t b = 0; b < kLanes; ++b) {
        const index_t l = k * kLanes + (b >> stride_log);
        const double wr = w0.real() * lr[l] - w0.imag() * li[l];
        const double wi = w0.real() * li[l] + w0.imag() * lr[l];
        const double vr = r[k * kLanes + b], vi = r[tot + k * kLanes + b];
        d[2 * (k * C + b)] = vr * wr - vi * wi;
        d[2 * (k * C + b) + 1] = vr * wi + vi * wr;
      }
    }
  };
  const auto pass2 = [&](index_t group, double* x, double* y) {
    const index_t h = group * kLanes / rows, rho = group * kLanes % rows;
    const auto at = [&](index_t p) { return (p >> stride_log) * C + (p & (S - 1)); };  // row p
    const index_t base = h * batch + at(rho);
    index_t off[kLanes]{};
    for (index_t b = 0; b < kLanes; ++b) off[b] = at(rho + b) - at(rho);
    load_tile(scratch + base, S, off, kLanes, L2, x);
    const double* r = tile_fft(x, y, n2_, row_tw_.data(), sgn);
    // X[k1 + L1 * k2] at stride S: row p's point k2 is at p + k2 * rows.
    store_tile(r, L2, scale, data + h * batch + rho, rows, kAdjacent, kLanes);
  };

  const index_t batches = size / batch, tiles = size / L1 / lanes;
  const index_t groups = one_pass ? 0 : size / L2 / kLanes;
  // With a batch per thread, each thread runs both passes of whole
  // batches, so a batch's round trip through the scratch stays in cache.
  const bool by_batch = !one_pass && batches >= static_cast<index_t>(max_threads());
#pragma omp parallel if (worth_parallelizing(size))
  {
    double* x = thread_tiles(tile_len);
    double* y = x + 2 * tile_len * kLanes;
    if (by_batch) {
#pragma omp for schedule(static)
      for (index_t h = 0; h < batches; ++h) {
        for (index_t t = h * tiles / batches; t < (h + 1) * tiles / batches; ++t) pass1(t, x, y);
        for (index_t g = h * groups / batches; g < (h + 1) * groups / batches; ++g)
          pass2(g, x, y);
      }
    } else {
#pragma omp for schedule(static)
      for (index_t t = 0; t < tiles; ++t) pass1(t, x, y);
#pragma omp for schedule(static)
      for (index_t g = 0; g < groups; ++g) pass2(g, x, y);
    }
  }
}

void FftPlan::execute_batched(std::span<complex_t> data, std::span<complex_t> scratch,
                              qubit_t stride_log, Norm norm) const {
  const index_t size = data.size();
  if (n_ + stride_log >= 63 || !bits::is_pow2(size) || size < (index_t{1} << (n_ + stride_log)))
    throw std::invalid_argument("FftPlan::execute_batched: size mismatch");
  if (scratch.size() < size || scratch.data() == data.data())
    throw std::invalid_argument("FftPlan: bad scratch");
  four_step(data.data(), scratch.data(), size, stride_log, norm_scale(norm, index_t{1} << n_));
}

void FftPlan::execute(std::span<complex_t> data, std::span<complex_t> scratch,
                      Norm norm) const {
  const index_t size = index_t{1} << n_;
  if (data.size() != size) throw std::invalid_argument("FftPlan::execute: size mismatch");
  if (schedule_ == Schedule::Stockham && !scratch.empty()) {
    execute_batched(data, scratch, 0, norm);
    return;
  }
  // No scratch: run the in-place fused-pairs schedule (the same result
  // to rounding; the schedule equivalence test enforces it).
  bit_reverse_permute(data, n_);
  complex_t* a = data.data();

  if (schedule_ == Schedule::SingleStage) {
    for (qubit_t s = 1; s <= n_; ++s) run_stage(a, s);
  } else {
    // FusedPairs, or a Stockham plan executed without scratch.
    qubit_t s = 1;
    for (; s + 1 <= n_; s += 2) run_fused_pair(a, s);
    if (s == n_) run_stage(a, s);  // odd stage count: last stage alone
  }
  apply_norm(data, norm);
}

void FftPlan::execute(std::span<complex_t> data, Norm norm) const {
  // Cap on the per-thread scratch a scratch-less Stockham call may pin.
  // Above it (state-vector sizes, where memory is the binding
  // constraint) fall back to the in-place fused-pairs path instead of
  // permanently doubling the footprint; callers that want full-size
  // Stockham provide their own scratch (as the emulator does).
  constexpr index_t kMaxTlsScratch = index_t{1} << 22;  // 64 MiB of complex_t
  if (schedule_ != Schedule::Stockham || data.size() > kMaxTlsScratch) {
    execute(data, std::span<complex_t>{}, norm);
    return;
  }
  static thread_local aligned_vector<complex_t> tls_scratch;
  if (tls_scratch.size() < data.size()) tls_scratch.resize(data.size());
  execute(data, {tls_scratch.data(), tls_scratch.size()}, norm);
}

void fft_inplace(std::span<complex_t> data, Sign sign, Norm norm) {
  if (!bits::is_pow2(data.size())) throw std::invalid_argument("fft: size not a power of two");
  const FftPlan plan(bits::log2_floor(data.size()), sign);
  plan.execute(data, norm);
}

void dft_naive(std::span<const complex_t> in, std::span<complex_t> out, Sign sign, Norm norm) {
  const std::size_t size = in.size();
  if (out.size() != size) throw std::invalid_argument("dft_naive: size mismatch");
  const double base = static_cast<double>(static_cast<int>(sign)) * 2.0 *
                      std::numbers::pi / static_cast<double>(size);
#pragma omp parallel for if (size >= 256)
  for (std::size_t k = 0; k < size; ++k) {
    complex_t acc{};
    for (std::size_t l = 0; l < size; ++l)
      acc += in[l] * std::polar(1.0, base * static_cast<double>(k) * static_cast<double>(l));
    out[k] = acc;
  }
  apply_norm(out, norm);
}

}  // namespace qc::fft
