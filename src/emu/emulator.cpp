#include "emu/emulator.hpp"

#include <atomic>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "common/parallel.hpp"
#include "obs/trace.hpp"

namespace qc::emu {

void check_regs(std::initializer_list<RegRef> regs, qubit_t n) {
  index_t seen = 0;
  for (const RegRef& r : regs) {
    if (r.width == 0 || r.offset + r.width > n)
      throw std::invalid_argument("check_regs: register out of range");
    const index_t mask = bits::low_mask(r.width) << r.offset;
    if (seen & mask) throw std::invalid_argument("check_regs: registers overlap");
    seen |= mask;
  }
}

void Emulator::ensure_scratch() {
  // Uninitialized: the caller's parallel pass does the first touch.
  if (scratch_.size() != sv_->size()) scratch_ = uninit_aligned_vector<complex_t>(sv_->size());
}

template <bool Partial, typename Dest>
void Emulator::permute(const Dest& dest) {
  const auto a = sv_->amplitudes();
  const index_t size = a.size();
  obs::Span span("emu.permute");
  span.arg("mem_bytes", 2.0 * static_cast<double>(size * sizeof(complex_t)));
  ensure_scratch();
  complex_t* out = scratch_.data();
  if constexpr (Partial) {
    // Scatter only the support into a zeroed scratch. A collision means
    // two nonzero amplitudes target the same index — the map is not
    // injective where it matters; the state is left untouched.
#pragma omp parallel for if (worth_parallelizing(size))
    for (index_t i = 0; i < size; ++i) out[i] = complex_t{};
    std::atomic<bool> collision{false};
#pragma omp parallel for if (worth_parallelizing(size))
    for (index_t i = 0; i < size; ++i) {
      if (a[i] == complex_t{}) continue;
      const index_t j = dest(i);
      if (out[j] != complex_t{}) collision.store(true, std::memory_order_relaxed);
      out[j] = a[i];
    }
    if (collision.load()) throw std::logic_error("apply_partial_map: non-injective on support");
  } else {
    // A bijection writes every scratch element exactly once.
#pragma omp parallel for if (worth_parallelizing(size))
    for (index_t i = 0; i < size; ++i) out[dest(i)] = a[i];
  }
  sv_->swap_storage(scratch_);
}

void Emulator::apply_permutation(const std::function<index_t(index_t)>& f) {
  permute<false>(f);
}

void Emulator::apply_partial_map(const std::function<index_t(index_t)>& f) {
  permute<true>(f);
}

void Emulator::multiply(RegRef a, RegRef b, RegRef c) {
  if (a.width != b.width || a.width != c.width)
    throw std::invalid_argument("multiply: widths must match");
  check_regs({a, b, c}, sv_->qubits());
  const index_t mask = bits::low_mask(c.width);
  // (va, vb, vc) -> (va, vb, vc + va*vb mod 2^w) is bijective for all vc.
  permute<false>([=](index_t i) {
    const index_t va = reg_value(i, a);
    const index_t vb = reg_value(i, b);
    const index_t vc = reg_value(i, c);
    return reg_replace(i, c, (vc + va * vb) & mask);
  });
}

void Emulator::divide(RegRef a, RegRef b, RegRef c) {
  if (a.width != b.width || a.width != c.width)
    throw std::invalid_argument("divide: widths must match");
  check_regs({a, b, c}, sv_->qubits());
  const index_t mask = bits::low_mask(c.width);
  permute<true>([=](index_t i) {
    const index_t va = reg_value(i, a);
    const index_t vb = reg_value(i, b);
    // b = 0 convention matching the restoring divider: every trial
    // subtraction "succeeds", so q = 2^w - 1 and the remainder is a.
    const index_t q = vb == 0 ? mask : va / vb;
    const index_t r = vb == 0 ? va : va % vb;
    const index_t vc = reg_value(i, c);
    index_t j = reg_replace(i, a, r);
    j = reg_replace(j, c, (vc + q) & mask);
    return j;
  });
}

void Emulator::add(RegRef a, RegRef b) {
  if (a.width != b.width) throw std::invalid_argument("add: widths must match");
  check_regs({a, b}, sv_->qubits());
  const index_t mask = bits::low_mask(b.width);
  permute<false>([=](index_t i) {
    return reg_replace(i, b, (reg_value(i, b) + reg_value(i, a)) & mask);
  });
}

void Emulator::add_constant(RegRef r, index_t k) {
  check_regs({r}, sv_->qubits());
  const index_t mask = bits::low_mask(r.width);
  permute<false>(
      [=](index_t i) { return reg_replace(i, r, (reg_value(i, r) + k) & mask); });
}

void Emulator::apply_function(RegRef in, RegRef out,
                              const std::function<index_t(index_t)>& f) {
  check_regs({in, out}, sv_->qubits());
  const index_t mask = bits::low_mask(out.width);
  // One call of f per input value, not per amplitude: the table has at
  // most 1/4 of the state's entries, since out.width >= 1.
  const index_t entries = dim(in.width);
  uninit_aligned_vector<index_t> table(entries);
  {
    obs::Span span("emu.tabulate");
    span.arg("entries", static_cast<double>(entries));
#pragma omp parallel for if (worth_parallelizing(entries))
    for (index_t v = 0; v < entries; ++v) table[v] = f(v) & mask;
  }
  const index_t* t = table.data();
  permute<false>([=](index_t i) {
    return reg_replace(i, out, (reg_value(i, out) + t[reg_value(i, in)]) & mask);
  });
}

void Emulator::multiply_mod(RegRef x, index_t k, index_t modulus) {
  check_regs({x}, sv_->qubits());
  if (modulus == 0 || modulus > dim(x.width))
    throw std::invalid_argument("multiply_mod: modulus out of range");
  if (std::gcd(k % modulus, modulus) != 1)
    throw std::invalid_argument("multiply_mod: k not invertible mod modulus");
  permute<false>([=](index_t i) {
    const index_t v = reg_value(i, x);
    if (v >= modulus) return i;  // outside the modular domain: identity
    return reg_replace(i, x, (v * k) % modulus);
  });
}

void Emulator::apply_phase_function(const std::function<double(index_t)>& phase) {
  sim::kernels::apply_phase_oracle(sv_->amplitudes(), [&](index_t i) {
    return std::polar(1.0, phase(i));
  });
}

void Emulator::apply_phase_oracle(const std::function<bool(index_t)>& marked) {
  sim::kernels::apply_phase_oracle(sv_->amplitudes(), [&](index_t i) {
    return marked(i) ? complex_t{-1.0} : complex_t{1.0};
  });
}

void Emulator::qft() { qft_impl({0, sv_->qubits()}, fft::Sign::Positive); }

void Emulator::inverse_qft() { qft_impl({0, sv_->qubits()}, fft::Sign::Negative); }

void Emulator::qft(RegRef r) { qft_impl(r, fft::Sign::Positive); }

void Emulator::inverse_qft(RegRef r) { qft_impl(r, fft::Sign::Negative); }

void Emulator::qft_impl(RegRef r, fft::Sign sign) {
  check_regs({r}, sv_->qubits());
  if (plan_ == nullptr || plan_->qubits() != r.width || plan_->sign() != sign)
    plan_ = std::make_unique<fft::FftPlan>(r.width, sign);
  const auto a = sv_->amplitudes();
  const auto size = static_cast<double>(a.size());
  obs::Span span("emu.qft");
  span.arg("width", r.width);
  span.arg("batches", size / static_cast<double>(dim(r.width)));
  span.arg("mem_bytes", 2.0 * plan_->passes() * size * sizeof(complex_t));  // read + write
  span.arg("flops", 5.0 * size * r.width);
  // The whole register is the paper's Eq. (4) as one FFT; a sub-register
  // at [offset, offset + width) is the same transform batched at stride
  // 2^offset over the spectator bits, run in place without a gather.
  ensure_scratch();
  plan_->execute_batched(a, {scratch_.data(), scratch_.size()}, r.offset, fft::Norm::Unitary);
}

}  // namespace qc::emu
