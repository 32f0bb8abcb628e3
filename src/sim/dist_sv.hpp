// Distributed state vector over the cluster substrate.
//
// The wave function of n qubits is split over P = 2^k ranks; rank r owns
// the contiguous chunk of 2^{n-k} amplitudes whose top k bits equal r —
// i.e. the top k qubits are "global" (distributed), the rest local.
// Gates on local qubits never communicate. Gates on global qubits
// normally require exchanging the local chunk with a partner rank
// (the 16N/Bnet term of the paper's Eq. 6); the Specialized policy
// ("our simulator") skips that exchange for diagonal gates and for
// unsatisfied global controls — the structural advantage the paper
// credits for Fig. 4's growing lead over qHiPSTER.
//
// Templated on the amplitude scalar T: under fp32 every chunk exchange
// moves sizeof(std::complex<float>) = 8 bytes per amplitude — exactly
// half the wire traffic of fp64 on the same plan (the engine's byte
// accounting and the obs model report tie this out).
#pragma once

#include <array>
#include <span>
#include <vector>

#include "circuit/circuit.hpp"
#include "cluster/cluster.hpp"
#include "common/rng.hpp"
#include "sim/kernels.hpp"
#include "sim/state_vector.hpp"

namespace qc::sim {

/// Communication policy for global-qubit gates.
enum class CommPolicy {
  Specialized,  ///< Ours: diagonal global gates apply locally; global
                ///< controls filter ranks; exchange only when unavoidable.
  Exchange,     ///< qHiPSTER-like: every global-target gate performs the
                ///< pairwise chunk exchange, diagonal or not.
};

template <typename T>
class BasicDistStateVector {
 public:
  using value_type = basic_complex_t<T>;

  /// Collective: every rank of `comm` constructs its share of an n-qubit
  /// |0...0>. comm.size() must be a power of two, <= 2^n.
  BasicDistStateVector(cluster::Comm& comm, qubit_t n_qubits);

  [[nodiscard]] qubit_t qubits() const noexcept { return n_; }
  [[nodiscard]] qubit_t local_qubits() const noexcept { return nl_; }
  [[nodiscard]] qubit_t global_qubits() const noexcept { return n_ - nl_; }
  [[nodiscard]] std::span<value_type> local() noexcept { return {local_.data(), local_.size()}; }
  [[nodiscard]] std::span<const value_type> local() const noexcept {
    return {local_.data(), local_.size()};
  }
  [[nodiscard]] cluster::Comm& comm() const noexcept { return *comm_; }

  /// Collective: resets to basis state |i> (global index).
  void set_basis(index_t i);

  /// Collective: deterministic random state (same result for any P,
  /// given the same seed and n — tested against the serial StateVector).
  void randomize(std::uint64_t seed);

  /// Collective reductions.
  [[nodiscard]] double norm_sq() const;
  [[nodiscard]] double max_abs_diff(const BasicDistStateVector& other) const;
  [[nodiscard]] double probability_of_one(qubit_t q) const;

  /// Collective: applies one gate under the given policy.
  void apply_gate(const circuit::Gate& g, CommPolicy policy);

  /// Collective: applies a circuit gate by gate.
  void run(const circuit::Circuit& c, CommPolicy policy);

  /// Collective: applies a set of disjoint qubit transpositions in one
  /// pass — the cluster-level analogue of kernels::apply_qubit_swaps.
  /// Pairs with both qubits local permute each chunk in place with zero
  /// communication; pairs that cross the local/global boundary (and
  /// global-global pairs) are realized as ONE chunk permutation: the
  /// chunk splits into 2^k sub-blocks keyed by the k exchanged local
  /// bits, and each sub-block moves to the rank whose exchanged rank
  /// bits equal its key (sizeof(value_type) bytes/amplitude over the
  /// wire, the Eq. 6 exchange term paid once for the whole swap set).
  /// The packing is the in-place bit-permutation mover too: it lifts
  /// the k exchanged bits to the top of the chunk, so every sub-block is
  /// one contiguous range sent and received in place, and moves them
  /// back after the exchange — no per-element gather or scatter. This
  /// is the global<->local exchange pass the distributed scheduler
  /// amortizes across a sweep of global-qubit gates.
  void apply_qubit_swaps(std::span<const std::array<qubit_t, 2>> pairs);

  // --- collective measurement surface (paper §3.4 at cluster scale) ----

  /// Collective: marginal distribution of the `width`-bit register at
  /// `offset` (which may straddle the local/global boundary). Every rank
  /// returns the identical full 2^width vector.
  [[nodiscard]] std::vector<double> register_distribution(qubit_t offset, qubit_t width) const;

  /// Collective: marginal distribution over an *arbitrary* set of
  /// physical qubit positions — bit j of each outcome index reads
  /// physical qubit `qubits[j]`. This is how a caller holding a live
  /// logical->physical permutation (the resident dist backend) measures
  /// a logical register without first restoring physical qubit order.
  [[nodiscard]] std::vector<double> register_distribution(
      std::span<const qubit_t> qubits) const;

  /// Collective: samples a full-register outcome (global basis index)
  /// from the exact distribution; does not collapse. Every rank must
  /// pass an identically-seeded rng (exactly one uniform draw is
  /// consumed, keeping all ranks' streams in step); every rank returns
  /// the same outcome, which is never a zero-probability basis state.
  [[nodiscard]] index_t sample(Rng& rng) const;

  /// Collective: collapses qubit q to `outcome` (0/1) and renormalizes.
  /// Throws if the outcome has probability ~0 (on every rank alike). The
  /// outcome's probability is reduced directly (not as 1 - p(other)), so
  /// a drifted norm still ends at 1.
  void collapse(qubit_t q, int outcome);

  /// Collapses the register over physical positions `qubits` (bit j of
  /// `outcome` reads `qubits[j]`, as in register_distribution) in one
  /// local pass per rank with no communication: amplitudes matching the
  /// outcome are scaled by 1/sqrt(p), the rest zeroed. `p` must be the
  /// same on every rank — the outcome's entry of the register
  /// distribution every rank already holds. Throws if p is ~0.
  void collapse_register(std::span<const qubit_t> qubits, index_t outcome, double p);

  /// Collective: gathers the full state on every rank (test helper;
  /// only sensible for small n).
  [[nodiscard]] BasicStateVector<T> gather_all() const;

  /// Bytes exchanged by this rank since construction (for the
  /// communication-volume assertions and the Fig. 4 analysis). Counts
  /// sizeof(value_type) per amplitude, so fp32 runs report half the
  /// fp64 volume on the same plan.
  [[nodiscard]] std::uint64_t bytes_communicated() const noexcept { return bytes_comm_; }

 private:
  /// Collective: probability that qubit q reads `one`.
  [[nodiscard]] double outcome_probability(qubit_t q, bool one) const;

  void exchange_and_combine(qubit_t rank_bit, const kernels::U2T<T>& u, index_t local_cmask,
                            index_t global_cmask_bits);

  cluster::Comm* comm_;
  qubit_t n_;
  qubit_t nl_;
  aligned_vector<value_type> local_;
  aligned_vector<value_type> scratch_;
  std::uint64_t bytes_comm_ = 0;
};

/// Double-precision alias — the default across the non-templated API.
using DistStateVector = BasicDistStateVector<double>;

}  // namespace qc::sim
