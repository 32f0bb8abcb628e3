// Tests for the distributed state vector: agreement with the serial
// simulator on random circuits for every policy and rank count, the
// communication-avoidance guarantees of the Specialized policy, and the
// collective reductions.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <string>
#include <vector>

#include "circuit/builders.hpp"
#include "cluster/fault.hpp"
#include "sim/dist_sv.hpp"
#include "sim/simulator.hpp"
#include "swap_sets.hpp"

namespace qc::sim {
namespace {

using circuit::Circuit;

struct Case {
  qubit_t n;
  int ranks;
  CommPolicy policy;
};

/// Runs `c` on a distributed state (random init, fixed seed) and on the
/// serial HpcSimulator; returns the max amplitude difference.
double dist_vs_serial(const Circuit& c, qubit_t n, int ranks, CommPolicy policy,
                      std::uint64_t seed) {
  StateVector serial(n);
  serial.randomize_deterministic(seed);
  HpcSimulator().run(serial, c);

  double diff = -1;
  cluster::Cluster cluster(ranks, 1);
  cluster.run([&](cluster::Comm& comm) {
    DistStateVector dsv(comm, n);
    dsv.randomize(seed);
    dsv.run(c, policy);
    const StateVector gathered = dsv.gather_all();
    if (comm.rank() == 0) diff = gathered.max_abs_diff(serial);
  });
  return diff;
}

class DistRandomCircuit : public ::testing::TestWithParam<Case> {};

TEST_P(DistRandomCircuit, MatchesSerialSimulator) {
  const auto [n, ranks, policy] = GetParam();
  Rng rng(n * 100 + ranks);
  const Circuit c = circuit::random_circuit(n, 50, rng);
  EXPECT_LT(dist_vs_serial(c, n, ranks, policy, 555), 1e-12);
}

TEST_P(DistRandomCircuit, QftCircuitMatchesSerial) {
  const auto [n, ranks, policy] = GetParam();
  EXPECT_LT(dist_vs_serial(circuit::qft(n), n, ranks, policy, 777), 1e-11);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, DistRandomCircuit,
    ::testing::Values(Case{6, 1, CommPolicy::Specialized}, Case{6, 2, CommPolicy::Specialized},
                      Case{6, 2, CommPolicy::Exchange}, Case{8, 4, CommPolicy::Specialized},
                      Case{8, 4, CommPolicy::Exchange}, Case{9, 8, CommPolicy::Specialized},
                      Case{9, 8, CommPolicy::Exchange}, Case{10, 4, CommPolicy::Specialized},
                      // Oversubscribed: more ranks than test-machine cores.
                      Case{10, 32, CommPolicy::Specialized},
                      // One-amplitude chunks: every qubit is a rank bit.
                      Case{3, 8, CommPolicy::Specialized}));

TEST(DistStateVector, InitialStateIsZeroKet) {
  cluster::Cluster cluster(4, 1);
  cluster.run([](cluster::Comm& comm) {
    DistStateVector dsv(comm, 6);
    EXPECT_NEAR(dsv.norm_sq(), 1.0, 1e-14);
    const StateVector sv = dsv.gather_all();
    EXPECT_EQ(sv[0], complex_t{1.0});
  });
}

TEST(DistStateVector, SetBasisGlobalIndex) {
  cluster::Cluster cluster(4, 1);
  cluster.run([](cluster::Comm& comm) {
    DistStateVector dsv(comm, 4);
    dsv.set_basis(13);
    const StateVector sv = dsv.gather_all();
    EXPECT_EQ(sv[13], complex_t{1.0});
    EXPECT_NEAR(dsv.norm_sq(), 1.0, 1e-14);
  });
}

TEST(DistStateVector, RandomizeMatchesSerialDeterministic) {
  const qubit_t n = 8;
  StateVector serial(n);
  serial.randomize_deterministic(99);
  for (const int ranks : {1, 2, 4, 8}) {
    cluster::Cluster cluster(ranks, 1);
    cluster.run([&](cluster::Comm& comm) {
      DistStateVector dsv(comm, n);
      dsv.randomize(99);
      const StateVector sv = dsv.gather_all();
      EXPECT_LT(sv.max_abs_diff(serial), 1e-14) << "ranks=" << ranks;
    });
  }
}

TEST(DistStateVector, ProbabilityOfOneMatchesSerial) {
  const qubit_t n = 7;
  StateVector serial(n);
  serial.randomize_deterministic(3);
  cluster::Cluster cluster(4, 1);
  cluster.run([&](cluster::Comm& comm) {
    DistStateVector dsv(comm, n);
    dsv.randomize(3);
    for (qubit_t q = 0; q < n; ++q)
      EXPECT_NEAR(dsv.probability_of_one(q), serial.probability_of_one(q), 1e-12);
  });
}

TEST(DistStateVector, DiagonalGlobalGateAvoidsCommunication) {
  // Specialized policy: a CR on a global qubit must move zero bytes;
  // Exchange policy must move the chunk. This is the Fig. 4 mechanism.
  const qubit_t n = 8;
  const int ranks = 4;
  Circuit c(n);
  c.cr(0, n - 1, 0.9);  // target is the top (global) qubit
  std::uint64_t specialized_bytes = 1, exchange_bytes = 0;
  cluster::Cluster cluster(ranks, 1);
  cluster.run([&](cluster::Comm& comm) {
    DistStateVector a(comm, n);
    a.randomize(5);
    a.run(c, CommPolicy::Specialized);
    DistStateVector b(comm, n);
    b.randomize(5);
    b.run(c, CommPolicy::Exchange);
    if (comm.rank() == 0) {
      specialized_bytes = a.bytes_communicated();
      exchange_bytes = b.bytes_communicated();
    }
    // Both policies still agree on the state.
    EXPECT_LT(a.max_abs_diff(b), 1e-13);
  });
  EXPECT_EQ(specialized_bytes, 0u);
  EXPECT_GT(exchange_bytes, 0u);
}

TEST(DistStateVector, GlobalHadamardCommunicatesOnce) {
  const qubit_t n = 8;
  const int ranks = 4;
  Circuit c(n);
  c.h(n - 1);
  cluster::Cluster cluster(ranks, 1);
  cluster.run([&](cluster::Comm& comm) {
    DistStateVector dsv(comm, n);
    dsv.randomize(6);
    dsv.run(c, CommPolicy::Specialized);
    // One exchange of the local chunk (2^{n-2} amplitudes * 16 bytes).
    EXPECT_EQ(dsv.bytes_communicated(), dim(n - 2) * sizeof(complex_t));
  });
}

TEST(DistStateVector, UnsatisfiedGlobalControlSkipsWork) {
  const qubit_t n = 6;
  const int ranks = 4;
  // Control on the top qubit; H target local. Ranks with the control
  // rank-bit unset must leave their chunk untouched.
  Circuit c(n);
  c.append(circuit::make_controlled(circuit::GateKind::H, n - 1, 0));
  cluster::Cluster cluster(ranks, 1);
  cluster.run([&](cluster::Comm& comm) {
    DistStateVector dsv(comm, n);
    dsv.randomize(7);
    const aligned_vector<complex_t> before(dsv.local().begin(), dsv.local().end());
    dsv.run(c, CommPolicy::Specialized);
    const bool control_set = (comm.rank() >> 1) & 1;  // rank bit of qubit n-1
    double changed = 0;
    for (index_t i = 0; i < dsv.local().size(); ++i)
      changed = std::max(changed, std::abs(dsv.local()[i] - before[i]));
    if (control_set) {
      EXPECT_GT(changed, 1e-6);
    } else {
      EXPECT_EQ(changed, 0.0);
    }
    EXPECT_EQ(dsv.bytes_communicated(), 0u);
  });
}

TEST(DistStateVector, EntangleAcrossRanksGivesGhz) {
  const qubit_t n = 6;
  cluster::Cluster cluster(8, 1);
  cluster.run([](cluster::Comm& comm) {
    DistStateVector dsv(comm, n);
    dsv.run(circuit::entangle(n), CommPolicy::Specialized);
    const StateVector sv = dsv.gather_all();
    EXPECT_NEAR(std::abs(sv[0]), 1.0 / std::sqrt(2.0), 1e-13);
    EXPECT_NEAR(std::abs(sv[dim(n) - 1]), 1.0 / std::sqrt(2.0), 1e-13);
  });
}

TEST(DistStateVector, RejectsNonPow2Ranks) {
  cluster::Cluster cluster(3, 1);
  EXPECT_THROW(cluster.run([](cluster::Comm& comm) { DistStateVector dsv(comm, 5); }),
               std::invalid_argument);
}

/// Applies `pairs` on both a distributed and a serial copy of the same
/// random state and returns the max amplitude difference.
double swaps_vs_serial(qubit_t n, int ranks,
                       const std::vector<std::array<qubit_t, 2>>& pairs,
                       std::uint64_t seed) {
  StateVector serial(n);
  serial.randomize_deterministic(seed);
  kernels::apply_qubit_swaps(serial.amplitudes(), n, pairs);
  double diff = -1;
  cluster::Cluster cluster(ranks, 1);
  cluster.run([&](cluster::Comm& comm) {
    DistStateVector dsv(comm, n);
    dsv.randomize(seed);
    dsv.apply_qubit_swaps(pairs);
    const StateVector gathered = dsv.gather_all();
    if (comm.rank() == 0) diff = gathered.max_abs_diff(serial);
  });
  return diff;
}

TEST(DistQubitSwaps, LocalPairsMatchSerialAndMoveNoBytes) {
  const qubit_t n = 8;
  cluster::Cluster cluster(4, 1);
  StateVector serial(n);
  serial.randomize_deterministic(21);
  kernels::apply_qubit_swaps(serial.amplitudes(), n, {{{0, 3}, {1, 5}}});
  cluster.run([&](cluster::Comm& comm) {
    DistStateVector dsv(comm, n);
    dsv.randomize(21);
    dsv.apply_qubit_swaps({{{0, 3}, {1, 5}}});
    EXPECT_EQ(dsv.bytes_communicated(), 0u);
    const StateVector gathered = dsv.gather_all();
    if (comm.rank() == 0) {
      EXPECT_LT(gathered.max_abs_diff(serial), 1e-14);
    }
  });
}

TEST(DistQubitSwaps, GlobalLocalPairsMatchSerial) {
  // One crossing pair, two crossing pairs, and a crossing+local mix.
  EXPECT_LT(swaps_vs_serial(8, 4, {{{7, 2}}}, 31), 1e-14);
  EXPECT_LT(swaps_vs_serial(8, 4, {{{7, 2}, {6, 0}}}, 32), 1e-14);
  EXPECT_LT(swaps_vs_serial(9, 8, {{{8, 1}, {6, 4}, {0, 2}}}, 33), 1e-14);
}

TEST(DistQubitSwaps, GlobalGlobalPairMatchesSerial) {
  EXPECT_LT(swaps_vs_serial(8, 4, {{{6, 7}}}, 34), 1e-14);
  // Mixed: global-global plus crossing plus local, one collective pass.
  EXPECT_LT(swaps_vs_serial(9, 8, {{{7, 8}, {6, 2}, {0, 1}}}, 35), 1e-14);
}

TEST(DistQubitSwaps, ExchangeMovesAtMostOneChunkPerPass) {
  // k crossing pairs split the chunk into 2^k sub-blocks and keep one
  // home: (2^k - 1) / 2^k of the chunk crosses the wire — never more
  // than one full chunk regardless of how many qubits relocate at once.
  const qubit_t n = 8;
  cluster::Cluster cluster(4, 1);
  cluster.run([&](cluster::Comm& comm) {
    DistStateVector dsv(comm, n);
    dsv.randomize(36);
    dsv.apply_qubit_swaps({{{7, 2}, {6, 0}}});
    const std::uint64_t chunk_bytes = dim(n - 2) * sizeof(complex_t);
    EXPECT_EQ(dsv.bytes_communicated(), chunk_bytes * 3 / 4);
    EXPECT_LT(dsv.bytes_communicated(), chunk_bytes);
  });
}

TEST(DistQubitSwaps, RandomCrossingRoundsMatchHpcBitForBit) {
  // Random swap sets split at the local/global boundary: LowHigh sets
  // are all crossing pairs (the pack/unpack path), the others mix
  // crossing, local-local and global-global pairs. The reference runs
  // the same transpositions as SWAP gates on the serial HpcSimulator,
  // from the gathered start state, so the two must agree bit for bit.
  std::mt19937_64 rng(2016);
  for (const int ranks : {2, 4}) {
    const auto global = static_cast<qubit_t>(ranks == 2 ? 1 : 2);
    cluster::Cluster cluster(ranks, 2);
    for (qubit_t n = global + 2; n <= 13; n += 3) {
      const qubit_t nl = n - global;
      for (const testing::SwapShape shape : testing::kSwapShapes) {
        for (const std::size_t k : testing::swap_pair_counts(n, shape, nl, true)) {
          const auto pairs = testing::random_swap_set(n, k, shape, nl, rng);
          SCOPED_TRACE("ranks=" + std::to_string(ranks) + " n=" + std::to_string(n) +
                       " shape=" + std::to_string(static_cast<int>(shape)) +
                       " pairs=" + std::to_string(k));
          Circuit c(n);
          for (const auto& p : pairs) c.swap(p[0], p[1]);
          const std::uint64_t seed = rng();
          cluster.run([&](cluster::Comm& comm) {
            DistStateVector dsv(comm, n);
            dsv.randomize(seed);
            StateVector ref = dsv.gather_all();
            dsv.apply_qubit_swaps(pairs);
            const StateVector gathered = dsv.gather_all();
            if (comm.rank() != 0) return;
            HpcSimulator().run(ref, c);
            EXPECT_EQ(gathered.max_abs_diff(ref), 0.0);
          });
        }
      }
    }
  }
}

TEST(DistQubitSwaps, RejectsOverlappingPairs) {
  cluster::Cluster cluster(2, 1);
  EXPECT_THROW(cluster.run([](cluster::Comm& comm) {
    DistStateVector dsv(comm, 6);
    dsv.apply_qubit_swaps({{{0, 1}, {1, 2}}});
  }),
               std::invalid_argument);
}

TEST(DistMeasurement, RegisterDistributionMatchesSerial) {
  const qubit_t n = 8;
  StateVector serial(n);
  serial.randomize_deterministic(41);
  // Register straddling the local/global boundary (ranks = 4 -> nl = 6).
  const std::vector<double> ref = serial.register_distribution(4, 4);
  cluster::Cluster cluster(4, 1);
  cluster.run([&](cluster::Comm& comm) {
    DistStateVector dsv(comm, n);
    dsv.randomize(41);
    const std::vector<double> dist = dsv.register_distribution(4, 4);
    ASSERT_EQ(dist.size(), ref.size());
    for (std::size_t v = 0; v < ref.size(); ++v) EXPECT_NEAR(dist[v], ref[v], 1e-12);
  });
}

TEST(DistMeasurement, SampleAgreesOnAllRanksAndRespectsSupport) {
  const qubit_t n = 6;
  cluster::Cluster cluster(4, 1);
  // |psi> with support on exactly two basis states, one per side of the
  // rank boundary; every rank must report the same supported outcome.
  cluster.run([](cluster::Comm& comm) {
    DistStateVector dsv(comm, n);
    dsv.set_basis(3);  // support only on rank 0's chunk
    for (std::uint64_t seed = 0; seed < 50; ++seed) {
      Rng rng(seed);
      EXPECT_EQ(dsv.sample(rng), index_t{3});
    }
  });
}

TEST(DistMeasurement, SampleMatchesSerialDrawForSameSeed) {
  const qubit_t n = 7;
  StateVector serial(n);
  serial.randomize_deterministic(77);
  for (const int ranks : {1, 2, 4, 8}) {
    cluster::Cluster cluster(ranks, 1);
    cluster.run([&](cluster::Comm& comm) {
      DistStateVector dsv(comm, n);
      dsv.randomize(77);
      for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        Rng serial_rng(seed);
        Rng dist_rng(seed);
        EXPECT_EQ(dsv.sample(dist_rng), serial.sample(serial_rng))
            << "ranks=" << ranks << " seed=" << seed;
      }
    });
  }
}

TEST(DistMeasurement, AbortedSampleLeavesRankRngStreamsInSync) {
  // Pins the stream-sync invariant documented in sample(): the shared
  // uniform draw is consumed *before* any communication, so every rank
  // that entered sample() has advanced its identically-seeded stream by
  // exactly one draw when the collective aborts — never zero (the
  // pre-fix failure mode: rank 0 dies in the allgather before a
  // draw-after-communication, silently falling behind its peers) and
  // never more than one. The rule kills rank 0 in its first recv of the
  // rank-total allgather, after its own draw and eager send.
  constexpr qubit_t n = 6;
  constexpr int kRanks = 2;
  cluster::FaultInjector inj = cluster::FaultInjector::parse("abort@cluster.recv#0/0");
  const cluster::ScopedFaultInjector scoped(&inj);
  cluster::ClusterSession session(kRanks, 1);
  std::vector<Rng> rngs;
  for (int r = 0; r < kRanks; ++r) rngs.emplace_back(99);
  // Whether each rank reached the sample() call. Rank 1 may legitimately
  // miss it — rank 0's abort can land before rank 1 dequeues the job —
  // but a rank that did enter must have consumed exactly one draw: the
  // draw is sample()'s first statement, ahead of any abortable call.
  std::array<std::atomic<bool>, kRanks> entered{};
  session.submit([&rngs, &entered](cluster::Comm& comm) {
    DistStateVector dsv(comm, n);
    dsv.set_basis(3);
    const auto r = static_cast<std::size_t>(comm.rank());
    entered[r] = true;
    (void)dsv.sample(rngs[r]);
  });
  EXPECT_THROW(session.sync(), cluster::InjectedFault);
  EXPECT_EQ(inj.fired(), 1u);
  EXPECT_TRUE(entered[0]);  // the aborting rank itself always got there
  std::vector<double> next(kRanks, -1.0);
  session.submit([&rngs, &next](cluster::Comm& comm) {
    const auto r = static_cast<std::size_t>(comm.rank());
    next[r] = rngs[r].uniform();
  });
  session.sync();
  Rng fresh(99);
  const double draw1 = fresh.uniform();
  const double draw2 = fresh.uniform();
  // Rank 0 aborted mid-collective yet advanced exactly one draw — the
  // regression pin: drawing after the allgather would leave it at 0.
  EXPECT_EQ(next[0], draw2);
  // Rank 1: in sync with rank 0 when it entered, untouched when the
  // abort beat it to the job — either way its position is exact.
  EXPECT_EQ(next[1], entered[1] ? draw2 : draw1);
}

TEST(DistMeasurement, CollapseMatchesSerialOnLocalAndGlobalQubit) {
  const qubit_t n = 8;
  const int ranks = 4;
  for (const qubit_t q : {qubit_t{2}, qubit_t{7}}) {  // local and global
    StateVector serial(n);
    serial.randomize_deterministic(55);
    serial.collapse(q, 1);
    cluster::Cluster cluster(ranks, 1);
    cluster.run([&](cluster::Comm& comm) {
      DistStateVector dsv(comm, n);
      dsv.randomize(55);
      dsv.collapse(q, 1);
      EXPECT_NEAR(dsv.norm_sq(), 1.0, 1e-12);
      const StateVector gathered = dsv.gather_all();
      if (comm.rank() == 0) {
        EXPECT_LT(gathered.max_abs_diff(serial), 1e-13);
      }
    });
  }
}

TEST(DistMeasurement, CollapseOfDriftedNormEndsAtUnitNorm) {
  // Regression: p(0) = 1 - p(1) assumed a unit norm.
  const qubit_t n = 8;
  const double scale = std::sqrt(1.0 + 1e-5);
  for (const qubit_t q : {qubit_t{2}, qubit_t{7}}) {  // local and global
    cluster::Cluster cluster(4, 1);
    cluster.run([&](cluster::Comm& comm) {
      DistStateVector dsv(comm, n);
      dsv.randomize(61);
      for (complex_t& a : dsv.local()) a *= scale;
      dsv.collapse(q, 0);
      EXPECT_NEAR(dsv.norm_sq(), 1.0, 1e-12) << "q=" << q;
    });
  }
}

TEST(DistMeasurement, RegisterCollapseMatchesSerialPerQubitCollapse) {
  // Physical positions in a scrambled order that straddle the
  // local/global split at every rank count (bit j of the outcome reads
  // qubits[j]), and a mixed-bit outcome.
  const qubit_t n = 8;
  const std::array<qubit_t, 3> qubits{7, 3, 5};
  const index_t outcome = 0b101;
  StateVector serial(n);
  serial.randomize_deterministic(57);
  for (std::size_t j = 0; j < qubits.size(); ++j)
    serial.collapse(qubits[j], bits::test(outcome, static_cast<qubit_t>(j)) ? 1 : 0);
  for (const int ranks : {1, 2, 4, 8}) {
    cluster::Cluster cluster(ranks, 1);
    cluster.run([&](cluster::Comm& comm) {
      DistStateVector dsv(comm, n);
      dsv.randomize(57);
      const std::vector<double> dist = dsv.register_distribution(qubits);
      dsv.collapse_register(qubits, outcome, dist[outcome]);
      EXPECT_NEAR(dsv.norm_sq(), 1.0, 1e-12);
      const StateVector gathered = dsv.gather_all();
      if (comm.rank() == 0) {
        EXPECT_LT(gathered.max_abs_diff(serial), 1e-12) << "ranks=" << ranks;
      }
    });
  }
}

TEST(DistMeasurement, CollapseZeroProbabilityThrows) {
  cluster::Cluster cluster(2, 1);
  EXPECT_THROW(cluster.run([](cluster::Comm& comm) {
    DistStateVector dsv(comm, 5);  // |00000>
    dsv.collapse(4, 1);
  }),
               std::runtime_error);
}

}  // namespace
}  // namespace qc::sim
