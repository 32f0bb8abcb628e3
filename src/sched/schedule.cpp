#include "sched/schedule.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <numeric>
#include <sstream>

#include "common/bits.hpp"
#include "common/parallel.hpp"
#include "models/perf_model.hpp"
#include "obs/trace.hpp"

namespace qc::sched {

namespace {

using circuit::Gate;
using fuse::FusedCircuit;
using fuse::FusedItem;
using fuse::FusedOp;

index_t gate_support(const Gate& g) {
  index_t m = 0;
  for (qubit_t t : g.targets) m = bits::set(m, t);
  for (qubit_t c : g.controls) m = bits::set(m, c);
  return m;
}

index_t item_support(const FusedItem& it) {
  if (it.kind == FusedItem::Kind::Block) {
    index_t m = 0;
    for (qubit_t q : it.block.qubits) m = bits::set(m, q);
    return m;
  }
  return gate_support(it.gate);
}

Gate remap_gate(const Gate& g, const std::vector<qubit_t>& perm) {
  Gate out = g;
  for (qubit_t& t : out.targets) t = perm[t];
  for (qubit_t& c : out.controls) c = perm[c];
  return out;
}

/// Builds a ChunkOp from a fused block under the current permutation.
/// A remap can change the *relative* order of the block's qubits, in
/// which case the unitary/diagonal is re-permuted at plan time so kernel
/// local bit m still matches the m-th ascending physical target.
ChunkOp remap_block(const FusedOp& op, const std::vector<qubit_t>& perm,
                    std::size_t source_index) {
  const auto k = static_cast<qubit_t>(op.qubits.size());
  ChunkOp out;
  out.kind = op.diagonal ? ChunkOp::Kind::Diagonal : ChunkOp::Kind::Dense;
  out.gate_count = op.gate_count;
  out.source_index = source_index;
  std::vector<qubit_t> phys(k);
  for (qubit_t l = 0; l < k; ++l) phys[l] = perm[op.qubits[l]];
  std::vector<qubit_t> order(k);
  std::iota(order.begin(), order.end(), qubit_t{0});
  std::sort(order.begin(), order.end(), [&](qubit_t x, qubit_t y) { return phys[x] < phys[y]; });
  out.qubits.resize(k);
  bool identity = true;
  for (qubit_t m = 0; m < k; ++m) {
    out.qubits[m] = phys[order[m]];
    identity = identity && order[m] == m;
  }
  if (identity) {
    if (op.diagonal) {
      out.diag = op.diag;
    } else {
      out.unitary = op.unitary;
    }
    return out;
  }
  // Basis map: kernel index b (bit m <-> physical out.qubits[m]) selects
  // the original local index whose bit order[m] equals bit m of b.
  const index_t block = dim(k);
  std::vector<index_t> map(block);
  for (index_t b = 0; b < block; ++b) {
    index_t orig = 0;
    for (qubit_t m = 0; m < k; ++m)
      if (bits::test(b, m)) orig = bits::set(orig, order[m]);
    map[b] = orig;
  }
  if (op.diagonal) {
    out.diag.resize(block);
    for (index_t b = 0; b < block; ++b) out.diag[b] = op.diag[map[b]];
  } else {
    out.unitary = linalg::Matrix(block, block);
    for (index_t r = 0; r < block; ++r)
      for (index_t c = 0; c < block; ++c) out.unitary(r, c) = op.unitary(map[r], map[c]);
  }
  return out;
}

ChunkOp remap_item(const FusedItem& it, const std::vector<qubit_t>& perm, std::size_t idx) {
  if (it.kind == FusedItem::Kind::Block) return remap_block(it.block, perm, idx);
  ChunkOp out;
  out.kind = ChunkOp::Kind::Gate;
  out.gate = remap_gate(it.gate, perm);
  out.gate_count = 1;
  out.source_index = idx;
  return out;
}

/// The remap rounds that move the qubit at every physical bit p to its
/// home inv[p]: at most two disjoint transposition sets, since each cycle
/// c_0 -> c_1 -> ... -> c_{L-1} of that permutation is the product of two
/// reflections, c_i <-> c_{-i} (first) then c_i <-> c_{1-i} (mod L).
std::vector<std::vector<std::array<qubit_t, 2>>> restore_rounds(
    const std::vector<qubit_t>& inv) {
  std::vector<std::vector<std::array<qubit_t, 2>>> rounds(2);
  std::vector<bool> seen(inv.size());
  std::vector<qubit_t> cycle;
  for (qubit_t p = 0; p < inv.size(); ++p) {
    if (seen[p] || inv[p] == p) continue;
    cycle.clear();
    for (qubit_t c = p; !seen[c]; c = inv[c]) {
      seen[c] = true;
      cycle.push_back(c);
    }
    const std::size_t len = cycle.size();
    for (std::size_t i = 1; i < len - i; ++i) rounds[0].push_back({cycle[i], cycle[len - i]});
    for (std::size_t i = 0; i < len; ++i)
      if (const std::size_t j = (len + 1 - i) % len; i < j)
        rounds[1].push_back({cycle[i], cycle[j]});
  }
  std::erase_if(rounds, [](const auto& r) { return r.empty(); });
  return rounds;
}

}  // namespace

std::size_t BlockedPlan::sweeps() const {
  std::size_t total = 0;
  for (const PlanItem& it : items) total += it.kind == PlanItem::Kind::Sweep;
  return total;
}

std::size_t BlockedPlan::remaps() const {
  std::size_t total = 0;
  for (const PlanItem& it : items) total += it.kind == PlanItem::Kind::Remap;
  return total;
}

std::size_t BlockedPlan::globals() const {
  std::size_t total = 0;
  for (const PlanItem& it : items) total += it.kind == PlanItem::Kind::Global;
  return total;
}

std::size_t BlockedPlan::chunk_ops() const {
  std::size_t total = 0;
  for (const PlanItem& it : items)
    if (it.kind == PlanItem::Kind::Sweep) total += it.ops.size();
  return total;
}

std::string BlockedPlan::to_string() const {
  std::ostringstream out;
  out << "blocked plan on " << n << " qubits, chunk 2^" << chunk_width << " amplitudes: "
      << passes() << " passes for " << source_ops << " fused ops (" << sweeps()
      << " sweeps holding " << chunk_ops() << " ops, " << remaps() << " remaps, " << globals()
      << " globals)\n";
  for (const PlanItem& it : items) {
    switch (it.kind) {
      case PlanItem::Kind::Sweep:
        out << "  sweep x" << it.ops.size() << " [";
        for (std::size_t i = 0; i < it.ops.size(); ++i) {
          const ChunkOp& op = it.ops[i];
          out << (i ? " " : "")
              << (op.kind == ChunkOp::Kind::Dense
                      ? "dense"
                      : op.kind == ChunkOp::Kind::Diagonal ? "diag" : "gate");
        }
        out << "]\n";
        break;
      case PlanItem::Kind::Remap:
        out << "  remap";
        for (const auto& s : it.swaps) out << " " << s[0] << "<->" << s[1];
        out << "\n";
        break;
      case PlanItem::Kind::Global:
        out << "  global "
            << (it.global.kind == ChunkOp::Kind::Gate ? it.global.gate.to_string()
                                                      : "block x" +
                                                            std::to_string(it.global.gate_count))
            << "\n";
        break;
    }
  }
  return out.str();
}

qubit_t choose_chunk_width(qubit_t n, const ScheduleOptions& opts) {
  if (opts.chunk_width != 0) return std::min<qubit_t>(opts.chunk_width, n);
  const auto amps = static_cast<index_t>(
      std::max<std::size_t>(opts.cache_bytes / sizeof(complex_t), 2));
  qubit_t chunk = bits::log2_floor(amps);
  const int threads = max_threads();
  if (threads > 1) {
    // Shrink (down to a floor) until the cross-chunk loop has at least
    // 4 x threads chunks to balance — including when the whole state
    // fits one cache-sized chunk (n <= chunk), where a single chunk
    // would serialize work the per-op kernels used to parallelize.
    qubit_t want = 0;
    while ((index_t{1} << want) < static_cast<index_t>(4 * threads)) ++want;
    constexpr qubit_t kFloor = 10;  // 2^10 amplitudes: below this the
                                    // per-chunk dispatch overhead wins
    if (n > want && n - want < chunk)
      chunk = std::max<qubit_t>(std::min<qubit_t>(chunk, n - want), kFloor);
  }
  return std::min<qubit_t>(chunk, n);
}

BlockedPlan schedule(const FusedCircuit& fc, const ScheduleOptions& opts) {
  obs::Span plan_span("sched.plan");
  BlockedPlan plan;
  plan.n = fc.n;
  plan.chunk_width = choose_chunk_width(fc.n, opts);
  plan.source_ops = fc.items.size();
  const qubit_t chunk_w = plan.chunk_width;
  const qubit_t n = fc.n;

  std::vector<index_t> masks(fc.items.size());
  std::vector<qubit_t> widths(fc.items.size());
  for (std::size_t i = 0; i < fc.items.size(); ++i) {
    masks[i] = item_support(fc.items[i]);
    widths[i] = static_cast<qubit_t>(bits::popcount(masks[i]));
  }

  // perm: logical qubit -> physical index bit; inv: its inverse.
  std::vector<qubit_t> perm(n), inv(n);
  std::iota(perm.begin(), perm.end(), qubit_t{0});
  std::iota(inv.begin(), inv.end(), qubit_t{0});
  const auto commit_swaps = [&](const std::vector<std::array<qubit_t, 2>>& swaps) {
    for (const auto& s : swaps) {
      const qubit_t qa = inv[s[0]], qb = inv[s[1]];
      std::swap(perm[qa], perm[qb]);
      std::swap(inv[s[0]], inv[s[1]]);
    }
  };

  std::vector<ChunkOp> sweep;
  const auto flush = [&] {
    if (sweep.empty()) return;
    PlanItem item;
    item.kind = PlanItem::Kind::Sweep;
    item.ops = std::move(sweep);
    sweep.clear();
    plan.items.push_back(std::move(item));
  };
  const auto emit_global = [&](std::size_t i) {
    flush();
    PlanItem item;
    item.kind = PlanItem::Kind::Global;
    item.global = remap_item(fc.items[i], perm, i);
    plan.items.push_back(std::move(item));
  };
  const auto all_low = [&](index_t mask, const std::vector<qubit_t>& p) {
    for (qubit_t q = 0; mask >> q; ++q)
      if (bits::test(mask, q) && p[q] >= chunk_w) return false;
    return true;
  };

  for (std::size_t i = 0; i < fc.items.size(); ++i) {
    const index_t mask = masks[i];
    if (widths[i] > chunk_w) {
      // Wider than a chunk: can never be made local, stays a full pass.
      emit_global(i);
      continue;
    }
    if (all_low(mask, perm)) {
      sweep.push_back(remap_item(fc.items[i], perm, i));
      continue;
    }
    bool remapped = false;
    if (opts.remap) {
      const std::size_t window_end = std::min(fc.items.size(), i + opts.lookahead);
      constexpr std::size_t kNever = std::numeric_limits<std::size_t>::max();
      std::vector<std::size_t> next_use(n, kNever);
      for (std::size_t j = i; j < window_end; ++j) {
        for (qubit_t q = 0; masks[j] >> q; ++q)
          if (bits::test(masks[j], q) && next_use[q] == kNever) next_use[q] = j;
      }
      // Candidate imports: the current op's high qubits (mandatory — the
      // op must become chunk-local), then the window's remaining high
      // working set, soonest-used first, as far as the low slots allow.
      std::vector<qubit_t> imports;
      for (qubit_t q = 0; mask >> q; ++q)
        if (bits::test(mask, q) && perm[q] >= chunk_w) imports.push_back(q);
      const std::size_t mandatory = imports.size();
      for (qubit_t q = 0; q < n; ++q)
        if (perm[q] >= chunk_w && next_use[q] != kNever && !bits::test(mask, q))
          imports.push_back(q);
      std::stable_sort(imports.begin() + static_cast<std::ptrdiff_t>(mandatory),
                       imports.end(),
                       [&](qubit_t x, qubit_t y) { return next_use[x] < next_use[y]; });
      // Farthest-next-use victim choice: evict from the low block the
      // qubits the window touches last (or never).
      std::vector<qubit_t> victims;
      for (qubit_t p = 0; p < chunk_w; ++p)
        if (!bits::test(mask, inv[p])) victims.push_back(p);
      std::stable_sort(victims.begin(), victims.end(), [&](qubit_t x, qubit_t y) {
        return next_use[inv[x]] > next_use[inv[y]];
      });
      std::vector<std::array<qubit_t, 2>> swaps;
      std::size_t v = 0;
      for (std::size_t s = 0; s < imports.size() && v < victims.size(); ++s) {
        const qubit_t victim = victims[v];
        // Optional imports only displace a qubit needed later than they
        // are (never trade a sooner-used low qubit for a later high one).
        if (s >= mandatory && next_use[imports[s]] >= next_use[inv[victim]]) break;
        swaps.push_back({perm[imports[s]], victim});
        ++v;
      }
      if (!swaps.empty()) {
        // Score the remap: how many upcoming ops become chunk-local?
        std::vector<qubit_t> trial = perm;
        for (const auto& s : swaps) {
          const qubit_t qa = inv[s[0]], qb = inv[s[1]];
          std::swap(trial[qa], trial[qb]);
        }
        // Score only ops whose locality the remap *changes*: ops already
        // chunk-local stay in sweeps either way, and ops the eviction
        // pushes out of the low block count against the remap.
        std::ptrdiff_t gain = 0;
        for (std::size_t j = i; j < window_end; ++j) {
          if (widths[j] > chunk_w) continue;
          const bool now = all_low(masks[j], perm);
          const bool then = all_low(masks[j], trial);
          gain += static_cast<std::ptrdiff_t>(then) - static_cast<std::ptrdiff_t>(now);
        }
        const bool taken = all_low(mask, trial) && gain > 0 &&
                           models::remap_profitable(static_cast<std::size_t>(gain),
                                                    opts.remap_pass_cost);
        // The cost-model decision with its inputs, as a trace marker —
        // this is what makes a "why did/didn't it remap here?" question
        // answerable from a trace alone.
        obs::instant("sched.remap_decision",
                     {{"op", static_cast<double>(i)},
                      {"gain", static_cast<double>(gain)},
                      {"pass_cost", opts.remap_pass_cost},
                      {"taken", taken ? 1.0 : 0.0}});
        if (taken) {
          flush();
          PlanItem item;
          item.kind = PlanItem::Kind::Remap;
          item.swaps = swaps;
          plan.items.push_back(std::move(item));
          commit_swaps(swaps);
          sweep.push_back(remap_item(fc.items[i], perm, i));
          remapped = true;
        }
      }
    }
    if (!remapped) emit_global(i);
  }
  flush();

  // Undo all remaps so the state leaves in logical qubit order, in at
  // most two transposition rounds.
  for (auto& swaps : restore_rounds(inv)) {
    commit_swaps(swaps);
    PlanItem item;
    item.kind = PlanItem::Kind::Remap;
    item.swaps = std::move(swaps);
    plan.items.push_back(std::move(item));
  }
  assert(std::is_sorted(inv.begin(), inv.end()));
  if (obs::enabled()) {
    plan_span.arg("source_ops", static_cast<double>(plan.source_ops));
    plan_span.arg("items", static_cast<double>(plan.items.size()));
    plan_span.arg("chunk_width", static_cast<double>(plan.chunk_width));
  }
  return plan;
}

BlockedPlan global_plan(const FusedCircuit& fc) {
  BlockedPlan plan;
  plan.n = fc.n;
  plan.chunk_width = fc.n;
  plan.source_ops = fc.items.size();
  std::vector<qubit_t> identity(fc.n);
  std::iota(identity.begin(), identity.end(), qubit_t{0});
  for (std::size_t i = 0; i < fc.items.size(); ++i) {
    PlanItem item;
    item.kind = PlanItem::Kind::Global;
    item.global = remap_item(fc.items[i], identity, i);
    plan.items.push_back(std::move(item));
  }
  return plan;
}

BlockedPlan cached_plan(const circuit::Circuit& c, const fuse::FusionOptions& fusion,
                        const ScheduleOptions& sopts) {
  // Narrow the fusion width to the scheduler's in-cache optimum: the
  // full-pass saving that justifies wide blocks does not apply inside a
  // chunk-resident sweep (see ScheduleOptions::max_block_width).
  fuse::FusionOptions narrowed = fusion;
  narrowed.max_width = std::min(narrowed.max_width, sopts.max_block_width);
  return schedule(fuse::fuse_circuit(c, narrowed), sopts);
}

}  // namespace qc::sched
