// execute_blocked — the one executor of a blocked plan.
//
// The engine's "cached" preset runs it on sched::cached_plan (fusion at
// the in-cache width, then sched::schedule), the "fused" preset on
// sched::global_plan (Global items only), and every rank of the "dist"
// backend on its chunk's plan. Item kinds:
//
//  * Sweep items walk the state vector chunk by chunk (2^L amplitudes,
//    L = plan.chunk_width) and apply every op of the sweep to a chunk
//    while it is cache resident — one `omp parallel` region over chunks
//    per sweep, the kernels' Par = false bodies inside. This replaces
//    one full DRAM pass per op with one pass per sweep (paper §4: the
//    simulation is bandwidth bound, so fewer state traversals is the
//    whole game).
//  * Remap items relocate high qubits into the low block in one
//    in-place pass of the bit-permutation mover
//    (kernels::apply_qubit_swaps): whole runs swap when only high bits
//    move, L2-capped tiles permute through a per-thread buffer when low
//    bits do, and no state-sized scratch is allocated. Their spans
//    carry `pairs`, `run_bits` and `mem_bytes` (the bytes that move,
//    which also price `pred_s`).
//  * Global items (ops wider than a chunk, or not worth remapping) run
//    as one parallel full-vector pass of the same kernels.
//
// Sweep ops and Global items share one op dispatch; gate ops go through
// sim::apply_gate_hpc. Iterative callers build the plan once and pass
// it to execute_blocked on every repetition.
#pragma once

#include "sched/schedule.hpp"
#include "sim/simulator.hpp"

namespace qc::sched {

/// Executes a blocked plan on a raw amplitude array of 2^plan.n
/// amplitudes. This is the single-node presets' executor and the
/// rank-local entry point of the distributed executor (each rank runs
/// its chunk's plan on dist_sv's local window). The plan itself
/// stays double precision; executing at T = float narrows each op's
/// payload once, outside the chunk loop. Instantiated for float/double.
template <typename T>
void execute_blocked(std::span<basic_complex_t<T>> a, const BlockedPlan& plan);

}  // namespace qc::sched
