// Standalone plan verifier — sched::verify_plan from the command line.
//
// Builds a workload circuit, runs it through the cache-blocked and/or
// distributed scheduler, and verifies every invariant the debug builds
// check automatically (coverage, bijective remaps, chunk budgets, byte
// conservation — see src/sched/verify_plan.hpp). Works in ANY build
// type: verification is unconditional here, so a Release tree can still
// audit the plans it would execute.
//
// --corrupt deliberately breaks the plan after scheduling and expects
// verification to FAIL — the same negative paths test_verify_plan.cpp
// pins down, exposed for manual poking:
//
//   verify_plan --circuit qft --qubits 20
//   verify_plan --mode dist --qubits 16 --local-qubits 12
//   verify_plan --corrupt drop-op          # must report CAUGHT
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>

#include "circuit/builders.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "fuse/fusion.hpp"
#include "sched/dist_schedule.hpp"
#include "sched/verify_plan.hpp"

namespace {

struct Args {
  std::string circuit = "random";
  std::string mode = "both";
  std::string corrupt = "none";
  qc::qubit_t qubits = 12;
  std::size_t gates = 200;
  qc::qubit_t chunk_width = 0;    // 0 = auto
  qc::qubit_t local_qubits = 0;   // 0 = qubits - 3
  std::uint64_t seed = 1;
};

[[noreturn]] void usage(int code) {
  std::fprintf(code == 0 ? stdout : stderr,
               "usage: verify_plan [options]\n"
               "  --circuit qft|random|entangle   workload (default random)\n"
               "  --mode blocked|dist|both        which scheduler(s) to verify\n"
               "  --qubits N                      register size (default 12)\n"
               "  --gates G                       random-circuit length (default 200)\n"
               "  --chunk-width L                 blocked chunk width, 0 = auto\n"
               "  --local-qubits NL               dist local qubits, 0 = N - 3\n"
               "  --seed S                        random-circuit seed\n"
               "  --corrupt none|drop-op|dup-swap|width|perm\n"
               "                                  break the plan; verification must catch it\n");
  std::exit(code);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") usage(0);
    if (i + 1 >= argc) usage(2);
    const std::string val = argv[++i];
    if (flag == "--circuit") a.circuit = val;
    else if (flag == "--mode") a.mode = val;
    else if (flag == "--corrupt") a.corrupt = val;
    else if (flag == "--qubits") a.qubits = static_cast<qc::qubit_t>(std::stoul(val));
    else if (flag == "--gates") a.gates = std::stoul(val);
    else if (flag == "--chunk-width") a.chunk_width = static_cast<qc::qubit_t>(std::stoul(val));
    else if (flag == "--local-qubits") a.local_qubits = static_cast<qc::qubit_t>(std::stoul(val));
    else if (flag == "--seed") a.seed = std::stoull(val);
    else usage(2);
  }
  return a;
}

qc::circuit::Circuit build_circuit(const Args& a) {
  if (a.circuit == "qft") return qc::circuit::qft(a.qubits);
  if (a.circuit == "entangle") return qc::circuit::entangle(a.qubits);
  if (a.circuit == "random") {
    qc::Rng rng(a.seed);
    return qc::circuit::random_circuit(a.qubits, a.gates, rng);
  }
  usage(2);
}

void corrupt_blocked(qc::sched::BlockedPlan& plan, const std::string& kind) {
  using qc::sched::PlanItem;
  if (kind == "drop-op") {
    // Delete one scheduled op: coverage must notice the gap.
    for (auto& item : plan.items) {
      if (item.kind == PlanItem::Kind::Sweep && !item.ops.empty()) {
        item.ops.pop_back();
        return;
      }
    }
    std::fprintf(stderr, "verify_plan: no sweep op to drop\n");
    std::exit(2);
  }
  if (kind == "dup-swap") {
    // Repeat a position inside a remap: no longer a bijection.
    for (auto& item : plan.items) {
      if (item.kind == PlanItem::Kind::Remap && !item.swaps.empty()) {
        item.swaps.push_back({item.swaps.front()[0], static_cast<qc::qubit_t>(plan.n - 1)});
        return;
      }
    }
    std::fprintf(stderr, "verify_plan: plan has no remap to corrupt (try --chunk-width 4)\n");
    std::exit(2);
  }
  if (kind == "width") {
    plan.chunk_width = static_cast<qc::qubit_t>(plan.n + 1);
    return;
  }
  if (kind == "perm") {
    // Append an un-restored exchange: the plan no longer ends in
    // logical qubit order.
    PlanItem item;
    item.kind = PlanItem::Kind::Remap;
    item.swaps = {{qc::qubit_t{0}, static_cast<qc::qubit_t>(plan.n - 1)}};
    plan.items.push_back(std::move(item));
    return;
  }
  usage(2);
}

/// Runs one verification, reporting PASS/FAIL (or CAUGHT when a
/// corruption was requested and detected). Returns the process exit
/// contribution: 0 on the expected outcome, 1 otherwise.
int report(const char* label, bool corrupted, const std::function<void()>& verify) {
  try {
    verify();
  } catch (const qc::sched::PlanError& e) {
    if (corrupted) {
      std::printf("%-8s CAUGHT  %s\n", label, e.what());
      return 0;
    }
    std::printf("%-8s FAIL    %s\n", label, e.what());
    return 1;
  }
  if (corrupted) {
    std::printf("%-8s FAIL    corruption was not detected\n", label);
    return 1;
  }
  std::printf("%-8s PASS\n", label);
  return 0;
}

}  // namespace

static int cli_main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  const qc::circuit::Circuit c = build_circuit(a);
  const bool corrupted = a.corrupt != "none";
  int rc = 0;

  if (a.mode == "blocked" || a.mode == "both") {
    qc::sched::ScheduleOptions opts;
    opts.chunk_width = a.chunk_width;
    auto plan = qc::sched::schedule(qc::fuse::fuse_circuit(c, {}), opts);
    std::printf("%s\n", plan.to_string().c_str());
    if (corrupted) corrupt_blocked(plan, a.corrupt);
    rc |= report("blocked", corrupted,
                 [&] { qc::sched::verify_plan(plan, opts.cache_bytes); });
  }

  if (a.mode == "dist" || a.mode == "both") {
    const qc::qubit_t nl =
        a.local_qubits != 0 ? a.local_qubits
                            : static_cast<qc::qubit_t>(a.qubits > 3 ? a.qubits - 3 : 1);
    auto plan = qc::sched::dist_schedule(c, nl, {});
    std::printf("%s\n", plan.to_string().c_str());
    if (corrupted && a.corrupt == "perm" && !plan.items.empty()) {
      // Same corruption at cluster level: an extra, never-undone exchange.
      qc::sched::DistPlanItem item;
      item.kind = qc::sched::DistPlanItem::Kind::Exchange;
      item.swaps = {{qc::qubit_t{0}, static_cast<qc::qubit_t>(plan.n - 1)}};
      plan.items.push_back(std::move(item));
      rc |= report("dist", true, [&] { qc::sched::verify_plan(plan); });
    } else if (corrupted) {
      // Corrupt the first local segment through the blocked corruptors.
      bool done = false;
      for (auto& item : plan.items) {
        if (item.kind == qc::sched::DistPlanItem::Kind::Local) {
          corrupt_blocked(item.local, a.corrupt);
          done = true;
          break;
        }
      }
      if (!done) {
        std::fprintf(stderr, "verify_plan: dist plan has no local segment to corrupt\n");
        return 2;
      }
      rc |= report("dist", true, [&] { qc::sched::verify_plan(plan); });
    } else {
      rc |= report("dist", false, [&] { qc::sched::verify_plan(plan); });
    }
  }

  return rc;
}

int main(int argc, char** argv) { return qc::run_main(argc, argv, cli_main); }
