//===- profile/Trace.h - Execution traces and their generation ------------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// Execution traces and the Markov-chain trace generator that substitutes
/// for running instrumented SPEC92 binaries (see DESIGN.md, Section 2).
///
/// A "data set" in the paper is a concrete program input; fixing the input
/// fixes the execution trace (paper Section 2). Here a data set is a
/// BranchBehavior — per-branch successor probabilities plus a branch
/// budget — and fixing (behavior, seed) fixes the trace the same way.
/// Distinct data sets for the same benchmark share the CFG but have
/// different biases, which is what makes the Figure 3 cross-validation
/// meaningful.
///
//===--------------------------------------------------------------------===//

#ifndef BALIGN_PROFILE_TRACE_H
#define BALIGN_PROFILE_TRACE_H

#include "ir/CFG.h"
#include "profile/Profile.h"
#include "support/Random.h"

#include <cstdint>
#include <vector>

namespace balign {

/// A procedure-level execution trace: the concatenated block sequences of
/// every invocation of the procedure. An invocation starts at the entry
/// block and ends at a Return block, so invocation boundaries are
/// recoverable from the trace itself.
struct ExecutionTrace {
  std::vector<BlockId> Blocks;
  uint64_t Invocations = 0;

  bool empty() const { return Blocks.empty(); }
  size_t size() const { return Blocks.size(); }
};

/// Per-procedure branch behavior: for every block, a probability
/// distribution over its successor edges (parallel to the successor
/// lists; each row sums to 1 for blocks with successors).
struct BranchBehavior {
  std::vector<std::vector<double>> Probs;

  /// Uniform behavior for \p Proc (every successor equally likely).
  static BranchBehavior uniform(const Procedure &Proc);

  /// Validates shape and row sums (within tolerance).
  bool isValid(const Procedure &Proc) const;
};

/// Options for trace generation.
struct TraceGenOptions {
  /// Stop once at least this many conditional/multiway branch
  /// instructions have executed (compared at invocation granularity, so
  /// the result may slightly overshoot).
  uint64_t BranchBudget = 10000;

  /// Hard cap on blocks per invocation; guards against behaviors whose
  /// loops almost never exit. An invocation hitting the cap is abandoned
  /// mid-walk (its blocks so far stay in the trace) and ends the trace:
  /// the next walk would likely be trapped the same way, and a loop of
  /// unconditional jumps spends none of BranchBudget, so walking on
  /// would grow the trace without bound.
  uint64_t MaxBlocksPerInvocation = 1u << 20;
};

/// Generates a trace of \p Proc by repeated random walks from the entry,
/// choosing successors according to \p Behavior.
ExecutionTrace generateTrace(const Procedure &Proc,
                             const BranchBehavior &Behavior, Rng &Rng,
                             const TraceGenOptions &Options);

/// Derives edge/block counts from a trace. Every adjacent pair in the
/// trace within one invocation contributes one edge count.
ProcedureProfile collectProfile(const Procedure &Proc,
                                const ExecutionTrace &Trace);

/// Builds a profile directly from expected edge frequencies without
/// materializing a trace: BlockCounts/EdgeCounts are the expected counts
/// of a random walk, computed by flow propagation from the entry with
/// \p Invocations entries. Useful for tests that need an exactly
/// flow-consistent profile.
ProcedureProfile expectedProfile(const Procedure &Proc,
                                 const BranchBehavior &Behavior,
                                 uint64_t Invocations, double LoopTolerance);

} // namespace balign

#endif // BALIGN_PROFILE_TRACE_H
