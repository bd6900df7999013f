//===- serve/Oneshot.h - Shared one-shot report/profile building ----------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// The two pieces of align_tool's one-shot behavior that balign-serve
/// must reproduce byte-for-byte: synthetic profile generation and the
/// pipeline report. They live here — linked by the CLI *and* the server
/// — so the byte-identity contract is structural, not two copies kept
/// in sync by tests alone.
///
//===--------------------------------------------------------------------===//

#ifndef BALIGN_SERVE_ONESHOT_H
#define BALIGN_SERVE_ONESHOT_H

#include "align/Pipeline.h"
#include "profile/Profile.h"

#include <cstdint>
#include <string>

namespace balign {

/// Simulates the seeded synthetic run align_tool performs when no
/// --profile file is given: per procedure P, a skewed branch behavior
/// seeded Seed*7919+P drives a trace seeded Seed*1000003+P with \p
/// Budget branches. The seed arithmetic is contract — changing it
/// changes every committed expectation downstream.
ProgramProfile synthesizeProfile(const Program &Prog, uint64_t Seed,
                                 uint64_t Budget);

/// Renders the report exactly as align_tool prints it: per-procedure
/// "proc NAME layout: ..." lines (plus dot output under \p EmitDot),
/// then a blank line and the penalty TextTable (with the hk-bound column
/// under \p ComputeBounds). The returned string is the tool's entire
/// stdout for a run over a named file. \p PrimaryName labels the
/// primary-aligner column (primaryAlignerName of the run's primary).
std::string renderAlignmentReport(const Program &Prog,
                                  const ProgramProfile &Counts,
                                  const ProgramAlignment &Result,
                                  bool ComputeBounds, bool EmitDot,
                                  const char *PrimaryName = "tsp");

} // namespace balign

#endif // BALIGN_SERVE_ONESHOT_H
