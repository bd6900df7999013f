//===- perfbench/harness/Inputs.h - Seeded benchmark inputs ---------------===//
//
// Part of the balign benchmark.
//
//===--------------------------------------------------------------------===//
///
/// \file
/// Turns a workload name and a seed into the programs the benchmark
/// feeds to balign. Every program is a seeded draw from one of the six
/// suite personalities (workloads/Workloads.h): the benchmark copies the
/// personality's WorkloadSpec, re-seeds its structure and data-set seeds
/// from the workload seed, builds it, and keeps only procedures inside
/// the workload's block-count window. Keeping procedure sizes in a narrow
/// window is what makes a run's cost depend little on the seed.
///
/// Data set 0 of each draw trains (its profile is what the program
/// receives); data set 1 is the held-out test input the simulator
/// replays (the paper's Fig. 3 cross-validation).
///
//===--------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_INPUTS_H
#define PERFBENCH_HARNESS_INPUTS_H

#include "ir/CFG.h"
#include "machine/MachineModel.h"
#include "profile/Profile.h"
#include "profile/Trace.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class Workload : uint8_t { PaperBounds, FastBuild, ServeMixed };

/// Parses "paper-bounds" / "fast-build" / "serve-mixed".
bool parseWorkload(const std::string &Name, Workload &Out);

/// One generated program with both data sets' traces.
struct BenchProgram {
  std::string Stem;        ///< File stem, e.g. "p03_esp".
  std::string Personality; ///< Suite benchmark it was drawn from.
  balign::Program Prog;
  balign::ProgramProfile Train; ///< Collected from TrainTraces.
  std::vector<balign::ExecutionTrace> TrainTraces;
  std::vector<balign::ExecutionTrace> TestTraces;
};

/// The threads a batch child or the server gets: min(nproc, 4).
unsigned benchThreads();

/// Short-branch reach (bytes) of the fast-build workload's short/long
/// encoding: small enough that a measurable share of branches go long.
inline constexpr uint64_t FastBuildShortRange = 192;

/// The machine model a workload aligns under (the CLI's defaults plus
/// the workload's --encoding/--short-range flags).
balign::MachineModel workloadModel(Workload W);

/// The --threads of a batch workload's align_tool invocation.
unsigned workloadThreads(Workload W);

/// The align_tool flags (after --batch LIST) of a batch workload.
std::vector<std::string> batchFlags(Workload W);

/// The batch programs (paper-bounds, fast-build) or the pre-warmed serve
/// corpus (serve-mixed). Deterministic in (\p W, \p Seed).
std::vector<BenchProgram> makePrograms(Workload W, uint64_t Seed);

/// serve-mixed only: programs the pre-warm never sends, the source of
/// the run's cache misses. Deterministic in \p Seed.
std::vector<BenchProgram> makeMissPrograms(uint64_t Seed);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_INPUTS_H
