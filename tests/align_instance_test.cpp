//===- tests/align_instance_test.cpp - One DTSP instance per procedure ----===//
//
// The pipeline builds each profiled procedure's DTSP instance and its
// symmetric transform once, and the solve, Held-Karp and the AP bound all
// read them. These tests pin that sharing from three sides: the
// tsp.transform fault site sees one probe per procedure that needs a
// transform, the bounds and layouts are bit-identical to the
// build-it-twice pipeline that preceded the sharing, and the bound-work
// counters are thread-count-stable.
//
//===--------------------------------------------------------------------===//

#include "align/Pipeline.h"
#include "ir/CFGBuilder.h"
#include "profile/Trace.h"
#include "robust/FaultInjector.h"
#include "support/Random.h"
#include "trace/Scope.h"
#include "workloads/Generator.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>

using namespace balign;

namespace {

using ScopedFault = FaultInjector::ScopedFault;

/// Generated procedures of growing size plus one self-looping two-block
/// procedure, whose instance has 3 cities: Held-Karp transforms it, the
/// solver enumerates it.
Program corpus() {
  Program Prog("instances");
  for (unsigned Sites = 2; Sites != 10; ++Sites) {
    Rng R(7 * Sites + 3);
    GenParams Params;
    Params.TargetBranchSites = Sites;
    Prog.addProcedure(
        generateProcedure("p" + std::to_string(Sites), Params, R).Proc);
  }
  CFGBuilder B("spin");
  BlockId Head = B.cond(4, "head");
  BlockId Done = B.ret(2, "done");
  B.branches(Head, Head, Done);
  Prog.addProcedure(B.take());
  return Prog;
}

ProgramProfile profileAll(const Program &Prog, uint64_t Seed) {
  ProgramProfile Train;
  for (size_t P = 0; P != Prog.numProcedures(); ++P) {
    Rng TraceRng(Seed + P);
    TraceGenOptions Options;
    Options.BranchBudget = 400;
    Train.Procs.push_back(collectProfile(
        Prog.proc(P), generateTrace(Prog.proc(P),
                                    BranchBehavior::uniform(Prog.proc(P)),
                                    TraceRng, Options)));
  }
  return Train;
}

/// Profiled procedures whose instance has at least \p MinCities cities.
uint64_t procsWithAtLeast(const Program &Prog, const ProgramProfile &Train,
                          size_t MinCities) {
  uint64_t Count = 0;
  for (size_t P = 0; P != Prog.numProcedures(); ++P)
    if (Train.Procs[P].executedBranches(Prog.proc(P)) != 0 &&
        Prog.proc(P).numBlocks() + 1 >= MinCities)
      ++Count;
  return Count;
}

/// tsp.transform probes made by one alignProgram run. The site is armed
/// to fire only on a hit no run reaches, so it counts without failing.
uint64_t transformHits(const Program &Prog, const ProgramProfile &Train,
                       const AlignmentOptions &Options) {
  ScopedFault Counting(FaultSite::TspTransform,
                       FaultSpec::nth(std::numeric_limits<uint64_t>::max()));
  ProgramAlignment Result = alignProgram(Prog, Train, Options);
  EXPECT_TRUE(Result.Failures.empty());
  return FaultInjector::instance().hits(FaultSite::TspTransform);
}

struct Digest {
  uint64_t H = 0xcbf29ce484222325ull;
  void add(uint64_t V) {
    for (unsigned Byte = 0; Byte != 8; ++Byte) {
      H ^= (V >> (8 * Byte)) & 0xff;
      H *= 0x100000001b3ull;
    }
  }
};

/// Digest of every procedure's bounds (Held-Karp by bit pattern) and
/// primary layout.
uint64_t resultDigest(const ProgramAlignment &Result) {
  Digest D;
  for (const ProcedureAlignment &P : Result.Procs) {
    uint64_t HkBits;
    std::memcpy(&HkBits, &P.Bounds.HeldKarp, sizeof(HkBits));
    D.add(HkBits);
    D.add(static_cast<uint64_t>(P.Bounds.Assignment));
    D.add(P.Bounds.AssignmentCycles);
    D.add(P.TspLayout.Order.size());
    for (BlockId B : P.TspLayout.Order)
      D.add(B);
  }
  return D.H;
}

} // namespace

TEST(OneInstanceTest, TransformIsBuiltOncePerProcedureThatNeedsOne) {
  FaultInjector::instance().reset();
  Program Prog = corpus();
  ProgramProfile Train = profileAll(Prog, 41);
  // Held-Karp transforms instances of 3 or more cities, the solver
  // instances of 4 or more; the corpus has both kinds.
  uint64_t BoundNeeds = procsWithAtLeast(Prog, Train, 3);
  uint64_t SolveNeeds = procsWithAtLeast(Prog, Train, 4);
  ASSERT_GT(BoundNeeds, SolveNeeds);
  ASSERT_GT(SolveNeeds, 0u);

  AlignmentOptions Options;
  Options.ComputeBounds = true;
  EXPECT_EQ(transformHits(Prog, Train, Options), BoundNeeds)
      << "the solve and Held-Karp must share one transform";
  Options.ComputeBounds = false;
  EXPECT_EQ(transformHits(Prog, Train, Options), SolveNeeds);

  // The other primaries transform only for the bounds.
  Options.Primary = PrimaryAligner::ExtTsp;
  EXPECT_EQ(transformHits(Prog, Train, Options), 0u);
  Options.ComputeBounds = true;
  EXPECT_EQ(transformHits(Prog, Train, Options), BoundNeeds);
}

TEST(OneInstanceTest, BoundsAndLayoutsMatchReference) {
  // Captured from the pipeline that built the instance and the
  // transform separately for the solve and for each bound.
  // A 24-byte short range leaves long branches on this corpus, and the
  // encoding refit's surcharged re-solve wins on some procedures.
  struct Config {
    PrimaryAligner Primary;
    BranchEncoding Encoding;
    uint64_t Expected;
  };
  const Config Configs[] = {
      {PrimaryAligner::Tsp, BranchEncoding::Fixed, 0xe6766842621c2cb5ull},
      {PrimaryAligner::Tsp, BranchEncoding::ShortLong, 0xf63d7471c0931fd5ull},
      {PrimaryAligner::ExtTsp, BranchEncoding::Fixed, 0x18afb5d110cba737ull},
  };
  Program Prog = corpus();
  ProgramProfile Train = profileAll(Prog, 43);
  for (const Config &C : Configs) {
    for (unsigned Threads : {1u, 8u}) {
      AlignmentOptions Options;
      Options.ComputeBounds = true;
      Options.Primary = C.Primary;
      Options.Model.Encoding = C.Encoding;
      Options.Model.ShortBranchRange = 24;
      Options.Threads = Threads;
      ProgramAlignment Result = alignProgram(Prog, Train, Options);
      EXPECT_EQ(resultDigest(Result), C.Expected)
          << primaryAlignerName(C.Primary) << " "
          << BranchEncodingNames.name(C.Encoding) << " at " << Threads
          << " threads: got 0x" << std::hex << resultDigest(Result);
    }
  }
}

TEST(OneInstanceTest, BoundWorkCountersAreThreadCountStable) {
  Program Prog = corpus();
  ProgramProfile Train = profileAll(Prog, 47);
  auto counters = [&](unsigned Threads, bool Bounds) {
    TraceSession Session;
    Session.install();
    AlignmentOptions Options;
    Options.ComputeBounds = Bounds;
    Options.Threads = Threads;
    alignProgram(Prog, Train, Options);
    Session.uninstall();
    const MetricRegistry &M = Session.metrics();
    return std::make_pair(M.counter("bounds.hk.iterations"),
                          M.counter("bounds.ap.steps"));
  };
  auto One = counters(1, true);
  EXPECT_GT(One.first, 0u);
  // Each row of the assignment settles at least one column.
  uint64_t Cities = 0;
  for (size_t P = 0; P != Prog.numProcedures(); ++P)
    Cities += Prog.proc(P).numBlocks() + 1;
  EXPECT_GE(One.second, Cities);
  EXPECT_EQ(counters(2, true), One);
  EXPECT_EQ(counters(8, true), One);
  // Without bounds no bound work is done.
  EXPECT_EQ(counters(1, false), std::make_pair(uint64_t(0), uint64_t(0)));
}
