//===- perfbench/harness/Inputs.cpp ---------------------------------------===//

#include "Inputs.h"

#include "workloads/Workloads.h"

#include <algorithm>
#include <stdexcept>
#include <thread>

using namespace balign;
using namespace perfbench;

bool perfbench::parseWorkload(const std::string &Name, Workload &Out) {
  if (Name == "paper-bounds")
    Out = Workload::PaperBounds;
  else if (Name == "fast-build")
    Out = Workload::FastBuild;
  else if (Name == "serve-mixed")
    Out = Workload::ServeMixed;
  else
    return false;
  return true;
}

unsigned perfbench::benchThreads() {
  unsigned N = std::thread::hardware_concurrency();
  return std::clamp(N, 1u, 4u);
}

MachineModel perfbench::workloadModel(Workload W) {
  MachineModel Model = MachineModel::alpha21164();
  if (W == Workload::FastBuild) {
    Model.Encoding = BranchEncoding::ShortLong;
    Model.ShortBranchRange = FastBuildShortRange;
  }
  return Model;
}

unsigned perfbench::workloadThreads(Workload W) {
  return W == Workload::PaperBounds ? 1 : benchThreads();
}

std::vector<std::string> perfbench::batchFlags(Workload W) {
  std::vector<std::string> Flags = {"--threads",
                                    std::to_string(workloadThreads(W))};
  if (W == Workload::PaperBounds) {
    Flags.push_back("--bounds");
  } else {
    Flags.insert(Flags.end(), {"--encoding", "short-long", "--short-range",
                               std::to_string(FastBuildShortRange)});
  }
  return Flags;
}

namespace {

/// One row of a workload's recipe: Programs programs of ProcsPerProgram
/// procedures each, drawn from Personality, every procedure's block
/// count inside [MinBlocks, MaxBlocks].
struct Draw {
  const char *Personality;
  unsigned Programs;
  unsigned ProcsPerProgram;
  unsigned MinBlocks;
  unsigned MaxBlocks;
  /// Mean branch sites per generated procedure; chosen so that most
  /// draws land inside the block window.
  unsigned SitesPerProc;
  /// Instances every program draws even when fewer would fill it, so
  /// that generation (set-up) time hardly depends on the seed. Chosen
  /// above the usual need; more are drawn when a seed needs them.
  unsigned MinAttempts;
};

// paper-bounds: the paper's pipeline. Many small esp-like procedures
// (bounds cost about as much as the solve) and a few eqn/xli-like ones of
// about 100 blocks (bounds cost about ten solves).
const Draw PaperBoundsRecipe[] = {
    {"esp", 2, 20, 22, 28, 8, 4},
    {"eqn", 1, 1, 98, 102, 38, 10},
    {"xli", 1, 1, 98, 102, 24, 10},
};

// fast-build: every personality, mid-size procedures, solved at four
// threads under the short/long encoding.
const Draw FastBuildRecipe[] = {
    {"com", 2, 12, 40, 56, 14, 3}, {"dod", 2, 12, 40, 56, 14, 3},
    {"eqn", 2, 12, 40, 56, 16, 3}, {"esp", 2, 12, 40, 56, 14, 3},
    {"su2", 2, 12, 40, 56, 16, 3}, {"xli", 2, 12, 40, 56, 10, 3},
};

// serve-mixed: small programs, like the translation units a build farm
// sends one at a time.
const Draw ServeCorpusRecipe[] = {
    {"com", 6, 4, 24, 34, 9, 2}, {"dod", 6, 4, 24, 34, 9, 2},
    {"eqn", 6, 4, 24, 34, 9, 2}, {"esp", 6, 4, 24, 34, 9, 2},
    {"su2", 6, 4, 24, 34, 9, 2}, {"xli", 6, 4, 24, 34, 7, 2},
};

// serve-mixed misses: uniform program sizes so the miss path's latency
// depends little on which program a request carries.
const Draw ServeMissRecipe[] = {
    {"esp", 16, 4, 28, 34, 9, 3}, {"eqn", 16, 4, 28, 34, 9, 3},
};

uint64_t mix(uint64_t A, uint64_t B, uint64_t C, uint64_t D) {
  uint64_t State = A ^ (B * 0x9e3779b97f4a7c15ULL) ^
                   (C * 0xbf58476d1ce4e5b9ULL) ^ (D * 0x94d049bb133111ebULL);
  return splitMix64(State);
}

const WorkloadSpec &personality(const std::string &Name) {
  for (const WorkloadSpec &Spec : benchmarkSuite())
    if (Spec.Benchmark == Name)
      return Spec;
  throw std::logic_error("unknown personality " + Name);
}

/// Draws one program for \p D. Generated instances are re-seeded until
/// enough procedures fall inside the block window; every kept procedure
/// is profiled by the training data set, so the pipeline solves it.
BenchProgram drawProgram(const Draw &D, uint64_t Seed, uint64_t Salt,
                         unsigned Index, const std::string &Stem) {
  const WorkloadSpec &Base = personality(D.Personality);
  BenchProgram Out;
  Out.Stem = Stem;
  Out.Personality = D.Personality;
  Out.Prog = Program(Stem);
  for (uint64_t Attempt = 0; Attempt < D.MinAttempts ||
                             Out.Prog.numProcedures() < D.ProcsPerProgram;
       ++Attempt) {
    if (Attempt == 64 + D.MinAttempts)
      throw std::runtime_error("cannot draw " + Stem + " inside its window");
    WorkloadSpec Spec = Base;
    Spec.StructureSeed = mix(Seed, Salt, Index, 3 * Attempt);
    Spec.NumProcs = std::max(2 * D.ProcsPerProgram, 12u);
    Spec.TotalBranchSites = Spec.NumProcs * D.SitesPerProc;
    // Even hotness: every kept procedure weighs about the same in the
    // penalty sums, so the quality ratios average over all of them
    // instead of following the few hottest procedures of a seed.
    Spec.ProcSkew = 0.0;
    for (size_t S = 0; S != Spec.DataSets.size(); ++S) {
      DataSetSpec &Ds = Spec.DataSets[S];
      Ds.Seed = mix(Seed, Salt, Index, 3 * Attempt + 1 + S);
      // Table 1's budgets are sized for the whole benchmark; give every
      // procedure enough branches to be profiled in both data sets.
      Ds.BranchBudget = std::max<uint64_t>(Ds.BranchBudget,
                                           uint64_t(1500) * Spec.NumProcs);
    }
    WorkloadInstance Inst = buildWorkload(Spec);
    const WorkloadDataSet &Train = Inst.DataSets[0];
    const WorkloadDataSet &Test = Inst.DataSets[1];
    for (size_t P = 0; P != Inst.Prog.numProcedures() &&
                       Out.Prog.numProcedures() < D.ProcsPerProgram;
         ++P) {
      Procedure Proc = Inst.Prog.proc(P);
      if (Proc.numBlocks() < D.MinBlocks || Proc.numBlocks() > D.MaxBlocks ||
          Train.Profile.Procs[P].executedBranches(Proc) == 0)
        continue;
      Proc.setName(Stem + "_f" + std::to_string(Out.Prog.numProcedures()));
      Out.Prog.addProcedure(std::move(Proc));
      Out.Train.Procs.push_back(Train.Profile.Procs[P]);
      Out.TrainTraces.push_back(Train.Traces[P]);
      Out.TestTraces.push_back(Test.Traces[P]);
    }
  }
  return Out;
}

template <size_t N>
std::vector<BenchProgram> drawRecipe(const Draw (&Recipe)[N], uint64_t Seed,
                                     uint64_t Salt, const char *Prefix) {
  std::vector<BenchProgram> Programs;
  for (size_t R = 0; R != N; ++R)
    for (unsigned I = 0; I != Recipe[R].Programs; ++I) {
      char Stem[64];
      std::snprintf(Stem, sizeof(Stem), "%s%03zu_%s", Prefix,
                    Programs.size(), Recipe[R].Personality);
      Programs.push_back(
          drawProgram(Recipe[R], Seed, Salt * 16 + R, I, Stem));
    }
  return Programs;
}

} // namespace

std::vector<BenchProgram> perfbench::makePrograms(Workload W, uint64_t Seed) {
  switch (W) {
  case Workload::PaperBounds:
    return drawRecipe(PaperBoundsRecipe, Seed, 1, "p");
  case Workload::FastBuild:
    return drawRecipe(FastBuildRecipe, Seed, 2, "f");
  case Workload::ServeMixed:
    return drawRecipe(ServeCorpusRecipe, Seed, 3, "s");
  }
  return {};
}

std::vector<BenchProgram> perfbench::makeMissPrograms(uint64_t Seed) {
  return drawRecipe(ServeMissRecipe, Seed, 4, "m");
}
