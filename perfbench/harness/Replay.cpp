//===- perfbench/harness/Replay.cpp - Traced in-process replay ------------===//
//
// Part of the balign benchmark.
//
// The traced run: replays a workload in this process by composing the
// layers in the pipeline's order through their public functions, with a
// span around every call (name, start, end, parent, request/procedure id).
// Spans stay in memory and are written to <dir>/spans.json at the end.
// Inputs, options and derived solver seeds are the untraced run's, and the
// replay fails loudly when its reports differ from that run's output by a
// single byte, so any drift between this composition and alignProgram or
// AlignService shows at once.
//
// Probe spans (objective.materialize, objective.displace,
// tsp.assignment.probe for runs without --bounds, sim.replay, serve.handle)
// measure work the pipeline does not do itself; they run outside the
// per-procedure spans and are kept out of the pipeline's busy time.
//
//===--------------------------------------------------------------------===//

#include "Bench.h"

#include "align/Aligners.h"
#include "align/Pipeline.h"
#include "align/Reduction.h"
#include "cache/Store.h"
#include "ir/TextFormat.h"
#include "objective/Displace.h"
#include "objective/Penalty.h"
#include "profile/ProfileIO.h"
#include "serve/Oneshot.h"
#include "serve/Service.h"
#include "sim/Simulator.h"
#include "static/EffortPolicy.h"
#include "tsp/Assignment.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <thread>

using namespace balign;
using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

/// One worker's spans, in start order.
class SpanLog {
public:
  static constexpr uint64_t InheritId = ~uint64_t(0);

  struct Span {
    const char *Name;
    Clock::time_point Start, End;
    int32_t Parent; ///< Index into this log, or -1.
    uint64_t Id;    ///< Request or procedure id.
  };

  /// Opens a span under the innermost open one; \p Id defaults to its
  /// parent's.
  int32_t begin(const char *Name, uint64_t Id) {
    int32_t Parent = Stack.empty() ? -1 : Stack.back();
    if (Id == InheritId)
      Id = Parent < 0 ? 0 : Spans[Parent].Id;
    Spans.push_back({Name, Clock::now(), {}, Parent, Id});
    Stack.push_back(static_cast<int32_t>(Spans.size() - 1));
    return Stack.back();
  }
  void end(int32_t Index) {
    Spans[Index].End = Clock::now();
    Stack.pop_back();
  }
  const std::vector<Span> &spans() const { return Spans; }

private:
  std::vector<Span> Spans;
  std::vector<int32_t> Stack;
};

/// RAII span.
class Guard {
public:
  Guard(SpanLog &Log, const char *Name, uint64_t Id = SpanLog::InheritId)
      : Log(Log), Index(Log.begin(Name, Id)) {}
  ~Guard() { Log.end(Index); }
  Guard(const Guard &) = delete;
  Guard &operator=(const Guard &) = delete;

private:
  SpanLog &Log;
  int32_t Index;
};

double seconds(Clock::duration D) {
  return std::chrono::duration<double>(D).count();
}

/// What one procedure's traced alignment produced beyond the
/// ProcedureAlignment the report renders.
struct ProcOutcome {
  ProcedureAlignment PA;
  bool Solved = false;  ///< A DTSP solve ran (not a hit, not exttsp).
  int64_t TourCost = 0; ///< The solver's directed tour cost.
  unsigned Cities = 0;
  double SolveS = 0.0;
  AlignmentTsp Atsp;    ///< Kept for the assignment-bound probe.
  bool HaveAp = false;
  int64_t ApCost = 0;
};

/// The per-procedure pipeline (align/Pipeline.cpp alignOneProcedure and
/// alignFullPath without fault isolation), one public call per span.
ProcOutcome alignProcedure(const Procedure &Proc,
                           const ProcedureProfile &Profile,
                           const AlignmentOptions &Options, size_t I,
                           uint64_t Id, SpanLog &Log) {
  Guard Root(Log, "pipeline.procedure", Id);
  ProcOutcome Out;
  ProcedureAlignment &PA = Out.PA;
  PA.OriginalLayout = Layout::original(Proc);
  {
    Guard G(Log, "objective.evaluate");
    PA.OriginalPenalty = evaluateLayout(Proc, PA.OriginalLayout,
                                        Options.Model, Profile, Profile);
  }
  if (Profile.executedBranches(Proc) == 0) {
    PA.GreedyLayout = PA.OriginalLayout;
    PA.TspLayout = PA.OriginalLayout;
    return Out;
  }
  ProcedureResultCache *Cache = Options.CacheImpl;
  if (Cache) {
    Guard G(Log, "cache.lookup");
    if (Cache->lookup(Proc, Profile, Options, I, PA))
      return Out;
  }
  {
    Guard G(Log, "align.greedy");
    PA.GreedyLayout = GreedyAligner().align(Proc, Profile, Options.Model);
  }
  {
    Guard G(Log, "objective.evaluate");
    PA.GreedyPenalty = evaluateLayout(Proc, PA.GreedyLayout, Options.Model,
                                      Profile, Profile);
  }
  EffortDecision Effort =
      decideEffort(Proc, Profile, Options.Solver, Options.Effort);
  if (Effort.GreedyOnly)
    throw std::logic_error("the benchmark aligns with the uniform policy");

  auto bounds = [&] {
    Guard B(Log, "align.bounds");
    AlignmentTsp BoundsAtsp;
    {
      Guard G(Log, "align.matrix.bounds");
      BoundsAtsp = buildAlignmentTsp(Proc, Profile, Options.Model);
    }
    double Hk;
    {
      Guard G(Log, "tsp.heldkarp");
      Hk = heldKarpBoundDirected(BoundsAtsp.Tsp,
                                 static_cast<int64_t>(PA.TspPenalty),
                                 Options.HeldKarp);
    }
    PA.Bounds.HeldKarp =
        std::clamp(Hk, 0.0, static_cast<double>(PA.TspPenalty));
    AssignmentResult Ap;
    {
      Guard G(Log, "tsp.assignment");
      Ap = assignmentBound(BoundsAtsp.Tsp);
    }
    PA.Bounds.Assignment = std::clamp<int64_t>(
        Ap.Cost, 0, static_cast<int64_t>(PA.TspPenalty));
    PA.Bounds.AssignmentCycles = Ap.NumCycles;
    Out.HaveAp = true;
    Out.ApCost = Ap.Cost;
  };
  auto store = [&] {
    if (Cache) {
      Guard G(Log, "cache.store");
      Cache->store(Proc, Profile, Options, I, PA);
    }
  };

  if (Options.Primary == PrimaryAligner::ExtTsp) {
    {
      Guard G(Log, "align.exttsp");
      PA.TspLayout =
          ExtTspAligner(Options.Objective).align(Proc, Profile, Options.Model);
    }
    {
      Guard G(Log, "objective.evaluate");
      PA.TspPenalty = evaluateLayout(Proc, PA.TspLayout, Options.Model,
                                     Profile, Profile);
    }
    if (Options.ComputeBounds)
      bounds();
    store();
    return Out;
  }

  {
    Guard G(Log, "align.matrix");
    Out.Atsp = buildAlignmentTsp(Proc, Profile, Options.Model);
  }
  IteratedOptOptions SolverOptions = Effort.Solver;
  SolverOptions.Seed = derivedSolverSeed(Options.Solver.Seed, I);
  DtspSolution Solution;
  {
    Clock::time_point T0 = Clock::now();
    Guard G(Log, "tsp.solve");
    Solution = solveDirectedTsp(Out.Atsp.Tsp, SolverOptions);
    Out.SolveS = seconds(Clock::now() - T0);
  }
  Out.Solved = true;
  Out.TourCost = Solution.Cost;
  Out.Cities = static_cast<unsigned>(Out.Atsp.Tsp.numCities());
  PA.TspLayout = layoutFromTour(Proc, Out.Atsp, Solution.Tour);
  {
    Guard G(Log, "objective.evaluate");
    PA.TspPenalty =
        evaluateLayout(Proc, PA.TspLayout, Options.Model, Profile, Profile);
  }
  PA.SolverRuns = Solution.NumRuns;
  PA.RunsFindingBest = Solution.RunsFindingBest;
  if (Options.Model.Encoding == BranchEncoding::ShortLong) {
    Guard G(Log, "align.refine");
    refineLayoutForEncoding(Proc, Profile, Options.Model, Out.Atsp,
                            SolverOptions, PA.TspLayout, PA.TspPenalty);
  }
  if (Options.ComputeBounds)
    bounds();
  store();
  return Out;
}

/// Exact counts and property shares gathered next to the spans.
struct Counts {
  uint64_t Procs = 0, Solved = 0, Cities = 0, Runs = 0, RunsBest = 0;
  uint64_t ApTight = 0, ApKnown = 0;
  double SolveS = 0, ApTightSolveS = 0;
  uint64_t LongBranches = 0, BranchSites = 0, DisplaceRounds = 0;

  void add(const Counts &O) {
    Procs += O.Procs;
    Solved += O.Solved;
    Cities += O.Cities;
    Runs += O.Runs;
    RunsBest += O.RunsBest;
    ApTight += O.ApTight;
    ApKnown += O.ApKnown;
    SolveS += O.SolveS;
    ApTightSolveS += O.ApTightSolveS;
    LongBranches += O.LongBranches;
    BranchSites += O.BranchSites;
    DisplaceRounds += O.DisplaceRounds;
  }
};

/// Probes and counts for one finished procedure.
void account(const Procedure &Proc, const ProcedureProfile &Profile,
             const MachineModel &Model, ProcOutcome &O, SpanLog &Log,
             Counts &C) {
  ++C.Procs;
  if (O.Solved) {
    ++C.Solved;
    C.Cities += O.Cities;
    C.Runs += O.PA.SolverRuns;
    C.RunsBest += O.PA.RunsFindingBest;
    C.SolveS += O.SolveS;
    if (!O.HaveAp) {
      Guard G(Log, "tsp.assignment.probe");
      O.ApCost = assignmentBound(O.Atsp.Tsp).Cost;
    }
    ++C.ApKnown;
    if (O.ApCost == O.TourCost) {
      ++C.ApTight;
      C.ApTightSolveS += O.SolveS;
    }
  }
  if (Model.Encoding == BranchEncoding::ShortLong) {
    MaterializedLayout Mat;
    {
      Guard G(Log, "objective.materialize");
      Mat = materializeLayout(Proc, O.PA.TspLayout, Profile, Model);
    }
    C.LongBranches += Mat.NumLongBranches;
    C.BranchSites += collectBranchSites(Proc, Mat).size();
    Guard G(Log, "objective.displace");
    C.DisplaceRounds += solveDisplacement(Proc, Mat, Model).Iterations;
  }
}

/// Self time and call count per span name.
struct LayerTimes {
  std::map<std::string, double> SelfS;
  std::map<std::string, uint64_t> Calls;
  size_t NumSpans = 0;
};

void addLayerTimes(const SpanLog &Log, LayerTimes &T) {
  const auto &Spans = Log.spans();
  std::vector<double> ChildS(Spans.size(), 0.0);
  for (size_t I = 0; I != Spans.size(); ++I)
    if (Spans[I].Parent >= 0)
      ChildS[Spans[I].Parent] += seconds(Spans[I].End - Spans[I].Start);
  for (size_t I = 0; I != Spans.size(); ++I) {
    double Dur = seconds(Spans[I].End - Spans[I].Start);
    T.SelfS[Spans[I].Name] += Dur - ChildS[I];
    ++T.Calls[Spans[I].Name];
  }
  T.NumSpans += Spans.size();
}

/// Writes every span as a Chrome trace event (one "thread" per log).
void writeSpans(const std::string &Path, const std::vector<SpanLog> &Logs,
                Clock::time_point T0) {
  std::string Out = "[";
  bool First = true;
  for (size_t L = 0; L != Logs.size(); ++L)
    for (const SpanLog::Span &S : Logs[L].spans()) {
      char Buf[256];
      std::snprintf(Buf, sizeof(Buf),
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                    "\"dur\":%.3f,\"pid\":1,\"tid\":%zu,"
                    "\"args\":{\"id\":%llu,\"parent\":%d}}",
                    First ? "" : ",\n", S.Name,
                    seconds(S.Start - T0) * 1e6, seconds(S.End - S.Start) * 1e6,
                    L, static_cast<unsigned long long>(S.Id), S.Parent);
      Out += Buf;
      First = false;
    }
  writeFile(Path, Out + "]\n");
}

std::string layersJson(const LayerTimes &T) {
  JsonObject J;
  for (const auto &[Name, S] : T.SelfS)
    J.raw(Name, JsonObject().num("self_s", S).count("calls", T.Calls.at(Name))
                    .render());
  return J.render();
}

std::string countsJson(const Counts &C) {
  return JsonObject()
      .count("procedures", C.Procs)
      .count("solved", C.Solved)
      .count("cities", C.Cities)
      .count("runs", C.Runs)
      .count("runs_best", C.RunsBest)
      .count("ap_tight", C.ApTight)
      .count("ap_known", C.ApKnown)
      .num("solve_s", C.SolveS)
      .num("ap_tight_solve_s", C.ApTightSolveS)
      .count("long_branches", C.LongBranches)
      .count("branch_sites", C.BranchSites)
      .count("displace_rounds", C.DisplaceRounds)
      .render();
}

/// Batch workloads: every program of list.txt, in order, at the workload's
/// thread count; each program's rendered report must equal its section of
/// the untraced run's stdout byte for byte.
int replayBatch(const Args &A, Workload W) {
  std::string Dir = A.str("dir");
  std::vector<BenchProgram> Inputs = makePrograms(W, A.num("seed"));
  std::map<std::string, std::string> Sections =
      splitBatchReport(readFile(A.str("report")));
  unsigned Threads = workloadThreads(W);
  AlignmentOptions Options;
  Options.Model = workloadModel(W);
  Options.Solver.Seed = 1; // align_tool's default --seed.
  Options.ComputeBounds = W == Workload::PaperBounds;
  // align_tool --batch shares one in-process cache across the list.
  Options.Cache = CacheMode::Memory;
  CacheSession Cache(Options);

  std::vector<SpanLog> Logs(Threads);
  std::vector<Counts> PerThread(Threads);
  std::vector<std::string> Errors;
  Clock::time_point T0 = Clock::now();
  for (size_t PI = 0; PI != Inputs.size(); ++PI) {
    const BenchProgram &Input = Inputs[PI];
    std::optional<Program> Prog;
    std::optional<ProgramProfile> Profile;
    {
      Guard G(Logs[0], "ir.parse", PI << 32);
      Prog = parseProgram(readFile(Dir + "/" + Input.Stem + ".cfg"));
    }
    if (!Prog)
      throw std::runtime_error(Input.Stem + ".cfg does not parse");
    {
      Guard G(Logs[0], "profile.parse", PI << 32);
      Profile = parseProgramProfile(
          *Prog, readFile(Dir + "/" + Input.Stem + ".prof"));
    }
    if (!Profile)
      throw std::runtime_error(Input.Stem + ".prof does not parse");

    size_t N = Prog->numProcedures();
    std::vector<ProcOutcome> Outcomes(N);
    std::atomic<size_t> Next{0};
    auto worker = [&](unsigned T) {
      for (size_t I; (I = Next.fetch_add(1)) < N;) {
        Outcomes[I] = alignProcedure(Prog->proc(I), Profile->Procs[I],
                                     Options, I, (PI << 32) | I, Logs[T]);
        account(Prog->proc(I), Profile->Procs[I], Options.Model, Outcomes[I],
                Logs[T], PerThread[T]);
      }
    };
    std::vector<std::thread> Pool;
    for (unsigned T = 1; T < Threads; ++T)
      Pool.emplace_back(worker, T);
    worker(0);
    for (std::thread &T : Pool)
      T.join();

    ProgramAlignment Result;
    for (ProcOutcome &O : Outcomes)
      Result.Procs.push_back(std::move(O.PA));
    std::string Report = renderAlignmentReport(
        *Prog, *Profile, Result, Options.ComputeBounds, false, "tsp");
    auto It = Sections.find(Input.Stem + ".cfg");
    if (It == Sections.end() ||
        (It->second != Report && It->second != Report + "\n"))
      Errors.push_back(Input.Stem + ": traced report differs from the "
                                    "untraced run's output");

    // Evaluation only (Fig. 3 cycles); never part of compile time.
    Guard G(Logs[0], "sim.replay", PI << 32);
    SimConfig Sim;
    Sim.Model = Options.Model;
    std::vector<MaterializedLayout> Mats;
    for (size_t I = 0; I != N; ++I)
      Mats.push_back(materializeLayout(Prog->proc(I),
                                       Result.Procs[I].TspLayout,
                                       Profile->Procs[I], Options.Model));
    simulateProgram(Input.Prog, Mats, Input.TestTraces, Sim);
  }
  double WallS = seconds(Clock::now() - T0);
  writeSpans(Dir + "/spans.json", Logs, T0);

  LayerTimes Times;
  Counts C;
  for (unsigned T = 0; T != Threads; ++T) {
    addLayerTimes(Logs[T], Times);
    C.add(PerThread[T]);
  }
  std::string List = "[";
  for (size_t I = 0; I != Errors.size(); ++I)
    List += (I ? "," : "") + jsonString(Errors[I]);
  std::printf("%s\n", JsonObject()
                          .num("wall_s", WallS)
                          .count("threads", Threads)
                          .count("spans", Times.NumSpans)
                          .raw("layers", layersJson(Times))
                          .raw("counts", countsJson(C))
                          .raw("errors", List + "]")
                          .render()
                          .c_str());
  return Errors.empty() ? 0 : 1;
}

/// The per-request options AlignService::handleAlign derives from the
/// server's base (serve/Service.cpp).
AlignmentOptions requestOptions(const AlignmentOptions &Base,
                                const AlignRequest &Req) {
  AlignmentOptions Options = Base;
  Options.Threads = 1;
  Options.Hooks = {};
  Options.Solver.Seed = Req.Seed;
  Options.Effort = Req.Effort;
  Options.ComputeBounds = Req.ComputeBounds;
  Options.OnError = Req.OnError;
  if (Req.HasObjective) {
    Options.Primary = Req.Primary;
    Options.Objective = Req.Objective;
    Options.Model.ExtTspForwardWindow = Req.ExtTspForwardWindow;
    Options.Model.ExtTspBackwardWindow = Req.ExtTspBackwardWindow;
    Options.Model.ExtTspForwardWeight = Req.ExtTspForwardWeight;
    Options.Model.ExtTspBackwardWeight = Req.ExtTspBackwardWeight;
  }
  if (Req.HasEncoding) {
    Options.Model.Encoding = Req.Encoding;
    Options.Model.ShortBranchRange = Req.ShortBranchRange;
    Options.Model.LongBranchExtraInstrs = Req.LongBranchExtraInstrs;
    Options.Model.LongBranchPenalty = Req.LongBranchPenalty;
  }
  return Options;
}

/// serve-mixed: the pre-warm corpus, then the fixed session prefix, one
/// request at a time. Each request runs twice against twin caches: once
/// composed from the layers (spans) and once through
/// AlignService::handleAlign (serve.handle_ms). Both replies must equal
/// the server's reply to the same request in the untraced run.
int replayServe(const Args &A) {
  std::string Dir = A.str("dir");
  uint64_t Seed = A.num("seed");
  uint64_t FixedSessions = A.num("fixed-sessions");
  ServeCorpus Corpus = loadCorpus(Dir);
  std::string Digests = readFile(Dir + "/fixed_digests.txt");

  AlignmentOptions Base, HandleBase;
  Base.Cache = HandleBase.Cache = CacheMode::Memory;
  CacheSession Cache(Base), HandleCache(HandleBase);
  AlignService Service(HandleBase);

  std::vector<SpanLog> Logs(1);
  SpanLog &Log = Logs[0];
  Counts C;
  std::vector<std::string> Errors;
  std::vector<double> HandleMs;
  double ComposedS = 0, HandleS = 0;
  Clock::time_point T0 = Clock::now();

  auto serveOne = [&](const std::string &Body, uint64_t Id) -> std::string {
    Clock::time_point R0 = Clock::now();
    std::string Wire;
    {
      Guard Root(Log, "serve.request", Id);
      AlignRequest Req;
      {
        Guard G(Log, "serve.codec");
        if (!decodeAlignRequest(Body, Req))
          throw std::runtime_error("corpus request does not decode");
      }
      std::optional<Program> Prog;
      {
        Guard G(Log, "ir.parse");
        Prog = parseProgram(Req.CfgText);
      }
      std::optional<ProgramProfile> Profile;
      if (Req.HasProfile) {
        Guard G(Log, "profile.parse");
        Profile = parseProgramProfile(*Prog, Req.ProfileText);
      } else {
        Guard G(Log, "profile.synthesize");
        Profile = synthesizeProfile(*Prog, Req.Seed, Req.Budget);
      }
      if (!Prog || !Profile)
        throw std::runtime_error("corpus request does not parse");
      AlignmentOptions Options = requestOptions(Base, Req);
      ProgramAlignment Result;
      for (size_t I = 0; I != Prog->numProcedures(); ++I) {
        ProcOutcome O = alignProcedure(Prog->proc(I), Profile->Procs[I],
                                       Options, I, Id, Log);
        account(Prog->proc(I), Profile->Procs[I], Options.Model, O, Log, C);
        Result.Procs.push_back(std::move(O.PA));
      }
      std::string Report;
      {
        Guard G(Log, "serve.render");
        Report = renderAlignmentReport(*Prog, *Profile, Result,
                                       Req.ComputeBounds, false,
                                       primaryAlignerName(Options.Primary));
      }
      Guard G(Log, "serve.codec");
      Wire = encodeFrame(makeFrame(FrameType::AlignOk, std::move(Report)));
    }
    ComposedS += seconds(Clock::now() - R0);

    Clock::time_point H0 = Clock::now();
    Frame Handled;
    {
      Guard G(Log, "serve.handle", Id);
      Handled = Service.handleAlign(Body);
    }
    double H = seconds(Clock::now() - H0);
    HandleS += H;
    if (Id >> 8)
      HandleMs.push_back(H * 1e3); // Fixed-prefix requests only.
    std::string Reply = Wire.substr(4 + FrameHeaderBytes);
    if (Handled.Type != FrameType::AlignOk || Handled.Body != Reply)
      Errors.push_back("request " + std::to_string(Id) +
                       ": composed reply differs from handleAlign's");
    return Reply;
  };

  for (size_t I = 0; I != Corpus.HitBodies.size(); ++I)
    if (serveOne(Corpus.HitBodies[I], I) != readFile(coldReplyPath(Dir, I)))
      Errors.push_back("corpus entry " + std::to_string(I) +
                       ": reply differs from the server's");
  std::vector<std::string> Mine;
  for (uint64_t S = 0; S != FixedSessions; ++S) {
    std::vector<PlannedRequest> Plan = planSession(
        Seed, S, Corpus.HitBodies.size(), Corpus.MissCfgs.size());
    for (size_t J = 0; J != Plan.size(); ++J) {
      const PlannedRequest &P = Plan[J];
      std::string Body =
          P.Hit ? Corpus.HitBodies[P.Entry]
                : encodeAlignRequest(missRequest(Corpus.MissCfgs[P.Entry], P));
      Mine.push_back(std::to_string(S) + " " + std::to_string(J) + " " +
                     std::to_string(fnv1a(serveOne(Body, (S + 1) << 8 | J))));
    }
  }
  std::sort(Mine.begin(), Mine.end());
  std::string MineText;
  for (const std::string &D : Mine)
    MineText += D + "\n";
  if (MineText != Digests)
    Errors.push_back("fixed-prefix replies differ from the server's");
  double WallS = seconds(Clock::now() - T0);
  writeSpans(Dir + "/spans.json", Logs, T0);

  LayerTimes Times;
  addLayerTimes(Log, Times);
  std::sort(HandleMs.begin(), HandleMs.end());
  CacheStats Stats = Cache.stats();
  std::string List = "[";
  for (size_t I = 0; I != Errors.size(); ++I)
    List += (I ? "," : "") + jsonString(Errors[I]);
  std::printf("%s\n",
              JsonObject()
                  .num("wall_s", WallS)
                  .count("threads", 1)
                  .count("spans", Times.NumSpans)
                  .raw("layers", layersJson(Times))
                  .raw("counts", countsJson(C))
                  .num("composed_s", ComposedS)
                  .num("handle_s", HandleS)
                  .num("handle_p50_ms", HandleMs[HandleMs.size() / 2])
                  .count("cache_hits", Stats.Hits)
                  .count("cache_misses", Stats.Misses)
                  .raw("errors", List + "]")
                  .render()
                  .c_str());
  return Errors.empty() ? 0 : 1;
}

} // namespace

/// replay: the traced in-process run of --workload over the inputs in
/// --dir, checked against the untraced run's outputs.
int perfbench::runReplay(const Args &A) {
  Workload W = A.workload();
  return W == Workload::ServeMixed ? replayServe(A) : replayBatch(A, W);
}
