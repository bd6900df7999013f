//===- perfbench/harness/Check.cpp - Output checks and quality metrics ----===//
//
// Part of the balign benchmark.
//
// The checks trust nothing the aligner prints: layouts are checked against
// the generated CFGs, penalties are re-derived by replaying the training
// traces through the simulator, and bounds are compared with penalties.
// The same pass computes the quality metrics (normalized penalty, gap to
// the Held-Karp bound, cross-validated simulated cycles).
//
//===--------------------------------------------------------------------===//

#include "Bench.h"

#include "align/Reduction.h"
#include "objective/Layout.h"
#include "sim/Simulator.h"
#include "support/Parse.h"
#include "tsp/HeldKarp.h"

#include <atomic>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <thread>

using namespace balign;
using namespace perfbench;

namespace {

std::vector<std::string> splitWords(const std::string &Line) {
  std::istringstream In(Line);
  std::vector<std::string> Words;
  std::string W;
  while (In >> W)
    Words.push_back(W);
  return Words;
}

std::vector<std::string> splitCells(const std::string &Line) {
  std::vector<std::string> Cells;
  size_t Start = 0;
  while (true) {
    size_t Bar = Line.find(" | ", Start);
    std::string Cell = Line.substr(Start, Bar == std::string::npos
                                              ? std::string::npos
                                              : Bar - Start);
    size_t B = Cell.find_first_not_of(' '), E = Cell.find_last_not_of(' ');
    Cells.push_back(B == std::string::npos ? "" : Cell.substr(B, E - B + 1));
    if (Bar == std::string::npos)
      return Cells;
    Start = Bar + 3;
  }
}

uint64_t parseCount(const std::string &Cell) {
  std::optional<uint64_t> V = parseFlagInt(Cell);
  if (!V)
    throw std::runtime_error("report: bad penalty '" + Cell + "'");
  return *V;
}

/// Maps a report's layouts onto \p P's block ids, checking that each is a
/// permutation of its procedure's blocks with the entry first. Returns an
/// empty vector (and appends to \p Errors) on any violation.
std::vector<Layout> reportLayouts(const BenchProgram &P,
                                  const ProgramReport &R,
                                  std::vector<std::string> &Errors) {
  std::vector<Layout> Out(P.Prog.numProcedures());
  if (R.Rows.size() != P.Prog.numProcedures()) {
    Errors.push_back(P.Stem + ": report has " + std::to_string(R.Rows.size()) +
                     " procedures, program has " +
                     std::to_string(P.Prog.numProcedures()));
    return {};
  }
  for (size_t I = 0; I != R.Rows.size(); ++I) {
    const Procedure &Proc = P.Prog.proc(I);
    const ReportRow &Row = R.Rows[I];
    if (Row.Proc != Proc.getName()) {
      Errors.push_back(P.Stem + ": row " + std::to_string(I) + " is " +
                       Row.Proc + ", expected " + Proc.getName());
      return {};
    }
    std::map<std::string, BlockId> ByName;
    for (BlockId B = 0; B != Proc.numBlocks(); ++B) {
      const std::string &N = Proc.block(B).Name;
      ByName[N.empty() ? "b" + std::to_string(B) : N] = B;
    }
    std::vector<bool> Seen(Proc.numBlocks(), false);
    for (const std::string &Name : Row.Layout) {
      auto It = ByName.find(Name);
      if (It == ByName.end() || Seen[It->second]) {
        Errors.push_back(Proc.getName() + ": layout names '" + Name +
                         "' twice or names no block");
        return {};
      }
      Seen[It->second] = true;
      Out[I].Order.push_back(It->second);
    }
    if (Out[I].Order.size() != Proc.numBlocks() ||
        Out[I].Order.front() != Proc.entry()) {
      Errors.push_back(Proc.getName() +
                       ": layout is not a permutation starting at the entry");
      return {};
    }
  }
  return Out;
}

} // namespace

ProgramReport perfbench::parseReport(const std::string &Text) {
  ProgramReport R;
  std::istringstream In(Text);
  std::string Line;
  std::map<std::string, std::vector<std::string>> Layouts;
  std::vector<std::string> Header;
  while (std::getline(In, Line)) {
    if (Line.rfind("proc ", 0) == 0) {
      std::vector<std::string> W = splitWords(Line);
      if (W.size() < 3 || W[2] != "layout:")
        throw std::runtime_error("report: bad layout line '" + Line + "'");
      Layouts[W[1]] = std::vector<std::string>(W.begin() + 3, W.end());
    } else if (Line.find(" | ") != std::string::npos) {
      std::vector<std::string> Cells = splitCells(Line);
      if (Header.empty()) {
        Header = Cells;
        if (Header.size() < 7 || Header[0] != "procedure")
          throw std::runtime_error("report: bad table header");
        R.HasBounds = Header.back() == "hk-bound";
        continue;
      }
      if (Cells.size() != Header.size())
        throw std::runtime_error("report: bad table row '" + Line + "'");
      ReportRow Row;
      Row.Proc = Cells[0];
      Row.Original = parseCount(Cells[3]);
      Row.Primary = parseCount(Cells[5]);
      if (R.HasBounds) {
        std::optional<double> Hk = parseFlagDouble(Cells[7]);
        if (!Hk)
          throw std::runtime_error("report: bad hk-bound '" + Cells[7] + "'");
        Row.HkBound = *Hk;
      }
      auto It = Layouts.find(Row.Proc);
      if (It == Layouts.end())
        throw std::runtime_error("report: no layout for " + Row.Proc);
      Row.Layout = It->second;
      R.Rows.push_back(std::move(Row));
    }
  }
  if (R.Rows.size() != Layouts.size())
    throw std::runtime_error("report: layout lines and table rows differ");
  return R;
}

std::map<std::string, std::string>
perfbench::splitBatchReport(const std::string &Stdout) {
  std::map<std::string, std::string> Sections;
  std::istringstream In(Stdout);
  std::string Line, Current;
  while (std::getline(In, Line)) {
    if (Line.rfind("== ", 0) == 0 && Line.size() > 6 &&
        Line.compare(Line.size() - 3, 3, " ==") == 0) {
      Current = Line.substr(3, Line.size() - 6);
      if (Sections.count(Current))
        throw std::runtime_error("report: duplicate section " + Current);
      Sections[Current];
      continue;
    }
    if (Current.empty())
      throw std::runtime_error("report: text before the first section");
    Sections[Current] += Line + "\n";
  }
  return Sections;
}

Variant perfbench::requestVariant(size_t Key) {
  Variant V;
  if (Key % 8 == 0 || Key % 8 == 4)
    V.Primary = PrimaryAligner::ExtTsp;
  V.ShortLong = Key % 8 == 2;
  return V;
}

MachineModel perfbench::variantModel(const Variant &V) {
  return workloadModel(V.ShortLong ? Workload::FastBuild
                                   : Workload::PaperBounds);
}

void perfbench::checkProgram(const BenchProgram &P, const ProgramReport &R,
                             const MachineModel &Model, bool CheckerBound,
                             QualityTotals &T) {
  std::vector<Layout> Primary = reportLayouts(P, R, T.Errors);
  if (Primary.empty())
    return;
  std::vector<double> CheckerHk(Primary.size());
  if (CheckerBound) {
    std::atomic<size_t> Next{0};
    auto worker = [&] {
      HeldKarpOptions Hk;
      Hk.Iterations = CheckerHeldKarpIterations;
      for (size_t I; (I = Next.fetch_add(1)) < Primary.size();)
        CheckerHk[I] = heldKarpBoundDirected(
            buildAlignmentTsp(P.Prog.proc(I), P.Train.Procs[I], Model).Tsp,
            static_cast<int64_t>(R.Rows[I].Primary), Hk);
    };
    std::vector<std::thread> Pool;
    for (unsigned T = 1; T < benchThreads(); ++T)
      Pool.emplace_back(worker);
    worker();
    for (std::thread &Th : Pool)
      Th.join();
  }
  bool Fixed = Model.Encoding == BranchEncoding::Fixed;
  SimConfig Sim;
  Sim.Model = Model;
  std::vector<MaterializedLayout> MatPrimary, MatOriginal;
  for (size_t I = 0; I != Primary.size(); ++I) {
    const Procedure &Proc = P.Prog.proc(I);
    const ProcedureProfile &Train = P.Train.Procs[I];
    const ReportRow &Row = R.Rows[I];
    MatPrimary.push_back(materializeLayout(Proc, Primary[I], Train, Model));
    MatOriginal.push_back(
        materializeLayout(Proc, Layout::original(Proc), Train, Model));
    ++T.Procs;
    T.Original += static_cast<double>(Row.Original);
    T.Primary += static_cast<double>(Row.Primary);

    if (Fixed) {
      // Replaying the training trace must charge exactly the printed
      // penalty: the static model and the simulator agree by construction.
      Program One(P.Stem);
      One.addProcedure(Proc);
      SimResult S = simulateProgram(One, {MatPrimary.back()},
                                    {P.TrainTraces[I]}, Sim);
      if (S.ControlPenaltyCycles != Row.Primary)
        T.Errors.push_back(Proc.getName() + ": printed penalty " +
                           std::to_string(Row.Primary) +
                           " but the training trace replays to " +
                           std::to_string(S.ControlPenaltyCycles));
    }

    double Bound = CheckerBound ? CheckerHk[I] : Row.HkBound;
    if (R.HasBounds || CheckerBound) {
      if (static_cast<double>(Row.Primary) < Bound)
        T.Errors.push_back(Proc.getName() + ": penalty " +
                           std::to_string(Row.Primary) +
                           " is below its Held-Karp bound");
      T.HkBound += Bound;
    }
  }
  // Fig. 3: layouts trained on data set 0, charged on data set 1.
  T.SimPrimary += static_cast<double>(
      simulateProgram(P.Prog, MatPrimary, P.TestTraces, Sim).Cycles);
  T.SimOriginal += static_cast<double>(
      simulateProgram(P.Prog, MatOriginal, P.TestTraces, Sim).Cycles);
}

std::string QualityTotals::json() const {
  JsonObject J;
  J.count("procedures", Procs)
      .num("penalty_ratio", Primary / Original)
      .num("hk_gap_pct", 100.0 * (Primary - HkBound) / HkBound)
      .num("sim_cycles_ratio", SimPrimary / SimOriginal);
  std::string List = "[";
  for (size_t I = 0; I != Errors.size() && I != 20; ++I)
    List += (I ? "," : "") + jsonString(Errors[I]);
  J.count("errors", Errors.size()).raw("first_errors", List + "]");
  return J.render();
}

/// check: validates align_tool's batch stdout (--report FILE) or the
/// serve corpus's cold replies (serve-mixed, read from --dir) and prints
/// the quality totals. Exits 1 when any check fails.
int perfbench::runCheck(const Args &A) {
  Workload W = A.workload();
  std::vector<BenchProgram> Programs = makePrograms(W, A.num("seed"));
  QualityTotals T;
  // A report that does not parse is a failed check, not a crash.
  auto parse = [&](const BenchProgram &P, const std::string &Text,
                   ProgramReport &R) {
    try {
      R = parseReport(Text);
      return true;
    } catch (const std::exception &E) {
      T.Errors.push_back(P.Stem + ": " + E.what());
      return false;
    }
  };
  if (W == Workload::ServeMixed) {
    std::string Dir = A.str("dir");
    for (size_t I = 0; I != Programs.size(); ++I) {
      ProgramReport R;
      if (parse(Programs[I], readFile(coldReplyPath(Dir, I)), R))
        checkProgram(Programs[I], R, variantModel(requestVariant(I)),
                     /*CheckerBound=*/true, T);
    }
  } else {
    std::map<std::string, std::string> Sections;
    try {
      Sections = splitBatchReport(readFile(A.str("report")));
    } catch (const std::exception &E) {
      T.Errors.push_back(E.what());
    }
    if (Sections.size() != Programs.size())
      T.Errors.push_back("batch printed " + std::to_string(Sections.size()) +
                         " programs of " + std::to_string(Programs.size()));
    for (const BenchProgram &P : Programs) {
      auto It = Sections.find(P.Stem + ".cfg");
      if (It == Sections.end()) {
        T.Errors.push_back(P.Stem + ": missing from the batch output");
        continue;
      }
      ProgramReport R;
      if (!parse(P, It->second, R))
        continue;
      bool WantBounds = W == Workload::PaperBounds;
      if (R.HasBounds != WantBounds)
        T.Errors.push_back(P.Stem + ": hk-bound column mismatch");
      checkProgram(P, R, workloadModel(W), /*CheckerBound=*/!WantBounds, T);
    }
  }
  std::printf("%s\n", T.json().c_str());
  return T.Errors.empty() ? 0 : 1;
}
