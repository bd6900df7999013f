//===- perfbench/harness/Bench.h - balign_bench subcommands ---------------===//
//
// Part of the balign benchmark.
//
//===--------------------------------------------------------------------===//
///
/// \file
/// The subcommands of balign_bench. run.py drives them; each prints one
/// JSON object on stdout and exits nonzero on a failed check.
///
//===--------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_BENCH_H
#define PERFBENCH_HARNESS_BENCH_H

#include "Inputs.h"

#include "objective/Layout.h"
#include "serve/Protocol.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// "--key value" arguments after the subcommand name.
class Args {
public:
  Args(int Argc, char **Argv);
  std::string str(const std::string &Key) const;
  uint64_t num(const std::string &Key) const;
  Workload workload() const;

private:
  std::map<std::string, std::string> Values;
};

/// Reads a whole file; throws on failure.
std::string readFile(const std::string &Path);

/// Writes a whole file; throws on failure.
void writeFile(const std::string &Path, const std::string &Contents);

/// A flat JSON object builder (numbers, strings, nested raw JSON).
class JsonObject {
public:
  JsonObject &num(const std::string &Key, double Value);
  JsonObject &count(const std::string &Key, uint64_t Value);
  JsonObject &str(const std::string &Key, const std::string &Value);
  JsonObject &raw(const std::string &Key, const std::string &Json);
  std::string render() const { return "{" + Body + "}"; }

private:
  void key(const std::string &Key);
  std::string Body;
};

/// Escapes \p S as a JSON string literal, quotes included.
std::string jsonString(const std::string &S);

/// Names of the request corpus files gen writes for serve-mixed.
std::string hitRequestPath(const std::string &Dir, size_t Index);
std::string coldReplyPath(const std::string &Dir, size_t Index);

/// One procedure's row of an alignment report (align_tool's pipeline
/// stdout, which is also the AlignOk reply body).
struct ReportRow {
  std::string Proc;
  std::vector<std::string> Layout; ///< Block names of the primary layout.
  uint64_t Original = 0;
  uint64_t Primary = 0;
  double HkBound = 0.0; ///< Meaningful when the report has the column.
};

struct ProgramReport {
  std::vector<ReportRow> Rows;
  bool HasBounds = false;
};

/// Parses one program's report; throws on malformed text.
ProgramReport parseReport(const std::string &Text);

/// Splits align_tool --batch stdout into "== FILE ==" sections.
std::map<std::string, std::string> splitBatchReport(const std::string &Stdout);

/// What a serve request selects beyond the CLI defaults.
struct Variant {
  balign::PrimaryAligner Primary = balign::PrimaryAligner::Tsp;
  bool ShortLong = false; ///< Carries the short/long encoding block.
};

/// The variant with key \p Key (a corpus entry index, or a miss
/// request's draw): a quarter of the keys select the exttsp primary, an
/// eighth the short/long encoding.
Variant requestVariant(size_t Key);

/// The machine model a request of variant \p V aligns under.
balign::MachineModel variantModel(const Variant &V);

/// Held-Karp iterations of the checker's own bound, used where the
/// workload runs without --bounds: the floor of the pipeline's default
/// schedule, a valid (if weaker) lower bound at a fraction of its cost.
inline constexpr unsigned CheckerHeldKarpIterations = 2000;

/// Sums over checked procedures, and every violation found.
struct QualityTotals {
  uint64_t Procs = 0;
  double Original = 0, Primary = 0, HkBound = 0;
  double SimPrimary = 0, SimOriginal = 0;
  std::vector<std::string> Errors;
  std::string json() const;
};

/// Checks one program's report and adds it to \p T. \p CheckerBound
/// computes the Held-Karp bound here instead of reading the report's.
void checkProgram(const BenchProgram &P, const ProgramReport &R,
                  const balign::MachineModel &Model, bool CheckerBound,
                  QualityTotals &T);

/// The align request of serve-corpus entry \p Index: CFG plus training
/// profile text; a quarter of the entries select the exttsp primary and
/// an eighth the short/long encoding.
balign::AlignRequest hitRequest(const BenchProgram &P, size_t Index);

/// Share of serve-mixed requests that are cache misses.
inline constexpr double MissShare = 0.2;

/// Miss requests carry no profile text; the server synthesizes one from
/// the request seed (FirstMissSeed + miss number) with this many branches
/// per procedure. Hit requests keep the default seed 1.
inline constexpr uint64_t FirstMissSeed = 1000;
inline constexpr uint64_t MissProfileBudget = 20000;

/// One request of a serve-mixed build step.
struct PlannedRequest {
  bool Hit = true;
  size_t Entry = 0;        ///< Corpus entry (hit) or miss program (miss).
  uint64_t MissNumber = 0; ///< Unique per miss within a run.
  size_t VariantKey = 0;   ///< requestVariant key; the entry for hits.
};

/// The requests of session \p Session: one to four, each a hit with
/// probability 1 - MissShare. A pure function of its arguments.
std::vector<PlannedRequest> planSession(uint64_t Seed, uint64_t Session,
                                        size_t HitEntries,
                                        size_t MissPrograms);

/// The align request of miss \p P over \p CfgText.
balign::AlignRequest missRequest(const std::string &CfgText,
                                 const PlannedRequest &P);

/// The serve-mixed inputs gen wrote: encoded hit-request bodies and the
/// miss programs' CFG text.
struct ServeCorpus {
  std::vector<std::string> HitBodies;
  std::vector<std::string> MissCfgs;
};
ServeCorpus loadCorpus(const std::string &Dir);

/// 64-bit FNV-1a of \p Bytes (reply digests).
uint64_t fnv1a(const std::string &Bytes);

int runGen(const Args &A);
int runCheck(const Args &A);
int runLoad(const Args &A);
int runReplay(const Args &A);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_BENCH_H
