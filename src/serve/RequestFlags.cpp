//===- serve/RequestFlags.cpp ---------------------------------------------===//

#include "serve/RequestFlags.h"

#include "support/Flags.h"

#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>

using namespace balign;

namespace {

/// Parses \p Text through \p Names into \p Out, or prints
/// "error: unknown <what> '<text>' (want <choices>)" and fails.
template <typename Table, typename Enum>
FlagParse parseNamed(const char *Text, const Table &Names, Enum &Out,
                     const char *What) {
  if (!Text)
    return FlagParse::Error;
  if (!Names.parse(Text, Out)) {
    std::fprintf(stderr, "error: unknown %s '%s' (want %s)\n", What, Text,
                 Names.choices().c_str());
    return FlagParse::Error;
  }
  return FlagParse::Ok;
}

FlagParse okIf(bool Parsed) {
  return Parsed ? FlagParse::Ok : FlagParse::Error;
}

/// Shortest decimal spelling of \p Value ("0.1", "1024").
std::string num(double Value) {
  char Buffer[32];
  std::snprintf(Buffer, sizeof(Buffer), "%g", Value);
  return Buffer;
}

std::string num(uint64_t Value) { return std::to_string(Value); }

/// Appends one --help entry: the flag in a 16-column gutter, then \p Text
/// word-wrapped to 79 columns beside it.
void helpEntry(std::string &Out, const std::string &Flag,
               const std::string &Text) {
  constexpr size_t Gutter = 16, Width = 79;
  std::string Line = "  " + Flag;
  Line.append(Line.size() < Gutter ? Gutter - Line.size() : 2, ' ');
  std::istringstream Words(Text);
  std::string Word;
  while (Words >> Word) {
    if (Line.back() != ' ' && Line.size() + 1 + Word.size() > Width) {
      Out += Line + "\n";
      Line.assign(Gutter, ' ');
    } else if (Line.back() != ' ') {
      Line += ' ';
    }
    Line += Word;
  }
  Out += Line + "\n";
}

} // namespace

FlagParse balign::parseRequestFlag(int Argc, char **Argv, int &I,
                                   AlignRequest &Req,
                                   RequestFlagsSeen &Seen) {
  std::string Arg = Argv[I];
  auto value = [&] { return flagValue(Argv[I], Argc, Argv, I); };
  if (Arg == "--seed")
    return okIf(flagUInt("--seed", Argc, Argv, I, Req.Seed));
  if (Arg == "--budget")
    return okIf(flagUInt("--budget", Argc, Argv, I, Req.Budget));
  if (Arg == "--bounds") {
    Req.ComputeBounds = true;
    return FlagParse::Ok;
  }
  if (Arg == "--aligner") {
    Req.HasObjective = true;
    return parseNamed(value(), PrimaryAlignerNames, Req.Primary, "--aligner");
  }
  if (Arg == "--objective") {
    Req.HasObjective = true;
    Seen.Objective = true;
    return parseNamed(value(), ObjectiveKindNames, Req.Objective,
                      "--objective");
  }
  if (Arg == "--exttsp-window") {
    uint64_t Window = 0;
    if (!flagUIntInRange("--exttsp-window", Argc, Argv, I, Window,
                         MachineModel::MinExtTspWindow,
                         MachineModel::MaxExtTspWindow))
      return FlagParse::Error;
    Req.ExtTspForwardWindow = static_cast<uint32_t>(Window);
    Req.ExtTspBackwardWindow = static_cast<uint32_t>(Window);
    Req.HasObjective = true;
    return FlagParse::Ok;
  }
  if (Arg == "--exttsp-weights") {
    Req.HasObjective = true;
    return okIf(flagDoublePair("--exttsp-weights", Argc, Argv, I,
                               Req.ExtTspForwardWeight,
                               Req.ExtTspBackwardWeight,
                               MachineModel::MaxExtTspWeight));
  }
  if (Arg == "--encoding") {
    Req.HasEncoding = true;
    return parseNamed(value(), BranchEncodingNames, Req.Encoding,
                      "--encoding");
  }
  if (Arg == "--short-range") {
    // 0 is legal and meaningful: it forces every branch long, the
    // degenerate case the displacement tests pin.
    Req.HasEncoding = true;
    Seen.ShortRange = true;
    return okIf(flagUInt("--short-range", Argc, Argv, I,
                         Req.ShortBranchRange));
  }
  if (Arg == "--on-error" || Arg.rfind("--on-error=", 0) == 0) {
    Seen.OnError = true;
    const char *Text = Arg == "--on-error"
                           ? value()
                           : Argv[I] + std::strlen("--on-error=");
    return parseNamed(Text, OnErrorPolicyNames, Req.OnError,
                      "--on-error policy");
  }
  if (Arg == "--effort-policy")
    return parseNamed(value(), EffortPolicyNames, Req.Effort,
                      "--effort-policy");
  return FlagParse::NotMine;
}

void balign::warnIgnoredRequestFlags(const AlignRequest &Req,
                                     const RequestFlagsSeen &Seen) {
  if (Seen.Objective && Req.Primary != PrimaryAligner::ExtTsp)
    std::fprintf(stderr, "warning: --objective only affects --aligner "
                         "exttsp; ignored\n");
  if (Seen.ShortRange && Req.Encoding != BranchEncoding::ShortLong)
    std::fprintf(stderr, "warning: --short-range only affects --encoding "
                         "short-long; ignored\n");
}

std::string balign::requestFlagsHelp() {
  const AlignRequest D;
  std::string Out = "flags that shape the report (shared by align_tool and "
                    "balign_client):\n";
  helpEntry(Out, "--seed N",
            "root seed of the synthetic profile and the solver "
            "(default " + num(D.Seed) + ")");
  helpEntry(Out, "--budget N",
            "branches the synthetic profile run executes when no profile "
            "is given (default " + num(D.Budget) + ")");
  helpEntry(Out, "--bounds",
            "also compute each procedure's assignment and Held-Karp lower "
            "bounds");
  helpEntry(Out, "--aligner A",
            "the primary layout, reported next to original and greedy: " +
                PrimaryAlignerNames.choices() + " (default " +
                PrimaryAlignerNames.name(D.Primary) + ")");
  helpEntry(Out, "--objective O",
            "what the Ext-TSP chain merger maximizes: " +
                ObjectiveKindNames.choices() + " (default " +
                ObjectiveKindNames.name(D.Objective) + ")");
  helpEntry(Out, "--exttsp-window N",
            "both Ext-TSP windows in bytes, in [" +
                num(uint64_t(MachineModel::MinExtTspWindow)) + ", " +
                num(uint64_t(MachineModel::MaxExtTspWindow)) +
                "] (defaults " + num(uint64_t(D.ExtTspForwardWindow)) +
                " forward, " + num(uint64_t(D.ExtTspBackwardWindow)) +
                " backward)");
  helpEntry(Out, "--exttsp-weights F,B",
            "Ext-TSP forward,backward jump weights, decimals in [0, " +
                num(MachineModel::MaxExtTspWeight) + "] (default " +
                num(D.ExtTspForwardWeight) + "," +
                num(D.ExtTspBackwardWeight) + ")");
  helpEntry(Out, "--encoding E",
            "branch encoding: " + BranchEncodingNames.choices() +
                " (default " + BranchEncodingNames.name(D.Encoding) +
                "); a variable encoding grows far branches and re-prices "
                "them by the displacement fixpoint");
  helpEntry(Out, "--short-range N",
            "short-form branch reach in bytes under a variable encoding "
            "(default " + num(D.ShortBranchRange) +
                "; 0 forces every taken branch long)");
  helpEntry(Out, "--on-error P",
            "per-procedure failure policy: " + OnErrorPolicyNames.choices() +
                " (default " + OnErrorPolicyNames.name(D.OnError) + ")");
  helpEntry(Out, "--effort-policy P",
            "how solver effort is spread over procedures: " +
                EffortPolicyNames.choices() + " (default " +
                EffortPolicyNames.name(D.Effort) + ")");
  return Out;
}
