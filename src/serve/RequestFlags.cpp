//===- serve/RequestFlags.cpp ---------------------------------------------===//

#include "serve/RequestFlags.h"

#include "support/Flags.h"

#include <cstdio>
#include <cstring>
#include <string>

using namespace balign;

namespace {

bool parseOnErrorPolicy(const std::string &Name, OnErrorPolicy &Out) {
  if (Name == "abort")
    Out = OnErrorPolicy::Abort;
  else if (Name == "fallback")
    Out = OnErrorPolicy::Fallback;
  else if (Name == "skip")
    Out = OnErrorPolicy::Skip;
  else
    return false;
  return true;
}

/// Parses \p Text with \p Parse into \p Out, or prints
/// "error: unknown <what> '<text>' (want <choices>)" and fails.
template <typename T, typename ParseFn>
FlagParse parseNamed(const char *Text, ParseFn Parse, T &Out,
                     const char *What, const char *Choices) {
  if (!Text)
    return FlagParse::Error;
  if (!Parse(Text, Out)) {
    std::fprintf(stderr, "error: unknown %s '%s' (want %s)\n", What, Text,
                 Choices);
    return FlagParse::Error;
  }
  return FlagParse::Ok;
}

FlagParse okIf(bool Parsed) {
  return Parsed ? FlagParse::Ok : FlagParse::Error;
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
    return parseNamed(value(), parsePrimaryAligner, Req.Primary, "--aligner",
                      "tsp, exttsp, cg, greedy, or original");
  }
  if (Arg == "--objective") {
    Req.HasObjective = true;
    Seen.Objective = true;
    return parseNamed(value(), parseObjectiveKind, Req.Objective,
                      "--objective", "fallthrough or exttsp");
  }
  if (Arg == "--exttsp-window") {
    // A zero window would make every jump worthless and a huge one
    // makes the linear decay meaningless; both are almost certainly
    // typos, so the established exit-code contract rejects them.
    uint64_t Window = 0;
    if (!flagUIntInRange("--exttsp-window", Argc, Argv, I, Window, 1,
                         1u << 20))
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
                               Req.ExtTspBackwardWeight, 1024.0));
  }
  if (Arg == "--encoding") {
    Req.HasEncoding = true;
    return parseNamed(value(), parseBranchEncoding, Req.Encoding,
                      "--encoding", "fixed or short-long");
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
    return parseNamed(Text, parseOnErrorPolicy, Req.OnError,
                      "--on-error policy", "abort, fallback, or skip");
  }
  if (Arg == "--effort-policy")
    return parseNamed(value(), parseEffortPolicy, Req.Effort,
                      "--effort-policy",
                      "uniform, scaled, or scaled-cold-greedy");
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
