//===- serve/RequestFlags.h - Shared result-affecting CLI flags ------------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// The command-line flags that change what an alignment prints, parsed
/// once for both align_tool and balign_client. Both tools parse them
/// into an AlignRequest — the client sends it, align_tool applies it to
/// its AlignmentOptions through applyAlignRequest, the same mapping the
/// server uses — so one-shot stdout and a serve reply cannot drift
/// apart through a second copy of the flag handling.
///
//===--------------------------------------------------------------------===//

#ifndef BALIGN_SERVE_REQUESTFLAGS_H
#define BALIGN_SERVE_REQUESTFLAGS_H

#include "serve/Protocol.h"

#include <string>

namespace balign {

/// Which shared flags appeared; the ignored-flag warnings and
/// align_tool's shield report read these.
struct RequestFlagsSeen {
  bool Objective = false;  ///< --objective
  bool ShortRange = false; ///< --short-range
  bool OnError = false;    ///< --on-error
};

/// Outcome of parseRequestFlag.
enum class FlagParse : uint8_t {
  NotMine, ///< Argv[I] is not a shared flag; nothing was consumed.
  Ok,      ///< The flag (and its value) was consumed into the request.
  Error,   ///< A bad or missing value; a usage error is on stderr.
};

/// If Argv[I] is one of the shared flags — --seed, --budget, --bounds,
/// --aligner, --objective, --exttsp-window, --exttsp-weights,
/// --encoding, --short-range, --on-error[=P], --effort-policy — consumes
/// it and its value into \p Req (advancing \p I past the value). The
/// objective flags set Req.HasObjective and the encoding flags set
/// Req.HasEncoding, so a request built without them encodes exactly as
/// a pre-extension one.
FlagParse parseRequestFlag(int Argc, char **Argv, int &I, AlignRequest &Req,
                           RequestFlagsSeen &Seen);

/// The --help entries of the shared flags, one per flag, printed by both
/// tools. Choices, defaults and ranges are read from the enum tables,
/// AlignRequest's defaults and MachineModel's limits, never restated.
std::string requestFlagsHelp();

/// Warns on stderr about shared flags that were given but cannot affect
/// \p Req (--objective without --aligner exttsp, --short-range without
/// --encoding short-long).
void warnIgnoredRequestFlags(const AlignRequest &Req,
                             const RequestFlagsSeen &Seen);

} // namespace balign

#endif // BALIGN_SERVE_REQUESTFLAGS_H
