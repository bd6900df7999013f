//===- profile/ProfileIO.cpp -------------------------------------------------------===//

#include "profile/ProfileIO.h"

#include "robust/FaultInjector.h"
#include "support/Parse.h"
#include "trace/Scope.h"

#include <cassert>
#include <map>
#include <sstream>

using namespace balign;

static std::string blockName(const Procedure &Proc, BlockId Id) {
  const BasicBlock &Block = Proc.block(Id);
  return Block.Name.empty() ? "b" + std::to_string(Id) : Block.Name;
}

std::string balign::printProgramProfile(const Program &Prog,
                                        const ProgramProfile &Profile) {
  assert(Profile.Procs.size() == Prog.numProcedures() &&
         "profile does not match program");
  std::ostringstream Out;
  Out << "profile " << Prog.getName() << "\n";
  for (size_t P = 0; P != Prog.numProcedures(); ++P) {
    const Procedure &Proc = Prog.proc(P);
    const ProcedureProfile &PP = Profile.Procs[P];
    Out << "proc " << Proc.getName() << " {\n";
    for (BlockId Id = 0; Id != Proc.numBlocks(); ++Id) {
      Out << "  " << blockName(Proc, Id) << ": " << PP.blockCount(Id);
      const std::vector<BlockId> &Succs = Proc.successors(Id);
      if (!Succs.empty()) {
        Out << " ->";
        for (size_t S = 0; S != Succs.size(); ++S)
          Out << " " << blockName(Proc, Succs[S]) << ":"
              << PP.edgeCount(Id, S);
      }
      Out << "\n";
    }
    Out << "}\n";
  }
  return Out.str();
}

namespace {

/// Minimal line-splitting parser state shared with the CFG parser idiom.
struct ProfileParser {
  std::istringstream In;
  std::string *Error;
  unsigned LineNo = 0;

  ProfileParser(const std::string &Text, std::string *Error)
      : In(Text), Error(Error) {}

  bool fail(const std::string &Message) {
    if (Error)
      *Error = "line " + std::to_string(LineNo) + ": " + Message;
    return false;
  }

  bool nextLine(std::vector<std::string> &Tokens) {
    std::string Line;
    while (std::getline(In, Line)) {
      ++LineNo;
      size_t Hash = Line.find('#');
      if (Hash != std::string::npos)
        Line.resize(Hash);
      std::istringstream LineIn(Line);
      Tokens.clear();
      std::string Token;
      while (LineIn >> Token)
        Tokens.push_back(Token);
      if (!Tokens.empty())
        return true;
    }
    return false;
  }
};

/// Reads one count. Profiles are untrusted input: beyond parseFlagInt's
/// strict decimal rule, a token longer than UINT64_MAX's 20 digits is
/// rejected even when zero-padded. Counts up to UINT64_MAX itself are
/// accepted — profiles with saturated hardware counters legitimately
/// carry that sentinel, and the lint saturation check wants to see it.
std::optional<uint64_t> parseCount(std::string_view Text) {
  if (Text.size() > 20)
    return std::nullopt;
  return parseFlagInt(Text);
}

} // namespace

std::optional<ProgramProfile>
balign::parseProgramProfile(const Program &Prog, const std::string &Text,
                            std::string *Error) {
  ScopedSpan ParseSpan("profile.parse", SpanCat::Io);
  ProfileParser P(Text, Error);
  // balign-shield fault site: a corrupt profile record manifests to
  // callers exactly like this injected failure — an error return through
  // the parser's normal channel, never an exception.
  if (FaultInjector::instance().shouldFail(FaultSite::ProfileParse)) {
    P.fail("injected fault at 'profile.parse'");
    return std::nullopt;
  }
  std::vector<std::string> Tokens;
  if (!P.nextLine(Tokens) || Tokens.size() != 2 || Tokens[0] != "profile") {
    P.fail("expected 'profile <name>' header");
    return std::nullopt;
  }

  // Name lookup tables.
  std::map<std::string, size_t> ProcOf;
  for (size_t I = 0; I != Prog.numProcedures(); ++I)
    ProcOf[Prog.proc(I).getName()] = I;

  ProgramProfile Profile;
  for (size_t I = 0; I != Prog.numProcedures(); ++I)
    Profile.Procs.push_back(ProcedureProfile::zeroed(Prog.proc(I)));

  std::vector<bool> ProcSeen(Prog.numProcedures(), false);
  while (P.nextLine(Tokens)) {
    if (Tokens.size() != 3 || Tokens[0] != "proc" || Tokens[2] != "{") {
      P.fail("expected 'proc <name> {'");
      return std::nullopt;
    }
    auto ProcIt = ProcOf.find(Tokens[1]);
    if (ProcIt == ProcOf.end()) {
      P.fail("unknown procedure '" + Tokens[1] + "'");
      return std::nullopt;
    }
    // A repeated section would silently overwrite the earlier counts —
    // the classic concatenated-profiles corruption.
    if (ProcSeen[ProcIt->second]) {
      P.fail("duplicate profile section for procedure '" + Tokens[1] + "'");
      return std::nullopt;
    }
    ProcSeen[ProcIt->second] = true;
    const Procedure &Proc = Prog.proc(ProcIt->second);
    ProcedureProfile &PP = Profile.Procs[ProcIt->second];

    std::map<std::string, BlockId> BlockOf;
    for (BlockId Id = 0; Id != Proc.numBlocks(); ++Id)
      BlockOf[blockName(Proc, Id)] = Id;

    bool Closed = false;
    std::vector<bool> BlockSeen(Proc.numBlocks(), false);
    while (P.nextLine(Tokens)) {
      if (Tokens.size() == 1 && Tokens[0] == "}") {
        Closed = true;
        break;
      }
      if (Tokens.size() < 2 || Tokens[0].empty() ||
          Tokens[0].back() != ':') {
        P.fail("expected '<block>: <count> [-> succ:count ...]'");
        return std::nullopt;
      }
      std::string Name = Tokens[0].substr(0, Tokens[0].size() - 1);
      auto BlockIt = BlockOf.find(Name);
      if (BlockIt == BlockOf.end()) {
        P.fail("unknown block '" + Name + "'");
        return std::nullopt;
      }
      BlockId Id = BlockIt->second;
      if (BlockSeen[Id]) {
        P.fail("duplicate stats line for block '" + Name + "'");
        return std::nullopt;
      }
      BlockSeen[Id] = true;
      std::optional<uint64_t> Count = parseCount(Tokens[1]);
      if (!Count) {
        P.fail("bad block count '" + Tokens[1] + "'");
        return std::nullopt;
      }
      PP.BlockCounts[Id] = *Count;

      const std::vector<BlockId> &Succs = Proc.successors(Id);
      std::vector<bool> EdgeSeen(Succs.size(), false);
      if (Tokens.size() == 2)
        continue;
      if (Tokens[2] != "->") {
        P.fail("expected '->' before edge counts");
        return std::nullopt;
      }
      for (size_t T = 3; T != Tokens.size(); ++T) {
        size_t Colon = Tokens[T].rfind(':');
        if (Colon == std::string::npos || Colon == 0 ||
            Colon + 1 == Tokens[T].size()) {
          P.fail("expected '<succ>:<count>', got '" + Tokens[T] + "'");
          return std::nullopt;
        }
        std::string SuccName = Tokens[T].substr(0, Colon);
        std::optional<uint64_t> EdgeCount =
            parseCount(std::string_view(Tokens[T]).substr(Colon + 1));
        if (!EdgeCount) {
          P.fail("bad edge count in '" + Tokens[T] + "'");
          return std::nullopt;
        }
        auto SuccIt = BlockOf.find(SuccName);
        if (SuccIt == BlockOf.end()) {
          P.fail("unknown successor '" + SuccName + "'");
          return std::nullopt;
        }
        bool Matched = false;
        for (size_t S = 0; S != Succs.size(); ++S) {
          if (Succs[S] == SuccIt->second) {
            if (EdgeSeen[S]) {
              P.fail("duplicate edge count for " + Name + " -> " + SuccName);
              return std::nullopt;
            }
            EdgeSeen[S] = true;
            PP.EdgeCounts[Id][S] = *EdgeCount;
            Matched = true;
            break;
          }
        }
        if (!Matched) {
          P.fail("edge " + Name + " -> " + SuccName +
                 " does not exist in the CFG");
          return std::nullopt;
        }
      }
    }
    if (!Closed) {
      P.fail("unterminated proc '" + Proc.getName() + "'");
      return std::nullopt;
    }
  }
  return Profile;
}
