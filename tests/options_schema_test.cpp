//===- tests/options_schema_test.cpp - One options schema ----------------===//
//
// Each result-affecting option is declared once: its spellings in an
// enum table, its default in the struct that owns it, its range next to
// the MachineModel field it bounds. These tests hold the copies that
// read those declarations to them: the wire codec, the request-to-options
// mapping, the cache fingerprint, the flag parser and --help. Byte pins
// guard the request, store and journal layouts against drift.
//
//===--------------------------------------------------------------------===//

#include "cache/Fingerprint.h"
#include "cache/Store.h"
#include "ir/TextFormat.h"
#include "robust/CrashInjector.h"
#include "robust/FaultInjector.h"
#include "robust/Journal.h"
#include "serve/Oneshot.h"
#include "serve/Protocol.h"
#include "serve/RequestFlags.h"
#include "serve/Service.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

using namespace balign;

namespace {

const char *SchemaCfg = R"(program schema
proc tokenize {
  entry:  size 4 jump -> header
  header: size 2 cond -> fill scan
  fill:   size 8 jump -> scan
  scan:   size 3 cond -> header done
  done:   size 2 ret
}
proc dispatch {
  entry:  size 3 jump -> loop
  loop:   size 2 cond -> op exit
  op:     size 2 multi -> add sub mul
  add:    size 4 jump -> loop
  sub:    size 4 jump -> loop
  mul:    size 9 jump -> loop
  exit:   size 1 ret
}
)";

//===--------------------------------------------------------------------===//
// Enum tables
//===--------------------------------------------------------------------===//

template <typename Enum, size_t N>
void expectTableRoundTrips(const EnumNames<Enum, N> &Names) {
  for (size_t I = 0; I != N; ++I) {
    auto Value = static_cast<Enum>(I);
    Enum Parsed = static_cast<Enum>(N - 1 - I);
    EXPECT_TRUE(Names.parse(Names.name(Value), Parsed)) << Names.name(Value);
    EXPECT_EQ(Parsed, Value);
    EXPECT_TRUE(Names.fromByte(static_cast<uint8_t>(I), Parsed));
    EXPECT_EQ(Parsed, Value);
    EXPECT_NE(Names.choices().find(Names.name(Value)), std::string::npos);
  }
  Enum Untouched = static_cast<Enum>(0);
  EXPECT_FALSE(Names.fromByte(static_cast<uint8_t>(N), Untouched));
  EXPECT_FALSE(Names.parse("bogus", Untouched));
  EXPECT_FALSE(Names.parse("", Untouched));
  EXPECT_EQ(Untouched, static_cast<Enum>(0));
  EXPECT_STREQ(Names.name(static_cast<Enum>(N)), "unknown");
}

TEST(EnumTableTest, EveryNameParsesBackAndCountIsTheBound) {
  expectTableRoundTrips(PrimaryAlignerNames);
  expectTableRoundTrips(ObjectiveKindNames);
  expectTableRoundTrips(BranchEncodingNames);
  expectTableRoundTrips(EffortPolicyNames);
  expectTableRoundTrips(OnErrorPolicyNames);
  expectTableRoundTrips(FaultSiteNames);
  expectTableRoundTrips(CrashSiteNames);
}

TEST(EnumTableTest, AlignerAndObjectiveNamesAreTheTableSpellings) {
  for (size_t I = 0; I != PrimaryAlignerNames.count(); ++I) {
    auto Primary = static_cast<PrimaryAligner>(I);
    EXPECT_EQ(makeAligner(Primary)->name(), PrimaryAlignerNames.name(Primary));
  }
  MachineModel Model;
  for (size_t I = 0; I != ObjectiveKindNames.count(); ++I) {
    auto Kind = static_cast<ObjectiveKind>(I);
    EXPECT_EQ(makeObjective(Kind, Model)->name(),
              ObjectiveKindNames.name(Kind));
  }
}

TEST(EnumTableTest, InjectionSiteSpellingsAreUnchanged) {
  // BALIGN_FAULT and BALIGN_CRASH specs name sites by these spellings.
  EXPECT_EQ(FaultSiteNames.choices(),
            "profile.parse, tsp.transform, tsp.solve, align.greedy, "
            "pool.task, cache.load, cache.flush, serve.frame, align.chain, "
            "journal.append, client.connect, or displace.fixpoint");
  EXPECT_EQ(CrashSiteNames.choices(),
            "cache.tmp-write, cache.pre-rename, cache.post-rename, "
            "checkpoint.append, serve.response, or pool.task");
  for (size_t I = 0; I != NumCrashSites; ++I) {
    auto Site = static_cast<CrashSite>(I);
    std::optional<CrashSite> Back = crashSiteByName(crashSiteName(Site));
    ASSERT_TRUE(Back.has_value()) << crashSiteName(Site);
    EXPECT_EQ(*Back, Site);
  }
  EXPECT_FALSE(crashSiteByName("not.a.site").has_value());
  EXPECT_EQ(faultSiteByName("tsp.transform"), FaultSite::TspTransform);
}

TEST(EnumTableTest, ChoicesReadAsAnEnglishList) {
  EXPECT_EQ(ObjectiveKindNames.choices(), "fallthrough or exttsp");
  EXPECT_EQ(OnErrorPolicyNames.choices(), "abort, fallback, or skip");
  EXPECT_EQ(PrimaryAlignerNames.choices(),
            "tsp, exttsp, cg, greedy, or original");
}

TEST(EnumTableTest, DecodeRejectsValueEqualToCount) {
  AlignRequest Plain;
  Plain.CfgText = SchemaCfg;
  AlignRequest Both = Plain;
  Both.HasObjective = true;
  Both.HasEncoding = true;
  std::string Full = encodeAlignRequest(Both);
  size_t Blocks = encodeAlignRequest(Plain).size();
  struct WireEnum {
    const char *Name;
    size_t Offset;
    size_t Count;
  };
  // Offsets: the fixed fields put effort at 20 and on-error at 21; the
  // objective block opens with primary then objective, and the encoding
  // block follows its 26 bytes.
  for (WireEnum E : {WireEnum{"effort", 20, EffortPolicyNames.count()},
                     WireEnum{"on-error", 21, OnErrorPolicyNames.count()},
                     WireEnum{"primary", Blocks, PrimaryAlignerNames.count()},
                     WireEnum{"objective", Blocks + 1,
                              ObjectiveKindNames.count()},
                     WireEnum{"encoding", Blocks + 26,
                              BranchEncodingNames.count()}}) {
    SCOPED_TRACE(E.Name);
    AlignRequest Out;
    std::string Bad = Full;
    Bad[E.Offset] = static_cast<char>(E.Count - 1);
    EXPECT_TRUE(decodeAlignRequest(Bad, Out, nullptr));
    Bad[E.Offset] = static_cast<char>(E.Count);
    std::string Error;
    EXPECT_FALSE(decodeAlignRequest(Bad, Out, &Error));
    EXPECT_NE(Error.find("unknown"), std::string::npos) << Error;
  }
}

//===--------------------------------------------------------------------===//
// Round trip: wire -> options -> fingerprint
//===--------------------------------------------------------------------===//

/// One result-affecting request field: how to set it off its default,
/// whether it survived a round trip and reached the options, and when
/// the fingerprint must key it (Fingerprint.cpp's rule).
struct FieldCase {
  const char *Name;
  void (*Set)(AlignRequest &);
  bool (*Survived)(const AlignRequest &Sent, const AlignRequest &Got);
  bool (*Applied)(const AlignRequest &Req, const AlignmentOptions &O);
  bool (*Keyed)(const AlignmentOptions &Context);
};

bool always(const AlignmentOptions &) { return true; }
bool never(const AlignmentOptions &) { return false; }
bool underTsp(const AlignmentOptions &O) {
  return O.Primary == PrimaryAligner::Tsp;
}
bool underExtTsp(const AlignmentOptions &O) {
  return O.Primary == PrimaryAligner::ExtTsp;
}
bool underShortLong(const AlignmentOptions &O) {
  return O.Model.Encoding == BranchEncoding::ShortLong;
}

const std::vector<FieldCase> &fieldCases() {
  static const std::vector<FieldCase> Cases = {
      {"seed", [](AlignRequest &R) { R.Seed = 99; },
       [](const AlignRequest &S, const AlignRequest &G) {
         return S.Seed == G.Seed;
       },
       [](const AlignRequest &R, const AlignmentOptions &O) {
         return O.Solver.Seed == R.Seed;
       },
       underTsp},
      // The schema program's procedures are cold under the small test
      // budget, so this policy routes them greedy-only — keyed always.
      {"effort",
       [](AlignRequest &R) { R.Effort = EffortPolicy::ScaledColdGreedy; },
       [](const AlignRequest &S, const AlignRequest &G) {
         return S.Effort == G.Effort;
       },
       [](const AlignRequest &R, const AlignmentOptions &O) {
         return O.Effort == R.Effort;
       },
       always},
      {"bounds", [](AlignRequest &R) { R.ComputeBounds = true; },
       [](const AlignRequest &S, const AlignRequest &G) {
         return S.ComputeBounds == G.ComputeBounds;
       },
       [](const AlignRequest &R, const AlignmentOptions &O) {
         return O.ComputeBounds == R.ComputeBounds;
       },
       always},
      // A failure policy never changes a successful result, so it is
      // deliberately not keyed (degraded results are never cached).
      {"on-error", [](AlignRequest &R) { R.OnError = OnErrorPolicy::Skip; },
       [](const AlignRequest &S, const AlignRequest &G) {
         return S.OnError == G.OnError;
       },
       [](const AlignRequest &R, const AlignmentOptions &O) {
         return O.OnError == R.OnError;
       },
       never},
      {"objective",
       [](AlignRequest &R) { R.Objective = ObjectiveKind::Fallthrough; },
       [](const AlignRequest &S, const AlignRequest &G) {
         return S.Objective == G.Objective;
       },
       [](const AlignRequest &R, const AlignmentOptions &O) {
         return O.Objective == R.Objective;
       },
       underExtTsp},
      {"exttsp-forward-window",
       [](AlignRequest &R) { R.ExtTspForwardWindow = 4096; },
       [](const AlignRequest &S, const AlignRequest &G) {
         return S.ExtTspForwardWindow == G.ExtTspForwardWindow;
       },
       [](const AlignRequest &R, const AlignmentOptions &O) {
         return O.Model.ExtTspForwardWindow == R.ExtTspForwardWindow;
       },
       underExtTsp},
      {"exttsp-backward-window",
       [](AlignRequest &R) { R.ExtTspBackwardWindow = 8; },
       [](const AlignRequest &S, const AlignRequest &G) {
         return S.ExtTspBackwardWindow == G.ExtTspBackwardWindow;
       },
       [](const AlignRequest &R, const AlignmentOptions &O) {
         return O.Model.ExtTspBackwardWindow == R.ExtTspBackwardWindow;
       },
       underExtTsp},
      {"exttsp-forward-weight",
       [](AlignRequest &R) { R.ExtTspForwardWeight = 0.75; },
       [](const AlignRequest &S, const AlignRequest &G) {
         return S.ExtTspForwardWeight == G.ExtTspForwardWeight;
       },
       [](const AlignRequest &R, const AlignmentOptions &O) {
         return O.Model.ExtTspForwardWeight == R.ExtTspForwardWeight;
       },
       underExtTsp},
      {"exttsp-backward-weight",
       [](AlignRequest &R) { R.ExtTspBackwardWeight = 3.5; },
       [](const AlignRequest &S, const AlignRequest &G) {
         return S.ExtTspBackwardWeight == G.ExtTspBackwardWeight;
       },
       [](const AlignRequest &R, const AlignmentOptions &O) {
         return O.Model.ExtTspBackwardWeight == R.ExtTspBackwardWeight;
       },
       underExtTsp},
      {"short-range", [](AlignRequest &R) { R.ShortBranchRange = 16; },
       [](const AlignRequest &S, const AlignRequest &G) {
         return S.ShortBranchRange == G.ShortBranchRange;
       },
       [](const AlignRequest &R, const AlignmentOptions &O) {
         return O.Model.ShortBranchRange == R.ShortBranchRange;
       },
       underShortLong},
      {"long-extra-instrs",
       [](AlignRequest &R) { R.LongBranchExtraInstrs = 3; },
       [](const AlignRequest &S, const AlignRequest &G) {
         return S.LongBranchExtraInstrs == G.LongBranchExtraInstrs;
       },
       [](const AlignRequest &R, const AlignmentOptions &O) {
         return O.Model.LongBranchExtraInstrs == R.LongBranchExtraInstrs;
       },
       underShortLong},
      {"long-penalty", [](AlignRequest &R) { R.LongBranchPenalty = 7; },
       [](const AlignRequest &S, const AlignRequest &G) {
         return S.LongBranchPenalty == G.LongBranchPenalty;
       },
       [](const AlignRequest &R, const AlignmentOptions &O) {
         return O.Model.LongBranchPenalty == R.LongBranchPenalty;
       },
       underShortLong},
  };
  return Cases;
}

/// The request after a trip over the wire.
AlignRequest roundTrip(const AlignRequest &Req) {
  AlignRequest Out;
  std::string Error;
  EXPECT_TRUE(decodeAlignRequest(encodeAlignRequest(Req), Out, &Error))
      << Error;
  return Out;
}

AlignmentOptions optionsOf(const AlignRequest &Req) {
  AlignmentOptions Options;
  applyAlignRequest(Req, Options);
  return Options;
}

/// Every procedure's fingerprint under \p Options, concatenated.
std::string fingerprints(const Program &Prog, const ProgramProfile &Train,
                         const AlignmentOptions &Options) {
  std::string Out;
  for (size_t P = 0; P != Prog.numProcedures(); ++P)
    Out += fingerprintProcedureInputs(Prog.proc(P), Train.Procs[P],
                                      Options, P)
               .str();
  return Out;
}

TEST(OptionsRoundTripTest, EveryFieldReachesOptionsAndKeysPerTheRule) {
  std::optional<Program> Prog = parseProgram(SchemaCfg);
  ASSERT_TRUE(Prog);
  ProgramProfile Train = synthesizeProfile(*Prog, 1, 16);
  for (PrimaryAligner Primary :
       {PrimaryAligner::Tsp, PrimaryAligner::ExtTsp, PrimaryAligner::Cg})
    for (BranchEncoding Encoding :
         {BranchEncoding::Fixed, BranchEncoding::ShortLong}) {
      AlignRequest Context;
      Context.CfgText = SchemaCfg;
      Context.HasObjective = true;
      Context.HasEncoding = true;
      Context.Primary = Primary;
      Context.Encoding = Encoding;
      AlignmentOptions Base = optionsOf(roundTrip(Context));
      std::string BaseKeys = fingerprints(*Prog, Train, Base);
      for (const FieldCase &Case : fieldCases()) {
        SCOPED_TRACE(std::string(Case.Name) + " under " +
                     PrimaryAlignerNames.name(Primary) + "/" +
                     BranchEncodingNames.name(Encoding));
        AlignRequest Sent = Context;
        Case.Set(Sent);
        AlignRequest Got = roundTrip(Sent);
        EXPECT_TRUE(Case.Survived(Sent, Got));
        EXPECT_EQ(encodeAlignRequest(Got), encodeAlignRequest(Sent));
        AlignmentOptions Options = optionsOf(Got);
        EXPECT_TRUE(Case.Applied(Got, Options));
        EXPECT_EQ(fingerprints(*Prog, Train, Options) != BaseKeys,
                  Case.Keyed(Base));
      }
    }
}

TEST(OptionsRoundTripTest, PrimaryAndEncodingAreAlwaysKeyed) {
  std::optional<Program> Prog = parseProgram(SchemaCfg);
  ASSERT_TRUE(Prog);
  ProgramProfile Train = synthesizeProfile(*Prog, 1, 16);
  AlignRequest Base;
  Base.CfgText = SchemaCfg;
  std::string BaseKeys =
      fingerprints(*Prog, Train, optionsOf(roundTrip(Base)));
  for (size_t P = 1; P != PrimaryAlignerNames.count(); ++P) {
    AlignRequest Req = Base;
    Req.HasObjective = true;
    Req.Primary = static_cast<PrimaryAligner>(P);
    AlignmentOptions Options = optionsOf(roundTrip(Req));
    EXPECT_EQ(Options.Primary, Req.Primary);
    EXPECT_NE(fingerprints(*Prog, Train, Options), BaseKeys) << P;
  }
  AlignRequest Req = Base;
  Req.HasEncoding = true;
  Req.Encoding = BranchEncoding::ShortLong;
  AlignmentOptions Options = optionsOf(roundTrip(Req));
  EXPECT_EQ(Options.Model.Encoding, BranchEncoding::ShortLong);
  EXPECT_NE(fingerprints(*Prog, Train, Options), BaseKeys);
}

TEST(OptionsRoundTripTest, AllDefaultBlocksAreANoOp) {
  std::optional<Program> Prog = parseProgram(SchemaCfg);
  ASSERT_TRUE(Prog);
  ProgramProfile Train = synthesizeProfile(*Prog, 1, 2000);
  AlignRequest Plain;
  Plain.CfgText = SchemaCfg;
  Plain.Budget = 2000;
  Plain.ComputeBounds = true;
  AlignmentOptions PlainOptions = optionsOf(roundTrip(Plain));
  AlignmentOptions Base;
  AlignService Service(Base);
  Frame PlainReply = Service.handleAlign(encodeAlignRequest(Plain));
  ASSERT_EQ(PlainReply.Type, FrameType::AlignOk) << PlainReply.Body;
  for (int Blocks = 1; Blocks != 4; ++Blocks) {
    AlignRequest Req = Plain;
    Req.HasObjective = Blocks & 1;
    Req.HasEncoding = Blocks & 2;
    SCOPED_TRACE(Blocks);
    EXPECT_NE(encodeAlignRequest(Req), encodeAlignRequest(Plain));
    EXPECT_EQ(fingerprints(*Prog, Train, optionsOf(roundTrip(Req))),
              fingerprints(*Prog, Train, PlainOptions));
    Frame Reply = Service.handleAlign(encodeAlignRequest(Req));
    EXPECT_EQ(Reply.Type, PlainReply.Type);
    EXPECT_EQ(Reply.Body, PlainReply.Body);
  }
}

//===--------------------------------------------------------------------===//
// Flags and help
//===--------------------------------------------------------------------===//

TEST(RequestFlagsHelpTest, EverySharedFlagHasOneEntry) {
  std::string Help = requestFlagsHelp();
  for (const char *Flag :
       {"--seed", "--budget", "--bounds", "--aligner", "--objective",
        "--exttsp-window", "--exttsp-weights", "--encoding", "--short-range",
        "--on-error", "--effort-policy"}) {
    SCOPED_TRACE(Flag);
    std::string Entry = std::string("\n  ") + Flag + " ";
    size_t At = Help.find(Entry);
    ASSERT_NE(At, std::string::npos);
    EXPECT_EQ(Help.find(Entry, At + 1), std::string::npos);
    // The parser owns the same flag: it consumes it (and a value).
    std::vector<std::string> Args = {"tool", Flag, "1"};
    if (std::string(Flag) == "--aligner")
      Args[2] = "cg";
    else if (std::string(Flag) == "--objective")
      Args[2] = "fallthrough";
    else if (std::string(Flag) == "--exttsp-weights")
      Args[2] = "1,1";
    else if (std::string(Flag) == "--encoding")
      Args[2] = "short-long";
    else if (std::string(Flag) == "--on-error")
      Args[2] = "skip";
    else if (std::string(Flag) == "--effort-policy")
      Args[2] = "scaled";
    std::vector<char *> Argv;
    for (std::string &A : Args)
      Argv.push_back(A.data());
    AlignRequest Req;
    RequestFlagsSeen Seen;
    int I = 1;
    EXPECT_EQ(parseRequestFlag(3, Argv.data(), I, Req, Seen), FlagParse::Ok);
  }
  EXPECT_EQ(Help.find("\n\n"), std::string::npos);
}

//===--------------------------------------------------------------------===//
// Byte pins: the encoded request corpus, one store file and one journal
// file hash to pinned constants. The three layouts are versioned
// (ServeProtocolVersion, CacheFormatVersion, AppendJournal::FormatVersion),
// so any drift in their bytes must fail here rather than ship unversioned.
//===--------------------------------------------------------------------===//

/// FNV-1a over \p Size bytes at \p Data.
uint64_t digest(const void *Data, size_t Size) {
  const uint8_t *P = static_cast<const uint8_t *>(Data);
  uint64_t H = 0xcbf29ce484222325ULL;
  for (size_t I = 0; I != Size; ++I) {
    H ^= P[I];
    H *= 0x100000001b3ULL;
  }
  return H;
}

uint64_t digestFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In.good()) << Path;
  std::string Bytes((std::istreambuf_iterator<char>(In)),
                    std::istreambuf_iterator<char>());
  return digest(Bytes.data(), Bytes.size());
}

/// Every enum value, each range boundary, and each block present and
/// absent.
std::vector<AlignRequest> pinnedRequests() {
  AlignRequest Base;
  Base.CfgText = SchemaCfg;
  std::vector<AlignRequest> Out = {Base};
  auto add = [&](auto Edit) {
    AlignRequest R = Base;
    Edit(R);
    Out.push_back(R);
  };
  add([](AlignRequest &R) {
    R.Seed = UINT64_MAX;
    R.Budget = 0;
    R.DeadlineMs = UINT32_MAX;
    R.ComputeBounds = true;
    R.HasProfile = true;
    R.ProfileText = "profile demo\n";
  });
  for (EffortPolicy E : {EffortPolicy::Uniform, EffortPolicy::Scaled,
                         EffortPolicy::ScaledColdGreedy})
    add([E](AlignRequest &R) { R.Effort = E; });
  for (OnErrorPolicy P :
       {OnErrorPolicy::Abort, OnErrorPolicy::Fallback, OnErrorPolicy::Skip})
    add([P](AlignRequest &R) { R.OnError = P; });
  add([](AlignRequest &R) { R.HasObjective = true; });
  for (PrimaryAligner P :
       {PrimaryAligner::Tsp, PrimaryAligner::ExtTsp, PrimaryAligner::Cg,
        PrimaryAligner::Greedy, PrimaryAligner::Original})
    add([P](AlignRequest &R) {
      R.HasObjective = true;
      R.Primary = P;
    });
  for (ObjectiveKind K : {ObjectiveKind::Fallthrough, ObjectiveKind::ExtTsp})
    add([K](AlignRequest &R) {
      R.HasObjective = true;
      R.Objective = K;
    });
  for (uint32_t Window : {1u, 1u << 20})
    add([Window](AlignRequest &R) {
      R.HasObjective = true;
      R.ExtTspForwardWindow = Window;
      R.ExtTspBackwardWindow = Window;
    });
  for (double Weight : {0.0, 1024.0})
    add([Weight](AlignRequest &R) {
      R.HasObjective = true;
      R.ExtTspForwardWeight = Weight;
      R.ExtTspBackwardWeight = Weight;
    });
  add([](AlignRequest &R) { R.HasEncoding = true; });
  for (BranchEncoding E : {BranchEncoding::Fixed, BranchEncoding::ShortLong})
    add([E](AlignRequest &R) {
      R.HasEncoding = true;
      R.Encoding = E;
    });
  for (uint64_t Range : {uint64_t(0), UINT64_MAX})
    add([Range](AlignRequest &R) {
      R.HasEncoding = true;
      R.ShortBranchRange = Range;
    });
  for (uint32_t Cost : {0u, 1u << 20})
    add([Cost](AlignRequest &R) {
      R.HasEncoding = true;
      R.LongBranchExtraInstrs = Cost;
      R.LongBranchPenalty = Cost;
    });
  add([](AlignRequest &R) {
    R.HasObjective = true;
    R.HasEncoding = true;
    R.Primary = PrimaryAligner::ExtTsp;
    R.Encoding = BranchEncoding::ShortLong;
  });
  return Out;
}

TEST(BytePinTest, EncodedRequestsMatchPinnedDigest) {
  std::string All;
  for (const AlignRequest &R : pinnedRequests()) {
    std::string Body = encodeAlignRequest(R);
    AlignRequest Decoded;
    std::string Error;
    EXPECT_TRUE(decodeAlignRequest(Body, Decoded, &Error)) << Error;
    EXPECT_EQ(encodeAlignRequest(Decoded), Body);
    All += encodeFrame(makeFrame(FrameType::Align, Body));
  }
  EXPECT_EQ(pinnedRequests().size(), 28u);
  EXPECT_EQ(digest(All.data(), All.size()), 0x454433707789401dULL);
}

TEST(BytePinTest, StoreFileMatchesPinnedDigest) {
  std::optional<Program> Prog = parseProgram(SchemaCfg);
  ASSERT_TRUE(Prog);
  ProgramProfile Train = synthesizeProfile(*Prog, 3, 400);
  AlignmentOptions Options;
  ProgramAlignment Result = alignProgram(*Prog, Train, Options);
  std::string Dir = ::testing::TempDir() + "balign_pin_store";
  std::filesystem::remove_all(Dir);
  {
    AlignmentCache Cache(Dir);
    for (size_t P = 0; P != Prog->numProcedures(); ++P)
      Cache.store(Prog->proc(P), Train.Procs[P], Options, P,
                  Result.Procs[P]);
    ASSERT_TRUE(Cache.flush());
  }
  EXPECT_EQ(digestFile(Dir + "/" + AlignmentCache::StoreFileName),
            0x3f819815a928c222ULL);
  // The pinned file reloads: every entry is a validated hit.
  AlignmentCache Reloaded(Dir);
  for (size_t P = 0; P != Prog->numProcedures(); ++P) {
    ProcedureAlignment Hit;
    EXPECT_TRUE(
        Reloaded.lookup(Prog->proc(P), Train.Procs[P], Options, P, Hit));
    EXPECT_EQ(Hit.TspLayout.Order, Result.Procs[P].TspLayout.Order);
  }
  std::filesystem::remove_all(Dir);
}

TEST(BytePinTest, JournalFileMatchesPinnedDigest) {
  std::string Path = ::testing::TempDir() + "balign_pin_journal";
  std::filesystem::remove(Path);
  const std::vector<std::string> Records = {"a.cfg", "b.cfg b.prof", ""};
  {
    AppendJournal Journal;
    ASSERT_TRUE(Journal.open(Path));
    for (const std::string &Record : Records)
      ASSERT_TRUE(Journal.append(Record));
  }
  EXPECT_EQ(digestFile(Path), 0xaa35bece11f4e81eULL);
  AppendJournal Reopened;
  ASSERT_TRUE(Reopened.open(Path));
  EXPECT_EQ(Reopened.records(), Records);
  EXPECT_FALSE(Reopened.stats().RecoveredTail);
  Reopened.close();
  std::filesystem::remove(Path);
}

} // namespace
