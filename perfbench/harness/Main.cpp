//===- perfbench/harness/Main.cpp - balign_bench entry point --------------===//
//
// Part of the balign benchmark.
//
// Usage: balign_bench gen|check|load|replay --key value ...
// See perfbench/README.md for what each subcommand does.
//
//===--------------------------------------------------------------------===//

#include "Bench.h"

#include "ir/TextFormat.h"
#include "profile/ProfileIO.h"
#include "serve/Protocol.h"
#include "support/Parse.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <sys/stat.h>

using namespace balign;
using namespace perfbench;

Args::Args(int Argc, char **Argv) {
  for (int I = 0; I + 1 < Argc; I += 2) {
    std::string Key = Argv[I];
    if (Key.rfind("--", 0) != 0)
      throw std::runtime_error("expected --key, got '" + Key + "'");
    Values[Key.substr(2)] = Argv[I + 1];
  }
  if (Argc % 2)
    throw std::runtime_error(std::string("missing value for ") +
                             Argv[Argc - 1]);
}

std::string Args::str(const std::string &Key) const {
  auto It = Values.find(Key);
  if (It == Values.end())
    throw std::runtime_error("missing --" + Key);
  return It->second;
}

uint64_t Args::num(const std::string &Key) const {
  std::optional<uint64_t> V = parseFlagInt(str(Key));
  if (!V)
    throw std::runtime_error("--" + Key + " is not a whole number");
  return *V;
}

Workload Args::workload() const {
  Workload W;
  if (!parseWorkload(str("workload"), W))
    throw std::runtime_error("unknown workload '" + str("workload") + "'");
  return W;
}

std::string perfbench::readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    throw std::runtime_error("cannot read " + Path);
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

void perfbench::writeFile(const std::string &Path,
                          const std::string &Contents) {
  std::ofstream Out(Path, std::ios::binary);
  Out << Contents;
  if (!Out)
    throw std::runtime_error("cannot write " + Path);
}

std::string perfbench::jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out + "\"";
}

void JsonObject::key(const std::string &Key) {
  if (!Body.empty())
    Body += ",";
  Body += jsonString(Key) + ":";
}

JsonObject &JsonObject::num(const std::string &Key, double Value) {
  key(Key);
  // Python's json module reads NaN and Infinity; run.py turns them into
  // a value that misses every limit.
  if (std::isnan(Value)) {
    Body += "NaN";
  } else if (std::isinf(Value)) {
    Body += Value > 0 ? "Infinity" : "-Infinity";
  } else {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g", Value);
    Body += Buf;
  }
  return *this;
}

JsonObject &JsonObject::count(const std::string &Key, uint64_t Value) {
  key(Key);
  Body += std::to_string(Value);
  return *this;
}

JsonObject &JsonObject::str(const std::string &Key, const std::string &Value) {
  key(Key);
  Body += jsonString(Value);
  return *this;
}

JsonObject &JsonObject::raw(const std::string &Key, const std::string &Json) {
  key(Key);
  Body += Json;
  return *this;
}

std::string perfbench::hitRequestPath(const std::string &Dir, size_t Index) {
  return Dir + "/hit" + std::to_string(Index) + ".req";
}

std::string perfbench::coldReplyPath(const std::string &Dir, size_t Index) {
  return Dir + "/hit" + std::to_string(Index) + ".cold";
}

namespace {

/// The input shape gen reports: sizes and the procedure-size histogram.
std::string shapeJson(const std::vector<BenchProgram> &Programs) {
  static const unsigned Edges[] = {15, 30, 45, 70, 100};
  std::vector<uint64_t> Hist(std::size(Edges) + 1, 0);
  uint64_t Procs = 0, Blocks = 0, MaxBlocks = 0;
  for (const BenchProgram &P : Programs)
    for (const Procedure &Proc : P.Prog.procedures()) {
      ++Procs;
      Blocks += Proc.numBlocks();
      MaxBlocks = std::max<uint64_t>(MaxBlocks, Proc.numBlocks());
      size_t Bucket = 0;
      while (Bucket != std::size(Edges) && Proc.numBlocks() > Edges[Bucket])
        ++Bucket;
      ++Hist[Bucket];
    }
  JsonObject H;
  unsigned Lo = 1;
  for (size_t B = 0; B != Hist.size(); ++B) {
    std::string Label = std::to_string(Lo) + "-" +
                        (B == std::size(Edges) ? std::string("up")
                                               : std::to_string(Edges[B]));
    H.count(Label, Hist[B]);
    if (B != std::size(Edges))
      Lo = Edges[B] + 1;
  }
  return JsonObject()
      .count("programs", Programs.size())
      .count("procedures", Procs)
      .count("blocks", Blocks)
      .count("max_cities", MaxBlocks + 1)
      .raw("blocks_histogram", H.render())
      .render();
}

} // namespace

/// gen: writes the workload's inputs under --dir. Batch workloads get one
/// .cfg/.prof pair per program plus list.txt, and the align_tool flags to
/// run them with; serve-mixed gets the encoded hit-corpus request bodies
/// and the miss programs' CFG text.
int perfbench::runGen(const Args &A) {
  Workload W = A.workload();
  uint64_t Seed = A.num("seed");
  std::string Dir = A.str("dir");
  ::mkdir(Dir.c_str(), 0755);
  std::vector<BenchProgram> Programs = makePrograms(W, Seed);
  JsonObject Out;
  Out.raw("shape", shapeJson(Programs));
  if (W != Workload::ServeMixed) {
    std::string List;
    for (const BenchProgram &P : Programs) {
      writeFile(Dir + "/" + P.Stem + ".cfg", printProgram(P.Prog));
      writeFile(Dir + "/" + P.Stem + ".prof",
                printProgramProfile(P.Prog, P.Train));
      List += P.Stem + ".cfg " + P.Stem + ".prof\n";
    }
    writeFile(Dir + "/list.txt", List);
    std::string Flags = "[";
    for (const std::string &F : batchFlags(W))
      Flags += (Flags.size() > 1 ? "," : "") + jsonString(F);
    Out.raw("align_tool_flags", Flags + "]");
  } else {
    for (size_t I = 0; I != Programs.size(); ++I)
      writeFile(hitRequestPath(Dir, I),
                encodeAlignRequest(hitRequest(Programs[I], I)));
    std::vector<BenchProgram> Misses = makeMissPrograms(Seed);
    for (size_t I = 0; I != Misses.size(); ++I)
      writeFile(Dir + "/miss" + std::to_string(I) + ".cfg",
                printProgram(Misses[I].Prog));
    Out.raw("miss_shape", shapeJson(Misses));
  }
  std::printf("%s\n", Out.render().c_str());
  return 0;
}

int main(int Argc, char **Argv) {
  if (Argc < 2) {
    std::fprintf(stderr, "usage: balign_bench gen|check|load|replay "
                         "--key value ...\n");
    return 2;
  }
  std::string Cmd = Argv[1];
  try {
    Args A(Argc - 2, Argv + 2);
    if (Cmd == "gen")
      return runGen(A);
    if (Cmd == "check")
      return runCheck(A);
    if (Cmd == "load")
      return runLoad(A);
    if (Cmd == "replay")
      return runReplay(A);
    std::fprintf(stderr, "error: unknown subcommand '%s'\n", Cmd.c_str());
  } catch (const std::exception &E) {
    std::fprintf(stderr, "error: %s\n", E.what());
  }
  return 2;
}
