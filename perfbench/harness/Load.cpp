//===- perfbench/harness/Load.cpp - serve-mixed closed-loop load ----------===//
//
// Part of the balign benchmark.
//
// Drives `align_tool --serve SOCK` through ServeClient from C client
// threads in one process. Each client repeats a build step: connect, send
// one to four align requests, disconnect. About 80% of the requests repeat
// the pre-warmed corpus (cache hits); the rest are unique to the run
// (cache misses): a miss program's CFG with the profile synthesized from a
// seed no other request uses.
//
// The session sequence is a pure function of the seed. Sessions
// [0, fixed-sessions) form the fixed prefix: after it the clients stop, and
// the server's VmSize and Metrics frame are read, so both depend only on
// the seed. The closed loop then continues until --seconds have passed.
//
//===--------------------------------------------------------------------===//

#include "Bench.h"

#include "ir/TextFormat.h"
#include "profile/ProfileIO.h"
#include "serve/Client.h"
#include "support/Random.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <thread>

using namespace balign;
using namespace perfbench;

namespace {

/// Adds the extension blocks variant \p V selects.
void applyVariant(AlignRequest &R, const Variant &V) {
  if (V.Primary == PrimaryAligner::ExtTsp) {
    R.HasObjective = true;
    R.Primary = PrimaryAligner::ExtTsp;
  }
  if (V.ShortLong) {
    R.HasEncoding = true;
    R.Encoding = BranchEncoding::ShortLong;
    R.ShortBranchRange = FastBuildShortRange;
  }
}

} // namespace

AlignRequest perfbench::hitRequest(const BenchProgram &P, size_t Index) {
  AlignRequest R;
  R.CfgText = printProgram(P.Prog);
  R.HasProfile = true;
  R.ProfileText = printProgramProfile(P.Prog, P.Train);
  applyVariant(R, requestVariant(Index));
  return R;
}

std::vector<PlannedRequest> perfbench::planSession(uint64_t Seed,
                                                   uint64_t Session,
                                                   size_t HitEntries,
                                                   size_t MissPrograms) {
  Rng R(Seed * 0x100000001b3ULL + Session);
  std::vector<PlannedRequest> Plan(1 + R.nextIndex(4));
  for (size_t J = 0; J != Plan.size(); ++J) {
    PlannedRequest &P = Plan[J];
    P.Hit = !R.nextBool(MissShare);
    if (P.Hit) {
      P.Entry = R.nextIndex(HitEntries);
      P.VariantKey = P.Entry;
    } else {
      // Unique per request: at most four requests per session.
      P.MissNumber = Session * 4 + J;
      P.Entry = P.MissNumber % MissPrograms;
      P.VariantKey = R.nextIndex(8);
    }
  }
  return Plan;
}

AlignRequest perfbench::missRequest(const std::string &CfgText,
                                    const PlannedRequest &P) {
  AlignRequest R;
  R.CfgText = CfgText;
  // No profile text: the server synthesizes one from the seed, and the
  // seed is unique to this request, so every procedure misses the cache.
  R.Seed = FirstMissSeed + P.MissNumber;
  R.Budget = MissProfileBudget;
  applyVariant(R, requestVariant(P.VariantKey));
  return R;
}

uint64_t perfbench::fnv1a(const std::string &Bytes) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (unsigned char C : Bytes) {
    H ^= C;
    H *= 0x100000001b3ULL;
  }
  return H;
}

ServeCorpus perfbench::loadCorpus(const std::string &Dir) {
  ServeCorpus C;
  for (size_t I = 0;; ++I) {
    std::string Path = hitRequestPath(Dir, I);
    if (FILE *F = std::fopen(Path.c_str(), "rb"))
      std::fclose(F);
    else
      break;
    C.HitBodies.push_back(readFile(Path));
  }
  for (size_t I = 0;; ++I) {
    std::string Path = Dir + "/miss" + std::to_string(I) + ".cfg";
    if (FILE *F = std::fopen(Path.c_str(), "rb"))
      std::fclose(F);
    else
      break;
    C.MissCfgs.push_back(readFile(Path));
  }
  if (C.HitBodies.empty() || C.MissCfgs.empty())
    throw std::runtime_error("no serve corpus under " + Dir);
  return C;
}

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
}

/// Reads one "Key:  N kB" line of /proc/PID/status, in MiB.
double procStatusMiB(uint64_t Pid, const std::string &Key) {
  std::string Status = readFile("/proc/" + std::to_string(Pid) + "/status");
  size_t At = Status.find(Key + ":");
  if (At == std::string::npos)
    throw std::runtime_error("no " + Key + " in /proc status");
  return std::strtod(Status.c_str() + At + Key.size() + 1, nullptr) / 1024.0;
}

/// The align request frame for one planned request.
Frame planFrame(const ServeCorpus &C, const PlannedRequest &P) {
  if (P.Hit)
    return makeFrame(FrameType::Align, C.HitBodies[P.Entry]);
  return makeFrame(FrameType::Align,
                   encodeAlignRequest(missRequest(C.MissCfgs[P.Entry], P)));
}

/// Per-client measurements, merged after the clients join.
struct ClientLog {
  std::vector<double> Rtt;     ///< Every align request; failures = +inf.
  std::vector<double> RttHit, RttMiss, Connect;
  uint64_t Attempted = 0, Failed = 0, Requests = 0, Hits = 0, Misses = 0;
  uint64_t ExtTsp = 0, Encoded = 0;
  std::vector<std::string> Errors;
  /// (session, request, reply digest) of the fixed prefix.
  std::vector<std::string> FixedDigests;
};

void fail(ClientLog &Log, const std::string &What) {
  ++Log.Failed;
  if (Log.Errors.size() < 10)
    Log.Errors.push_back(What);
}

/// One build step: connect, send the session's requests, disconnect.
void runSession(const std::string &Sock, const ServeCorpus &C,
                const std::vector<std::string> &Cold, uint64_t Seed,
                uint64_t Session, bool Fixed, ClientLog &Log) {
  std::vector<PlannedRequest> Plan =
      planSession(Seed, Session, C.HitBodies.size(), C.MissCfgs.size());
  ServeClient Client;
  std::string Error;
  ++Log.Attempted;
  Clock::time_point T0 = Clock::now();
  bool Connected = Client.connectUnix(Sock, &Error);
  Log.Connect.push_back(msSince(T0));
  if (!Connected) {
    fail(Log, "connect: " + Error);
    // Every request of the session is lost; each misses any limit.
    for (size_t J = 0; J != Plan.size(); ++J) {
      ++Log.Attempted;
      ++Log.Requests;
      Log.Rtt.push_back(std::numeric_limits<double>::infinity());
      fail(Log, "request not sent: no connection");
    }
    return;
  }
  for (size_t J = 0; J != Plan.size(); ++J) {
    const PlannedRequest &P = Plan[J];
    Variant V = requestVariant(P.VariantKey);
    Log.ExtTsp += V.Primary == PrimaryAligner::ExtTsp;
    Log.Encoded += V.ShortLong;
    ++Log.Attempted;
    ++Log.Requests;
    (P.Hit ? Log.Hits : Log.Misses)++;
    Frame Request = planFrame(C, P), Response;
    Clock::time_point Sent = Clock::now();
    bool Ok = Client.call(Request, Response, &Error);
    double Ms = msSince(Sent);
    std::string Tag =
        "session " + std::to_string(Session) + " request " + std::to_string(J);
    if (!Ok) {
      fail(Log, Tag + ": transport: " + Error);
    } else if (Response.Type != FrameType::AlignOk) {
      FrameError Code = FrameError::None;
      std::string Message;
      decodeErrorFrame(Response, Code, Message);
      fail(Log, Tag + ": " + frameErrorName(Code) + ": " + Message);
      Ok = false;
    } else if (P.Hit && Response.Body != Cold[P.Entry]) {
      fail(Log, Tag + ": warm reply differs from the cold reply of entry " +
                    std::to_string(P.Entry));
      Ok = false;
    }
    Log.Rtt.push_back(Ok ? Ms : std::numeric_limits<double>::infinity());
    if (Ok)
      (P.Hit ? Log.RttHit : Log.RttMiss).push_back(Ms);
    if (Fixed)
      Log.FixedDigests.push_back(std::to_string(Session) + " " +
                                 std::to_string(J) + " " +
                                 std::to_string(Ok ? fnv1a(Response.Body) : 0));
    if (!Ok) {
      // The connection state is unknown: end the build step, and count
      // its unsent requests as failed (each misses any latency limit).
      for (size_t K = J + 1; K != Plan.size(); ++K) {
        ++Log.Attempted;
        ++Log.Requests;
        Log.Rtt.push_back(std::numeric_limits<double>::infinity());
        fail(Log, Tag + ": later request not sent");
      }
      return;
    }
  }
}

double percentile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(Q * V.size()));
  return V[std::min(V.size() - 1, Rank ? Rank - 1 : 0)];
}

std::string metricsFrame(const std::string &Sock) {
  ServeClient Client;
  std::string Error;
  Frame Response;
  if (!Client.connectUnix(Sock, &Error) ||
      !Client.call(makeFrame(FrameType::Metrics), Response, &Error) ||
      Response.Type != FrameType::MetricsOk)
    throw std::runtime_error("metrics frame: " + Error);
  std::string Body = Response.Body;
  while (!Body.empty() && Body.back() == '\n')
    Body.pop_back();
  return Body;
}

/// prewarm: sends every corpus entry once over C connections and keeps
/// the (cold) replies; the run phase compares warm replies against them.
int prewarm(const Args &A, const ServeCorpus &C) {
  std::string Dir = A.str("dir"), Sock = A.str("sock");
  size_t Clients = A.num("clients");
  std::atomic<size_t> Next{0};
  std::vector<std::string> Replies(C.HitBodies.size());
  std::vector<std::string> Errors;
  std::mutex ErrorsMutex;
  // Solve-path entries first and the cheap exttsp ones last, so the
  // clients finish together and the wall time does not hinge on which
  // entry happens to come last.
  std::vector<size_t> Order;
  for (bool ExtTsp : {false, true})
    for (size_t I = 0; I != C.HitBodies.size(); ++I)
      if ((requestVariant(I).Primary == PrimaryAligner::ExtTsp) == ExtTsp)
        Order.push_back(I);
  std::vector<std::thread> Threads;
  Clock::time_point T0 = Clock::now();
  for (size_t T = 0; T != Clients; ++T)
    Threads.emplace_back([&] {
      ServeClient Client;
      std::string Error;
      bool Connected = Client.connectUnix(Sock, &Error);
      for (size_t K; (K = Next.fetch_add(1)) < Order.size();) {
        size_t I = Order[K];
        Frame Response;
        if (!Connected ||
            !Client.call(makeFrame(FrameType::Align, C.HitBodies[I]),
                         Response, &Error) ||
            Response.Type != FrameType::AlignOk) {
          std::lock_guard<std::mutex> Lock(ErrorsMutex);
          Errors.push_back("entry " + std::to_string(I) + ": " + Error);
          continue;
        }
        Replies[I] = std::move(Response.Body);
      }
    });
  for (std::thread &T : Threads)
    T.join();
  double WallS = msSince(T0) / 1000.0;
  for (size_t I = 0; I != Replies.size(); ++I)
    writeFile(coldReplyPath(Dir, I), Replies[I]);
  std::printf("%s\n", JsonObject()
                          .count("attempted", C.HitBodies.size() + Clients)
                          .count("failed", Errors.size())
                          .num("wall_s", WallS)
                          .str("first_error", Errors.empty() ? "" : Errors[0])
                          .render()
                          .c_str());
  return Errors.empty() ? 0 : 1;
}

} // namespace

/// load: --phase prewarm sends the corpus cold; --phase run is the timed
/// closed loop. Prints one JSON object.
int perfbench::runLoad(const Args &A) {
  std::string Dir = A.str("dir");
  ServeCorpus C = loadCorpus(Dir);
  if (A.str("phase") == "prewarm")
    return prewarm(A, C);

  std::string Sock = A.str("sock");
  uint64_t Seed = A.num("seed"), Pid = A.num("server-pid");
  uint64_t FixedSessions = A.num("fixed-sessions");
  size_t Clients = A.num("clients");
  double Seconds = static_cast<double>(A.num("seconds"));
  std::vector<std::string> Cold;
  for (size_t I = 0; I != C.HitBodies.size(); ++I)
    Cold.push_back(readFile(coldReplyPath(Dir, I)));

  std::vector<ClientLog> Logs(Clients);
  std::atomic<uint64_t> NextSession{0};
  auto runPhase = [&](uint64_t End, Clock::time_point Deadline) {
    std::vector<std::thread> Threads;
    for (size_t T = 0; T != Clients; ++T)
      Threads.emplace_back([&, T] {
        for (uint64_t S; Clock::now() < Deadline &&
                         (S = NextSession.fetch_add(1)) < End;)
          runSession(Sock, C, Cold, Seed, S, S < FixedSessions, Logs[T]);
      });
    for (std::thread &T : Threads)
      T.join();
  };

  Clock::time_point T0 = Clock::now();
  runPhase(FixedSessions, Clock::time_point::max());
  double VmMiB = procStatusMiB(Pid, "VmSize");
  double FixedHwmMiB = procStatusMiB(Pid, "VmHWM");
  std::string FixedMetrics = metricsFrame(Sock);
  NextSession = FixedSessions;
  runPhase(std::numeric_limits<uint64_t>::max(),
           T0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(Seconds)));
  double ElapsedS = msSince(T0) / 1000.0;
  std::string EndMetrics = metricsFrame(Sock);

  ClientLog All;
  for (ClientLog &L : Logs) {
    All.Rtt.insert(All.Rtt.end(), L.Rtt.begin(), L.Rtt.end());
    All.RttHit.insert(All.RttHit.end(), L.RttHit.begin(), L.RttHit.end());
    All.RttMiss.insert(All.RttMiss.end(), L.RttMiss.begin(), L.RttMiss.end());
    All.Connect.insert(All.Connect.end(), L.Connect.begin(), L.Connect.end());
    All.FixedDigests.insert(All.FixedDigests.end(), L.FixedDigests.begin(),
                            L.FixedDigests.end());
    All.Errors.insert(All.Errors.end(), L.Errors.begin(), L.Errors.end());
    All.Attempted += L.Attempted;
    All.Failed += L.Failed;
    All.Requests += L.Requests;
    All.Hits += L.Hits;
    All.Misses += L.Misses;
    All.ExtTsp += L.ExtTsp;
    All.Encoded += L.Encoded;
  }
  std::sort(All.FixedDigests.begin(), All.FixedDigests.end());
  std::string Digests;
  for (const std::string &D : All.FixedDigests)
    Digests += D + "\n";
  writeFile(Dir + "/fixed_digests.txt", Digests);

  uint64_t Completed = All.RttHit.size() + All.RttMiss.size();
  std::string Errors = "[";
  for (size_t I = 0; I != All.Errors.size() && I != 10; ++I)
    Errors += (I ? "," : "") + jsonString(All.Errors[I]);
  std::printf(
      "%s\n",
      JsonObject()
          .count("attempted", All.Attempted)
          .count("failed", All.Failed)
          .count("requests", All.Requests)
          .count("hits", All.Hits)
          .count("misses", All.Misses)
          .count("exttsp_requests", All.ExtTsp)
          .count("encoded_requests", All.Encoded)
          .count("sessions", All.Connect.size())
          .num("elapsed_s", ElapsedS)
          .num("p50_ms", percentile(All.Rtt, 0.50))
          .num("p99_ms", percentile(All.Rtt, 0.99))
          .count("p99_samples_beyond", All.Rtt.size() / 100)
          .num("rps", static_cast<double>(Completed) / ElapsedS)
          .num("vm_mib", VmMiB)
          .num("fixed_hwm_mib", FixedHwmMiB)
          .num("connect_ms", percentile(All.Connect, 0.50))
          .num("rtt_hit_ms", percentile(All.RttHit, 0.50))
          .num("rtt_miss_ms", percentile(All.RttMiss, 0.50))
          .raw("fixed_metrics", FixedMetrics)
          .raw("end_metrics", EndMetrics)
          .raw("first_errors", Errors + "]")
          .render()
          .c_str());
  return All.Failed == 0 ? 0 : 1;
}
