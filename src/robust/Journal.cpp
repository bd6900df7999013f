//===- robust/Journal.cpp -------------------------------------------------===//

#include "robust/Journal.h"

#include "robust/CrashInjector.h"
#include "robust/FaultInjector.h"
#include "support/Bytes.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include <fcntl.h>
#include <unistd.h>

using namespace balign;

const char AppendJournal::Magic[8] = {'B', 'A', 'L', 'N',
                                      'J', 'R', 'N', 'L'};

namespace {

constexpr size_t HeaderBytes = sizeof(AppendJournal::Magic) +
                               2 * sizeof(uint32_t);
/// Checkpoint records are file paths; anything near this is a corrupt
/// length field, not a record.
constexpr uint32_t MaxRecordBytes = 1u << 20;

std::string headerBytes() {
  std::string Out(AppendJournal::Magic, sizeof(AppendJournal::Magic));
  putU32(Out, AppendJournal::FormatVersion);
  putU32(Out, 0); // Reserved.
  return Out;
}

std::string encodeRecord(const std::string &Record) {
  std::string Out;
  putU32(Out, static_cast<uint32_t>(Record.size()));
  Out += Record;
  putU64(Out, journalChecksum(Record.data(), Record.size()));
  return Out;
}

} // namespace

uint64_t balign::journalChecksum(const void *Data, size_t Size) {
  // FNV-1a with a splitmix64 finalizer: cheap, and a single flipped bit
  // anywhere in the record flips about half the checksum.
  const uint8_t *P = static_cast<const uint8_t *>(Data);
  uint64_t H = 0xcbf29ce484222325ULL;
  for (size_t I = 0; I != Size; ++I) {
    H ^= P[I];
    H *= 0x100000001b3ULL;
  }
  H += 0x9e3779b97f4a7c15ULL;
  H = (H ^ (H >> 30)) * 0xbf58476d1ce4e5b9ULL;
  H = (H ^ (H >> 27)) * 0x94d049bb133111ebULL;
  return H ^ (H >> 31);
}

std::string JournalStats::summary() const {
  char Buffer[192];
  std::snprintf(Buffer, sizeof(Buffer),
                "records=%llu torn-bytes=%llu recovered=%d migrated=%d "
                "appends=%llu append-failures=%llu",
                static_cast<unsigned long long>(Records),
                static_cast<unsigned long long>(TornBytes),
                RecoveredTail ? 1 : 0, MigratedLegacy ? 1 : 0,
                static_cast<unsigned long long>(Appends),
                static_cast<unsigned long long>(AppendFailures));
  return Buffer;
}

void AppendJournal::close() {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
}

bool AppendJournal::writeHeaderLocked(std::string *Error) {
  std::string Header = headerBytes();
  if (!writeFull(Fd, Header.data(), Header.size())) {
    if (Error)
      *Error = "cannot write journal header to '" + Path +
               "': " + std::strerror(errno);
    return false;
  }
  if (Durable == Durability::Full &&
      (!fsyncFd(Fd) || !fsyncParentDirectory(Path))) {
    if (Error)
      *Error = "cannot fsync journal '" + Path + "': " +
               std::strerror(errno);
    return false;
  }
  return true;
}

bool AppendJournal::migrateLegacy(const std::string &Contents,
                                  std::string *Error) {
  // A pre-sentinel checkpoint: raw text lines. Its entries become
  // records and the file is rewritten in journal format through the
  // same fsync'd tmp-write-then-rename discipline the cache store uses,
  // so a kill mid-migration leaves either the old file or the new one,
  // never a hybrid.
  std::istringstream In(Contents);
  std::string Line;
  std::string NewContents = headerBytes();
  while (std::getline(In, Line)) {
    if (Line.empty())
      continue;
    Records.push_back(Line);
    NewContents += encodeRecord(Line);
  }
  Stats.MigratedLegacy = true;
  Stats.Records = Records.size();

  std::string TmpPath = Path + ".tmp." + std::to_string(::getpid());
  int TmpFd = ::open(TmpPath.c_str(),
                     O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (TmpFd < 0 || !writeFull(TmpFd, NewContents.data(),
                             NewContents.size()) ||
      (Durable == Durability::Full && !fsyncFd(TmpFd))) {
    if (Error)
      *Error = "cannot migrate legacy checkpoint '" + Path +
               "': " + std::strerror(errno);
    if (TmpFd >= 0)
      ::close(TmpFd);
    ::unlink(TmpPath.c_str());
    return false;
  }
  ::close(TmpFd);
  if (::rename(TmpPath.c_str(), Path.c_str()) != 0) {
    if (Error)
      *Error = "cannot replace legacy checkpoint '" + Path +
               "': " + std::strerror(errno);
    ::unlink(TmpPath.c_str());
    return false;
  }
  if (Durable == Durability::Full)
    fsyncParentDirectory(Path); // Best effort: data already renamed in.
  return true;
}

bool AppendJournal::open(const std::string &Path, std::string *Error) {
  close();
  Records.clear();
  Stats = JournalStats();
  this->Path = Path;

  std::string Contents;
  {
    std::ifstream In(Path, std::ios::binary);
    if (In)
      Contents.assign((std::istreambuf_iterator<char>(In)),
                      std::istreambuf_iterator<char>());
  }

  bool IsLegacy =
      !Contents.empty() &&
      std::memcmp(Contents.data(), Magic,
                  std::min(Contents.size(), sizeof(Magic))) != 0;
  if (IsLegacy && !migrateLegacy(Contents, Error))
    return false;

  Fd = ::open(Path.c_str(), O_RDWR | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
  if (Fd < 0) {
    if (Error)
      *Error = "cannot open journal '" + Path + "': " +
               std::strerror(errno);
    return false;
  }
  if (IsLegacy)
    return true; // migrateLegacy already parsed and persisted.

  if (Contents.empty())
    return writeHeaderLocked(Error) || (close(), false);

  if (Contents.size() < HeaderBytes) {
    // Our magic, cut off mid-header: a kill during journal creation.
    // Start over from scratch; there were no records to lose.
    Stats.RecoveredTail = true;
    Stats.TornBytes = Contents.size();
    if (::ftruncate(Fd, 0) != 0) {
      if (Error)
        *Error = "cannot truncate torn journal '" + Path + "': " +
                 std::strerror(errno);
      close();
      return false;
    }
    return writeHeaderLocked(Error) || (close(), false);
  }

  ByteReader In(Contents);
  uint32_t Version = 0;
  In.skip(sizeof(Magic));
  In.u32(Version);
  if (Version != FormatVersion) {
    // Refuse rather than guess: silently clobbering a future-format
    // journal could re-run (or skip) someone's completed work.
    if (Error)
      *Error = "journal '" + Path + "' has unsupported version " +
               std::to_string(Version);
    close();
    return false;
  }
  In.skip(sizeof(uint32_t)); // Reserved.

  size_t GoodEnd = In.pos();
  while (!In.atEnd()) {
    uint32_t Size = 0;
    std::string Record;
    uint64_t Checksum = 0;
    // Stop at the first torn size, corrupt length field, torn record or
    // checksum, or bit rot: everything before it is good.
    if (!In.u32(Size) || Size > MaxRecordBytes || !In.bytes(Size, Record) ||
        !In.u64(Checksum) ||
        Checksum != journalChecksum(Record.data(), Record.size()))
      break;
    Records.push_back(std::move(Record));
    GoodEnd = In.pos();
  }
  Stats.Records = Records.size();
  if (GoodEnd < Contents.size()) {
    // Truncate-and-salvage: drop the torn tail now so the next append
    // starts at a clean record boundary.
    Stats.RecoveredTail = true;
    Stats.TornBytes = Contents.size() - GoodEnd;
    if (::ftruncate(Fd, static_cast<off_t>(GoodEnd)) != 0) {
      if (Error)
        *Error = "cannot truncate torn journal '" + Path + "': " +
                 std::strerror(errno);
      close();
      return false;
    }
    if (Durable == Durability::Full && !fsyncFd(Fd)) {
      if (Error)
        *Error = "cannot fsync journal '" + Path + "': " +
                 std::strerror(errno);
      close();
      return false;
    }
  }
  return true;
}

bool AppendJournal::append(const std::string &Record, std::string *Error) {
  if (Fd < 0) {
    if (Error)
      *Error = "journal is not open";
    ++Stats.AppendFailures;
    return false;
  }
  // balign-shield fault site: an injectable append failure, reported
  // through the error return like the cache's disk faults.
  if (FaultInjector::instance().shouldFail(FaultSite::JournalAppend)) {
    if (Error)
      *Error = "injected fault at 'journal.append'";
    ++Stats.AppendFailures;
    return false;
  }

  std::string Encoded = encodeRecord(Record);
  off_t Before = ::lseek(Fd, 0, SEEK_END);
  // balign-sentinel crash site: die with only half the record written —
  // the torn tail open()'s salvage must truncate away.
  size_t Half = Encoded.size() / 2;
  bool Ok = writeFull(Fd, Encoded.data(), Half);
  if (Ok)
    CrashInjector::instance().crashPoint(CrashSite::CheckpointAppend);
  Ok = Ok && writeFull(Fd, Encoded.data() + Half, Encoded.size() - Half);
  if (Ok && Durable == Durability::Full)
    Ok = fsyncFd(Fd);
  if (!Ok) {
    if (Error)
      *Error = "cannot append to journal '" + Path + "': " +
               std::strerror(errno);
    // A partial in-process write would poison every later record on
    // reload (the scan stops at the first bad one), so roll the file
    // back to the last clean boundary immediately.
    if (Before >= 0 && ::ftruncate(Fd, Before) == 0 &&
        Durable == Durability::Full)
      fsyncFd(Fd);
    ++Stats.AppendFailures;
    return false;
  }
  Records.push_back(Record);
  ++Stats.Appends;
  return true;
}
