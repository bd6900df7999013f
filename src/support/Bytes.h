//===- support/Bytes.h - Little-endian byte codec -------------------------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// The byte code shared by every binary format balign writes: the serve
/// wire protocol, the cache store file and the checkpoint journal. All
/// three store integers little-endian, read untrusted bytes through one
/// bounds-checked reader, and write through one loop that survives
/// EINTR and short writes. Header-only: the serve hot path decodes a
/// request and writes a frame on every cache hit.
///
//===--------------------------------------------------------------------===//

#ifndef BALIGN_SUPPORT_BYTES_H
#define BALIGN_SUPPORT_BYTES_H

#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <string>
#include <unistd.h>

namespace balign {

/// Appends \p Value little-endian to \p Out (a std::string or a
/// std::vector<uint8_t>).
template <typename Buffer> void putU32(Buffer &Out, uint32_t Value) {
  for (int Shift = 0; Shift != 32; Shift += 8)
    Out.push_back(static_cast<typename Buffer::value_type>(Value >> Shift));
}

template <typename Buffer> void putU64(Buffer &Out, uint64_t Value) {
  for (int Shift = 0; Shift != 64; Shift += 8)
    Out.push_back(static_cast<typename Buffer::value_type>(Value >> Shift));
}

/// Bounds-checked little-endian reads over a byte span. Every read
/// fails (returns false, consuming nothing) instead of over-reading,
/// which is what keeps arbitrary fuzz bytes, torn files and hostile
/// frames crash-free.
class ByteReader {
public:
  ByteReader(const void *Data, size_t Size)
      : Data(static_cast<const uint8_t *>(Data)), Size(Size) {}
  explicit ByteReader(const std::string &Bytes)
      : ByteReader(Bytes.data(), Bytes.size()) {}

  bool u8(uint8_t &Out) {
    if (remaining() < 1)
      return false;
    Out = Data[Pos++];
    return true;
  }

  bool u32(uint32_t &Out) {
    if (remaining() < 4)
      return false;
    Out = 0;
    for (int Shift = 0; Shift != 32; Shift += 8)
      Out |= static_cast<uint32_t>(Data[Pos++]) << Shift;
    return true;
  }

  bool u64(uint64_t &Out) {
    if (remaining() < 8)
      return false;
    Out = 0;
    for (int Shift = 0; Shift != 64; Shift += 8)
      Out |= static_cast<uint64_t>(Data[Pos++]) << Shift;
    return true;
  }

  /// Copies the next \p Count bytes into \p Out (a std::string or a
  /// std::vector<uint8_t>).
  template <typename Buffer> bool bytes(size_t Count, Buffer &Out) {
    if (Count > remaining())
      return false;
    using Byte = typename Buffer::value_type;
    const Byte *First = reinterpret_cast<const Byte *>(Data + Pos);
    Out.assign(First, First + Count);
    Pos += Count;
    return true;
  }

  bool skip(size_t Count) {
    if (Count > remaining())
      return false;
    Pos += Count;
    return true;
  }

  size_t pos() const { return Pos; }
  size_t remaining() const { return Size - Pos; }
  bool atEnd() const { return Pos == Size; }

private:
  const uint8_t *Data;
  size_t Size;
  size_t Pos = 0;
};

/// Writes all of \p Data to \p Fd, retrying short writes and EINTR.
/// Returns false on any other outcome (EPIPE after the peer vanished,
/// ENOSPC, a zero-byte write) — never a partial write left unreported.
inline bool writeFull(int Fd, const void *Data, size_t Size) {
  const uint8_t *Bytes = static_cast<const uint8_t *>(Data);
  size_t Written = 0;
  while (Written != Size) {
    ssize_t N = ::write(Fd, Bytes + Written, Size - Written);
    if (N > 0) {
      Written += static_cast<size_t>(N);
      continue;
    }
    if (N < 0 && errno == EINTR)
      continue;
    return false;
  }
  return true;
}

} // namespace balign

#endif // BALIGN_SUPPORT_BYTES_H
