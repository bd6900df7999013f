//===- support/EnumNames.h - One spelling table per option enum -----------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// The accepted spellings of a small option enum, declared once. A table
/// maps the enum's values 0..N-1, in order, to their stable flag
/// spellings. The flag parser, the wire decoder's range check, the
/// "unknown value" errors and the --help text all read the same table,
/// so appending an enum value means appending one spelling.
///
//===--------------------------------------------------------------------===//

#ifndef BALIGN_SUPPORT_ENUMNAMES_H
#define BALIGN_SUPPORT_ENUMNAMES_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace balign {

template <typename Enum, size_t N> struct EnumNames {
  /// Spellings indexed by enum value.
  const char *Names[N];

  /// Number of values; every value below it is defined.
  static constexpr size_t count() { return N; }

  /// The spelling of \p Value; "unknown" outside the table.
  constexpr const char *name(Enum Value) const {
    auto Index = static_cast<size_t>(Value);
    return Index < N ? Names[Index] : "unknown";
  }

  /// Parses a spelling. Returns false (leaving \p Out alone) on anything
  /// else.
  bool parse(std::string_view Text, Enum &Out) const {
    for (size_t I = 0; I != N; ++I)
      if (Text == Names[I]) {
        Out = static_cast<Enum>(I);
        return true;
      }
    return false;
  }

  /// Accepts a wire byte that names a value of the table. Returns false
  /// (leaving \p Out alone) for every byte at or past count().
  constexpr bool fromByte(uint8_t Byte, Enum &Out) const {
    if (Byte >= N)
      return false;
    Out = static_cast<Enum>(Byte);
    return true;
  }

  /// The spellings as an English list: "a or b", "a, b, or c".
  std::string choices() const {
    std::string Out;
    for (size_t I = 0; I != N; ++I) {
      if (I != 0)
        Out += N == 2 ? " " : ", ";
      if (I + 1 == N && N > 1)
        Out += "or ";
      Out += Names[I];
    }
    return Out;
  }
};

/// Builds the table of \p Enum from its spellings in value order.
template <typename Enum, typename... Spellings>
constexpr EnumNames<Enum, sizeof...(Spellings)>
enumNames(Spellings... Names) {
  return {{Names...}};
}

} // namespace balign

#endif // BALIGN_SUPPORT_ENUMNAMES_H
