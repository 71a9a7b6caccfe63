#pragma once
/// \file symbol.hpp
/// Symbols and alphabets.
///
/// The paper works over several alphabets at once: an input alphabet Sigma,
/// an output alphabet Omega, natural-number usefulness values (N ∩ [max,0]),
/// and designated markers such as `w` (waiting), `d` (deadline passed), `$`
/// and `@` (encoding delimiters), `c` (arrival marker of section 4.2) and
/// `f` (the acceptance symbol of Definition 3.4).  The paper assumes these
/// sets are disjoint ("We consider that Sigma, Omega, and N are disjoint").
///
/// `Symbol` realizes that union type compactly: a symbol is a character, a
/// natural number, or an interned named marker, and symbols of different
/// kinds never compare equal -- giving the disjointness the constructions
/// rely on without manual delimiter bookkeeping.

#include <compare>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace rtw::core {

/// A single symbol of a timed omega-word.  Value type; 16 bytes; totally
/// ordered (kind-major) so symbols can key ordered containers.
class Symbol {
public:
  enum class Kind : std::uint8_t {
    Char,    ///< a character drawn from a conventional alphabet
    Nat,     ///< a natural number (usefulness values, encodings of integers)
    Marker,  ///< an interned named marker: "w", "d", "$", "f", ...
  };

  /// Default-constructed symbol: the character '\0'.  Needed so containers
  /// of symbols are regular; never produced by the word builders.
  constexpr Symbol() noexcept : kind_(Kind::Char), value_(0) {}

  static constexpr Symbol chr(char c) noexcept {
    return Symbol(Kind::Char, static_cast<unsigned char>(c));
  }
  static constexpr Symbol nat(std::uint64_t n) noexcept {
    return Symbol(Kind::Nat, n);
  }
  /// Interns `name` in a process-wide registry (thread-safe) and returns the
  /// marker symbol.  Two calls with the same name yield equal symbols.
  static Symbol marker(std::string_view name);

  constexpr Kind kind() const noexcept { return kind_; }
  constexpr bool is_char() const noexcept { return kind_ == Kind::Char; }
  constexpr bool is_nat() const noexcept { return kind_ == Kind::Nat; }
  constexpr bool is_marker() const noexcept { return kind_ == Kind::Marker; }
  /// The payload as stored, whatever the kind: a character's code, a
  /// natural, or a marker's interned id.
  constexpr std::uint64_t payload() const noexcept { return value_; }

  /// Character payload; contract: is_char().
  char as_char() const;
  /// Natural payload; contract: is_nat().
  std::uint64_t as_nat() const;
  /// Marker name; contract: is_marker().
  std::string_view name() const;

  /// Human-readable rendering: 'a', 7, <w>.
  std::string to_string() const;

  friend constexpr bool operator==(Symbol a, Symbol b) noexcept {
    return a.kind_ == b.kind_ && a.value_ == b.value_;
  }
  friend constexpr auto operator<=>(Symbol a, Symbol b) noexcept {
    if (auto c = a.kind_ <=> b.kind_; c != 0) return c;
    return a.value_ <=> b.value_;
  }

  /// Stable 64-bit hash (for unordered containers).
  std::uint64_t hash() const noexcept {
    return (static_cast<std::uint64_t>(kind_) << 62) ^ value_;
  }

private:
  constexpr Symbol(Kind kind, std::uint64_t value) noexcept
      : kind_(kind), value_(value) {}

  Kind kind_;
  std::uint64_t value_;
};

/// Commonly used designated symbols.  Fetch lazily (marker interning), so
/// expose as functions rather than globals.
namespace marks {
/// Definition 3.4's designated acceptance symbol `f`.
Symbol accept();
/// Section 4.1's waiting symbol `w`.
Symbol waiting();
/// Section 4.1's deadline-passed symbol `d`.
Symbol deadline();
/// Encoding delimiter `$` of sections 5.1-5.2.
Symbol dollar();
/// Encoding delimiter `@` of section 5.2.
Symbol at();
/// Section 4.2's pre-arrival marker `c`.
Symbol arrival();
}  // namespace marks

/// Converts a conventional string into the character-symbol sequence the
/// encodings of sections 4-5 use.
std::vector<Symbol> symbols_of(std::string_view text);

/// Renders a symbol sequence back to text (markers render as <name>).
std::string to_string(const std::vector<Symbol>& symbols);

}  // namespace rtw::core

template <>
struct std::hash<rtw::core::Symbol> {
  std::size_t operator()(rtw::core::Symbol s) const noexcept {
    return static_cast<std::size_t>(s.hash());
  }
};
