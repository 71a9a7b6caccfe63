#pragma once
/// \file serialize.hpp
/// A round-trippable text format for timed words, so traces can be saved,
/// diffed and replayed by external tooling.
///
///   finite:  `finite: a@0 7@3 <w>@5`
///   lasso:   `lasso(period=4): p@0 | x@2 y@3`   (prefix | cycle)
///
/// Symbols render as: a bare character (`a`), a number (`7`), or an angle-
/// bracketed marker (`<w>`).  Characters that are digits or `<` are
/// escaped as `'c'`.  Times, numbers and the lasso period are decimal and
/// must fit in 64 bits.  Generator words have no finite description and
/// are rejected by serialize(); snapshot them with take_until first.
///
/// The format is for people and fixtures: the serving layer's wire carries
/// timed words in its own packed body.

#include <string>

#include "rtw/core/timed_word.hpp"

namespace rtw::core {

/// Serializes a finite or lasso word.  Throws ModelError on generator
/// words.
std::string serialize(const TimedWord& word);

/// Parses the serialize() format back; throws ModelError on malformed
/// input, a number that does not fit in 64 bits included.  Round-trip:
/// parse_word(serialize(w)) equals w element-wise (and structurally for
/// lassos).
TimedWord parse_word(const std::string& text);

}  // namespace rtw::core
