#include "rtw/core/symbol.hpp"

#include <deque>
#include <mutex>
#include <unordered_map>

#include "rtw/core/error.hpp"

namespace rtw::core {

namespace {

/// Process-wide marker intern table.  Names are stored once; Symbol carries
/// only the index.  Guarded by a mutex: interning happens at startup and
/// whenever a wire peer or an acceptor names a new marker, concurrently
/// with name() lookups from other threads.
class MarkerRegistry {
public:
  static MarkerRegistry& instance() {
    static MarkerRegistry registry;
    return registry;
  }

  std::uint64_t intern(std::string_view name) {
    std::lock_guard lock(mutex_);
    if (auto it = ids_.find(std::string(name)); it != ids_.end())
      return it->second;
    names_.push_back(std::string(name));
    const std::uint64_t id = names_.size() - 1;
    ids_.emplace(names_.back(), id);
    return id;
  }

  std::string_view name(std::uint64_t id) const {
    std::lock_guard lock(mutex_);
    return names_.at(id);
  }

private:
  mutable std::mutex mutex_;
  // name() hands out views into these strings, so they must never move.
  // A deque never relocates its elements on push_back; a vector would,
  // and moving a short (SSO) string moves its characters with it, which
  // is the case for the usual marker names (w, d, min, ...).
  std::deque<std::string> names_;
  std::unordered_map<std::string, std::uint64_t> ids_;
};

}  // namespace

Symbol Symbol::marker(std::string_view name) {
  return Symbol(Kind::Marker, MarkerRegistry::instance().intern(name));
}

char Symbol::as_char() const {
  if (!is_char()) throw ModelError("Symbol::as_char on non-char symbol");
  return static_cast<char>(value_);
}

std::uint64_t Symbol::as_nat() const {
  if (!is_nat()) throw ModelError("Symbol::as_nat on non-nat symbol");
  return value_;
}

std::string_view Symbol::name() const {
  if (!is_marker()) throw ModelError("Symbol::name on non-marker symbol");
  return MarkerRegistry::instance().name(value_);
}

std::string Symbol::to_string() const {
  switch (kind_) {
    case Kind::Char:
      return std::string(1, static_cast<char>(value_));
    case Kind::Nat:
      return std::to_string(value_);
    case Kind::Marker: {
      std::string out = "<";
      out += name();
      out += '>';
      return out;
    }
  }
  return "?";
}

namespace marks {
Symbol accept() { return Symbol::marker("f"); }
Symbol waiting() { return Symbol::marker("w"); }
Symbol deadline() { return Symbol::marker("d"); }
Symbol dollar() { return Symbol::marker("$"); }
Symbol at() { return Symbol::marker("@"); }
Symbol arrival() { return Symbol::marker("c"); }
}  // namespace marks

std::vector<Symbol> symbols_of(std::string_view text) {
  std::vector<Symbol> out;
  out.reserve(text.size());
  for (char c : text) out.push_back(Symbol::chr(c));
  return out;
}

std::string to_string(const std::vector<Symbol>& symbols) {
  std::string out;
  for (const auto& s : symbols) out += s.to_string();
  return out;
}

}  // namespace rtw::core
