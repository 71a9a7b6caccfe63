#include "rtw/core/serialize.hpp"

#include <cctype>
#include <limits>
#include <sstream>

#include "rtw/core/error.hpp"

namespace rtw::core {

namespace {

void emit_symbol(std::ostringstream& out, Symbol s) {
  switch (s.kind()) {
    case Symbol::Kind::Char: {
      const char c = s.as_char();
      if (std::isdigit(static_cast<unsigned char>(c)) || c == '<' ||
          c == '\'' || c == '@' || c == '|' || c == ' ')
        out << '\'' << c << '\'';
      else
        out << c;
      return;
    }
    case Symbol::Kind::Nat:
      out << s.as_nat();
      return;
    case Symbol::Kind::Marker:
      out << '<' << s.name() << '>';
      return;
  }
}

void emit_elements(std::ostringstream& out,
                   const std::vector<TimedSymbol>& elements) {
  for (std::size_t i = 0; i < elements.size(); ++i) {
    if (i) out << ' ';
    emit_symbol(out, elements[i].sym);
    out << '@' << elements[i].time;
  }
}

/// value * 10 + digit; throws ModelError when that exceeds 64 bits.
Tick append_digit(Tick value, char digit) {
  const auto d = static_cast<Tick>(digit - '0');
  if (value > (std::numeric_limits<Tick>::max() - d) / 10)
    throw ModelError("parse_word: number does not fit in 64 bits");
  return value * 10 + d;
}

/// Token scanner over the serialized element list.
class Scanner {
public:
  explicit Scanner(std::string_view text) : text_(text) {}

  bool done() {
    skip_spaces();
    return pos_ >= text_.size();
  }

  TimedSymbol next() {
    skip_spaces();
    if (pos_ >= text_.size()) throw ModelError("parse_word: unexpected end");
    Symbol sym = scan_symbol();
    if (pos_ >= text_.size() || text_[pos_] != '@')
      throw ModelError("parse_word: expected @time");
    ++pos_;
    return {sym, scan_number()};
  }

private:
  void skip_spaces() {
    while (pos_ < text_.size() && text_[pos_] == ' ') ++pos_;
  }

  Symbol scan_symbol() {
    const char c = text_[pos_];
    if (c == '\'') {
      if (pos_ + 2 >= text_.size() || text_[pos_ + 2] != '\'')
        throw ModelError("parse_word: bad quoted character");
      const char payload = text_[pos_ + 1];
      pos_ += 3;
      return Symbol::chr(payload);
    }
    if (c == '<') {
      const auto close = text_.find('>', pos_);
      if (close == std::string_view::npos)
        throw ModelError("parse_word: unterminated marker");
      const auto name = text_.substr(pos_ + 1, close - pos_ - 1);
      pos_ = close + 1;
      return Symbol::marker(std::string(name));
    }
    if (std::isdigit(static_cast<unsigned char>(c)))
      return Symbol::nat(scan_number());
    ++pos_;
    return Symbol::chr(c);
  }

  Tick scan_number() {
    if (pos_ >= text_.size() ||
        !std::isdigit(static_cast<unsigned char>(text_[pos_])))
      throw ModelError("parse_word: expected a number");
    Tick value = 0;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_])))
      value = append_digit(value, text_[pos_++]);
    return value;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

std::vector<TimedSymbol> parse_elements(std::string_view text) {
  Scanner scanner(text);
  std::vector<TimedSymbol> out;
  while (!scanner.done()) out.push_back(scanner.next());
  return out;
}

}  // namespace

std::string serialize(const TimedWord& word) {
  std::ostringstream out;
  if (word.length()) {
    out << "finite:";
    const auto elements = word.prefix(*word.length());
    if (!elements.empty()) out << ' ';
    emit_elements(out, elements);
    return out.str();
  }
  if (word.is_lasso_rep()) {
    out << "lasso(period=" << word.lasso_period() << "): ";
    emit_elements(out, word.lasso_prefix());
    out << " | ";
    emit_elements(out, word.lasso_cycle());
    return out.str();
  }
  throw ModelError(
      "serialize: generator words have no finite description (snapshot "
      "with take_until first)");
}

TimedWord parse_word(const std::string& text) {
  if (text.rfind("finite:", 0) == 0)
    return TimedWord::finite(parse_elements(
        std::string_view(text).substr(std::string_view("finite:").size())));
  const std::string_view lasso_prefix = "lasso(period=";
  if (text.rfind(std::string(lasso_prefix), 0) == 0) {
    const auto close = text.find("):");
    if (close == std::string::npos)
      throw ModelError("parse_word: malformed lasso header");
    Tick period = 0;
    for (std::size_t i = lasso_prefix.size(); i < close; ++i) {
      if (!std::isdigit(static_cast<unsigned char>(text[i])))
        throw ModelError("parse_word: bad period");
      period = append_digit(period, text[i]);
    }
    const auto bar = text.find(" | ", close);
    if (bar == std::string::npos)
      throw ModelError("parse_word: lasso needs a ' | ' separator");
    const auto prefix =
        parse_elements(std::string_view(text).substr(close + 2,
                                                     bar - close - 2));
    const auto cycle = parse_elements(std::string_view(text).substr(bar + 3));
    return TimedWord::lasso(prefix, cycle, period);
  }
  throw ModelError("parse_word: unknown word kind");
}

}  // namespace rtw::core
