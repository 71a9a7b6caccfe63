#include "rtw/core/lane.hpp"

namespace rtw::core {

std::string_view to_string(LaneFamily family) noexcept {
  switch (family) {
    case LaneFamily::None: return "none";
    case LaneFamily::Deadline: return "deadline";
  }
  return "?";
}

RunSummary summarize_run(const TimedSymbol* run, std::size_t n) noexcept {
  static_assert(static_cast<unsigned>(Symbol::Kind::Char) == 0,
                "a step of Chars ORs its kinds to zero");
  RunSummary out;
  out.size = n;
  if (n == 0) return out;
  out.first = run[0].time;
  out.last = run[n - 1].time;
  Tick prev = out.first;
  bool unsorted = false;
  std::size_t nat_at = n;  // n: no Nat
  std::uint64_t ids_or = 0;
  std::uint64_t ids_and = ~std::uint64_t{0};
  const auto symbol = [&](std::size_t i) {
    const std::uint64_t value = run[i].sym.payload();
    switch (run[i].sym.kind()) {
      case Symbol::Kind::Char: break;
      case Symbol::Kind::Nat: nat_at = i; break;
      case Symbol::Kind::Marker:
        ++out.markers;
        ids_or |= value;
        ids_and &= value;
        break;
    }
  };
  const auto kind = [](const TimedSymbol& ts) {
    return static_cast<unsigned>(ts.sym.kind());
  };
  // Four elements a step: their times compared in order, and their kinds
  // OR-ed, so a step of Chars -- most of a run -- takes one branch, not
  // taken.
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const TimedSymbol* p = run + i;
    unsorted |= (p[0].time < prev) | (p[1].time < p[0].time) |
                (p[2].time < p[1].time) | (p[3].time < p[2].time);
    prev = p[3].time;
    if ((kind(p[0]) | kind(p[1]) | kind(p[2]) | kind(p[3])) != 0)
      for (std::size_t k = i; k < i + 4; ++k) symbol(k);
  }
  for (; i < n; ++i) {
    unsorted |= run[i].time < prev;
    prev = run[i].time;
    symbol(i);
  }
  // The last time group, scanned back from the end: short on every run a
  // closed form takes, since times rise tick by tick.
  std::size_t j = n - 1;
  while (j > 0 && run[j - 1].time == out.last) --j;
  out.last_start = j;
  out.before_last = j > 0 ? run[j - 1].time : 0;
  out.has_nat = nat_at != n;
  out.last_nat = out.has_nat ? run[nat_at].sym.payload() : 0;
  out.marker = ids_or;
  out.sorted = !unsorted;
  out.mixed = out.markers != 0 && ids_or != ids_and;
  return out;
}

}  // namespace rtw::core
