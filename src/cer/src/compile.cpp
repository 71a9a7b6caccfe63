#include "rtw/cer/compile.hpp"

#include <algorithm>
#include <utility>

namespace rtw::cer {

namespace {

using automata::ClockId;

/// A half-transition into a fragment: the target position plus the
/// resets accumulated from enclosing `within` nodes.  The source state
/// is bound later (by Seq gluing, Iter loop-backs, or the final
/// start-state binding).
struct Entry {
  StateId pos = 0;
  ClockMask resets = 0;
};

/// Glushkov fragment for one subtree.
struct Frag {
  std::vector<Entry> entries;   ///< ways to consume the first event
  std::vector<StateId> exits;   ///< positions a full sub-match can end in
};

/// Sort group of a target position: wildcards first, then exact
/// positions by class.
constexpr std::uint32_t kWildcardGroup = 0;

class Compiler {
public:
  explicit Compiler(CompileLimits limits) : limits_(limits) {
    limits_.max_clocks =
        std::min<std::uint32_t>(limits_.max_clocks, kMaxClocks);
  }

  CompileResult run(const Query& query) {
    if (query.empty()) return fail("empty query");
    preds_.push_back({});  // start state occupies position 0
    Frag root = build(query.root());
    if (!error_.empty()) return fail(error_);
    // Bind the root fragment's entries to the start state.
    for (const Entry& e : root.entries) add_transition(0, e);
    if (!error_.empty()) return fail(error_);

    CompiledQuery out;
    out.num_states = static_cast<std::uint32_t>(preds_.size());
    out.num_clocks = next_clock_;
    out.clock_cap = cmax_ + 1;
    out.window = std::move(windows_);
    out.accepting.assign(out.num_states, false);
    for (StateId s : root.exits) out.accepting[s] = true;

    const std::vector<std::uint32_t> group = classify_positions(out);
    std::stable_sort(transitions_.begin(), transitions_.end(),
                     [&](const CompiledQuery::Transition& a,
                         const CompiledQuery::Transition& b) {
                       if (a.from != b.from) return a.from < b.from;
                       return group[a.to] < group[b.to];
                     });
    out.first_out.assign(out.num_states + 1, 0);
    for (const auto& t : transitions_) ++out.first_out[t.from + 1];
    for (std::uint32_t s = 0; s < out.num_states; ++s)
      out.first_out[s + 1] += out.first_out[s];

    // Row s: [0] ends the wildcard range, [c + 1] ends class c's range.
    const std::uint32_t stride = out.num_classes + 1;
    out.class_first.assign(std::size_t{out.num_states} * stride, 0);
    for (std::uint32_t s = 0; s < out.num_states; ++s) {
      std::uint32_t* row = &out.class_first[std::size_t{s} * stride];
      std::uint32_t i = out.first_out[s];
      const std::uint32_t end = out.first_out[s + 1];
      for (std::uint32_t g = 0; g < stride; ++g) {
        while (i < end && group[transitions_[i].to] <= g) ++i;
        row[g] = i;
      }
    }
    out.transitions = std::move(transitions_);
    out.source = query;
    CompileResult r;
    r.compiled = std::move(out);
    return r;
  }

private:
  static CompileResult fail(std::string msg) {
    CompileResult r;
    r.error = std::move(msg);
    return r;
  }

  /// Fills `out`'s symbol classes from the position predicates and
  /// returns each position's sort group: kWildcardGroup, or 1 + class.
  std::vector<std::uint32_t> classify_positions(CompiledQuery& out) const {
    std::array<bool, 256> char_used{};
    for (StateId p = 1; p < preds_.size(); ++p) {
      const SymbolPred& pred = preds_[p];
      if (pred.kind != SymbolPred::Kind::Exact) continue;
      if (pred.sym.is_char())
        char_used[static_cast<unsigned char>(pred.sym.as_char())] = true;
      else
        out.other_syms.push_back(pred.sym);
    }
    std::uint32_t next_class = 1;
    for (std::size_t b = 0; b < char_used.size(); ++b)
      if (char_used[b])
        out.char_class[b] = static_cast<std::uint16_t>(next_class++);
    std::sort(out.other_syms.begin(), out.other_syms.end());
    out.other_syms.erase(
        std::unique(out.other_syms.begin(), out.other_syms.end()),
        out.other_syms.end());
    out.num_classes =
        next_class + static_cast<std::uint32_t>(out.other_syms.size());

    std::vector<std::uint32_t> group(preds_.size(), kWildcardGroup);
    for (StateId p = 1; p < preds_.size(); ++p) {
      if (preds_[p].kind == SymbolPred::Kind::Exact)
        group[p] = 1 + out.classify(preds_[p].sym);
    }
    return group;
  }

  Frag build(const NodeRef& node) {
    if (!error_.empty() || !node) return {};
    switch (node->kind) {
      case Node::Kind::Sym: {
        if (preds_.size() >= limits_.max_states) {
          error_ = "query too large (state limit)";
          return {};
        }
        const StateId pos = static_cast<StateId>(preds_.size());
        preds_.push_back(node->pred);
        Frag f;
        f.entries.push_back(Entry{pos, 0});
        f.exits.push_back(pos);
        return f;
      }
      case Node::Kind::Seq: {
        Frag a = build(node->left);
        Frag b = build(node->right);
        if (!error_.empty()) return {};
        // Glue: every way A can end continues into every way B starts.
        for (StateId e : a.exits)
          for (const Entry& en : b.entries) add_transition(e, en);
        a.exits = std::move(b.exits);
        return a;
      }
      case Node::Kind::Alt: {
        Frag a = build(node->left);
        Frag b = build(node->right);
        if (!error_.empty()) return {};
        a.entries.insert(a.entries.end(), b.entries.begin(), b.entries.end());
        a.exits.insert(a.exits.end(), b.exits.begin(), b.exits.end());
        return a;
      }
      case Node::Kind::Iter: {
        Frag a = build(node->left);
        if (!error_.empty()) return {};
        // Loop-backs: a finished iteration starts the body again.  The
        // entry copies carry the body's `within` resets, so each pass
        // re-opens its windows.
        for (StateId e : a.exits)
          for (const Entry& en : a.entries) add_transition(e, en);
        return a;
      }
      case Node::Kind::Within: {
        if (next_clock_ >= limits_.max_clocks) {
          error_ = "query too large (clock limit)";
          return {};
        }
        const ClockId g = next_clock_++;
        windows_.push_back(node->window);
        cmax_ = std::max(cmax_, node->window);
        const std::size_t tr_before = transitions_.size();
        Frag a = build(node->left);
        if (!error_.empty()) return {};
        // Guard every transition internal to the subtree (those created
        // while building it) and reset g on every way in.
        const ClockMask bit = ClockMask{1} << g;
        for (std::size_t i = tr_before; i < transitions_.size(); ++i)
          transitions_[i].guard_mask |= bit;
        for (Entry& en : a.entries) en.resets |= bit;
        return a;
      }
    }
    return {};
  }

  void add_transition(StateId from, const Entry& entry) {
    if (!error_.empty()) return;
    if (transitions_.size() >= limits_.max_transitions) {
      error_ = "query too large (transition limit)";
      return;
    }
    CompiledQuery::Transition t;
    t.from = from;
    t.to = entry.pos;
    t.pred = preds_[entry.pos];
    t.reset_mask = entry.resets;
    transitions_.push_back(t);
  }

  CompileLimits limits_;
  std::vector<SymbolPred> preds_;  ///< per position; [0] unused (start)
  std::vector<CompiledQuery::Transition> transitions_;
  std::vector<automata::ClockValue> windows_;  ///< per clock
  ClockId next_clock_ = 0;
  automata::ClockValue cmax_ = 0;
  std::string error_;
};

}  // namespace

CompileResult compile(const Query& query, CompileLimits limits) {
  return Compiler(limits).run(query);
}

}  // namespace rtw::cer
