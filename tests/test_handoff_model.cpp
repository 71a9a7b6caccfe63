// Exhaustive model check of the shard handoff (svc/handoff.hpp).
//
// The model runs the protocol's own step functions -- handoff::wake_step,
// handoff::work_step and handoff::drain_step, the ones SessionManager
// loops over -- one step at a time, and enumerates every interleaving of
// up to 3 producers (K publishes each), the shard's worker, one drain()
// caller and the destructor's stop, breadth first with a visited-state
// set.  Shared memory is sequentially consistent here: the fences are
// no-ops and each step is atomic.  Memory ordering stays the job of TSan
// and the stress tests in test_svc.cpp.
//
// A push is two steps, as in MpscRing::try_push: the tail CAS that
// reserves a cell, then the store that publishes it, so cells can be
// published out of order.  The worker and drain() look at the ring as
// MpscRing::empty does (is any cell reserved and not yet taken?), and the
// worker's take pops the run of published cells from the head, as
// pop_batch does: nothing, while the head cell is reserved but not yet
// published.
//
// Checked in every reachable state:
//   * no lost wakeup: never a published command with the worker asleep on
//     its futex and no producer (or the destructor) left to wake it;
//   * drain() never returns while a command published before the call
//     is unprocessed;
// and in every final state (no step enabled):
//   * every publish was processed, and the worker exited.
//
// Planted mutants, each of which must yield a printed counterexample:
//   * the worker sleeps right after its park announcement (no re-check);
//   * a producer decides on the parked word it read before its push;
//   * the worker clears `idle` only after publishing the ring head.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <deque>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "rtw/svc/handoff.hpp"

namespace {

using rtw::svc::handoff::Drain;
using rtw::svc::handoff::HandoffState;
using rtw::svc::handoff::Wake;
using rtw::svc::handoff::Work;

constexpr int kMaxProducers = 3;

enum class Mutant { None, NoRecheck, StaleParkedWord, LateIdle };

/// A producer's program counter: the push (Reserve, then Publish), then
/// the wake steps; for the stale mutant, Peek reads `parked` before the
/// push.
enum class Prod : std::uint8_t {
  Reserve, Publish, Peek, Check, Claim, Signal, Done
};

Prod from_wake(Wake w) {
  switch (w) {
    case Wake::Check: return Prod::Check;
    case Wake::Claim: return Prod::Claim;
    case Wake::Signal: return Prod::Signal;
    case Wake::Done: break;
  }
  return Prod::Done;
}

Wake to_wake(Prod p) {
  switch (p) {
    case Prod::Check: return Wake::Check;
    case Prod::Claim: return Wake::Claim;
    case Prod::Signal: return Wake::Signal;
    default: break;
  }
  return Wake::Done;
}

enum class Phase : std::uint8_t { Waiting, Running, Done };

using Key = std::pair<std::uint64_t, std::uint64_t>;

struct KeyHash {
  std::size_t operator()(const Key& k) const {
    return std::hash<std::uint64_t>{}(k.first * 0x9e3779b97f4a7c15ULL ^
                                      k.second);
  }
};

/// One global state of the model.
struct State {
  // HandoffState words.
  std::uint8_t parked = 0, stop = 0, idle = 1;
  // The ring: cells reserved (tail), bit i of `cells` set once cell i is
  // published, cells taken (head) and processed.  No cell is reused: the
  // model's ring holds every publish.
  std::uint8_t tail = 0, cells = 0, head = 0, processed = 0;
  // The worker.
  Work work = Work::Poll;
  std::uint8_t asleep = 0;
  std::uint8_t late_busy = 0;  ///< LateIdle mutant: idle still to clear
  // Producers.
  std::array<Prod, kMaxProducers> prod{};
  std::array<std::uint8_t, kMaxProducers> left{};
  std::array<std::uint8_t, kMaxProducers> cell{};  ///< the cell reserved
  std::array<Prod, kMaxProducers> after_push{};  ///< stale mutant's decision
  // The drain() caller.
  Phase drain_phase = Phase::Waiting;
  Drain drain = Drain::Ring;
  std::uint8_t drain_mark = 0;  ///< `cells` when drain() was called
  // The destructor: sets stop, then runs the producer's wake.
  Phase stopper = Phase::Waiting;
  Prod stopper_pc = Prod::Done;

  bool published(unsigned i) const { return (cells >> i) & 1u; }

  /// The state packed into two words: the visited set's key.
  Key key() const {
    std::uint64_t a = 0, b = 0;
    const auto put = [](std::uint64_t& k, unsigned v, unsigned bits) {
      k = (k << bits) | v;
    };
    put(a, parked, 1);
    put(a, stop, 1);
    put(a, idle, 1);
    put(a, tail, 4);
    put(a, cells, 8);
    put(a, head, 4);
    put(a, processed, 4);
    put(a, static_cast<unsigned>(work), 4);
    put(a, asleep, 1);
    put(a, late_busy, 1);
    put(a, static_cast<unsigned>(drain_phase), 2);
    put(a, static_cast<unsigned>(drain), 2);
    put(a, drain_mark, 8);
    put(a, static_cast<unsigned>(stopper), 2);
    put(a, static_cast<unsigned>(stopper_pc), 3);
    for (int p = 0; p < kMaxProducers; ++p) {
      put(b, static_cast<unsigned>(prod[p]), 3);
      put(b, left[p], 2);
      put(b, cell[p], 3);
      put(b, static_cast<unsigned>(after_push[p]), 3);
    }
    return {a, b};
  }
};

/// The worker's and the producers' environment over a model state.
struct ModelEnv {
  State& m;
  bool ring_empty() const { return m.tail == m.head; }
  void take() {
    while (m.published(m.head)) ++m.head;
  }
  void process() { m.processed = m.head; }
  void spin_begin() {}
  bool spin_expired() { return true; }  // waiting longer adds no state
  void spin_end() {}
  void sleep(HandoffState& s) {
    if (s.parked.load() == 1) m.asleep = 1;  // FUTEX_WAIT's value check
  }
  void wake(HandoffState&) { m.asleep = 0; }
};

/// drain()'s environment.
struct DrainEnv {
  State& m;
  bool ring_empty() const { return m.tail == m.head; }
  void pause() {}
};

/// Runs `step` against a HandoffState loaded from `m`, then stores the
/// words back.
template <typename Step>
void with_words(State& m, Step step) {
  HandoffState s;
  s.parked.store(m.parked);
  s.stop.store(m.stop != 0);
  s.idle.store(m.idle != 0);
  step(s);
  m.parked = static_cast<std::uint8_t>(s.parked.load());
  m.stop = s.stop.load() ? 1 : 0;
  m.idle = s.idle.load() ? 1 : 0;
}

// Actors: producers 0..P-1, then the worker, the drain caller, the stopper.
constexpr int kWorker = kMaxProducers;
constexpr int kDrainer = kMaxProducers + 1;
constexpr int kActors = kMaxProducers + 3;

const char* name(Work w) {
  static const char* const names[] = {
      "Poll", "Busy", "Take", "Process", "Idle", "Spin",
      "Announce", "Recheck", "Cancel", "Sleep", "Woken", "Exit"};
  return names[static_cast<int>(w)];
}

const char* name(Prod p) {
  static const char* const names[] = {"Reserve", "Publish", "Peek", "Check",
                                      "Claim", "Signal", "Done"};
  return names[static_cast<int>(p)];
}

const char* name(Drain d) {
  static const char* const names[] = {"Ring", "Idle", "Done"};
  return names[static_cast<int>(d)];
}

/// Builds a step's label only when one is asked for (when a schedule is
/// printed); the search itself runs without them.
struct Note {
  std::string* text;
  template <typename T>
  Note& operator<<(const T& value) {
    if (text) {
      std::ostringstream out;
      out << value;
      *text += out.str();
    }
    return *this;
  }
};

struct Config {
  int producers = 1;
  int publishes = 1;  ///< K per producer
  Mutant mutant = Mutant::None;
};

class Checker {
public:
  explicit Checker(Config config) : cfg_(config) {}

  /// Explores every reachable state.  Returns the first violation found
  /// with its schedule, or nothing.
  std::optional<std::string> run() {
    State init;
    for (int p = 0; p < kMaxProducers; ++p) {
      init.prod[p] = Prod::Done;
      init.left[p] = p < cfg_.producers
                         ? static_cast<std::uint8_t>(cfg_.publishes)
                         : 0;
      init.after_push[p] = Prod::Done;
    }
    init_ = init;
    std::deque<State> frontier{init};
    seen_.emplace(init.key(), Parent{init.key(), -1});
    while (!frontier.empty()) {
      const State state = frontier.front();
      frontier.pop_front();
      if (auto bad = invariant(state)) return trace(state, *bad);
      bool moved = false;
      for (int actor = 0; actor < kActors; ++actor) {
        State next = state;
        if (!step(next, actor, nullptr)) continue;
        moved = true;
        if (next.drain_phase == Phase::Done &&
            state.drain_phase == Phase::Running &&
            (next.drain_mark >> next.processed) != 0) {
          seen_.try_emplace(next.key(), Parent{state.key(), actor});
          return trace(next, "drain() returned with a published command "
                             "unprocessed");
        }
        if (seen_.try_emplace(next.key(), Parent{state.key(), actor}).second)
          frontier.push_back(next);
      }
      if (!moved) {
        if (auto bad = final_check(state)) return trace(state, *bad);
      }
    }
    return std::nullopt;
  }

  std::size_t states() const { return seen_.size(); }

private:
  /// How a state was first reached: its predecessor and the actor that
  /// stepped.  Labels are rebuilt by replaying the path (trace()).
  struct Parent {
    Key key;
    int actor;
  };

  int total() const { return cfg_.producers * cfg_.publishes; }

  /// A producer that has published, or will, and has not finished its
  /// wake yet.
  static bool wake_pending(Prod p) {
    return p == Prod::Publish || p == Prod::Check || p == Prod::Claim ||
           p == Prod::Signal;
  }

  std::optional<std::string> invariant(const State& m) const {
    if ((m.cells >> m.head) == 0 || !m.asleep) return std::nullopt;
    for (int p = 0; p < cfg_.producers; ++p)
      if (wake_pending(m.prod[p])) return std::nullopt;
    if (m.stopper == Phase::Running && wake_pending(m.stopper_pc))
      return std::nullopt;
    return "lost wakeup: the ring holds a published command, the worker "
           "is parked, and no producer is left to wake it";
  }

  std::optional<std::string> final_check(const State& m) const {
    if (m.processed != total())
      return "final state with " + std::to_string(m.processed) + " of " +
             std::to_string(total()) + " publishes processed";
    if (m.work != Work::Exit) return "final state with the worker not exited";
    return std::nullopt;
  }

  bool producers_done(const State& m) const {
    for (int p = 0; p < cfg_.producers; ++p)
      if (m.left[p] != 0 || m.prod[p] != Prod::Done) return false;
    return true;
  }

  /// Applies one step of `actor` to `m`; false when the actor cannot move.
  /// A non-null `label` receives the step's description.
  bool step(State& m, int actor, std::string* label) {
    Note out{label};
    ModelEnv env{m};
    if (actor < kMaxProducers) {
      if (actor >= cfg_.producers) return false;
      Prod& pc = m.prod[actor];
      out << "producer " << actor << ": ";
      if (pc == Prod::Done) {
        if (m.left[actor] == 0) return false;
        --m.left[actor];
        pc = cfg_.mutant == Mutant::StaleParkedWord ? Prod::Peek
                                                    : Prod::Reserve;
      }
      if (pc == Prod::Reserve) {
        m.cell[actor] = m.tail++;
        out << "reserve cell " << int(m.cell[actor]);
        pc = Prod::Publish;
      } else if (pc == Prod::Publish) {
        m.cells |= static_cast<std::uint8_t>(1u << m.cell[actor]);
        out << "publish cell " << int(m.cell[actor]);
        pc = cfg_.mutant == Mutant::StaleParkedWord ? m.after_push[actor]
                                                    : Prod::Check;
      } else if (pc == Prod::Peek) {
        // The mutant runs the Check step first and keeps its answer.
        Wake next = Wake::Done;
        with_words(m, [&](HandoffState& s) {
          next = rtw::svc::handoff::wake_step(s, Wake::Check, env);
        });
        out << "Check before the push (parked " << int(m.parked) << ")";
        m.after_push[actor] = from_wake(next);
        pc = Prod::Reserve;
      } else {
        out << name(pc);
        if (pc == Prod::Check) out << " (parked " << int(m.parked) << ")";
        with_words(m, [&](HandoffState& s) {
          pc = from_wake(rtw::svc::handoff::wake_step(s, to_wake(pc), env));
        });
      }
    } else if (actor == kWorker) {
      if (m.asleep || m.work == Work::Exit) return false;
      out << "worker: ";
      if (m.late_busy) {
        // LateIdle mutant, second half: the Busy store after the Take.
        with_words(m, [&](HandoffState& s) {
          rtw::svc::handoff::work_step(s, Work::Busy, env);
        });
        m.late_busy = 0;
        m.work = Work::Process;
        out << "Busy (after the Take)";
      } else if (cfg_.mutant == Mutant::LateIdle && m.work == Work::Busy) {
        with_words(m, [&](HandoffState& s) {
          rtw::svc::handoff::work_step(s, Work::Take, env);
        });
        m.late_busy = 1;
        out << "Take before Busy (head -> " << int(m.head) << ")";
      } else if (cfg_.mutant == Mutant::NoRecheck &&
                 m.work == Work::Recheck) {
        m.work = Work::Sleep;
        out << "Recheck skipped";
      } else {
        out << name(m.work);
        if (m.work == Work::Recheck || m.work == Work::Poll ||
            m.work == Work::Spin)
          out << " (ring " << (m.tail == m.head ? "empty" : "non-empty")
              << ")";
        with_words(m, [&](HandoffState& s) {
          m.work = rtw::svc::handoff::work_step(s, m.work, env);
        });
        if (m.work == Work::Process) out << " (head -> " << int(m.head) << ")";
        if (m.asleep) out << " -> asleep";
      }
    } else if (actor == kDrainer) {
      if (m.drain_phase == Phase::Done) return false;
      out << "drain(): ";
      if (m.drain_phase == Phase::Waiting) {
        m.drain_phase = Phase::Running;
        m.drain_mark = m.cells;
        out << "called (published cells mask " << int(m.cells) << ")";
      } else {
        out << name(m.drain);
        if (m.drain == Drain::Ring)
          out << " (ring " << (m.tail == m.head ? "empty" : "non-empty")
              << ")";
        if (m.drain == Drain::Idle) out << " (idle " << int(m.idle) << ")";
        DrainEnv drain_env{m};
        with_words(m, [&](HandoffState& s) {
          m.drain = rtw::svc::handoff::drain_step(s, m.drain, drain_env);
        });
        if (m.drain == Drain::Done) {
          m.drain_phase = Phase::Done;
          out << " -> returns (processed " << int(m.processed) << ")";
        }
      }
    } else {
      if (m.stopper == Phase::Done) return false;
      out << "destructor: ";
      if (m.stopper == Phase::Waiting) {
        if (!producers_done(m)) return false;
        m.stopper = Phase::Running;
        m.stop = 1;
        m.stopper_pc = Prod::Check;
        out << "stop = 1";
      } else {
        out << name(m.stopper_pc);
        with_words(m, [&](HandoffState& s) {
          m.stopper_pc = from_wake(
              rtw::svc::handoff::wake_step(s, to_wake(m.stopper_pc), env));
        });
        if (m.stopper_pc == Prod::Done) m.stopper = Phase::Done;
      }
    }
    return true;
  }

  std::string trace(const State& last, const std::string& what) {
    std::vector<int> actors;
    for (Key k = last.key();;) {
      const Parent& p = seen_.at(k);
      if (p.actor < 0) break;
      actors.push_back(p.actor);
      k = p.key;
    }
    std::reverse(actors.begin(), actors.end());
    std::vector<std::string> steps;
    State replay = init_;
    for (const int actor : actors) {
      steps.emplace_back();
      step(replay, actor, &steps.back());
    }
    std::ostringstream out;
    out << what << "\n  schedule (" << steps.size() << " steps):\n";
    for (std::size_t i = 0; i < steps.size(); ++i)
      out << "    " << i + 1 << ". " << steps[i] << "\n";
    return out.str();
  }

  Config cfg_;
  State init_;
  std::unordered_map<Key, Parent, KeyHash> seen_;
};

TEST(HandoffModel, EveryInterleavingDeliversAndDrainsForUpToThreeProducers) {
  const auto start = std::chrono::steady_clock::now();
  const Config configs[] = {{1, 3, Mutant::None},
                            {2, 2, Mutant::None},
                            {3, 1, Mutant::None}};
  for (const Config& config : configs) {
    Checker checker(config);
    const auto bad = checker.run();
    EXPECT_FALSE(bad) << config.producers << " producers x "
                      << config.publishes << " publishes:\n"
                      << bad.value_or("");
    std::cout << "  " << config.producers << " producers x "
              << config.publishes << " publishes: " << checker.states()
              << " states, no violation\n";
  }
  // Reported, not asserted: a wall-clock bound would fail for host load
  // or a sanitizer build, not for the protocol.
  std::cout << "  explored in "
            << std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
                   .count()
            << " s\n";
}

/// Runs a mutant, requires a counterexample and prints it.
void expect_counterexample(Mutant mutant, const std::string& expected) {
  Checker checker({2, 1, mutant});
  const auto bad = checker.run();
  ASSERT_TRUE(bad) << "the planted mutant survived " << checker.states()
                   << " states";
  EXPECT_NE(bad->find(expected), std::string::npos) << *bad;
  std::cout << "  counterexample after " << checker.states()
            << " states: " << *bad;
}

TEST(HandoffModel, WorkerThatParksWithoutRecheckLosesAWakeup) {
  expect_counterexample(Mutant::NoRecheck, "lost wakeup");
}

TEST(HandoffModel, ProducerActingOnAStaleParkedWordLosesAWakeup) {
  expect_counterexample(Mutant::StaleParkedWord, "lost wakeup");
}

TEST(HandoffModel, IdleClearedAfterTheHeadLetsDrainReturnEarly) {
  expect_counterexample(Mutant::LateIdle, "drain() returned");
}

}  // namespace
