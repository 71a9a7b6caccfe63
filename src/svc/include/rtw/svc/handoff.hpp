#pragma once
/// \file handoff.hpp
/// The shard handoff protocol: how a producer that published a command
/// makes sure the shard's worker will see it, how the worker spins, parks
/// and wakes, and how drain() tells that a shard has processed everything
/// published before it was called.
///
/// Each role is a step function over the words the roles share
/// (`HandoffState`) and a program counter.  One call performs one step --
/// at most one access to a shared word, or one call into the role's
/// environment -- and returns the next program counter.  SessionManager
/// runs each role to completion with a loop over its step function, and
/// tests/test_handoff_model.cpp calls the very same step functions one at
/// a time to enumerate every interleaving of up to 3 producers, the worker
/// and a drain() caller (under sequential consistency; memory ordering is
/// checked by TSan and the stress tests).
///
/// The protocol, in one paragraph.  The worker drains its ring; when the
/// ring is empty it marks itself idle and spins for a bounded window.  If
/// nothing arrives it *announces* a park (parked = 1, then a seq_cst
/// fence), *re-checks* the ring, and only then sleeps on the futex word
/// `parked`.  A producer, after its ring push, runs a seq_cst fence and a
/// relaxed load of `parked`; only when it reads 1 does it exchange the
/// word back to 0 and, if it won that exchange, call FUTEX_WAKE.  The
/// two fences make a lost wakeup impossible: either the worker's re-check
/// sees the push, or the producer's load sees the announcement.  While the
/// worker runs, nobody writes `parked`, so producers read it from their
/// own cache.  The worker clears `idle` before it publishes the ring head
/// of a batch it took, so drain(), which reads the ring and then `idle`,
/// never sees an empty ring and an idle worker while a command is held.
///
/// The environment a step function is given supplies the shard's side of
/// each step:
///   * `bool ring_empty()`   -- no command published and not yet taken;
///   * `void take()`         -- pop a batch and publish the ring head once;
///   * `void process()`      -- run the batch taken last;
///   * `void spin_begin()`, `bool spin_expired()`, `void spin_end()`
///                           -- the bounded spin window (and its clock);
///   * `void sleep(HandoffState&)` -- FUTEX_WAIT on `parked` while it is 1;
///   * `void wake(HandoffState&)`  -- FUTEX_WAKE on `parked`;
///   * `void pause()`        -- what drain() does between two reads.
/// Each role uses only the members its steps name.

#include <atomic>
#include <cstdint>

#include "rtw/svc/ring.hpp"

namespace rtw::svc::handoff {

/// The words a shard's producers, its worker and drain() share.
struct HandoffState {
  /// The futex word: 1 from the worker's park announcement until the
  /// worker, or the producer that wins the exchange back to 0, clears it.
  /// On its own line: producers read it after every push.
  alignas(kCacheLine) std::atomic<std::uint32_t> parked{0};
  /// Set once, when the manager is destroyed: the worker exits once its
  /// ring is empty.
  std::atomic<bool> stop{false};
  /// True while the worker holds no command it took from the ring.  The
  /// worker writes it every epoch, so it lives apart from `parked`.
  alignas(kCacheLine) std::atomic<bool> idle{true};
};

// ------------------------------------------------------------ producer

/// A producer's wake, run after each ring push (and by the destructor
/// after it sets `stop`).
enum class Wake : std::uint8_t { Check, Claim, Signal, Done };

template <typename Env>
Wake wake_step(HandoffState& s, Wake pc, Env& env) {
  switch (pc) {
    case Wake::Check:
      // Orders the push before the read of `parked`: with the worker's
      // fence after its announcement, one of the two sees the other.
      std::atomic_thread_fence(std::memory_order_seq_cst);
      return s.parked.load(std::memory_order_relaxed) != 0 ? Wake::Claim
                                                           : Wake::Done;
    case Wake::Claim:
      // One producer per park wins the wake; the rest skip the syscall.
      return s.parked.exchange(0, std::memory_order_acq_rel) != 0
                 ? Wake::Signal
                 : Wake::Done;
    case Wake::Signal:
      env.wake(s);
      return Wake::Done;
    case Wake::Done:
      break;
  }
  return Wake::Done;
}

template <typename Env>
void wake(HandoffState& s, Env& env) {
  for (Wake pc = Wake::Check; pc != Wake::Done;) pc = wake_step(s, pc, env);
}

// -------------------------------------------------------------- worker

enum class Work : std::uint8_t {
  Poll,      ///< look at the ring
  Busy,      ///< clear `idle` before taking anything
  Take,      ///< pop a batch; publish the head once
  Process,   ///< run the batch
  Idle,      ///< set `idle`; start the spin window
  Spin,      ///< wait for a push, or for the window to close
  Announce,  ///< parked = 1, then a seq_cst fence
  Recheck,   ///< a push that missed the announcement is seen here
  Cancel,    ///< something arrived: take the announcement back
  Sleep,     ///< FUTEX_WAIT while parked == 1
  Woken,     ///< clear `parked` (a spurious return leaves it set)
  Exit,      ///< stop was set and the ring is empty
};

template <typename Env>
Work work_step(HandoffState& s, Work pc, Env& env) {
  switch (pc) {
    case Work::Poll:
      if (!env.ring_empty()) return Work::Busy;
      if (s.stop.load(std::memory_order_relaxed)) return Work::Exit;
      return Work::Idle;
    case Work::Busy:
      s.idle.store(false, std::memory_order_relaxed);
      return Work::Take;
    case Work::Take:
      env.take();
      return Work::Process;
    case Work::Process:
      env.process();
      return Work::Poll;
    case Work::Idle:
      // Release: drain() reads `idle` with acquire and then sees every
      // effect of the batches processed before it.
      s.idle.store(true, std::memory_order_release);
      env.spin_begin();
      return Work::Spin;
    case Work::Spin:
      if (!env.ring_empty() || s.stop.load(std::memory_order_relaxed)) {
        env.spin_end();
        return Work::Poll;
      }
      if (!env.spin_expired()) return Work::Spin;
      env.spin_end();
      return Work::Announce;
    case Work::Announce:
      s.parked.store(1, std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      return Work::Recheck;
    case Work::Recheck:
      return env.ring_empty() && !s.stop.load(std::memory_order_relaxed)
                 ? Work::Sleep
                 : Work::Cancel;
    case Work::Cancel:
      s.parked.store(0, std::memory_order_relaxed);
      return Work::Poll;
    case Work::Sleep:
      env.sleep(s);
      return Work::Woken;
    case Work::Woken:
      s.parked.store(0, std::memory_order_relaxed);
      return Work::Poll;
    case Work::Exit:
      break;
  }
  return Work::Exit;
}

template <typename Env>
void work(HandoffState& s, Env& env) {
  for (Work pc = Work::Poll; pc != Work::Exit;) pc = work_step(s, pc, env);
}

// --------------------------------------------------------------- drain

/// drain()'s wait on one shard: the ring first, then `idle`.  The order
/// matters: a worker clears `idle` before it publishes the head of a
/// batch it took, so an empty ring read first and an idle worker read
/// second mean every command published before the ring read is processed.
enum class Drain : std::uint8_t { Ring, Idle, Done };

template <typename Env>
Drain drain_step(const HandoffState& s, Drain pc, Env& env) {
  switch (pc) {
    case Drain::Ring:
      if (env.ring_empty()) return Drain::Idle;
      env.pause();
      return Drain::Ring;
    case Drain::Idle:
      if (s.idle.load(std::memory_order_acquire)) return Drain::Done;
      env.pause();
      return Drain::Ring;
    case Drain::Done:
      break;
  }
  return Drain::Done;
}

/// Waits until the shard has processed everything published before the
/// call.  Returns true when it had nothing to wait for.
template <typename Env>
bool drain(const HandoffState& s, Env& env) {
  bool settled = true;
  for (Drain pc = Drain::Ring; pc != Drain::Done;) {
    const Drain next = drain_step(s, pc, env);
    if (next == Drain::Ring) settled = false;
    pc = next;
  }
  return settled;
}

}  // namespace rtw::svc::handoff
