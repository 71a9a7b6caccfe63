#pragma once
/// \file session.hpp
/// One stream's server-side state: an OnlineAcceptor plus the ingress
/// hygiene a real wire needs.
///
/// The OnlineAcceptor contract requires nondecreasing feed times (the
/// stream *is* a timed word, Definition 3.1) and enforces it with a
/// thrown ModelError.  A served stream cannot afford that strictness:
/// fault-injected wire traffic reorders frames (delay faults), so a
/// symbol can arrive carrying a timestamp below the session's high-water
/// mark.  The Session absorbs those as *stale* -- dropped and counted,
/// never fed -- which keeps the acceptor's view a well-formed timed word
/// no matter what the wire did.  Duplicated frames pass through: a timed
/// word may legitimately repeat (symbol, time) pairs, so deduplication is
/// the acceptor's business (and the acceptors in this library are
/// duplicate-tolerant by construction or lock first).

#include <cstdint>
#include <memory>
#include <utility>

#include "rtw/core/lane.hpp"
#include "rtw/core/online.hpp"
#include "rtw/svc/ring.hpp"

namespace rtw::svc {

using SessionId = std::uint64_t;

/// Terminal record for one stream, produced when the session closes (or
/// is evicted / swept up by shutdown).
struct SessionReport {
  SessionId id = 0;
  core::Verdict verdict = core::Verdict::Undetermined;
  core::RunResult result;            ///< the acceptor's Definition 3.4 record
  std::uint64_t fed = 0;             ///< symbols delivered to the acceptor
  std::uint64_t stale_dropped = 0;   ///< symbols rejected by the time filter
  Priority priority = Priority::Normal;  ///< admission class of the stream
  bool evicted = false;              ///< closed by idle eviction, not a Close
};

/// A single stream.  Not thread-safe: a session lives on exactly one
/// shard and is only touched by that shard's worker.
class Session {
public:
  Session(SessionId id, std::unique_ptr<core::OnlineAcceptor> acceptor,
          Priority priority = Priority::Normal)
      : id_(id), acceptor_(std::move(acceptor)), priority_(priority) {}

  SessionId id() const noexcept { return id_; }
  Priority priority() const noexcept { return priority_; }

  /// Feeds one symbol: a run of one.
  core::Verdict feed(core::Symbol symbol, core::Tick at) {
    const core::TimedSymbol element{symbol, at};
    return feed_run(&element, 1);
  }

  /// Feeds a run of symbols (one ring slot) through the stale filter,
  /// dropping each element whose time is below the session's high-water
  /// mark; returns the verdict after the last element.  Final verdicts
  /// absorb every later feed, so a session already settled when the run
  /// starts only runs the filter -- no virtual calls.  Where the runs
  /// split a stream cannot change its verdict (Definition 3.5).
  core::Verdict feed_run(const core::TimedSymbol* elements, std::size_t n) {
    if (finished_) return acceptor_->verdict();
    const bool settled = core::final_verdict(acceptor_->verdict());
    for (std::size_t i = 0; i < n; ++i)
      if (filter_.admit(elements[i].time) && !settled)
        acceptor_->feed(elements[i].sym, elements[i].time);
    return acceptor_->verdict();
  }

  /// Settles the verdict; idempotent.
  core::Verdict finish(core::StreamEnd end) {
    finished_ = true;
    return acceptor_->finish(end);
  }

  core::Verdict verdict() const { return acceptor_->verdict(); }
  bool finished() const noexcept { return finished_; }
  std::uint64_t fed() const noexcept { return filter_.fed; }
  std::uint64_t stale_dropped() const noexcept { return filter_.stale; }
  const core::OnlineAcceptor& acceptor() const { return *acceptor_; }
  core::OnlineAcceptor& acceptor() { return *acceptor_; }

  /// The stale filter as lane-kernel state: a batch stepper advances it in
  /// SIMD registers with LaneFilter::admit's exact semantics.
  core::LaneFilter& lane_filter() noexcept { return filter_; }

  /// Wave membership flag, owned by the shard worker: set while a run for
  /// this session sits in the staged lane wave, so a second run (or a
  /// close) for the same session flushes the wave first to preserve
  /// submission order.
  bool in_wave() const noexcept { return in_wave_; }
  void set_in_wave(bool in_wave) noexcept { in_wave_ = in_wave; }

  /// The terminal record (call after finish()).
  SessionReport report(bool evicted) const {
    SessionReport r;
    r.id = id_;
    r.verdict = acceptor_->verdict();
    r.result = acceptor_->result();
    r.fed = filter_.fed;
    r.stale_dropped = filter_.stale;
    r.priority = priority_;
    r.evicted = evicted;
    return r;
  }

private:
  SessionId id_;
  std::unique_ptr<core::OnlineAcceptor> acceptor_;
  core::LaneFilter filter_;
  Priority priority_ = Priority::Normal;
  bool finished_ = false;
  bool in_wave_ = false;
};

}  // namespace rtw::svc
