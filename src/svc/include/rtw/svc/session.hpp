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
///
/// A final verdict absorbs every later element, so once the acceptor has
/// settled only the stale filter's counts can still change: a settled
/// session reads only the clocks of what it is fed (feed_packed).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <utility>

#include "rtw/core/lane.hpp"
#include "rtw/core/online.hpp"
#include "rtw/svc/ring.hpp"
#include "rtw/svc/wire.hpp"

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
  /// mark; returns the verdict after the last element.  The run goes to
  /// the acceptor kFeedChunk elements at a time, one
  /// OnlineAcceptor::feed_run call each: in place while every element
  /// passes, or, once one is dropped, as the survivors copied into a
  /// stack chunk.  Final verdicts absorb every later feed, so once the
  /// acceptor has settled -- before the run or within it -- only the
  /// filter runs.  Where the runs and chunks split a stream cannot change
  /// its verdict (Definition 3.5).
  core::Verdict feed_run(const core::TimedSymbol* elements, std::size_t n) {
    if (finished_) return acceptor_->verdict();
    bool settled = core::final_verdict(acceptor_->verdict());
    core::TimedSymbol chunk[kFeedChunk];
    for (std::size_t first = 0; first < n; first += kFeedChunk)
      settled = feed_chunk(elements + first, std::min(n - first, kFeedChunk),
                           chunk, settled);
    return acceptor_->verdict();
  }

  /// Feeds a validated op-12 body (wire.hpp) exactly as feed_run feeds
  /// the run it decodes to.  While the acceptor is open, the body is
  /// decoded a chunk at a time into a stack chunk (PackedReader::read: its
  /// stride tail in the fixed-stride pass), filtered there in place, and
  /// fed; no decoded copy of the whole run exists, and each marker is
  /// interned as it is read.  Once the acceptor has settled -- before the
  /// body or within it -- a settled session reads its clocks only: the
  /// rest of the body goes through the times-only read into the stale
  /// filter (admit_times), and no symbol is built.
  core::Verdict feed_packed(std::string_view body) {
    if (finished_) return acceptor_->verdict();
    PackedReader reader(body);
    if (!core::final_verdict(acceptor_->verdict())) {
      core::TimedSymbol chunk[kFeedChunk];
      bool settled = false;
      while (!settled) {
        const std::size_t m = reader.read(chunk, kFeedChunk);
        if (m == 0) return acceptor_->verdict();
        settled = feed_chunk(chunk, m, chunk, false);
      }
    }
    admit_times(reader, filter_);
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

  /// The stale filter as lane-kernel state: a batch stepper advances it
  /// with LaneFilter::admit's exact semantics.
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
  /// Elements a feed call hands the acceptor at most: 1.5 KiB of stack.
  static constexpr std::size_t kFeedChunk = 64;

  /// Runs the stale filter over `in` and, unless `settled`, feeds the
  /// survivors in one feed_run call: `in` itself while every element
  /// passes, else the survivors copied to `out` (which may be `in`).
  /// Returns whether the acceptor has settled.
  bool feed_chunk(const core::TimedSymbol* in, std::size_t m,
                  core::TimedSymbol* out, bool settled) {
    // A local copy of the filter stays in registers across the stores.
    core::LaneFilter filter = filter_;
    std::size_t kept = 0;
    while (kept < m && filter.admit(in[kept].time)) ++kept;
    const core::TimedSymbol* run = in;
    if (kept < m) {
      if (out != in) std::copy(in, in + kept, out);
      for (std::size_t i = kept + 1; i < m; ++i) {
        out[kept] = in[i];
        kept += filter.admit(in[i].time);
      }
      run = out;
    }
    filter_ = filter;
    if (settled || kept == 0) return settled;
    return core::final_verdict(acceptor_->feed_run(run, kept));
  }

  SessionId id_;
  std::unique_ptr<core::OnlineAcceptor> acceptor_;
  core::LaneFilter filter_;
  Priority priority_ = Priority::Normal;
  bool finished_ = false;
  bool in_wave_ = false;
};

}  // namespace rtw::svc
