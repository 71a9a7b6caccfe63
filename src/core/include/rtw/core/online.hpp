#pragma once
/// \file online.hpp
/// Online acceptance: the incremental face of Definitions 3.3-3.4.
///
/// The paper's acceptor model is inherently *online* -- a real-time
/// algorithm reads its timed omega-word as the symbols arrive, one virtual
/// time unit per tick.  The batch executor (rtw::engine::run) realizes that
/// model over a complete TimedWord; this header exposes the same semantics
/// as a push interface, so a serving layer (rtw::svc) can evaluate
/// membership over streams that are still arriving.
///
/// The verdict lattice has three points:
///
///           Accepting       Rejecting       (both final)
///                 \           /
///                Undetermined                (may still move up)
///
/// A verdict leaves Undetermined exactly when the wrapped algorithm locks
/// (s_f / s_r -- the exact Definition 3.4 protocol) or when the stream
/// finishes and the executor's trailing-window heuristic is applied.  Once
/// Accepting or Rejecting, the verdict never changes; further feeds are
/// no-ops returning the settled verdict.
///
/// EngineOnlineAcceptor is the reference implementation: it replays the
/// engine's drive loop *incrementally* -- identical visited ticks, idle-gap
/// fast-forward, lock consultation and horizon heuristic -- which is what
/// makes online and batch verdicts provably equal on the same word (the
/// tests/test_svc.cpp property suite checks RunResult equality field by
/// field across deadline, rtdb and adhoc workloads).  A driver tick can
/// only be emulated once its arrival set is complete; symbols timestamped
/// at or after the newest fed symbol may still arrive, so the adapter
/// drives strictly *behind* the input frontier and catches up at finish().

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "rtw/core/acceptor.hpp"
#include "rtw/core/lane.hpp"
#include "rtw/core/tape.hpp"
#include "rtw/core/timed_word.hpp"

namespace rtw::core {

/// Three-valued acceptance state of an online run.
enum class Verdict : std::uint8_t {
  Undetermined,  ///< no lock yet and the stream has not finished
  Accepting,     ///< locked s_f, or heuristically accepted at finish
  Rejecting,     ///< locked s_r, or heuristically rejected at finish
};

std::string to_string(Verdict v);

/// True once the verdict can no longer change.
constexpr bool final_verdict(Verdict v) noexcept {
  return v != Verdict::Undetermined;
}

/// How a finished stream relates to the word it was cut from.  The batch
/// engine behaves differently after the last delivered symbol depending on
/// whether the word *ended* or merely has no further arrivals inside the
/// horizon -- the online side must be told which.
enum class StreamEnd : std::uint8_t {
  /// The stream is the complete finite word.  The executor keeps
  /// single-stepping idle ticks up to the horizon so the algorithm can
  /// finish trailing work (matches engine::run on a drained finite word).
  EndOfWord,
  /// The stream is the visible prefix of an infinite word whose next
  /// arrival lies beyond the horizon.  The executor stops driving right
  /// after the last visited tick (matches engine::run on a lasso or
  /// generator word truncated at the horizon).
  Truncated,
};

/// The push-interface acceptor: feed symbols in word order, read verdicts.
///
/// Contract: feed times must be nondecreasing (Definition 3.1 monotonicity
/// -- the stream *is* a timed word); a time step backwards throws
/// ModelError.  Feeding after finish() or after a final verdict is a no-op
/// returning the settled verdict.
class OnlineAcceptor {
public:
  virtual ~OnlineAcceptor() = default;

  /// Ingests the next element sigma_i @ tau_i; returns the verdict after
  /// every driver tick that became emulable.
  virtual Verdict feed(Symbol symbol, Tick at) = 0;

  Verdict feed(const TimedSymbol& ts) { return feed(ts.sym, ts.time); }

  /// Ingests `n` elements in order; returns the verdict after the last.
  /// Contract: the same verdict and the same result() as feeding them one
  /// at a time -- where a stream is split into runs cannot change what
  /// the acceptor reads (Definition 3.5), and a final verdict absorbs
  /// every later element, so an override may stop there.  A time step
  /// backwards throws ModelError as feed() does, with the elements before
  /// it fed.  The default loops over feed(); an acceptor overrides it to
  /// pay one virtual call per run instead of one per symbol.
  virtual Verdict feed_run(const TimedSymbol* run, std::size_t n) {
    Verdict v = verdict();
    for (std::size_t i = 0; i < n; ++i) v = feed(run[i].sym, run[i].time);
    return v;
  }

  /// Declares the stream over and settles the verdict (exact if locked,
  /// otherwise the executor's trailing-window heuristic).  Idempotent; the
  /// `end` of the first call wins.
  virtual Verdict finish(StreamEnd end = StreamEnd::EndOfWord) = 0;

  /// Current verdict (Undetermined until a lock or finish()).
  virtual Verdict verdict() const = 0;

  /// The Definition 3.4 verdict record, populated exactly as
  /// rtw::engine::run would on the word fed so far (fully settled after
  /// finish()).
  virtual const RunResult& result() const = 0;

  /// Restores the initial state so the same object can accept a new stream.
  virtual void reset() = 0;

  virtual std::string name() const = 0;

  /// \name Batch-lane hooks (see rtw/core/lane.hpp)
  /// An acceptor whose automaton state compresses to fixed-width registers
  /// can advertise a lane family; the serving layer then steps many such
  /// sessions per kernel call instead of one virtual feed per symbol.
  /// The defaults opt out: family None, no lane state, no stepper.
  ///@{

  /// The kernel family this acceptor belongs to (None = per-symbol only).
  virtual LaneFamily lane_family() const noexcept { return LaneFamily::None; }

  /// The lane-state POD a family stepper advances, or nullptr while the
  /// acceptor is not (yet, or no longer) in a vectorizable phase.  Callers
  /// must re-query before every batch: acceptors may enter the compressed
  /// phase mid-stream (e.g. once a header is parsed).
  virtual void* lane_state() noexcept { return nullptr; }

  /// Builds the family's batch kernel (one stepper serves every lane of
  /// the family; it holds no per-session state).
  virtual std::unique_ptr<BatchStepper> make_lane_stepper() const {
    return nullptr;
  }
  ///@}
};

/// Drives any RealTimeAlgorithm online with the batch engine's exact
/// semantics.  This is the adapter every application module wraps (see
/// deadline::make_online_acceptor, rtdb::make_online_recognition,
/// adhoc::make_online_route_acceptor).
///
/// `keepalive` pins whatever the algorithm borrows (a Problem, a Network,
/// a QueryCatalog's closure state) for the adapter's lifetime.
class EngineOnlineAcceptor final : public OnlineAcceptor {
public:
  EngineOnlineAcceptor(std::unique_ptr<RealTimeAlgorithm> algorithm,
                       RunOptions options = {},
                       std::shared_ptr<const void> keepalive = nullptr);

  Verdict feed(Symbol symbol, Tick at) override;
  using OnlineAcceptor::feed;
  Verdict finish(StreamEnd end = StreamEnd::EndOfWord) override;
  Verdict verdict() const override;
  const RunResult& result() const override { return result_; }
  void reset() override;
  std::string name() const override;

  const RunOptions& options() const noexcept { return options_; }
  bool finished() const noexcept { return finished_; }
  /// Virtual time of the next driver tick the adapter will emulate.
  Tick frontier() const noexcept { return next_tick_; }
  /// Lock state: engaged once the algorithm committed s_f / s_r.
  std::optional<bool> lock() const noexcept { return lock_; }
  /// True when the drive loop already stopped at the horizon.
  bool ended() const noexcept { return ended_; }
  /// Fed elements not yet delivered to the algorithm.  While streaming
  /// (pre-finish, unlocked, not ended) every buffered element is stamped at
  /// frontier(): older ticks were drained the moment a newer feed arrived.
  std::span<const TimedSymbol> pending_buffer() const noexcept {
    return {buffer_.data() + head_, buffer_.size() - head_};
  }

private:
  /// Emulates driver ticks while their arrival sets are complete.
  /// `limit`: exclusive upper bound on emulable ticks while streaming
  /// (nullopt once the stream has finished -- every tick is emulable).
  /// `truncated`: finish(Truncated) semantics (see StreamEnd).
  void drive(std::optional<Tick> limit, bool truncated);
  void settle_heuristic();

  std::unique_ptr<RealTimeAlgorithm> algorithm_;
  RunOptions options_;
  std::shared_ptr<const void> keepalive_;

  OutputTape out_;
  std::vector<TimedSymbol> buffer_;  ///< fed, not yet delivered
  std::size_t head_ = 0;             ///< first undelivered buffer index
  std::vector<TimedSymbol> arrivals_;  ///< per-tick scratch (reused)
  Tick next_tick_ = 0;       ///< next driver tick to emulate
  Tick last_fed_ = 0;        ///< monotonicity watermark
  bool any_fed_ = false;
  bool ended_ = false;       ///< the engine loop would have stopped
  bool finished_ = false;
  std::optional<bool> lock_;
  RunResult result_;
};

}  // namespace rtw::core
