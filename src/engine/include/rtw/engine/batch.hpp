#pragma once
/// \file batch.hpp
/// BatchRunner: fans N independent acceptor runs (membership sweeps, Monte
/// Carlo instance samplers, bench sweeps) across a sim::ThreadPool.
///
/// Guarantees:
///   * deterministic per-run RNG -- each job's generator is derived from
///     (seed, job index) only, so results are bit-identical regardless of
///     thread count or scheduling order;
///   * deterministic result order -- results land at their job's index;
///   * exceptions thrown by a job propagate to the caller of map().
///
/// Each engine run is already single-threaded and self-contained (private
/// EventQueue + tapes), which is what makes this fan-out safe.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <optional>
#include <type_traits>
#include <vector>

#include "rtw/engine/engine.hpp"
#include "rtw/obs/sink.hpp"
#include "rtw/sim/rng.hpp"
#include "rtw/sim/thread_pool.hpp"

namespace rtw::engine {

/// Fan-out configuration.
struct BatchOptions {
  unsigned threads = 0;  ///< pool size; 0 = hardware concurrency
  std::uint64_t seed = 0x72747765ULL;  ///< base seed for per-run RNG streams
};

class BatchRunner {
public:
  explicit BatchRunner(BatchOptions options = {});

  unsigned threads() const noexcept { return pool_.threads(); }
  const BatchOptions& options() const noexcept { return options_; }

  /// The deterministic per-run generator: a function of (seed, index) only.
  static rtw::sim::Xoshiro256ss rng_for(std::uint64_t seed,
                                        std::uint64_t index) noexcept;

  /// Runs `job(index, rng)` for index in [0, count) across the pool and
  /// returns the results in index order.  R must be default-constructible
  /// and must not be bool (std::vector<bool> packs bits -- concurrent
  /// element writes would race; return char or use membership_sweep).
  ///
  /// Fan-out shape: instead of one pool task (and one future) per index,
  /// one task per worker claims index-range chunks from a shared atomic
  /// counter -- work-stealing at the chunk level, so a 100k-index sweep
  /// posts a handful of tasks and never funnels through a locked deque of
  /// 100k cells.  Each index still derives its RNG from (seed, index)
  /// alone, so results are bit-identical to the serial path at any thread
  /// count and any chunk schedule.
  template <typename Job,
            typename R = std::invoke_result_t<Job, std::size_t,
                                              rtw::sim::Xoshiro256ss&>>
  std::vector<R> map(std::size_t count, Job job) {
    static_assert(!std::is_same_v<R, bool>,
                  "vector<bool> bit-packing races under concurrent writes");
    RTW_SPAN("engine.batch.map");
    std::vector<R> results(count);
    if (count == 0) return results;

    struct Shared {
      std::atomic<std::size_t> next{0};
      std::atomic<std::size_t> live{0};
      std::mutex mutex;
      std::condition_variable done;
      std::exception_ptr error;
      std::size_t error_index = 0;
    } shared;

    const std::size_t workers =
        std::min<std::size_t>(count, pool_.threads());
    // ~8 chunks per worker keeps the tail balanced without contending on
    // the atomic for every index.
    const std::size_t chunk =
        std::max<std::size_t>(1, count / (workers * 8));
    shared.live.store(workers, std::memory_order_relaxed);

    for (std::size_t w = 0; w < workers; ++w) {
      pool_.post([this, count, chunk, &shared, &results, &job] {
        std::size_t begin;
        while ((begin = shared.next.fetch_add(chunk,
                                              std::memory_order_relaxed)) <
               count) {
          const std::size_t end = std::min(count, begin + chunk);
          for (std::size_t i = begin; i < end; ++i) {
            try {
              auto rng = rng_for(options_.seed, i);
              results[i] = job(i, rng);
            } catch (...) {
              std::lock_guard lock(shared.mutex);
              // Keep the lowest-index exception (what the old
              // future-per-index loop rethrew).
              if (!shared.error || i < shared.error_index) {
                shared.error = std::current_exception();
                shared.error_index = i;
              }
            }
            detail::record_batch_job();
          }
        }
        // Decrement under the mutex: the waiter cannot observe live == 0
        // (and destroy `shared`) until this worker has released the lock
        // and stopped touching it.
        {
          std::lock_guard lock(shared.mutex);
          if (shared.live.fetch_sub(1, std::memory_order_acq_rel) == 1)
            shared.done.notify_all();
        }
      });
    }

    std::unique_lock lock(shared.mutex);
    shared.done.wait(lock, [&shared] {
      return shared.live.load(std::memory_order_acquire) == 0;
    });
    if (shared.error) std::rethrow_exception(shared.error);
    return results;
  }

  /// Runs every word through a fresh algorithm from `factory` (one engine
  /// run per word); results in word order.  With `faults`, every run
  /// executes under that fault plan (each engine run builds its own
  /// injector, so per-run RunTrace fault counters are isolated across
  /// batch entries and results stay thread-count invariant).
  std::vector<EngineResult> run_words(
      const AlgorithmFactory& factory,
      const std::vector<rtw::core::TimedWord>& words,
      const rtw::core::RunOptions& options = {},
      const std::optional<rtw::sim::FaultPlan>& faults = std::nullopt);

  /// Monte Carlo fan-out: runs `count` sampled words, where sample i is
  /// produced by `sampler(i, rng)` with the deterministic per-run RNG.
  std::vector<EngineResult> run_sampled(
      const AlgorithmFactory& factory, std::size_t count,
      const std::function<rtw::core::TimedWord(std::uint64_t,
                                               rtw::sim::Xoshiro256ss&)>&
          sampler,
      const rtw::core::RunOptions& options = {},
      const std::optional<rtw::sim::FaultPlan>& faults = std::nullopt);

private:
  BatchOptions options_;
  rtw::sim::ThreadPool pool_;
};

/// Batch membership: the engine verdict for every word, fanned across a
/// BatchRunner.  Semantics per word match engine::membership (including
/// `require_exact`); the result order matches the word order and is
/// bit-identical to a serial evaluation.
std::vector<bool> membership_sweep(
    const AlgorithmFactory& factory,
    const std::vector<rtw::core::TimedWord>& words,
    const rtw::core::RunOptions& options = {}, bool require_exact = false,
    const BatchOptions& batch = {});

}  // namespace rtw::engine
