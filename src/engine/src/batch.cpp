#include "rtw/engine/batch.hpp"

namespace rtw::engine {

BatchRunner::BatchRunner(BatchOptions options)
    : options_(options), pool_(options.threads) {}

rtw::sim::Xoshiro256ss BatchRunner::rng_for(std::uint64_t seed,
                                            std::uint64_t index) noexcept {
  // Decorrelate the per-index streams through SplitMix64: adjacent indices
  // land 2^64/phi apart in its sequence.
  rtw::sim::SplitMix64 mix(seed ^ (index * 0x9e3779b97f4a7c15ULL));
  return rtw::sim::Xoshiro256ss(mix());
}

std::vector<EngineResult> BatchRunner::run_words(
    const AlgorithmFactory& factory,
    const std::vector<rtw::core::TimedWord>& words,
    const rtw::core::RunOptions& options,
    const std::optional<rtw::sim::FaultPlan>& faults) {
  const Engine engine = faults ? Engine(options, *faults) : Engine(options);
  return map(words.size(),
             [&](std::size_t i, rtw::sim::Xoshiro256ss&) -> EngineResult {
               auto algorithm = factory();
               return engine.run(*algorithm, words[i]);
             });
}

std::vector<EngineResult> BatchRunner::run_sampled(
    const AlgorithmFactory& factory, std::size_t count,
    const std::function<rtw::core::TimedWord(std::uint64_t,
                                             rtw::sim::Xoshiro256ss&)>& sampler,
    const rtw::core::RunOptions& options,
    const std::optional<rtw::sim::FaultPlan>& faults) {
  const Engine engine = faults ? Engine(options, *faults) : Engine(options);
  return map(count,
             [&](std::size_t i, rtw::sim::Xoshiro256ss& rng) -> EngineResult {
               const auto word = sampler(i, rng);
               auto algorithm = factory();
               return engine.run(*algorithm, word);
             });
}

std::vector<bool> membership_sweep(const AlgorithmFactory& factory,
                                   const std::vector<rtw::core::TimedWord>& words,
                                   const rtw::core::RunOptions& options,
                                   bool require_exact,
                                   const BatchOptions& batch) {
  BatchRunner runner(batch);
  const auto runs = runner.run_words(factory, words, options);
  std::vector<bool> verdicts(runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i)
    verdicts[i] = require_exact
                      ? runs[i].result.exact && runs[i].result.accepted
                      : runs[i].result.accepted;
  return verdicts;
}

}  // namespace rtw::engine
