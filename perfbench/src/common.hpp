#pragma once
// Shared helpers for pb_load and pb_server: CPU placement, clock, seeded
// RNG, percentiles, the span recorder used by traced runs, and the result
// line.

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace pb {

/// The CPUs this thread may run on, ascending.
inline std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  ::sched_getaffinity(0, sizeof(set), &set);
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  return cpus;
}

/// Restricts thread `tid` (0 = the caller) to `cpus`.
inline void pin(pid_t tid, const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  ::sched_setaffinity(tid, sizeof(set), &set);
}

/// A "<field> <n> kB" line of /proc/self/status (VmHWM:, VmRSS:), in KiB.
inline std::uint64_t proc_status_kib(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.compare(0, field.size(), field) == 0)
      return std::stoull(line.substr(field.size()));
  return 0;
}

/// This process's thread ids, ascending (creation order).
inline std::vector<pid_t> task_ids() {
  std::vector<pid_t> tids;
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/task"))
    tids.push_back(static_cast<pid_t>(std::stol(entry.path().filename())));
  std::sort(tids.begin(), tids.end());
  return tids;
}

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// splitmix64: every input the benchmark makes comes from one of these,
/// seeded from --seed.
struct Rng {
  std::uint64_t state;
  explicit Rng(std::uint64_t seed) : state(seed * 0x9E3779B97F4A7C15ULL + 1) {}
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
};

/// Nearest-rank quantile of an unsorted sample (copied).
inline double quantile(std::vector<std::uint64_t> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t idx = std::min(
      v.size() - 1, static_cast<std::size_t>(q * static_cast<double>(v.size())));
  return static_cast<double>(v[idx]);
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Latency samples stamped with the time they completed.
///
/// The run is cut into consecutive windows of 1000 samples, so a window's
/// p99 has ten samples beyond it.  A median is reported as the median of
/// the windows' medians.  A tail is reported as the 10th percentile of the
/// windows' tails, the tail of a quiet window: the VMs this was tuned on
/// lose 0.7-1% of each vCPU's time to hypervisor preemption in 50 us -
/// 2 ms gaps, and a gap on any thread a verdict crosses lands in a third
/// to a half of the windows, so the median window's p99, let alone the
/// whole-run p99, says more about the host than about the server (see
/// perfbench/NOTES.md).
struct Latencies {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> samples;  ///< (at, ns)

  void add(std::uint64_t at, std::uint64_t ns) { samples.emplace_back(at, ns); }
  std::size_t size() const { return samples.size(); }

  double windowed(double q) const {
    auto windows = per_window(q);
    if (q <= 0.5 || windows.empty()) return median(std::move(windows));
    std::sort(windows.begin(), windows.end());
    return windows[windows.size() / 10];
  }

  /// The quantile of each sub-window, in time order.
  std::vector<double> per_window(double q) const {
    if (samples.empty()) return {};
    auto sorted = samples;
    std::sort(sorted.begin(), sorted.end());
    const std::size_t windows =
        std::max<std::size_t>(sorted.size() / 1000, 1);
    std::vector<double> per_window;
    for (std::size_t w = 0; w < windows; ++w) {
      const std::size_t lo = sorted.size() * w / windows;
      const std::size_t hi = sorted.size() * (w + 1) / windows;
      std::vector<std::uint64_t> part;
      part.reserve(hi - lo);
      for (std::size_t i = lo; i < hi; ++i) part.push_back(sorted[i].second);
      per_window.push_back(quantile(std::move(part), q));
    }
    return per_window;
  }
};

/// In-memory span recorder for traced runs.  A span is one call into a
/// layer's public function (or one session, for the request-level span):
/// layer name, start, end, the index of the span that caused it, and the
/// request (session) id shared by every span of one session.  Spans are
/// kept in memory up to a cap and written out when the run ends; the
/// per-layer totals keep counting past the cap.
class Spans {
public:
  static constexpr std::uint32_t kNoParent = 0xffffffffu;

  explicit Spans(bool enabled) : enabled_(enabled) {}
  bool enabled() const noexcept { return enabled_; }

  /// Records a finished span; returns its index (kNoParent once capped).
  std::uint32_t record(const char* layer, std::uint64_t t0, std::uint64_t t1,
                       std::uint64_t request, std::uint32_t parent = kNoParent) {
    if (!enabled_) return kNoParent;
    std::lock_guard lock(mutex_);
    Total& total = totals_[layer];
    ++total.count;
    total.ns += t1 - t0;
    if (parent != kNoParent && parent < spans_.size())
      totals_[spans_[parent].layer].child_ns += t1 - t0;
    if (spans_.size() >= kCap) return kNoParent;
    spans_.push_back({layer, parent, request, t0, t1});
    return static_cast<std::uint32_t>(spans_.size() - 1);
  }

  /// Writes the kept spans of every recorder (one per recording thread)
  /// as TSV to `path` and returns the merged per-layer breakdown, one
  /// line per layer: count, total ms, self ms (total minus the spans it
  /// caused), mean ns per span.
  static std::vector<std::string> dump(const std::vector<const Spans*>& all,
                                       const std::string& path) {
    std::map<std::string, Total> merged;
    std::ofstream out;
    if (!path.empty()) {
      out.open(path);
      out << "thread\tindex\tlayer\tparent\trequest\tstart_ns\tend_ns\n";
    }
    for (std::size_t r = 0; r < all.size(); ++r) {
      std::lock_guard lock(all[r]->mutex_);
      for (const auto& [layer, t] : all[r]->totals_) {
        Total& m = merged[layer];
        m.count += t.count;
        m.ns += t.ns;
        m.child_ns += t.child_ns;
      }
      if (!out.is_open()) continue;
      const auto& spans = all[r]->spans_;
      for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        out << r << '\t' << i << '\t' << s.layer << '\t'
            << (s.parent == kNoParent ? -1 : static_cast<long long>(s.parent))
            << '\t' << s.request << '\t' << s.t0 << '\t' << s.t1 << '\n';
      }
    }
    std::vector<std::string> lines;
    for (const auto& [layer, t] : merged) {
      char buf[256];
      std::snprintf(buf, sizeof(buf), "%-22s %10llu %12.3f %12.3f %12.1f",
                    layer.c_str(), static_cast<unsigned long long>(t.count),
                    static_cast<double>(t.ns) / 1e6,
                    static_cast<double>(t.ns - std::min(t.ns, t.child_ns)) / 1e6,
                    t.count ? static_cast<double>(t.ns) /
                                  static_cast<double>(t.count)
                            : 0.0);
      lines.emplace_back(buf);
    }
    return lines;
  }

private:
  static constexpr std::size_t kCap = 100000;
  struct Span {
    const char* layer;
    std::uint32_t parent;
    std::uint64_t request;
    std::uint64_t t0, t1;
  };
  struct Total {
    std::uint64_t count = 0, ns = 0, child_ns = 0;
  };
  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::map<std::string, Total> totals_;
};

/// The metric set of one run, in insertion order.
struct Metrics {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items;
  void set(const std::string& name, double value, const std::string& unit) {
    for (auto& item : items)
      if (item.first == name) {
        item.second = {value, unit};
        return;
      }
    items.push_back({name, {value, unit}});
  }
  std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < items.size(); ++i) {
      char buf[320];
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                    i ? ", " : "", items[i].first.c_str(), items[i].second.first,
                    items[i].second.second.c_str());
      out += buf;
    }
    return out + "}";
  }
};

}  // namespace pb
