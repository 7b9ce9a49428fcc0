#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace plim::util {

class JsonWriter;

/// Snapshot of one log2-bucketed histogram: bucket k counts samples in
/// [2^(k−1), 2^k) (bucket 0 counts samples < 1). Quantiles are
/// estimated by linear interpolation inside the selected bucket —
/// coarse, but monotone and allocation-free to record, which is what a
/// compile-server reporting p50/p99 per phase needs.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::vector<std::uint64_t> buckets;

  [[nodiscard]] double mean() const {
    return count > 0 ? sum / static_cast<double>(count) : 0.0;
  }
  /// Estimated q-quantile (q in [0, 1]) from the bucket counts.
  [[nodiscard]] double quantile(double q) const;
};

/// Process-wide metrics registry: named counters (monotone, saturating
/// at 2^64), gauges (last value wins) and log2 histograms. Every
/// recording call is gated on one relaxed atomic load and takes its
/// name as a view, so permanently instrumented hot paths (the list
/// scheduler, refinement, the compile server) allocate nothing and
/// cost nothing else while the registry is disabled; when enabled,
/// each call takes one mutex. plimc enables it for --metrics / --trace
/// and prints summary() at exit; the compile-server will export
/// snapshot() per scrape.
class MetricsRegistry {
 public:
  static MetricsRegistry& global();

  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Adds `delta` to counter `name` (created at 0). Counters only ever
  /// grow — there is no decrement or set.
  void counter_add(std::string_view name, std::uint64_t delta = 1);
  /// Sets gauge `name` to `value` (last writer wins).
  void gauge_set(std::string_view name, double value);
  /// Records one sample into histogram `name`.
  void observe(std::string_view name, double value);

  /// Current counter value (0 when never touched).
  [[nodiscard]] std::uint64_t counter(std::string_view name) const;
  [[nodiscard]] double gauge(std::string_view name) const;
  [[nodiscard]] HistogramSnapshot histogram(std::string_view name) const;

  /// Name-sorted maps that `find` by a std::string_view as well.
  template <typename Value>
  using NameMap = std::map<std::string, Value, std::less<>>;

  [[nodiscard]] NameMap<std::uint64_t> counters() const;
  [[nodiscard]] NameMap<double> gauges() const;
  [[nodiscard]] NameMap<HistogramSnapshot> histograms() const;

  /// Emits every metric as fields of the currently open JSON object:
  /// "counters" / "gauges" as flat objects, "histograms" with
  /// count/sum/min/max/mean/p50/p99 per entry. Deterministic order
  /// (name-sorted).
  void write_json(JsonWriter& json) const;

  /// Human-readable dump, one metric per line — what `plimc --metrics`
  /// prints to stderr.
  [[nodiscard]] std::string summary() const;

  /// Drops every metric (the enabled flag is untouched).
  void reset();

 private:
  struct Histogram {
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    std::vector<std::uint64_t> buckets;
  };

  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  NameMap<std::uint64_t> counters_;
  NameMap<double> gauges_;
  NameMap<Histogram> histograms_;
};

}  // namespace plim::util
