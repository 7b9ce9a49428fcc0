#include "util/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace plim::util {

namespace {

/// Bucket index for a log2 histogram: bucket 0 holds samples < 1,
/// bucket k ≥ 1 holds samples in [2^(k−1), 2^k).
std::size_t bucket_index(double value) {
  if (!(value >= 1.0)) {  // also catches NaN
    return 0;
  }
  std::size_t k = 1;
  double upper = 2.0;
  while (value >= upper && k < 63) {
    upper *= 2.0;
    ++k;
  }
  return k;
}

/// Lower/upper bound of bucket k (see bucket_index).
double bucket_lower(std::size_t k) {
  return k == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(k) - 1);
}
double bucket_upper(std::size_t k) {
  return std::ldexp(1.0, static_cast<int>(k));
}

/// The entry `name` of `map`, created value-initialized on first use.
template <typename Map>
typename Map::mapped_type& entry(Map& map, std::string_view name) {
  auto it = map.find(name);
  if (it == map.end()) {
    it = map.emplace(std::string(name), typename Map::mapped_type{}).first;
  }
  return it->second;
}

void append_number(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  out += buf;
}

}  // namespace

double HistogramSnapshot::quantile(double q) const {
  if (count == 0) {
    return 0.0;
  }
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(count - 1);
  double seen = 0.0;
  for (std::size_t k = 0; k < buckets.size(); ++k) {
    const double in_bucket = static_cast<double>(buckets[k]);
    if (in_bucket == 0.0) {
      continue;
    }
    if (rank < seen + in_bucket) {
      const double lo = std::max(bucket_lower(k), min);
      const double hi = std::min(bucket_upper(k), max);
      if (in_bucket <= 1.0 || hi <= lo) {
        return std::clamp((lo + hi) / 2.0, min, max);
      }
      const double frac = (rank - seen) / (in_bucket - 1.0);
      return std::clamp(lo + frac * (hi - lo), min, max);
    }
    seen += in_bucket;
  }
  return max;
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

void MetricsRegistry::counter_add(std::string_view name,
                                  std::uint64_t delta) {
  if (!enabled()) {
    return;
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& c = entry(counters_, name);
  // Saturate instead of wrapping: a monotone counter must never appear
  // to go backwards to a scraper.
  c = (c + delta < c) ? ~std::uint64_t{0} : c + delta;
}

void MetricsRegistry::gauge_set(std::string_view name, double value) {
  if (!enabled()) {
    return;
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  entry(gauges_, name) = value;
}

void MetricsRegistry::observe(std::string_view name, double value) {
  if (!enabled()) {
    return;
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& h = entry(histograms_, name);
  if (h.count == 0) {
    h.min = value;
    h.max = value;
  } else {
    h.min = std::min(h.min, value);
    h.max = std::max(h.max, value);
  }
  ++h.count;
  h.sum += value;
  const std::size_t k = bucket_index(value);
  if (h.buckets.size() <= k) {
    h.buckets.resize(k + 1, 0);
  }
  ++h.buckets[k];
}

std::uint64_t MetricsRegistry::counter(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = counters_.find(name);
  return it != counters_.end() ? it->second : 0;
}

double MetricsRegistry::gauge(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = gauges_.find(name);
  return it != gauges_.end() ? it->second : 0.0;
}

HistogramSnapshot MetricsRegistry::histogram(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  HistogramSnapshot snap;
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) {
    snap.count = it->second.count;
    snap.sum = it->second.sum;
    snap.min = it->second.min;
    snap.max = it->second.max;
    snap.buckets = it->second.buckets;
  }
  return snap;
}

MetricsRegistry::NameMap<std::uint64_t> MetricsRegistry::counters() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

MetricsRegistry::NameMap<double> MetricsRegistry::gauges() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return gauges_;
}

MetricsRegistry::NameMap<HistogramSnapshot> MetricsRegistry::histograms()
    const {
  const std::lock_guard<std::mutex> lock(mutex_);
  NameMap<HistogramSnapshot> out;
  for (const auto& [name, h] : histograms_) {
    HistogramSnapshot snap;
    snap.count = h.count;
    snap.sum = h.sum;
    snap.min = h.min;
    snap.max = h.max;
    snap.buckets = h.buckets;
    out.emplace(name, std::move(snap));
  }
  return out;
}

std::string MetricsRegistry::summary() const {
  const auto counters = this->counters();
  const auto gauges = this->gauges();
  const auto histograms = this->histograms();

  std::string out;
  for (const auto& [name, value] : counters) {
    out += name + " = " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : gauges) {
    out += name + " = ";
    append_number(out, value);
    out += "\n";
  }
  for (const auto& [name, h] : histograms) {
    out += name + ": count=" + std::to_string(h.count) + " mean=";
    append_number(out, h.mean());
    out += " p50=";
    append_number(out, h.quantile(0.50));
    out += " p99=";
    append_number(out, h.quantile(0.99));
    out += " min=";
    append_number(out, h.min);
    out += " max=";
    append_number(out, h.max);
    out += "\n";
  }
  return out;
}

void MetricsRegistry::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

}  // namespace plim::util
