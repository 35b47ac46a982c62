// MetricsRegistry — the unified metrics plane of the flight recorder.
//
// Every layer of the pipeline (scheduler, service, WAL flusher, shippers,
// replicas, router) owns its own counters/gauges/histograms and registers a
// *source* with a registry: a named prefix plus a collect callback that
// pushes current values into a MetricsSink. snapshot() walks the sources
// under one lock and returns a single consistent export — one flat,
// name-sorted sample set — with JSON and Prometheus text writers.
//
//   component ──owns──▶ obs::Counter / LatencyHistogram / raw atomics
//       │
//       └──MetricsGroup(registry, "p0.service")──▶ registry source list
//                                                        │ snapshot()
//                                  StatsSampler / bench ◀┘ (JSON / Prom)
//
// Hot-path-safe primitives:
//  * Counter — cacheline-padded sharded atomics (one stripe per thread
//    hash); add() is a relaxed fetch_add on a private line, value() sums.
//  * StripedHistogram — N {mutex, LatencyHistogram} stripes keyed by thread
//    id; record() takes an uncontended lock, merged() folds the stripes.
//
// Pull model: collect callbacks run at snapshot time on the snapshotting
// thread, so components pay nothing between snapshots, and a component's
// whole stats struct is gathered once per snapshot (not once per metric).
// Callbacks must be thread-safe; they usually call the component's existing
// stats(). Registration is RAII (MetricsGroup): a destroyed component can
// never be collected.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/cacheline.hpp"
#include "util/latency_histogram.hpp"

namespace cpkcore::obs {

/// Monotone counter: sharded cacheline-padded atomics so concurrent
/// increments from many threads never share a line. Movable-in-spirit but
/// pinned in practice: components hold it by value and register a source
/// that reads it.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    stripes_[stripe_index()].value.fetch_add(n, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t value() const {
    std::uint64_t sum = 0;
    for (const auto& s : stripes_) {
      sum += s.value.load(std::memory_order_relaxed);
    }
    return sum;
  }

  void reset() {
    for (auto& s : stripes_) s.value.store(0, std::memory_order_relaxed);
  }

 private:
  static constexpr std::size_t kStripes = 16;

  static std::size_t stripe_index();

  Padded<std::atomic<std::uint64_t>> stripes_[kStripes];
};

/// Multi-writer latency histogram: stripes of {mutex, LatencyHistogram}
/// keyed by thread id, so record() takes an (almost always uncontended)
/// lock on a private stripe. merged() folds all stripes into one.
class StripedHistogram {
 public:
  void record(std::uint64_t ns) {
    Stripe& s = stripes_[stripe_index()];
    std::lock_guard lock(s.mu);
    s.hist.record(ns);
  }

  [[nodiscard]] LatencyHistogram merged() const {
    LatencyHistogram out;
    for (const auto& s : stripes_) {
      std::lock_guard lock(s.mu);
      out.merge(s.hist);
    }
    return out;
  }

  void reset() {
    for (auto& s : stripes_) {
      std::lock_guard lock(s.mu);
      s.hist.clear();
    }
  }

 private:
  static constexpr std::size_t kStripes = 8;

  struct alignas(kCacheLine) Stripe {
    mutable std::mutex mu;
    LatencyHistogram hist;
  };

  static std::size_t stripe_index();

  Stripe stripes_[kStripes];
};

enum class MetricType { kCounter, kGauge, kHistogram };

/// Summary of a histogram at snapshot time (quantiles precomputed so
/// exports need no access to the live buckets).
struct HistogramSummary {
  std::uint64_t count = 0;
  std::uint64_t min_ns = 0;
  std::uint64_t max_ns = 0;
  double mean_ns = 0.0;
  std::uint64_t p50_ns = 0;
  std::uint64_t p99_ns = 0;
  std::uint64_t p9999_ns = 0;
};

struct MetricSample {
  std::string name;
  MetricType type = MetricType::kGauge;
  double value = 0.0;       ///< counter/gauge value (count for histograms)
  HistogramSummary hist{};  ///< populated iff type == kHistogram
};

/// One consistent export of a registry: every source collected under the
/// registry lock, samples sorted by name.
struct MetricsSnapshot {
  std::uint64_t wall_unix_ms = 0;  ///< system clock at capture
  std::uint64_t mono_ns = 0;       ///< steady clock at capture
  std::vector<MetricSample> samples;

  /// Looks up a sample by exact name (nullptr when absent).
  [[nodiscard]] const MetricSample* find(const std::string& name) const;

  /// One JSON object: {"ts_ms":..., "<name>":value, ...} with histograms
  /// expanded to <name>.count/.p50_ns/.p99_ns/.p9999_ns/.mean_ns/.max_ns.
  [[nodiscard]] std::string to_json() const;

  /// Prometheus text exposition format (names sanitized [a-zA-Z0-9_:],
  /// counters as <name>_total, histograms as summaries with quantile
  /// labels plus _count/_sum).
  [[nodiscard]] std::string to_prometheus() const;
};

/// Passed to collect callbacks: push values under the source's prefix.
class MetricsSink {
 public:
  void counter(const std::string& name, double value) {
    push(name, MetricType::kCounter, value, nullptr);
  }
  void counter(const std::string& name, const Counter& c) {
    counter(name, static_cast<double>(c.value()));
  }
  void gauge(const std::string& name, double value) {
    push(name, MetricType::kGauge, value, nullptr);
  }
  void histogram(const std::string& name, const LatencyHistogram& h) {
    push(name, MetricType::kHistogram,
         static_cast<double>(h.count()), &h);
  }
  void histogram(const std::string& name, const StripedHistogram& h) {
    const LatencyHistogram merged = h.merged();
    histogram(name, merged);
  }

 private:
  friend class MetricsRegistry;
  MetricsSink(const std::string& prefix, std::vector<MetricSample>& out)
      : prefix_(prefix), out_(out) {}

  void push(const std::string& name, MetricType type, double value,
            const LatencyHistogram* hist);

  const std::string& prefix_;
  std::vector<MetricSample>& out_;
};

class MetricsRegistry {
 public:
  /// The process-wide default registry (what the sampler, bench, and CLI
  /// export). Components take a MetricsRegistry* so tests can isolate.
  static MetricsRegistry& instance();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  using CollectFn = std::function<void(MetricsSink&)>;

  /// Registers a source. `prefix` (usually "component." or
  /// "p0.component.") is prepended to every name the callback pushes.
  /// Returns the source id for remove_source. Thread-safe.
  std::uint64_t add_source(std::string prefix, CollectFn collect);

  /// Unregisters; after return the callback will not run again (snapshot
  /// holds the lock across collection, so a concurrent snapshot either
  /// completed the callback or never starts it).
  void remove_source(std::uint64_t id);

  [[nodiscard]] std::size_t num_sources() const;

  /// Collects every source into one consistent, name-sorted snapshot.
  [[nodiscard]] MetricsSnapshot snapshot() const;

 private:
  struct Source {
    std::uint64_t id = 0;
    std::string prefix;
    CollectFn collect;
  };

  mutable std::mutex mu_;
  std::vector<Source> sources_;  // under mu_
  std::uint64_t next_id_ = 1;    // under mu_
};

/// RAII bundle of sources one component registers: destroying the group
/// (or the owning component) unregisters everything it added. A
/// default-constructed / nullptr-registry group is inert — every call
/// no-ops — so components can make metrics opt-in with zero branches at
/// the call sites.
class MetricsGroup {
 public:
  MetricsGroup() = default;
  MetricsGroup(MetricsRegistry* registry, std::string prefix)
      : registry_(registry), prefix_(std::move(prefix)) {}
  ~MetricsGroup() { release(); }

  MetricsGroup(MetricsGroup&& other) noexcept { *this = std::move(other); }
  MetricsGroup& operator=(MetricsGroup&& other) noexcept {
    if (this != &other) {
      release();
      registry_ = other.registry_;
      prefix_ = std::move(other.prefix_);
      ids_ = std::move(other.ids_);
      other.registry_ = nullptr;
      other.ids_.clear();
    }
    return *this;
  }
  MetricsGroup(const MetricsGroup&) = delete;
  MetricsGroup& operator=(const MetricsGroup&) = delete;

  [[nodiscard]] bool enabled() const { return registry_ != nullptr; }
  explicit operator bool() const { return enabled(); }
  [[nodiscard]] MetricsRegistry* registry() const { return registry_; }
  [[nodiscard]] const std::string& prefix() const { return prefix_; }

  /// Adds one collect source under this group's prefix.
  void collect(MetricsRegistry::CollectFn fn) {
    if (registry_ == nullptr) return;
    ids_.push_back(registry_->add_source(prefix_, std::move(fn)));
  }

  /// Unregisters every source this group added. Idempotent.
  void release() {
    if (registry_ != nullptr) {
      for (std::uint64_t id : ids_) registry_->remove_source(id);
    }
    ids_.clear();
    registry_ = nullptr;
  }

 private:
  MetricsRegistry* registry_ = nullptr;
  std::string prefix_;
  std::vector<std::uint64_t> ids_;
};

}  // namespace cpkcore::obs
