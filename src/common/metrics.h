// Lightweight performance-metrics registry (counters + histograms) with
// a JSON exporter.
//
// The hot paths of the switch simulator bump RelaxedCounters (plain
// relaxed atomics, copyable so counter owners keep value semantics);
// a Registry aggregates named Counters and Histograms and serializes
// them to the machine-readable JSON consumed by the bench harnesses
// (schema documented in docs/METRICS.md). Everything is thread-safe:
// counters and histogram observations use relaxed atomics, name lookup
// uses a mutex only on first registration.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace sfp::common::metrics {

/// Relaxed atomic counter that stays copyable/movable (copies snapshot
/// the value), so aggregates holding one — Pipeline, MatchActionTable —
/// keep their value semantics.
class RelaxedCounter {
 public:
  RelaxedCounter() = default;
  RelaxedCounter(const RelaxedCounter& other)
      : value_(other.value_.load(std::memory_order_relaxed)) {}
  RelaxedCounter& operator=(const RelaxedCounter& other) {
    value_.store(other.value_.load(std::memory_order_relaxed), std::memory_order_relaxed);
    return *this;
  }

  void Add(std::uint64_t delta = 1) { value_.fetch_add(delta, std::memory_order_relaxed); }
  void Set(std::uint64_t value) { value_.store(value, std::memory_order_relaxed); }
  std::uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Relaxed atomic double with the same copy semantics as
/// RelaxedCounter (copies snapshot the value). Used for shared
/// virtual-time clocks such as the pipeline's recirculation port.
class RelaxedDouble {
 public:
  RelaxedDouble() = default;
  explicit RelaxedDouble(double value) : value_(value) {}
  RelaxedDouble(const RelaxedDouble& other)
      : value_(other.value_.load(std::memory_order_relaxed)) {}
  RelaxedDouble& operator=(const RelaxedDouble& other) {
    value_.store(other.value_.load(std::memory_order_relaxed), std::memory_order_relaxed);
    return *this;
  }

  double Value() const { return value_.load(std::memory_order_relaxed); }
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  /// CAS primitive for read-modify-write updates (e.g. advancing a
  /// virtual clock to max(now, old) + service).
  bool CompareExchange(double& expected, double desired) {
    return value_.compare_exchange_weak(expected, desired, std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// A named monotonic counter owned by a Registry.
class Counter {
 public:
  void Increment(std::uint64_t delta = 1) { value_.Add(delta); }
  /// Overwrites the value — used when snapshotting component-internal
  /// counters (e.g. Pipeline::ExportMetrics) into a registry.
  void Set(std::uint64_t value) { value_.Set(value); }
  std::uint64_t Value() const { return value_.Value(); }

 private:
  RelaxedCounter value_;
};

/// A histogram over fixed upper-bound buckets plus count/sum/min/max.
/// Buckets are non-cumulative; an implicit overflow bucket catches
/// values above the last bound. Observe() is thread-safe.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Observe(double value);

  /// Overwrites this histogram with `other`'s state (the bounds must
  /// match) — used when snapshotting a component-internal histogram
  /// into a registry, like Counter::Set.
  void Assign(const Histogram& other);

  std::uint64_t Count() const { return count_.Value(); }
  double Sum() const { return sum_.load(std::memory_order_relaxed); }
  /// 0 when empty.
  double Min() const;
  double Max() const;
  double Mean() const;
  const std::vector<double>& bounds() const { return bounds_; }
  /// Bucket i counts values <= bounds()[i]; index bounds().size() is
  /// the overflow bucket.
  std::uint64_t BucketCount(std::size_t i) const;

 private:
  std::vector<double> bounds_;                  // ascending upper bounds
  std::vector<RelaxedCounter> buckets_;         // bounds_.size() + 1
  RelaxedCounter count_;
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
};

/// `count` bucket bounds starting at `start`, multiplied by `factor`
/// (e.g. ExponentialBounds(1, 2, 12) = 1, 2, 4, ..., 2048).
std::vector<double> ExponentialBounds(double start, double factor, int count);

/// Point-in-time view of a registry's contents (for exporters/tests).
struct CounterSnapshot {
  std::string name;
  std::uint64_t value = 0;
};
struct HistogramSnapshot {
  std::string name;
  std::uint64_t count = 0;
  double sum = 0.0, min = 0.0, max = 0.0;
  std::vector<double> bounds;
  std::vector<std::uint64_t> bucket_counts;  // bounds.size() + 1
};

/// Named counters and histograms. GetCounter/GetHistogram create on
/// first use and return references that stay valid for the registry's
/// lifetime, so hot paths can cache them.
class Registry {
 public:
  Counter& GetCounter(const std::string& name);
  /// `bounds` is only consulted on first creation; empty = the default
  /// exponential layout.
  Histogram& GetHistogram(const std::string& name, std::vector<double> bounds = {});

  std::vector<CounterSnapshot> Counters() const;
  std::vector<HistogramSnapshot> Histograms() const;

  /// Writes `{"counters": {...}, "histograms": {...}}` (the "metrics"
  /// object of the bench JSON schema, docs/METRICS.md).
  void WriteJson(std::ostream& os) const;
  std::string ToJson() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Escapes a string for inclusion in a JSON string literal.
std::string JsonEscape(const std::string& text);

/// Formats a double as a JSON number (finite; non-finite values are
/// clamped to 0 so the output always parses).
std::string JsonNumber(double value);

}  // namespace sfp::common::metrics
