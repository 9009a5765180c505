#include "common/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/check.h"

namespace sfp::common::metrics {

namespace {

/// Atomic fetch-add for doubles via a CAS loop (portable pre-C++20
/// libstdc++ atomic<double>::fetch_add).
void AtomicAdd(std::atomic<double>& target, double delta) {
  double expected = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(expected, expected + delta,
                                       std::memory_order_relaxed)) {
  }
}

void AtomicMin(std::atomic<double>& target, double value) {
  double expected = target.load(std::memory_order_relaxed);
  while (value < expected &&
         !target.compare_exchange_weak(expected, value, std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<double>& target, double value) {
  double expected = target.load(std::memory_order_relaxed);
  while (value > expected &&
         !target.compare_exchange_weak(expected, value, std::memory_order_relaxed)) {
  }
}

std::vector<double> DefaultBounds() { return ExponentialBounds(1.0, 2.0, 16); }

}  // namespace

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  SFP_CHECK_MSG(std::is_sorted(bounds_.begin(), bounds_.end()),
                "histogram bounds must be ascending");
  buckets_.resize(bounds_.size() + 1);
  min_.store(std::numeric_limits<double>::infinity(), std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(), std::memory_order_relaxed);
}

void Histogram::Observe(double value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  buckets_[static_cast<std::size_t>(it - bounds_.begin())].Add(1);
  count_.Add(1);
  AtomicAdd(sum_, value);
  AtomicMin(min_, value);
  AtomicMax(max_, value);
}

void Histogram::Assign(const Histogram& other) {
  SFP_CHECK_MSG(bounds_ == other.bounds_, "histogram bounds differ");
  for (std::size_t i = 0; i < buckets_.size(); ++i) buckets_[i].Set(other.buckets_[i].Value());
  count_.Set(other.count_.Value());
  sum_.store(other.sum_.load(std::memory_order_relaxed), std::memory_order_relaxed);
  min_.store(other.min_.load(std::memory_order_relaxed), std::memory_order_relaxed);
  max_.store(other.max_.load(std::memory_order_relaxed), std::memory_order_relaxed);
}

double Histogram::Min() const {
  return Count() == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
}

double Histogram::Max() const {
  return Count() == 0 ? 0.0 : max_.load(std::memory_order_relaxed);
}

double Histogram::Mean() const {
  const std::uint64_t n = Count();
  return n == 0 ? 0.0 : Sum() / static_cast<double>(n);
}

std::uint64_t Histogram::BucketCount(std::size_t i) const {
  SFP_CHECK_LT(i, buckets_.size());
  return buckets_[i].Value();
}

std::vector<double> ExponentialBounds(double start, double factor, int count) {
  SFP_CHECK_GT(start, 0.0);
  SFP_CHECK_GT(factor, 1.0);
  std::vector<double> bounds;
  bounds.reserve(static_cast<std::size_t>(count));
  double bound = start;
  for (int i = 0; i < count; ++i) {
    bounds.push_back(bound);
    bound *= factor;
  }
  return bounds;
}

Counter& Registry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Histogram& Registry::GetHistogram(const std::string& name, std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Histogram>(bounds.empty() ? DefaultBounds()
                                                      : std::move(bounds));
  }
  return *slot;
}

std::vector<CounterSnapshot> Registry::Counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<CounterSnapshot> snapshots;
  snapshots.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snapshots.push_back({name, counter->Value()});
  }
  return snapshots;
}

std::vector<HistogramSnapshot> Registry::Histograms() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<HistogramSnapshot> snapshots;
  snapshots.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    HistogramSnapshot snapshot;
    snapshot.name = name;
    snapshot.count = histogram->Count();
    snapshot.sum = histogram->Sum();
    snapshot.min = histogram->Min();
    snapshot.max = histogram->Max();
    snapshot.bounds = histogram->bounds();
    snapshot.bucket_counts.reserve(snapshot.bounds.size() + 1);
    for (std::size_t i = 0; i <= snapshot.bounds.size(); ++i) {
      snapshot.bucket_counts.push_back(histogram->BucketCount(i));
    }
    snapshots.push_back(std::move(snapshot));
  }
  return snapshots;
}

void Registry::WriteJson(std::ostream& os) const {
  const auto counters = Counters();
  const auto histograms = Histograms();

  os << "{\"counters\": {";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    if (i > 0) os << ", ";
    os << '"' << JsonEscape(counters[i].name) << "\": " << counters[i].value;
  }
  os << "}, \"histograms\": {";
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    const auto& h = histograms[i];
    if (i > 0) os << ", ";
    os << '"' << JsonEscape(h.name) << "\": {\"count\": " << h.count
       << ", \"sum\": " << JsonNumber(h.sum) << ", \"min\": " << JsonNumber(h.min)
       << ", \"max\": " << JsonNumber(h.max) << ", \"buckets\": [";
    for (std::size_t b = 0; b < h.bucket_counts.size(); ++b) {
      if (b > 0) os << ", ";
      os << "{\"le\": ";
      if (b < h.bounds.size()) {
        os << JsonNumber(h.bounds[b]);
      } else {
        os << "\"+inf\"";
      }
      os << ", \"count\": " << h.bucket_counts[b] << '}';
    }
    os << "]}";
  }
  os << "}}";
}

std::string Registry::ToJson() const {
  std::ostringstream os;
  WriteJson(os);
  return os.str();
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

}  // namespace sfp::common::metrics
