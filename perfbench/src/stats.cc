#include "stats.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <utility>

namespace perfbench {

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 0.5); }

double MedianOfChunkMinima(const std::vector<double>& values, int chunks) {
  const std::size_t n = values.size();
  const std::size_t k = std::min(n, static_cast<std::size_t>(std::max(chunks, 1)));
  std::vector<double> minima;
  for (std::size_t c = 0; c < k; ++c) {
    const auto begin = values.begin() + static_cast<std::ptrdiff_t>(c * n / k);
    const auto end = values.begin() + static_cast<std::ptrdiff_t>((c + 1) * n / k);
    minima.push_back(*std::min_element(begin, end));
  }
  return Median(std::move(minima));
}

std::vector<std::int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans.size());
  for (const auto& span : spans) {
    if (span.parent < 0) continue;
    const auto& parent = spans[static_cast<std::size_t>(span.parent)];
    const std::int64_t lo = std::max(span.start_ns, parent.start_ns);
    const std::int64_t hi = std::min(span.end_ns, parent.end_ns);
    if (hi > lo) children[static_cast<std::size_t>(span.parent)].emplace_back(lo, hi);
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    std::int64_t covered = 0;
    std::int64_t run_lo = 0;
    std::int64_t run_hi = -1;
    bool open = false;
    for (const auto& [lo, hi] : intervals) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = spans[i].Duration() - covered;
  }
  return self;
}

std::vector<double> SubtractionSplit(const std::vector<Span>& spans, std::string_view whole,
                                     const std::vector<std::string_view>& parts) {
  struct OpTotals {
    int wholes = 0;
    std::int64_t whole_ns = 0;
    std::int64_t units = 1;
    std::vector<std::int64_t> part_ns;
    std::vector<int> part_count;
  };
  std::map<std::int64_t, OpTotals> ops;
  for (const auto& span : spans) {
    auto [it, inserted] = ops.try_emplace(span.op);
    auto& totals = it->second;
    if (inserted) {
      totals.part_ns.assign(parts.size(), 0);
      totals.part_count.assign(parts.size(), 0);
    }
    if (span.name == whole) {
      ++totals.wholes;
      totals.whole_ns = span.Duration();
      totals.units = span.units;
    }
    for (std::size_t p = 0; p < parts.size(); ++p) {
      if (span.name != parts[p]) continue;
      totals.part_ns[p] += span.Duration();
      ++totals.part_count[p];
    }
  }
  std::vector<double> out;
  for (const auto& [op, totals] : ops) {
    if (totals.wholes != 1 || totals.units <= 0) continue;
    if (std::any_of(totals.part_count.begin(), totals.part_count.end(),
                    [](int count) { return count == 0; })) {
      continue;
    }
    std::int64_t rest = totals.whole_ns;
    for (const std::int64_t ns : totals.part_ns) rest -= ns;
    out.push_back(static_cast<double>(rest) / static_cast<double>(totals.units));
  }
  return out;
}

std::vector<double> PerUnitNs(const std::vector<Span>& spans, std::string_view name) {
  std::vector<double> out;
  for (const auto& span : spans) {
    if (span.name != name || span.units <= 0) continue;
    out.push_back(static_cast<double>(span.Duration()) / static_cast<double>(span.units));
  }
  return out;
}

double FailureSharePct(std::int64_t attempted, std::int64_t failed) {
  if (attempted <= 0) return 0.0;
  return 100.0 * static_cast<double>(failed) / static_cast<double>(attempted);
}

}  // namespace perfbench
