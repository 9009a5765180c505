// The benchmark's own arithmetic: percentiles, span self times, the
// subtraction splits that attribute an end-to-end span to layers, and
// failure shares. Kept free of any SFP type so it can be tested alone.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

namespace perfbench {

/// Percentile `q` in [0, 1] with linear interpolation between the two
/// closest ranks (q = 0.5 is the usual median). NaN when empty.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// Splits `values`, in the order they were recorded, into `chunks`
/// contiguous chunks of near-equal size (fewer when there are fewer
/// values), takes each chunk's minimum and returns the median of those
/// minima. With samples recorded evenly over a run, a chunk is a stretch
/// of time and its minimum the fastest sample in it. NaN when empty.
double MedianOfChunkMinima(const std::vector<double>& values, int chunks);

/// One timed call into a layer. `parent` is the index of the enclosing
/// span in the same trace (-1 for a root); `op` is shared by every span
/// of one benchmark operation; `units` is the work the call did
/// (packets, pivots, nodes, ...), used to normalise its duration.
struct Span {
  std::string_view name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::int64_t op = 0;
  std::int64_t units = 1;

  std::int64_t Duration() const { return end_ns - start_ns; }
};

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children's intervals covers. Children may nest
/// or overlap each other; parts of a child outside its parent's interval
/// are not subtracted, so a self time is never negative.
std::vector<std::int64_t> SelfTimes(const std::vector<Span>& spans);

/// Subtraction split: for every op holding exactly one span named
/// `whole` and at least one span of each name in `parts`, the whole
/// span's duration minus the summed durations of the parts, divided by
/// the whole span's units. This attributes a public call's time to
/// layers measured on a twin, so a value may be negative when the twin
/// happened to run slower than the measured call.
std::vector<double> SubtractionSplit(const std::vector<Span>& spans, std::string_view whole,
                                     const std::vector<std::string_view>& parts);

/// Per-unit durations (ns per unit) of every span named `name`.
std::vector<double> PerUnitNs(const std::vector<Span>& spans, std::string_view name);

/// Share of failed operations, in percent. 0 when nothing was attempted.
double FailureSharePct(std::int64_t attempted, std::int64_t failed);

}  // namespace perfbench
