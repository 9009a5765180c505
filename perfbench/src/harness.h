// Shared pieces of the benchmark: options, the report, the in-memory
// span tracer, and the Driver that runs public SFP calls on a measured
// system while replaying them on a twin for the per-layer split.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "controlplane/approx_solver.h"
#include "controlplane/ilp_solver.h"
#include "core/sfp_system.h"
#include "stats.h"

namespace perfbench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Metrics, operation counts and check results of one run.
class Report {
 public:
  struct Metric {
    double value = 0.0;
    std::string unit;
    std::int64_t samples = 0;
  };

  void Set(const std::string& name, double value, std::string unit, std::int64_t samples);
  /// Median of `values` (nothing is set when empty).
  void SetMedian(const std::string& name, const std::vector<double>& values, std::string unit);
  void SetPercentile(const std::string& name, const std::vector<double>& values, double q,
                     std::string unit);
  /// Records a failed check; any failed check makes the run exit nonzero.
  void Check(bool ok, const std::string& what);
  void CountOps(std::int64_t attempted, std::int64_t failed = 0) {
    attempted_ += attempted;
    failed_ += failed;
  }

  const std::map<std::string, Metric>& metrics() const { return metrics_; }
  const std::vector<std::string>& errors() const { return errors_; }
  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }

 private:
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> errors_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

/// Spans of the traced run, kept in memory and written out at the end.
/// Each traced operation is one root span named "op" covering all the
/// benchmark did for it; the calls timed inside are its children and
/// share its op id. A disabled tracer records nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  void OpenOp();
  void CloseOp();
  /// Opens a child span of the open op; returns its index (-1 when
  /// disabled).
  int Begin(std::string_view name, std::int64_t units = 1);
  void End(int index);
  void SetUnits(int index, std::int64_t units);
  /// Records an already-timed call as a child span of the open op.
  void Add(std::string_view name, std::int64_t start_ns, std::int64_t end_ns,
           std::int64_t units = 1);
  const std::vector<Span>& spans() const { return spans_; }
  /// Writes one tab-separated line per span.
  bool Write(const std::string& path) const;

 private:
  bool enabled_;
  std::int64_t last_op_ = 0;
  int open_ = -1;
  std::vector<Span> spans_;
};

/// Wall-clock samples the workloads collect; metric names follow the
/// end-to-end table (`pkt_ns` is per packet, the rest per call).
struct Samples {
  std::vector<double> pkt_ns;
  std::vector<double> admit_us;
  std::vector<double> remove_us;
  std::vector<double> setup_s;
};

/// A switch configuration plus an explicit physical layout (one list of
/// NF types per stage).
struct Shape {
  sfp::switchsim::SwitchConfig config;
  std::vector<std::vector<sfp::nf::NfType>> layout;
};

/// §VI-B testbed switch: 12 stages, 3.2 Tbps backplane.
sfp::switchsim::SwitchConfig TestbedSwitch();

/// n values lo + (hi - lo) * (k + 0.5) / n for k < n, shuffled by `rng`:
/// the marginal of a uniform draw on [lo, hi), but with the same spread
/// for every seed, so runs with different seeds carry the same total
/// work and differ only in which chain gets which size.
std::vector<double> Stratified(int n, double lo, double hi, sfp::Rng& rng);

/// `n` concrete SFCs for tenants first_id, first_id + 1, ...: chain
/// lengths 3-6, rules per NF in [rules_lo, rules_hi] and bandwidths in
/// [bw_lo, bw_hi) Gbps, each stratified over the n chains.
std::vector<sfp::dataplane::Sfc> StratifiedChains(int n, sfp::dataplane::TenantId first_id,
                                                  int rules_lo, int rules_hi, double bw_lo,
                                                  double bw_hi, sfp::Rng& rng);

/// Stage s hosts NF type s mod kNumNfTypes, so the library's types
/// repeat every six stages and chains whose order disagrees with the
/// stage order fold into extra passes.
std::vector<std::vector<sfp::nf::NfType>> RepeatingLayout(int stages);

/// Generated police rules reference bucket 0, so every physical rate
/// limiter gets one bucket before any packet is served.
void AddRateLimiterBuckets(sfp::dataplane::DataPlane& plane);

/// The placement instance SfpSystem derives from `expected` on `config`.
sfp::controlplane::PlacementInstance BootInstance(
    const sfp::switchsim::SwitchConfig& config, const std::vector<sfp::dataplane::Sfc>& expected);

/// Runs public calls on the measured system, timing each into Samples.
/// With a twin, every call is also replayed on a second data plane built
/// the same way, through the layer calls the public call makes, and each
/// traced call becomes one op of spans: the public call plus the twin's
/// layer calls.
class Driver {
 public:
  /// Boots the measured system from the explicit layout and, when
  /// `twin` is set, its twin data plane.
  Driver(const Shape& shape, Tracer& tracer, Samples& samples, bool twin);

  sfp::core::SfpSystem& system() { return *system_; }
  /// Installed entries right after boot (the drained state).
  std::int64_t boot_entries() const { return boot_entries_; }

  bool Admit(const sfp::dataplane::Sfc& sfc, bool traced, int* passes = nullptr);
  bool Remove(sfp::dataplane::TenantId tenant, bool traced);
  /// Serves one batch into `results` (resized as needed).
  void Serve(std::span<const sfp::net::Packet> batch,
             std::vector<sfp::switchsim::ProcessResult>& results, bool traced);

 private:
  Tracer& tracer_;
  Samples& samples_;
  std::unique_ptr<sfp::core::SfpSystem> system_;
  std::unique_ptr<sfp::dataplane::DataPlane> twin_;
  sfp::dataplane::TelemetryCollector scratch_telemetry_;
  std::vector<sfp::switchsim::ProcessResult> twin_results_;
  std::vector<std::uint32_t> indices_;
  std::int64_t boot_entries_ = 0;
};

/// One tick of traffic: a `burst`-packet microburst per tenant, tenant
/// bursts spread evenly over the tick, frame sizes from the IMC mix.
std::vector<sfp::net::Packet> MicroburstTick(const std::vector<sfp::dataplane::TenantId>& tenants,
                                             int burst, double tick_start_ns, double tick_ns,
                                             sfp::Rng& rng);

struct OpCounts {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
};

/// Set-up rounds per second of a loop, and set-ups per round: enough
/// set-ups that most ten-second stretches of a run hold one the host
/// left alone, at about a tenth of the run's time.
inline constexpr double kSetupRoundsPerSecond = 3.0;
inline constexpr int kSetupsPerRound = 3;

/// Rounds of set-ups beside the measured system, kSetupRoundsPerSecond
/// of them spread evenly over a loop of `seconds`. A set-up boots a fresh
/// system and admits `population`; the time those calls take is one
/// setup_s sample (to `samples`). The system is then drained, untimed,
/// and must hold no tenant entries. A round runs kSetupsPerRound set-ups
/// back to back, so all but the first find the set-up's code and
/// allocations warm. Admission and removal samples go to `control`.
class SetupRounds {
 public:
  SetupRounds(const Shape& shape, const std::vector<sfp::dataplane::Sfc>& population,
              double seconds, Tracer& tracer, Samples& samples, Samples& control,
              Report& report, OpCounts& ops);
  /// Runs the next round when its time in the run has come.
  void Poll();
  /// Runs every round not yet run.
  void Finish();

 private:
  void RunRound();

  const Shape& shape_;
  const std::vector<sfp::dataplane::Sfc>& population_;
  int rounds_;
  Tracer& tracer_;
  Samples& samples_;
  Samples& control_;
  Report& report_;
  OpCounts& ops_;
  std::int64_t start_ns_;
  double interval_ns_;
  int done_ = 0;
};

/// Serve options every workload uses: one thread, no worker pool.
sfp::switchsim::BatchOptions SingleThread();

/// Resident set size of this process in MiB.
double RssMiB();

/// Times a fixed spin loop (ms per sample) so a slow host shows apart
/// from a slow change. Reported only, never used to rescale a metric.
struct HostSpeed {
  double p10_ms = 0.0;
  double p50_ms = 0.0;
};
HostSpeed MeasureHostSpeed();

/// Bitwise equality of two telemetry series.
bool SameCounters(const sfp::dataplane::TenantCounters& a,
                  const sfp::dataplane::TenantCounters& b);

/// Solver-layer totals of one run (controlplane and lp per-layer rows).
struct SolverTotals {
  std::vector<double> objective;  // eq. 1 objective per probed instance
  std::int64_t lp_solves = 0;
  std::int64_t roundings = 0;
  std::int64_t stripped = 0;
  std::int64_t approx_runs = 0;
  std::int64_t round_ok = 0;
  std::int64_t round_attempts = 0;
  double bb_seconds = 0.0;
  std::int64_t bb_nodes = 0;
  std::int64_t bb_pivots = 0;
  std::int64_t bb_refactors = 0;
  std::int64_t bb_solves = 0;
};

/// Probes the solver layers on `instance`, which no serve or churn op
/// calls: Algorithm 1 outside any timed call for its objective and
/// counts (its placement must pass controlplane::Verify), one traced op
/// replaying its layer calls (model build, root LP, a few rounding +
/// verify draws per pass budget), and one 0.5-s deadline-capped
/// deterministic SFP-IP solve whose incumbent must verify.
void ProbeSolver(const sfp::controlplane::PlacementInstance& instance, Tracer& tracer,
                 SolverTotals& totals, Report& report);

/// Counters a workload gathers beside its samples.
struct LayerCounters {
  std::int64_t cycles = 0;  // workload ops between which recompiles are counted
  std::uint64_t recompiles = 0;
  std::uint64_t fallback_tenants = 0;
  std::int64_t entries = 0;
  std::vector<double> passes_per_tenant;
  std::uint64_t packets = 0;
  std::uint64_t drops = 0;
  std::uint64_t recirculations = 0;
  double sim_latency_ns = 0.0;
  double rss_mib = 0.0;  // after the measured system's set-up
};

/// Share of a traced run's seconds spent on the untraced loop, half
/// before and half after the traced one: the baseline of
/// trace.overhead_pct.
inline constexpr double kBaselineShare = 0.25;

/// Fills every per-layer metric from the trace and the counters the
/// workload gathered; `baseline` holds the untraced loop's samples.
void ReportLayers(const Tracer& tracer, const Samples& samples, const Samples& baseline,
                  const LayerCounters& counters, const SolverTotals& solver, Report& report);

/// The gated timings are the median over kChunks equal stretches of a
/// run of the fastest sample in each: other programs on the host slow
/// whole stretches of seconds by up to a half, and a stretch's fastest
/// sample is the one they left alone.
inline constexpr int kChunks = 10;

/// Fills the end-to-end metrics from the samples.
void ReportEndToEnd(const Samples& samples, double rss_mib, Report& report);

/// Workload entry points (serve.cc, churn.cc).
void RunServeRules(const RunOptions& options, Report& report, Tracer& tracer);
void RunChurn(const RunOptions& options, Report& report, Tracer& tracer);

}  // namespace perfbench
