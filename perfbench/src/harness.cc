#include "harness.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>
#include <utility>

#include "controlplane/verifier.h"
#include "nf/rate_limiter.h"
#include "switchsim/compiler/plan_cache.h"
#include "workload/sfc_gen.h"
#include "workload/traffic.h"

namespace perfbench {

using namespace sfp;

void Report::Set(const std::string& name, double value, std::string unit, std::int64_t samples) {
  metrics_[name] = Metric{value, std::move(unit), samples};
}

void Report::SetMedian(const std::string& name, const std::vector<double>& values,
                       std::string unit) {
  SetPercentile(name, values, 0.5, std::move(unit));
}

void Report::SetPercentile(const std::string& name, const std::vector<double>& values, double q,
                           std::string unit) {
  if (values.empty()) return;
  Set(name, Percentile(values, q), std::move(unit), static_cast<std::int64_t>(values.size()));
}

void Report::Check(bool ok, const std::string& what) {
  if (!ok) errors_.push_back(what);
}

void Tracer::OpenOp() {
  if (!enabled_) return;
  const std::int64_t now = NowNs();
  spans_.push_back(Span{"op", now, now, -1, ++last_op_, 1});
  open_ = static_cast<int>(spans_.size() - 1);
}

void Tracer::CloseOp() {
  End(open_);
  open_ = -1;
}

int Tracer::Begin(std::string_view name, std::int64_t units) {
  if (!enabled_) return -1;
  const std::int64_t now = NowNs();
  Add(name, now, now, units);
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::End(int index) {
  if (index >= 0) spans_[static_cast<std::size_t>(index)].end_ns = NowNs();
}

void Tracer::Add(std::string_view name, std::int64_t start_ns, std::int64_t end_ns,
                 std::int64_t units) {
  if (!enabled_) return;
  const std::int64_t op = open_ >= 0 ? spans_[static_cast<std::size_t>(open_)].op : 0;
  spans_.push_back(Span{name, start_ns, end_ns, open_, op, units});
}

void Tracer::SetUnits(int index, std::int64_t units) {
  if (index >= 0) spans_[static_cast<std::size_t>(index)].units = units;
}

bool Tracer::Write(const std::string& path) const {
  std::ofstream out(path);
  out << "op\tspan\tparent\tname\tstart_ns\tend_ns\tunits\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& span = spans_[i];
    out << span.op << '\t' << i << '\t' << span.parent << '\t' << span.name << '\t'
        << span.start_ns << '\t' << span.end_ns << '\t' << span.units << '\n';
  }
  return static_cast<bool>(out);
}

switchsim::SwitchConfig TestbedSwitch() {
  switchsim::SwitchConfig config;
  config.num_stages = 12;
  config.blocks_per_stage = 20;
  config.entries_per_block = 1000;
  config.backplane_gbps = 3200.0;
  return config;
}

std::vector<double> Stratified(int n, double lo, double hi, Rng& rng) {
  std::vector<double> values;
  for (int k = 0; k < n; ++k) values.push_back(lo + (hi - lo) * (k + 0.5) / n);
  rng.Shuffle(values);
  return values;
}

std::vector<dataplane::Sfc> StratifiedChains(int n, dataplane::TenantId first_id, int rules_lo,
                                             int rules_hi, double bw_lo, double bw_hi,
                                             Rng& rng) {
  const auto lengths = Stratified(n, 3.0, 7.0, rng);
  const auto rules = Stratified(n, rules_lo, rules_hi + 1.0, rng);
  const auto bandwidths = Stratified(n, bw_lo, bw_hi, rng);
  std::vector<dataplane::Sfc> chains;
  for (int i = 0; i < n; ++i) {
    const auto k = static_cast<std::size_t>(i);
    chains.push_back(workload::GenerateConcreteSfc(
        static_cast<dataplane::TenantId>(first_id + i), static_cast<int>(lengths[k]),
        bandwidths[k], rng, static_cast<int>(rules[k])));
  }
  return chains;
}

std::vector<std::vector<nf::NfType>> RepeatingLayout(int stages) {
  std::vector<std::vector<nf::NfType>> layout;
  for (int s = 0; s < stages; ++s) {
    layout.push_back({static_cast<nf::NfType>(s % nf::kNumNfTypes)});
  }
  return layout;
}

void AddRateLimiterBuckets(dataplane::DataPlane& plane) {
  const auto layout = plane.PhysicalLayout();
  for (std::size_t stage = 0; stage < layout.size(); ++stage) {
    for (const nf::NfType type : layout[stage]) {
      if (type != nf::NfType::kRateLimiter) continue;
      static_cast<nf::RateLimiter*>(plane.PhysicalNf(static_cast<int>(stage), type))
          ->AddBucket(100.0, 10.0);
    }
  }
}

controlplane::PlacementInstance BootInstance(const switchsim::SwitchConfig& config,
                                             const std::vector<dataplane::Sfc>& expected) {
  controlplane::PlacementInstance instance;
  instance.sw.stages = config.num_stages;
  instance.sw.blocks_per_stage = config.blocks_per_stage;
  instance.sw.entries_per_block = config.entries_per_block;
  instance.sw.capacity_gbps = config.backplane_gbps;
  instance.num_types = nf::kNumNfTypes;
  for (const auto& sfc : expected) instance.sfcs.push_back(core::SfpSystem::ToSpec(sfc));
  return instance;
}

std::vector<net::Packet> MicroburstTick(const std::vector<dataplane::TenantId>& tenants,
                                        int burst, double tick_start_ns, double tick_ns,
                                        Rng& rng) {
  const workload::PacketSizeProfile sizes;
  std::vector<net::Packet> batch;
  batch.reserve(tenants.size() * static_cast<std::size_t>(burst));
  const double spacing = tick_ns / static_cast<double>(std::max<std::size_t>(1, tenants.size()));
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    for (int p = 0; p < burst; ++p) {
      auto packet = net::MakeTcpPacket(
          tenants[i], net::Ipv4Address{static_cast<std::uint32_t>(rng.Next())},
          net::Ipv4Address{static_cast<std::uint32_t>(rng.Next())},
          static_cast<std::uint16_t>(rng.UniformInt(1024, 65535)),
          static_cast<std::uint16_t>(rng.UniformInt(1, 65535)),
          static_cast<std::uint32_t>(sizes.Sample(rng)));
      packet.ingress_time_ns =
          tick_start_ns + static_cast<double>(i) * spacing + static_cast<double>(p) * 10.0;
      batch.push_back(packet);
    }
  }
  return batch;
}

switchsim::BatchOptions SingleThread() {
  switchsim::BatchOptions options;
  options.num_threads = 1;
  return options;
}

Driver::Driver(const Shape& shape, Tracer& tracer, Samples& samples, bool twin)
    : tracer_(tracer), samples_(samples) {
  system_ = std::make_unique<core::SfpSystem>(shape.config);
  system_->ProvisionPhysical(shape.layout);
  auto& plane = system_->data_plane();
  AddRateLimiterBuckets(plane);
  system_->EnableCompiledPlans();
  boot_entries_ = system_->Stats().entries_used;
  if (!twin) return;
  twin_ = std::make_unique<dataplane::DataPlane>(plane.pipeline().config());
  const auto layout = plane.PhysicalLayout();
  for (std::size_t stage = 0; stage < layout.size(); ++stage) {
    for (const nf::NfType type : layout[stage]) {
      twin_->InstallPhysicalNf(static_cast<int>(stage), type);
    }
  }
  AddRateLimiterBuckets(*twin_);
  twin_->EnableCompiledPlans();
}

bool Driver::Admit(const dataplane::Sfc& sfc, bool traced, int* passes) {
  traced = traced && twin_;
  if (traced) tracer_.OpenOp();
  const std::int64_t start = NowNs();
  const auto result = system_->AdmitTenant(sfc);
  const std::int64_t end = NowNs();
  samples_.admit_us.push_back(static_cast<double>(end - start) / 1e3);
  if (passes != nullptr) *passes = result.passes;
  if (twin_ && result.admitted) {
    // The twin mirrors every admission so it serves the same tenants;
    // only traced calls record spans.
    if (traced) tracer_.Add("core.admit", start, end);
    int span = traced ? tracer_.Begin("dataplane.alloc") : -1;
    twin_->AllocateSfc(sfc);
    tracer_.End(span);
    span = traced ? tracer_.Begin("compiler.warm") : -1;
    twin_->pipeline().plan_cache()->Warm(sfc.tenant);
    tracer_.End(span);
  }
  if (traced) tracer_.CloseOp();
  return result.admitted;
}

bool Driver::Remove(dataplane::TenantId tenant, bool traced) {
  traced = traced && twin_;
  if (traced) tracer_.OpenOp();
  const std::int64_t start = NowNs();
  const bool removed = system_->RemoveTenant(tenant);
  const std::int64_t end = NowNs();
  samples_.remove_us.push_back(static_cast<double>(end - start) / 1e3);
  if (twin_) {
    if (traced) tracer_.Add("core.remove", start, end);
    const int span = traced ? tracer_.Begin("dataplane.dealloc") : -1;
    twin_->DeallocateSfc(tenant);
    tracer_.End(span);
  }
  if (traced) tracer_.CloseOp();
  return removed;
}

void Driver::Serve(std::span<const net::Packet> batch,
                   std::vector<switchsim::ProcessResult>& results, bool traced) {
  if (results.size() < batch.size()) results.resize(batch.size());
  traced = traced && twin_;
  const auto options = SingleThread();
  if (traced) tracer_.OpenOp();
  const std::int64_t start = NowNs();
  system_->ProcessBatchInto(batch, results, options);
  const std::int64_t end = NowNs();
  const auto packets = static_cast<std::int64_t>(batch.size());
  samples_.pkt_ns.push_back(static_cast<double>(end - start) / static_cast<double>(packets));
  if (!twin_) return;
  if (twin_results_.size() < batch.size()) twin_results_.resize(batch.size());
  if (!traced) {
    // Untraced calls still reach the twin, so its plans go stale and
    // recompile exactly as the measured system's do.
    twin_->ProcessBatchInto(batch, twin_results_, options);
    return;
  }
  tracer_.Add("core.serve", start, end, packets);
  if (indices_.size() < batch.size()) {
    const std::size_t old = indices_.size();
    indices_.resize(batch.size());
    std::iota(indices_.begin() + static_cast<std::ptrdiff_t>(old), indices_.end(),
              static_cast<std::uint32_t>(old));
  }
  int span = tracer_.Begin("switchsim.serve", packets);
  twin_->ProcessBatchInto(batch, twin_results_, options);
  tracer_.End(span);
  // The same 512-packet chunks the fused sink records on the
  // single-thread path.
  constexpr std::size_t kSinkChunk = 512;
  span = tracer_.Begin("dataplane.telemetry", packets);
  for (std::size_t begin = 0; begin < batch.size(); begin += kSinkChunk) {
    const std::size_t count = std::min(kSinkChunk, batch.size() - begin);
    scratch_telemetry_.RecordBatch(
        std::span<const std::uint32_t>(indices_.data() + begin, count), batch,
        std::span<const switchsim::ProcessResult>(twin_results_.data(), batch.size()));
  }
  tracer_.End(span);
  span = tracer_.Begin("switchsim.serve_again", packets);
  twin_->ProcessBatchInto(batch, twin_results_, options);
  tracer_.End(span);
  span = tracer_.Begin("switchsim.call");
  twin_->ProcessBatchInto(batch.first(1), twin_results_, options);
  tracer_.End(span);
  tracer_.CloseOp();
}

SetupRounds::SetupRounds(const Shape& shape, const std::vector<dataplane::Sfc>& population,
                         double seconds, Tracer& tracer, Samples& samples, Samples& control,
                         Report& report, OpCounts& ops)
    : shape_(shape),
      population_(population),
      rounds_(std::max(1, static_cast<int>(std::lround(seconds * kSetupRoundsPerSecond)))),
      tracer_(tracer),
      samples_(samples),
      control_(control),
      report_(report),
      ops_(ops),
      start_ns_(NowNs()),
      interval_ns_(seconds * 1e9 / rounds_) {}

void SetupRounds::Poll() {
  // Round r runs in the middle of the r-th of `rounds_` equal slices.
  if (done_ < rounds_ &&
      static_cast<double>(NowNs() - start_ns_) >= (done_ + 0.5) * interval_ns_) {
    RunRound();
  }
}

void SetupRounds::Finish() {
  while (done_ < rounds_) RunRound();
}

void SetupRounds::RunRound() {
  for (int k = 0; k < kSetupsPerRound; ++k) {
    const std::int64_t start = NowNs();
    Driver driver(shape_, tracer_, control_, false);
    for (const auto& sfc : population_) ops_.failed += driver.Admit(sfc, false) ? 0 : 1;
    samples_.setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    for (const auto& sfc : population_) {
      report_.Check(driver.Remove(sfc.tenant, false), "set-up drain removes every tenant");
    }
    report_.Check(driver.system().Stats().entries_used == driver.boot_entries(),
                  "a drained set-up holds no tenant entries");
    ops_.attempted += 1 + 2 * static_cast<std::int64_t>(population_.size());
  }
  ++done_;
}

double RssMiB() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmRSS:") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(1 << 16, '\n');
  }
  return 0.0;
}

HostSpeed MeasureHostSpeed() {
  constexpr int kSamples = 41;
  constexpr std::uint64_t kIterations = 1'000'000;
  std::vector<double> ms;
  std::uint64_t x = 88172645463325252ULL;
  for (int s = 0; s < kSamples; ++s) {
    const std::int64_t start = NowNs();
    for (std::uint64_t i = 0; i < kIterations; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    }
    ms.push_back(static_cast<double>(NowNs() - start) / 1e6);
  }
  volatile std::uint64_t sink = x;
  (void)sink;
  return HostSpeed{Percentile(ms, 0.1), Median(ms)};
}

bool SameCounters(const dataplane::TenantCounters& a, const dataplane::TenantCounters& b) {
  return a.packets == b.packets && a.bytes == b.bytes && a.drops == b.drops &&
         a.recirculated_packets == b.recirculated_packets && a.total_passes == b.total_passes &&
         a.total_latency_ns == b.total_latency_ns && a.max_latency_ns == b.max_latency_ns;
}

namespace {

/// The ApproxOptions SfpSystem::ProvisionPhysicalWithReport uses.
controlplane::ApproxOptions BootApproxOptions() { return controlplane::ApproxOptions{}; }

controlplane::VerifyOptions VerifyFor(const controlplane::ModelOptions& model, int max_passes) {
  controlplane::VerifyOptions options;
  options.memory_model = model.memory_model;
  options.max_passes = max_passes;
  return options;
}

void AccountApprox(const controlplane::PlacementInstance& instance, SolverTotals& totals,
                   Report& report) {
  const auto options = BootApproxOptions();
  const auto approx = controlplane::SolveApprox(instance, options);
  ++totals.approx_runs;
  totals.objective.push_back(approx.objective);
  totals.lp_solves += approx.lp_solves;
  totals.roundings += approx.roundings;
  totals.stripped += approx.stripped_sfcs;
  const bool verified =
      approx.ok &&
      controlplane::Verify(instance, approx.solution,
                           VerifyFor(options.model, options.model.max_passes))
          .ok;
  report.Check(verified, "Algorithm 1 produced a placement that controlplane::Verify accepts");
}

void TraceApprox(const controlplane::PlacementInstance& instance, Tracer& tracer,
                 SolverTotals& totals) {
  constexpr int kDrawsPerBudget = 8;
  const auto options = BootApproxOptions();
  Rng rng(options.seed);
  tracer.OpenOp();
  for (int passes = 1; passes <= options.model.max_passes; ++passes) {
    auto model_options = options.model;
    model_options.max_passes = passes;
    int span = tracer.Begin("controlplane.model");
    const auto pm = controlplane::BuildPlacementModel(instance, model_options);
    tracer.End(span);
    lp::Simplex simplex(pm.model, options.simplex);
    span = tracer.Begin("lp.root");
    const auto lp = simplex.Solve();
    tracer.End(span);
    tracer.SetUnits(span, std::max<std::int64_t>(1, simplex.stats().iterations));
    if (lp.status != lp::SolveStatus::kOptimal) continue;
    const auto verify = VerifyFor(model_options, passes);
    for (int draw = 0; draw < kDrawsPerBudget; ++draw) {
      span = tracer.Begin("controlplane.round");
      const auto candidate = controlplane::StructuredRound(instance, pm, lp.values, rng);
      const bool ok = candidate && controlplane::Verify(instance, *candidate, verify).ok;
      tracer.End(span);
      ++totals.round_attempts;
      if (ok) ++totals.round_ok;
    }
  }
  tracer.CloseOp();
}

void RunDeadlineIlp(const controlplane::PlacementInstance& instance, double deadline_s,
                    SolverTotals& totals, Report& report) {
  controlplane::IlpOptions options;
  options.model.max_passes = 3;
  options.time_limit_seconds = deadline_s;
  options.relative_gap = 1e-4;
  options.deterministic = true;
  const auto result = controlplane::SolveIlp(instance, options);
  ++totals.bb_solves;
  totals.bb_seconds += result.seconds;
  totals.bb_nodes += result.nodes;
  totals.bb_pivots += result.pivots;
  totals.bb_refactors += result.refactorizations;
  if (result.status == lp::SolveStatus::kOptimal || result.status == lp::SolveStatus::kFeasible) {
    report.Check(controlplane::Verify(instance, result.solution,
                                      VerifyFor(options.model, options.model.max_passes))
                     .ok,
                 "SFP-IP incumbent passes controlplane::Verify");
  }
}

}  // namespace

void ProbeSolver(const controlplane::PlacementInstance& instance, Tracer& tracer,
                 SolverTotals& totals, Report& report) {
  AccountApprox(instance, totals, report);
  TraceApprox(instance, tracer, totals);
  RunDeadlineIlp(instance, 0.5, totals, report);
}

void ReportEndToEnd(const Samples& samples, double rss_mib, Report& report) {
  report.Set("pkt_ns_floor", MedianOfChunkMinima(samples.pkt_ns, kChunks), "ns",
             static_cast<std::int64_t>(samples.pkt_ns.size()));
  report.SetMedian("pkt_ns", samples.pkt_ns, "ns");
  report.SetPercentile("pkt_ns_p90", samples.pkt_ns, 0.9, "ns");
  report.SetMedian("admit_us", samples.admit_us, "us");
  report.SetPercentile("admit_us_p90", samples.admit_us, 0.9, "us");
  report.SetMedian("remove_us", samples.remove_us, "us");
  report.SetPercentile("remove_us_p90", samples.remove_us, 0.9, "us");
  report.Set("setup_s", MedianOfChunkMinima(samples.setup_s, kChunks), "s",
             static_cast<std::int64_t>(samples.setup_s.size()));
  report.SetMedian("setup_s_median", samples.setup_s, "s");
  report.Set("rss_mb", rss_mib, "MiB", 1);
}

namespace {

std::vector<double> Scaled(std::vector<double> values, double factor) {
  for (double& v : values) v *= factor;
  return values;
}

std::vector<double> Durations(const std::vector<Span>& spans, std::string_view name,
                              double factor) {
  std::vector<double> out;
  for (const auto& span : spans) {
    if (span.name == name) out.push_back(static_cast<double>(span.Duration()) * factor);
  }
  return out;
}

std::vector<double> Units(const std::vector<Span>& spans, std::string_view name) {
  std::vector<double> out;
  for (const auto& span : spans) {
    if (span.name == name) out.push_back(static_cast<double>(span.units));
  }
  return out;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void ReportLayers(const Tracer& tracer, const Samples& samples, const Samples& baseline,
                  const LayerCounters& counters, const SolverTotals& solver, Report& report) {
  const auto& spans = tracer.spans();
  const auto serve_self = SubtractionSplit(spans, "core.serve",
                                           {"switchsim.serve", "dataplane.telemetry"});
  const auto admit_self = SubtractionSplit(spans, "core.admit", {"dataplane.alloc",
                                                                 "compiler.warm"});
  const auto remove_self = SubtractionSplit(spans, "core.remove", {"dataplane.dealloc"});
  report.SetMedian("core.serve_self_ns", serve_self, "ns");
  report.SetMedian("core.admit_self_us", Scaled(admit_self, 1e-3), "us");
  report.SetMedian("core.remove_self_us", Scaled(remove_self, 1e-3), "us");

  report.SetMedian("switchsim.serve_ns", PerUnitNs(spans, "switchsim.serve"), "ns");
  report.SetMedian("switchsim.call_us", Scaled(PerUnitNs(spans, "switchsim.call"), 1e-3), "us");
  const double packets = static_cast<double>(counters.packets);
  report.Set("switchsim.passes_per_pkt",
             Ratio(packets + static_cast<double>(counters.recirculations), packets), "count",
             static_cast<std::int64_t>(counters.packets));
  report.Set("switchsim.drop_pct", 100.0 * Ratio(static_cast<double>(counters.drops), packets),
             "%", static_cast<std::int64_t>(counters.packets));
  report.Set("switchsim.sim_latency", counters.sim_latency_ns, "sim_ns",
             static_cast<std::int64_t>(counters.packets));

  report.SetMedian("compiler.warm_us", Scaled(Durations(spans, "compiler.warm", 1.0), 1e-3),
                   "us");
  report.Set("compiler.recompiles_per_cycle",
             Ratio(static_cast<double>(counters.recompiles), static_cast<double>(counters.cycles)),
             "count", counters.cycles);
  // Restale: the twin's first serve of a batch minus the same batch
  // served again, per batch.
  std::vector<double> restale_us;
  {
    const auto first = Durations(spans, "switchsim.serve", 1e-3);
    const auto again = Durations(spans, "switchsim.serve_again", 1e-3);
    for (std::size_t i = 0; i < std::min(first.size(), again.size()); ++i) {
      restale_us.push_back(first[i] - again[i]);
    }
  }
  report.SetMedian("compiler.restale_us", restale_us, "us");
  report.Set("compiler.fallback_tenants", static_cast<double>(counters.fallback_tenants), "count",
             1);

  report.SetMedian("dataplane.alloc_us", Durations(spans, "dataplane.alloc", 1e-3), "us");
  report.SetMedian("dataplane.dealloc_us", Durations(spans, "dataplane.dealloc", 1e-3), "us");
  report.SetMedian("dataplane.telemetry_ns", PerUnitNs(spans, "dataplane.telemetry"), "ns");
  report.Set("dataplane.entries", static_cast<double>(counters.entries), "count", 1);
  const auto& passes = counters.passes_per_tenant;
  report.Set("dataplane.passes_per_tenant",
             Ratio(std::accumulate(passes.begin(), passes.end(), 0.0),
                   static_cast<double>(passes.size())),
             "count", static_cast<std::int64_t>(passes.size()));

  report.SetMedian("controlplane.model_ms", Durations(spans, "controlplane.model", 1e-6), "ms");
  report.SetMedian("controlplane.round_us", Durations(spans, "controlplane.round", 1e-3), "us");
  report.Set("controlplane.round_ok_pct",
             100.0 * Ratio(static_cast<double>(solver.round_ok),
                           static_cast<double>(solver.round_attempts)),
             "%", solver.round_attempts);
  const double runs = static_cast<double>(solver.approx_runs);
  report.Set("controlplane.lp_solves", Ratio(static_cast<double>(solver.lp_solves), runs),
             "count", solver.approx_runs);
  report.Set("controlplane.roundings", Ratio(static_cast<double>(solver.roundings), runs),
             "count", solver.approx_runs);
  report.Set("controlplane.stripped", Ratio(static_cast<double>(solver.stripped), runs), "count",
             solver.approx_runs);
  report.Set("controlplane.boot_objective",
             Ratio(std::accumulate(solver.objective.begin(), solver.objective.end(), 0.0),
                   static_cast<double>(solver.objective.size())),
             "eq1", static_cast<std::int64_t>(solver.objective.size()));

  report.SetMedian("lp.root_ms", Durations(spans, "lp.root", 1e-6), "ms");
  report.SetMedian("lp.root_pivots", Units(spans, "lp.root"), "count");
  report.SetMedian("lp.pivot_us", Scaled(PerUnitNs(spans, "lp.root"), 1e-3), "us");
  const double nodes = static_cast<double>(solver.bb_nodes);
  report.Set("lp.bb_node_ms", 1e3 * Ratio(solver.bb_seconds, nodes), "ms", solver.bb_nodes);
  report.Set("lp.bb_pivots_per_node", Ratio(static_cast<double>(solver.bb_pivots), nodes),
             "count", solver.bb_nodes);
  report.Set("lp.bb_refactor_per_node", Ratio(static_cast<double>(solver.bb_refactors), nodes),
             "count", solver.bb_nodes);
  report.Set("lp.bb_nodes_per_s", Ratio(nodes, solver.bb_seconds), "1/s", solver.bb_solves);

  // Tracing overhead: the traced loop's pkt_ns, every call of which
  // shares the host with the twin replays and the spans, against the
  // untraced loop run before and after it in the same process.
  report.Set("trace.overhead_pct",
             100.0 * (Median(samples.pkt_ns) / Median(baseline.pkt_ns) - 1.0), "%",
             static_cast<std::int64_t>(std::min(samples.pkt_ns.size(), baseline.pkt_ns.size())));
  // Share of each traced op's time outside the calls timed inside it:
  // the benchmark's own glue between calls.
  std::vector<double> op_self_pct;
  const auto self = SelfTimes(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0 || spans[i].Duration() <= 0) continue;
    op_self_pct.push_back(100.0 * static_cast<double>(self[i]) /
                          static_cast<double>(spans[i].Duration()));
  }
  report.SetMedian("trace.op_self_pct", op_self_pct, "%");
  std::int64_t negative = 0;
  std::int64_t splits = 0;
  for (const auto* values : {&serve_self, &admit_self, &remove_self}) {
    splits += static_cast<std::int64_t>(values->size());
    negative += std::count_if(values->begin(), values->end(), [](double v) { return v < 0.0; });
  }
  report.Set("trace.neg_self_pct",
             100.0 * Ratio(static_cast<double>(negative), static_cast<double>(splits)), "%",
             splits);
}

}  // namespace perfbench
