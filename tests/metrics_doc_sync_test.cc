// docs/METRICS.md must document every counter and histogram
// SfpSystem::ExportMetrics emits, and every documented pipeline.* and
// compiler.* counter must be emitted. The "Exported counters" and
// "Exported histograms" tables name series in backticks, with two
// shorthands this test expands:
//   * `a.b.c` / `.d` — a name starting with '.' replaces the last
//     component of the previous full name (a.b.d);
//   * placeholders — <k> and <id> stand for a number, <table> (and any
//     other <...>) for a table-style identifier.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "core/sfp_system.h"
#include "nf/nf.h"
#include "workload/traffic.h"

namespace sfp {
namespace {

std::string ReadMetricsDoc() {
  std::ifstream in(std::string(SFP_SOURCE_DIR) + "/docs/METRICS.md");
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Turns one documented name into an anchored regex.
std::regex NamePattern(const std::string& name) {
  std::string pattern;
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    if (c == '<') {
      const std::size_t close = name.find('>', i);
      const std::string placeholder = name.substr(i + 1, close - i - 1);
      pattern += placeholder == "k" || placeholder == "id" ? "[0-9]+" : "[A-Za-z0-9_]+";
      i = close;
    } else if (c == '*') {
      pattern += "[A-Za-z0-9_.]+";
    } else if (c == '.') {
      pattern += "\\.";
    } else {
      pattern += c;
    }
  }
  return std::regex(pattern);
}

/// Every series name of the table under `heading`, shorthands expanded.
std::vector<std::string> DocumentedNames(const std::string& doc, const std::string& heading) {
  const std::size_t begin = doc.find(heading);
  const std::size_t end = doc.find("\n## ", begin + 1);
  std::vector<std::string> names;
  std::istringstream lines(doc.substr(begin, end - begin));
  for (std::string line; std::getline(lines, line);) {
    if (!line.starts_with("| `")) continue;
    const std::string cell = line.substr(1, line.find(" |", 1));
    std::string previous;
    for (std::size_t open = cell.find('`'); open != std::string::npos;
         open = cell.find('`', open)) {
      const std::size_t close = cell.find('`', open + 1);
      std::string name = cell.substr(open + 1, close - open - 1);
      if (name.starts_with(".") && !previous.empty()) {
        name = previous.substr(0, previous.rfind('.')) + name;
      } else {
        previous = name;
      }
      names.push_back(name);
      open = close + 1;
    }
  }
  return names;
}

bool Documented(const std::string& name, const std::vector<std::regex>& patterns) {
  for (const auto& pattern : patterns) {
    if (std::regex_match(name, pattern)) return true;
  }
  return false;
}

std::vector<std::regex> Patterns(const std::vector<std::string>& names) {
  std::vector<std::regex> patterns;
  for (const auto& name : names) patterns.push_back(NamePattern(name));
  return patterns;
}

dataplane::Sfc Chain(dataplane::TenantId tenant, double gbps, Rng& rng) {
  dataplane::Sfc sfc;
  sfc.tenant = tenant;
  sfc.bandwidth_gbps = gbps;
  for (const auto type : {nf::NfType::kFirewall, nf::NfType::kClassifier, nf::NfType::kRouter}) {
    nf::NfConfig config;
    config.type = type;
    config.rules = nf::MakeNf(type)->GenerateRules(rng, 3);
    sfc.chain.push_back(std::move(config));
  }
  return sfc;
}

TEST(MetricsDocSyncTest, ShorthandExpands) {
  const auto names = DocumentedNames(
      "## Exported counters\n"
      "| `a.tenant<id>.x` / `.y` | m |\n"
      "| `p.stage<k>.<table>.hits` | m |\n"
      "## Next\n| `not.this` | m |\n",
      "## Exported counters");
  ASSERT_EQ(names, (std::vector<std::string>{"a.tenant<id>.x", "a.tenant<id>.y",
                                             "p.stage<k>.<table>.hits"}));
  EXPECT_TRUE(std::regex_match("a.tenant17.y", NamePattern(names[1])));
  EXPECT_FALSE(std::regex_match("a.tenantX.y", NamePattern(names[1])));
  EXPECT_TRUE(std::regex_match("p.stage3.fw_s3.hits", NamePattern(names[2])));
  EXPECT_FALSE(std::regex_match("p.stage3.fw_s3.hitsx", NamePattern(names[2])));
}

/// Exports a system that admits, rejects, serves compiled,
/// re-provisions and departs, with every optional counter family
/// switched on.
void ExportAllFamilies(common::metrics::Registry& registry) {
  switchsim::SwitchConfig config;
  config.num_stages = 8;
  config.backplane_gbps = 100.0;
  config.planner = switchsim::Planner::kCoScheduled;
  core::SfpSystem system(config);
  system.ProvisionPhysical({{nf::NfType::kFirewall},
                            {nf::NfType::kClassifier},
                            {nf::NfType::kRouter},
                            {nf::NfType::kFirewall}});
  system.EnableCompiledPlans();
  Rng rng(3);
  std::vector<dataplane::Sfc> admitted;
  for (dataplane::TenantId tenant = 1; tenant <= 3; ++tenant) {
    admitted.push_back(Chain(tenant, 20.0, rng));
    ASSERT_TRUE(system.AdmitTenant(admitted.back()).admitted);
  }
  ASSERT_EQ(system.AdmitTenant(Chain(4, 90.0, rng)).code, core::AdmitCode::kBackplaneExceeded);
  workload::PacketSizeProfile profile;
  std::vector<net::Packet> packets;
  for (const auto& sfc : admitted) {
    const auto flows = workload::GenerateFlows(sfc.tenant, 4, 16, profile, rng);
    packets.insert(packets.end(), flows.begin(), flows.end());
  }
  system.ProcessBatch(packets);
  ASSERT_TRUE(system.ReprovisionTenant(admitted[0]).admitted);
  ASSERT_TRUE(system.RemoveTenant(admitted[1].tenant));
  system.ExportMetrics(registry);
}

TEST(MetricsDocSyncTest, EverySystemCounterIsDocumented) {
  const std::string doc = ReadMetricsDoc();
  const auto counters = Patterns(DocumentedNames(doc, "## Exported counters"));
  const auto histograms = Patterns(DocumentedNames(doc, "## Exported histograms"));
  ASSERT_FALSE(counters.empty()) << "docs/METRICS.md has no exported-counter table";
  ASSERT_FALSE(histograms.empty()) << "docs/METRICS.md has no exported-histogram table";

  common::metrics::Registry registry;
  ASSERT_NO_FATAL_FAILURE(ExportAllFamilies(registry));
  const auto exported = registry.Counters();
  EXPECT_GT(exported.size(), 50u);
  for (const auto& counter : exported) {
    EXPECT_TRUE(Documented(counter.name, counters))
        << "counter " << counter.name << " is exported but has no docs/METRICS.md row";
  }
  EXPECT_FALSE(registry.Histograms().empty());
  for (const auto& histogram : registry.Histograms()) {
    EXPECT_TRUE(Documented(histogram.name, histograms))
        << "histogram " << histogram.name << " is exported but has no docs/METRICS.md row";
  }
}

// The reverse direction for the families the system owns outright: a
// row left behind for a deleted pipeline.* or compiler.* counter fails.
TEST(MetricsDocSyncTest, EveryDocumentedPipelineAndCompilerCounterIsEmitted) {
  common::metrics::Registry registry;
  ASSERT_NO_FATAL_FAILURE(ExportAllFamilies(registry));
  const auto exported = registry.Counters();
  std::size_t checked = 0;
  for (const auto& name : DocumentedNames(ReadMetricsDoc(), "## Exported counters")) {
    if (!name.starts_with("pipeline.") && !name.starts_with("compiler.")) continue;
    ++checked;
    const std::regex pattern = NamePattern(name);
    EXPECT_TRUE(std::any_of(exported.begin(), exported.end(), [&](const auto& counter) {
      return std::regex_match(counter.name, pattern);
    })) << "docs/METRICS.md documents " << name << " but the system never emits it";
  }
  EXPECT_GT(checked, 20u);
}

}  // namespace
}  // namespace sfp
