// Tests for the NF dependency analysis behind pass packing
// (DESIGN.md "Intra-chain NF parallelism"): per-NF read/write/drop/
// state summaries and the pairwise independence relation.
#include "dataplane/nf_deps.h"

#include <gtest/gtest.h>

#include "nf/classifier.h"
#include "nf/firewall.h"
#include "nf/load_balancer.h"
#include "nf/nat.h"
#include "nf/rate_limiter.h"
#include "nf/router.h"
#include "switchsim/compiler/action_traits.h"

namespace sfp::dataplane {
namespace {

using net::Ipv4Address;
using nf::NfConfig;
using nf::NfType;
using switchsim::FieldId;
using switchsim::FieldMatch;
using switchsim::compiler::FieldBit;
using switchsim::compiler::kEffectEgressPort;
using switchsim::compiler::kEffectScratch;
using switchsim::compiler::kEffectTtl;
using switchsim::compiler::kNoFields;

// ---- representative tenant configurations ---------------------------

// Deny on a destination-port range; source wildcarded.
NfConfig FwPortOnly() {
  NfConfig config;
  config.type = NfType::kFirewall;
  config.rules.push_back(nf::Firewall::Deny(FieldMatch::Any(), FieldMatch::Any(),
                                            FieldMatch::Any(),
                                            FieldMatch::Range(443, 443), FieldMatch::Any()));
  return config;
}

// Deny with a concrete /24 source: the match key reads kSrcIp too.
NfConfig FwSrcMatch() {
  NfConfig config;
  config.type = NfType::kFirewall;
  config.rules.push_back(nf::Firewall::Deny(
      FieldMatch::Ternary(0x0A000000, 0xFFFFFF00), FieldMatch::Any(), FieldMatch::Any(),
      FieldMatch::Range(443, 443), FieldMatch::Any()));
  return config;
}

NfConfig TcPort(std::uint16_t lo, std::uint16_t hi) {
  NfConfig config;
  config.type = NfType::kClassifier;
  config.rules.push_back(nf::Classifier::ClassifyByPort(lo, hi, 3));
  return config;
}

NfConfig RtConfig() {
  NfConfig config;
  config.type = NfType::kRouter;
  config.rules.push_back(nf::Router::Route(0x0A000000, 24, 7));
  return config;
}

NfConfig LbConfig() {
  NfConfig config;
  config.type = NfType::kLoadBalancer;
  config.rules.push_back(nf::LoadBalancer::SetBackend(Ipv4Address::Of(10, 0, 0, 100), 80,
                                                      Ipv4Address::Of(192, 168, 0, 1)));
  return config;
}

NfConfig NatConfig() {
  NfConfig config;
  config.type = NfType::kNat;
  config.rules.push_back(nf::Nat::Translate(Ipv4Address::Of(10, 1, 2, 3),
                                            Ipv4Address::Of(203, 0, 113, 7)));
  return config;
}

NfConfig RlConfig() {
  NfConfig config;
  config.type = NfType::kRateLimiter;
  config.rules.push_back(nf::RateLimiter::Police(0x0A000000, 0xFFFF0000, 0));
  return config;
}

// ---- SummarizeNf ----------------------------------------------------

TEST(NfDepsTest, FirewallSummaryReadsMatchKeyDropsStateless) {
  const NfEffects fw = SummarizeNf(FwPortOnly());
  EXPECT_EQ(fw.reads, FieldBit(FieldId::kDstPort));
  EXPECT_EQ(fw.writes, kNoFields);
  EXPECT_TRUE(fw.may_drop);
  EXPECT_FALSE(fw.stateful);

  const NfEffects fw_src = SummarizeNf(FwSrcMatch());
  EXPECT_EQ(fw_src.reads, FieldBit(FieldId::kSrcIp) | FieldBit(FieldId::kDstPort));
}

TEST(NfDepsTest, WildcardedKeyFieldsAreNotReads) {
  // A full-range port match constrains nothing: the lookup result
  // cannot depend on the field, so it must not count as a read (same
  // rule the compiler's lift applies to IrSlot::reads).
  const NfEffects tc_any = SummarizeNf(TcPort(0, 65535));
  EXPECT_EQ(tc_any.reads, kNoFields);
  const NfEffects tc_narrow = SummarizeNf(TcPort(80, 80));
  EXPECT_EQ(tc_narrow.reads, FieldBit(FieldId::kDstPort));
  EXPECT_EQ(tc_narrow.writes, FieldBit(FieldId::kFlowClass));
  EXPECT_FALSE(tc_narrow.may_drop);
  EXPECT_FALSE(tc_narrow.stateful);
}

TEST(NfDepsTest, RouterSummaryCoversEffectBits) {
  const NfEffects rt = SummarizeNf(RtConfig());
  // LPM /24 is concrete -> key read; the action reads and writes the
  // TTL and writes the egress port (virtual effect bits).
  EXPECT_EQ(rt.reads, FieldBit(FieldId::kDstIp) | kEffectTtl);
  EXPECT_EQ(rt.writes, kEffectEgressPort | kEffectTtl);
  EXPECT_TRUE(rt.may_drop);  // TTL expiry
  EXPECT_FALSE(rt.stateful);
}

TEST(NfDepsTest, LoadBalancerAndNatSummaries) {
  const NfEffects lb = SummarizeNf(LbConfig());
  EXPECT_EQ(lb.reads, FieldBit(FieldId::kDstIp) | FieldBit(FieldId::kDstPort));
  EXPECT_EQ(lb.writes, FieldBit(FieldId::kDstIp) | kEffectScratch);
  EXPECT_FALSE(lb.may_drop);

  const NfEffects nat = SummarizeNf(NatConfig());
  EXPECT_EQ(nat.reads, FieldBit(FieldId::kSrcIp));
  EXPECT_EQ(nat.writes, FieldBit(FieldId::kSrcIp));
  EXPECT_FALSE(nat.may_drop);
  EXPECT_FALSE(nat.stateful);
}

TEST(NfDepsTest, RateLimiterSummaryIsStatefulDropper) {
  const NfEffects rl = SummarizeNf(RlConfig());
  EXPECT_EQ(rl.reads, FieldBit(FieldId::kSrcIp));  // concrete ternary key
  EXPECT_EQ(rl.writes, kNoFields);
  EXPECT_TRUE(rl.may_drop);
  EXPECT_TRUE(rl.stateful);
}

TEST(NfDepsTest, EmptyConfigHasNoEffects) {
  NfConfig empty;
  empty.type = NfType::kFirewall;
  const NfEffects effects = SummarizeNf(empty);
  EXPECT_EQ(effects.reads, kNoFields);
  EXPECT_EQ(effects.writes, kNoFields);
  EXPECT_FALSE(effects.may_drop);
  EXPECT_FALSE(effects.stateful);
}

// ---- Independent ----------------------------------------------------

TEST(NfDepsTest, IndependentPairs) {
  const NfEffects fw = SummarizeNf(FwPortOnly());
  const NfEffects tc = SummarizeNf(TcPort(80, 80));
  const NfEffects rt = SummarizeNf(RtConfig());
  const NfEffects lb = SummarizeNf(LbConfig());
  const NfEffects nat = SummarizeNf(NatConfig());
  const NfEffects rl = SummarizeNf(RlConfig());

  // Disjoint fields and no drop-gate in either direction.
  EXPECT_TRUE(Independent(fw, tc));
  EXPECT_TRUE(Independent(fw, rt));
  EXPECT_TRUE(Independent(fw, lb));
  EXPECT_TRUE(Independent(tc, rt));
  EXPECT_TRUE(Independent(tc, lb));
  EXPECT_TRUE(Independent(tc, nat));
  EXPECT_TRUE(Independent(tc, rl));
  EXPECT_TRUE(Independent(rt, nat));
  EXPECT_TRUE(Independent(lb, nat));
}

TEST(NfDepsTest, FieldConflictsAreRejectedSymmetrically) {
  const NfEffects fw_src = SummarizeNf(FwSrcMatch());
  const NfEffects rt = SummarizeNf(RtConfig());
  const NfEffects lb = SummarizeNf(LbConfig());
  const NfEffects nat = SummarizeNf(NatConfig());
  const NfEffects rl = SummarizeNf(RlConfig());

  MergeReject why = MergeReject::kNone;
  // NAT rewrites the source IP the firewall's key reads.
  EXPECT_FALSE(Independent(fw_src, nat, &why));
  EXPECT_EQ(why, MergeReject::kFieldConflict);
  EXPECT_FALSE(Independent(nat, fw_src, &why));
  EXPECT_EQ(why, MergeReject::kFieldConflict);
  // LB rewrites the destination IP the router routes on.
  EXPECT_FALSE(Independent(rt, lb, &why));
  EXPECT_EQ(why, MergeReject::kFieldConflict);
  // NAT rewrites the source IP the rate limiter polices on.
  EXPECT_FALSE(Independent(nat, rl, &why));
  EXPECT_EQ(why, MergeReject::kFieldConflict);
}

TEST(NfDepsTest, DropGateProtectsStatefulNfs) {
  const NfEffects fw = SummarizeNf(FwPortOnly());
  const NfEffects rt = SummarizeNf(RtConfig());
  const NfEffects rl = SummarizeNf(RlConfig());

  // A dropper reordered around a token bucket would change which
  // packets drain it, diverging future verdicts.
  MergeReject why = MergeReject::kNone;
  EXPECT_FALSE(Independent(fw, rl, &why));
  EXPECT_EQ(why, MergeReject::kDropGate);
  EXPECT_FALSE(Independent(rl, fw, &why));
  EXPECT_EQ(why, MergeReject::kDropGate);
  EXPECT_FALSE(Independent(rt, rl, &why));  // TTL expiry drops too
  EXPECT_EQ(why, MergeReject::kDropGate);

  // Two *stateless* droppers commute: the drop set is the union either
  // way and the reason is kNfAction in both orders.
  EXPECT_TRUE(Independent(fw, rt));
  EXPECT_TRUE(Independent(fw, SummarizeNf(FwPortOnly())));
}

TEST(NfDepsTest, WriteWriteConflicts) {
  // Two classifiers both write flow_class: last-writer-wins makes the
  // order observable.
  const NfEffects a = SummarizeNf(TcPort(80, 80));
  const NfEffects b = SummarizeNf(TcPort(443, 443));
  MergeReject why = MergeReject::kNone;
  EXPECT_FALSE(Independent(a, b, &why));
  EXPECT_EQ(why, MergeReject::kFieldConflict);
}

}  // namespace
}  // namespace sfp::dataplane
