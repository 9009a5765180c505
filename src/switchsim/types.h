// Core types of the programmable-switch simulator.
//
// The simulator models a Tofino-like ingress pipeline: a parser, S
// physical stages of Match-Action Units (MAUs), a deparser, and a
// recirculation path that re-injects a packet at stage 0 with its
// metadata `pass` incremented (§IV: "the last hop of each pass
// recirculating the traffic").
#pragma once

#include <cstdint>
#include <string>

#include "net/packet.h"

namespace sfp::switchsim {

/// Match fields the MAUs can inspect. kTenantId and kPass are the two
/// fields SFP prepends to every physical NF's match block (§IV
/// "Install Physical NFs").
enum class FieldId : std::uint8_t {
  kTenantId,   // VLAN VID (metadata copy)
  kPass,       // recirculation pass counter (metadata)
  kSrcIp,
  kDstIp,
  kSrcPort,
  kDstPort,
  kIpProto,
  kDscp,
  kFlowClass,  // metadata written by the traffic classifier
  kEthType,
};

/// Human-readable field name (for P4 emission and debugging).
const char* FieldName(FieldId field);

/// Match kinds supported by the MAU memories. Exact and LPM entries
/// live in SRAM; ternary and range entries live in TCAM.
enum class MatchKind : std::uint8_t { kExact, kTernary, kLpm, kRange };

/// One field of a table's match key.
struct MatchFieldSpec {
  FieldId field;
  MatchKind kind;
};

/// A concrete match pattern for one field of an entry.
struct FieldMatch {
  /// kExact: value; kTernary: value/mask; kLpm: value/prefix_len;
  /// kRange: [lo, hi] inclusive.
  std::uint64_t value = 0;
  std::uint64_t mask = ~0ULL;   // ternary
  int prefix_len = 32;          // lpm
  std::uint64_t lo = 0, hi = 0; // range

  /// Wildcard that matches anything (ternary mask 0 / range full).
  static FieldMatch Any();
  /// Exact-value match.
  static FieldMatch Exact(std::uint64_t v);
  /// Ternary value/mask match.
  static FieldMatch Ternary(std::uint64_t v, std::uint64_t m);
  /// Longest-prefix match on a 32-bit field.
  static FieldMatch Lpm(std::uint64_t v, int prefix_len);
  /// Inclusive range match.
  static FieldMatch Range(std::uint64_t lo, std::uint64_t hi);
};

/// Why a packet was dropped. NF actions that drop (firewall deny,
/// rate-limit, ...) leave the reason at kNone and the pipeline
/// normalizes it to kNfAction; the other reasons are set by the
/// pipeline itself.
enum class DropReason : std::uint8_t {
  kNone = 0,
  /// An NF action dropped the packet (deny rule, rate limit, ...).
  kNfAction,
  /// The recirculation-port overload model rejected the pass (offered
  /// recirculation bandwidth above the port's capacity).
  kRecirculationOverload,
  /// The "switchsim.pipeline.serve" fault point fired (chaos testing).
  kInjectedFault,
};

/// Human-readable drop reason ("nf-action", "recirculation-overload", ...).
const char* DropReasonName(DropReason reason);

/// Per-packet metadata carried through the pipeline (the paper's packet
/// metadata: recirculation pass, plus scratch written by NFs).
struct PacketMeta {
  std::uint16_t tenant_id = 0;
  /// Recirculation pass, starting at 0 and incremented by the REC
  /// action of the last stage (§IV).
  std::uint8_t pass = 0;
  /// Classifier output (0 = unclassified).
  std::uint8_t flow_class = 0;
  bool dropped = false;
  /// Why the packet was dropped (kNone while dropped is false; set by
  /// the pipeline — kNfAction when an NF action dropped it).
  DropReason drop_reason = DropReason::kNone;
  /// Set by an action to request recirculation at end of pipeline.
  bool recirculate = false;
  /// Egress port selected by the router (-1 = unset).
  std::int32_t egress_port = -1;
  /// Scratch register for NF actions (e.g. selected backend index).
  std::uint64_t scratch = 0;
  /// Ingress timestamp in nanoseconds, set by the traffic source; used
  /// by stateful NFs such as the rate limiter's token buckets.
  double time_ns = 0.0;
};

/// Extracts the value of `field` from packet + metadata.
std::uint64_t GetField(const net::Packet& packet, const PacketMeta& meta, FieldId field);

/// Tests a single field pattern against a value.
bool FieldMatches(const FieldMatch& match, MatchKind kind, std::uint64_t value);

}  // namespace sfp::switchsim
