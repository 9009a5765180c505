#include "switchsim/types.h"

#include "common/check.h"

namespace sfp::switchsim {

const char* FieldName(FieldId field) {
  switch (field) {
    case FieldId::kTenantId:
      return "meta.tenant_id";
    case FieldId::kPass:
      return "meta.pass";
    case FieldId::kSrcIp:
      return "hdr.ipv4.srcAddr";
    case FieldId::kDstIp:
      return "hdr.ipv4.dstAddr";
    case FieldId::kSrcPort:
      return "hdr.l4.srcPort";
    case FieldId::kDstPort:
      return "hdr.l4.dstPort";
    case FieldId::kIpProto:
      return "hdr.ipv4.protocol";
    case FieldId::kDscp:
      return "hdr.ipv4.dscp";
    case FieldId::kFlowClass:
      return "meta.flow_class";
    case FieldId::kEthType:
      return "hdr.ethernet.etherType";
  }
  return "unknown";
}

const char* DropReasonName(DropReason reason) {
  switch (reason) {
    case DropReason::kNone:
      return "none";
    case DropReason::kNfAction:
      return "nf-action";
    case DropReason::kRecirculationOverload:
      return "recirculation-overload";
    case DropReason::kInjectedFault:
      return "injected-fault";
  }
  return "unknown";
}

FieldMatch FieldMatch::Any() {
  FieldMatch m;
  m.mask = 0;          // ternary: matches everything
  m.prefix_len = 0;    // lpm: default route
  m.lo = 0;
  m.hi = ~0ULL;        // range: full span
  return m;
}

FieldMatch FieldMatch::Exact(std::uint64_t v) {
  FieldMatch m;
  m.value = v;
  return m;
}

FieldMatch FieldMatch::Ternary(std::uint64_t v, std::uint64_t mask) {
  FieldMatch m;
  m.value = v;
  m.mask = mask;
  return m;
}

FieldMatch FieldMatch::Lpm(std::uint64_t v, int prefix_len) {
  SFP_CHECK_GE(prefix_len, 0);
  SFP_CHECK_LE(prefix_len, 32);
  FieldMatch m;
  m.value = v;
  m.prefix_len = prefix_len;
  return m;
}

FieldMatch FieldMatch::Range(std::uint64_t lo, std::uint64_t hi) {
  SFP_CHECK_LE(lo, hi);
  FieldMatch m;
  m.lo = lo;
  m.hi = hi;
  return m;
}

std::uint64_t GetField(const net::Packet& packet, const PacketMeta& meta, FieldId field) {
  switch (field) {
    case FieldId::kTenantId:
      return meta.tenant_id;
    case FieldId::kPass:
      return meta.pass;
    case FieldId::kSrcIp:
      return packet.ipv4 ? packet.ipv4->src.value : 0;
    case FieldId::kDstIp:
      return packet.ipv4 ? packet.ipv4->dst.value : 0;
    case FieldId::kSrcPort:
      return packet.Tuple().src_port;
    case FieldId::kDstPort:
      return packet.Tuple().dst_port;
    case FieldId::kIpProto:
      return packet.ipv4 ? packet.ipv4->protocol : 0;
    case FieldId::kDscp:
      return packet.ipv4 ? packet.ipv4->dscp : 0;
    case FieldId::kFlowClass:
      return meta.flow_class;
    case FieldId::kEthType:
      return packet.eth.ether_type;
  }
  return 0;
}

bool FieldMatches(const FieldMatch& match, MatchKind kind, std::uint64_t value) {
  switch (kind) {
    case MatchKind::kExact:
      // mask == 0 is the FieldMatch::Any() signature: an exact-kind
      // field can be wildcarded (used by the data plane's per-pass
      // catch-alls on NFs whose own key is exact, e.g. NAT/LB).
      return match.mask == 0 || value == match.value;
    case MatchKind::kTernary:
      return (value & match.mask) == (match.value & match.mask);
    case MatchKind::kLpm: {
      // 32-bit LPM: prefix mask over the low 32 bits.
      if (match.prefix_len == 0) return true;
      const std::uint64_t mask32 =
          match.prefix_len >= 32 ? 0xFFFFFFFFULL
                                 : (0xFFFFFFFFULL << (32 - match.prefix_len)) & 0xFFFFFFFFULL;
      return (value & mask32) == (match.value & mask32);
    }
    case MatchKind::kRange:
      return value >= match.lo && value <= match.hi;
  }
  return false;
}

}  // namespace sfp::switchsim
