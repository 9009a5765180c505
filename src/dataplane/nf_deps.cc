#include "dataplane/nf_deps.h"

#include <algorithm>

#include "switchsim/compiler/ir.h"

namespace sfp::dataplane {

using switchsim::compiler::FieldBit;
using switchsim::compiler::IsWildcardMatch;
using switchsim::compiler::kNoFields;

NfEffects SummarizeNf(const nf::NfConfig& config) {
  NfEffects effects;
  const auto nf = nf::MakeNf(config.type);
  const auto key = nf->KeySpec();
  for (const auto& rule : config.rules) {
    // Match-key reads: only fields this rule concretely constrains — a
    // wildcarded key field cannot influence the lookup result (same
    // test the compiler's lift uses for IrSlot::reads). Rules with
    // fewer patterns than key fields are malformed and rejected at
    // install; treat the overlap defensively.
    const std::size_t fields = std::min(rule.matches.size(), key.size());
    for (std::size_t f = 0; f < fields; ++f) {
      if (!IsWildcardMatch(rule.matches[f], key[f].kind, key[f].field)) {
        effects.reads |= FieldBit(key[f].field);
      }
    }
    const auto traits = nf->TraitsOf(rule.action);
    effects.reads |= traits.reads;
    effects.writes |= traits.writes;
    effects.may_drop = effects.may_drop || traits.may_drop;
    effects.stateful = effects.stateful || traits.stateful;
  }
  return effects;
}

bool Independent(const NfEffects& a, const NfEffects& b, MergeReject* why) {
  if ((a.writes & b.reads) != kNoFields || (b.writes & a.reads) != kNoFields ||
      (a.writes & b.writes) != kNoFields) {
    if (why != nullptr) *why = MergeReject::kFieldConflict;
    return false;
  }
  // A stateful NF reordered before a dropper would charge its state
  // (e.g. token buckets) for packets the dropper kills, diverging
  // future verdicts. Two stateless droppers commute: the drop set is
  // the union either way and the reason is kNfAction in both orders.
  if ((a.may_drop && b.stateful) || (b.may_drop && a.stateful)) {
    if (why != nullptr) *why = MergeReject::kDropGate;
    return false;
  }
  if (why != nullptr) *why = MergeReject::kNone;
  return true;
}

std::vector<std::vector<std::size_t>> BuildPrecedence(
    const std::vector<NfEffects>& effects, std::vector<std::uint64_t>* rejects) {
  std::vector<std::vector<std::size_t>> preds(effects.size());
  for (std::size_t j = 0; j < effects.size(); ++j) {
    for (std::size_t i = 0; i < j; ++i) {
      MergeReject why = MergeReject::kNone;
      if (!Independent(effects[i], effects[j], &why)) {
        preds[j].push_back(i);
        if (rejects != nullptr) ++(*rejects)[static_cast<std::size_t>(why)];
      }
    }
  }
  return preds;
}

std::vector<bool> SuccessorFree(const std::vector<std::vector<std::size_t>>& preds) {
  std::vector<bool> free(preds.size(), true);
  for (const auto& list : preds) {
    for (const std::size_t i : list) free[i] = false;
  }
  return free;
}

}  // namespace sfp::dataplane
