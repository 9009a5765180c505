#include "dataplane/stage_window.h"

#include "common/check.h"

namespace sfp::dataplane {

std::pair<std::uint64_t, std::uint64_t> StageWindowLedger::Commit(
    TenantId tenant, std::vector<Claim> claims) {
  SFP_CHECK_MSG(!claims_.contains(tenant), "ledger: tenant already committed");
  std::uint64_t opened = 0;
  std::uint64_t joined = 0;
  for (const Claim& claim : claims) {
    const WindowKey key{claim.pass, claim.stage};
    auto it = windows_.find(key);
    if (it == windows_.end()) {
      ++opened;
      it = windows_.emplace(key, Window{}).first;
    } else if (it->second.claims > 0) {
      ++joined;
    }
    ++it->second.claims;
    it->second.entries += claim.entries;
  }
  claims_.emplace(tenant, std::move(claims));
  return {opened, joined};
}

void StageWindowLedger::Release(TenantId tenant) {
  const auto it = claims_.find(tenant);
  if (it == claims_.end()) return;
  for (const Claim& claim : it->second) {
    const auto wit = windows_.find(WindowKey{claim.pass, claim.stage});
    SFP_CHECK_MSG(wit != windows_.end(), "ledger: releasing an unknown window");
    --wit->second.claims;
    wit->second.entries -= claim.entries;
    if (wit->second.claims == 0) windows_.erase(wit);
  }
  claims_.erase(it);
}

bool StageWindowLedger::WindowOpenExcluding(int pass, int stage,
                                            TenantId exclude) const {
  const auto wit = windows_.find(WindowKey{pass, stage});
  if (wit == windows_.end()) return false;
  const auto cit = claims_.find(exclude);
  if (cit == claims_.end()) return true;
  std::int64_t own = 0;
  for (const Claim& claim : cit->second) {
    if (claim.pass == pass && claim.stage == stage) ++own;
  }
  return wit->second.claims > own;
}

std::int64_t StageWindowLedger::TenantEntries(TenantId tenant) const {
  std::int64_t total = 0;
  const auto it = claims_.find(tenant);
  if (it == claims_.end()) return 0;
  for (const Claim& claim : it->second) total += claim.entries;
  return total;
}

std::int64_t StageWindowLedger::TotalEntries() const {
  std::int64_t total = 0;
  for (const auto& [key, window] : windows_) total += window.entries;
  return total;
}

}  // namespace sfp::dataplane
