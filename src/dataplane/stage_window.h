// Fabric-wide stage-window occupancy ledger (DESIGN.md "Cross-tenant
// pass sharing").
//
// A *stage window* is one (pass, stage) coordinate of the virtualized
// pipeline. A tenant whose chain visits that coordinate "opens" the
// window; later tenants that land NFs in the same coordinate "join"
// it. The ledger records, per admitted tenant, every claim the
// installed plan made — which table, at which (pass, stage), with how
// many rule entries — and aggregates the claims into per-window
// occupancy shared across tenants.
//
// The allocator consults the ledger under Planner::kCoScheduled: the
// scheduler steers successor-free NFs to placements whose window is
// already open, so pass boundaries line up across the tenant
// population and scarce early-stage table capacity stays available
// for order-constrained chains. Departure-time compaction re-plans
// retained SFCs with their own claims discounted (WindowOpenExcluding).
//
// Invariants (AuditXtLedger in data_plane.h checks them):
//   * ledger tenants == allocated tenants,
//   * per tenant, Σ claim entries == Σ (rules + 1) over its chain,
//   * Σ all claim entries == Pipeline::TotalEntriesUsed(),
//   * every window's occupancy == Σ of the claims inside it.
//
// Not thread-safe on its own; DataPlane mutates it only under the
// control-plane paths that already serialize (de)allocations.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "dataplane/sfc.h"

namespace sfp::switchsim {
class MatchActionTable;
}

namespace sfp::dataplane {

class StageWindowLedger {
 public:
  /// One installed logical NF: its rule entries in one physical table
  /// at one (pass, stage) coordinate.
  struct Claim {
    int pass = 0;
    int stage = 0;
    const switchsim::MatchActionTable* table = nullptr;
    std::int64_t entries = 0;
  };

  /// Aggregate occupancy of one (pass, stage) window.
  struct Window {
    /// Live claims (logical NF placements) inside the window.
    std::int64_t claims = 0;
    /// Total rule entries those claims hold.
    std::int64_t entries = 0;
  };

  /// (pass, stage).
  using WindowKey = std::pair<int, int>;

  /// Records a tenant's installed plan. The tenant must not already be
  /// in the ledger. Returns {windows opened, windows joined}: a claim
  /// "joins" when its (pass, stage) window was open before this call
  /// (another tenant holds it), and "opens" it otherwise — claims of
  /// this same commit sharing a coordinate count once as opened.
  std::pair<std::uint64_t, std::uint64_t> Commit(TenantId tenant,
                                                 std::vector<Claim> claims);

  /// Releases every claim of `tenant`; windows that drain to zero are
  /// erased. No-op when the tenant is absent.
  void Release(TenantId tenant);

  bool HasTenant(TenantId tenant) const { return claims_.contains(tenant); }

  /// True when at least one live claim sits at (pass, stage).
  bool WindowOpen(int pass, int stage) const {
    return windows_.contains(WindowKey{pass, stage});
  }

  /// Like WindowOpen, but ignoring `exclude`'s own claims — true only
  /// when some *other* tenant holds (pass, stage). The co-scheduler
  /// plans every tenant this way, so a re-provisioned tenant's current
  /// placement doesn't bias its own re-plan.
  bool WindowOpenExcluding(int pass, int stage, TenantId exclude) const;

  /// Total entries the ledger books for `tenant` (0 when absent).
  std::int64_t TenantEntries(TenantId tenant) const;

  /// Total entries across every tenant.
  std::int64_t TotalEntries() const;

  std::size_t NumTenants() const { return claims_.size(); }

  const std::map<TenantId, std::vector<Claim>>& claims() const { return claims_; }
  const std::map<WindowKey, Window>& windows() const { return windows_; }

 private:
  std::map<TenantId, std::vector<Claim>> claims_;
  std::map<WindowKey, Window> windows_;
};

}  // namespace sfp::dataplane
