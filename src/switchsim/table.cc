#include "switchsim/table.h"

#include <algorithm>

#include "common/check.h"
#include "common/faultinject.h"

namespace sfp::switchsim {

namespace {

/// splitmix64 finalizer — mixes one word into an accumulating hash.
std::uint64_t MixWord(std::uint64_t h, std::uint64_t word) {
  h ^= word + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  return h;
}

}  // namespace

std::size_t MatchActionTable::ExactKeyHash::operator()(
    std::span<const std::uint64_t> key) const {
  std::uint64_t h = 0x94d049bb133111ebULL;
  for (const std::uint64_t word : key) h = MixWord(h, word);
  return static_cast<std::size_t>(h);
}

MatchActionTable::MatchActionTable(std::string name, std::vector<MatchFieldSpec> key)
    : name_(std::move(name)), key_(std::move(key)) {
  SFP_CHECK_LE(key_.size(), kMaxKeyFields);
  for (std::size_t f = 0; f < key_.size(); ++f) {
    if (key_[f].kind == MatchKind::kExact) {
      exact_fields_.push_back(f);
      if (key_[f].field == FieldId::kTenantId && tenant_field_ == Bucket::npos) {
        tenant_field_ = f;
      }
    } else {
      nonexact_fields_.push_back(f);
    }
  }
}

ActionId MatchActionTable::RegisterAction(std::string name, ActionFn fn) {
  std::unique_lock lock(entries_mutex_);
  action_names_.push_back(std::move(name));
  actions_.push_back(std::move(fn));
  return static_cast<ActionId>(actions_.size() - 1);
}

void MatchActionTable::SetDefaultAction(ActionId action, ActionArgs args) {
  std::unique_lock lock(entries_mutex_);
  SFP_CHECK_GE(action, 0);
  SFP_CHECK_LT(static_cast<std::size_t>(action), actions_.size());
  default_action_ = {action, std::move(args)};
  // Every tenant's misses run the default: every compiled plan must
  // re-resolve.
  shared_tenant_epoch_ = epoch_.Value() + 1;
  BumpEpoch();
}

bool MatchActionTable::CanMatchTenant(const TableEntry& entry, std::uint16_t tenant) const {
  if (tenant_field_ == Bucket::npos) return true;
  const FieldMatch& match = entry.matches[tenant_field_];
  return match.mask == 0 || match.value == tenant;
}

void MatchActionTable::StampLocked(const TableEntry& entry) {
  const std::uint64_t next = epoch_.Value() + 1;
  if (tenant_field_ == Bucket::npos || entry.matches[tenant_field_].mask == 0) {
    shared_tenant_epoch_ = next;
  } else {
    tenant_epochs_[entry.matches[tenant_field_].value] = next;
  }
}

std::uint64_t MatchActionTable::TenantEpoch(std::uint16_t tenant) const {
  std::shared_lock lock(entries_mutex_);
  return TenantEpochLocked(tenant);
}

std::uint64_t MatchActionTable::TenantEpochLocked(std::uint16_t tenant) const {
  const auto it = tenant_epochs_.find(tenant);
  return it == tenant_epochs_.end() ? shared_tenant_epoch_
                                    : std::max(it->second, shared_tenant_epoch_);
}

bool MatchActionTable::IsPureEntry(const TableEntry& entry) const {
  for (const std::size_t f : nonexact_fields_) {
    const FieldMatch& m = entry.matches[f];
    switch (key_[f].kind) {
      case MatchKind::kTernary:
        if (m.mask != 0) return false;
        break;
      case MatchKind::kLpm:
        if (m.prefix_len > 0) return false;
        break;
      case MatchKind::kRange:
        if (m.lo != 0 || m.hi != ~0ULL) return false;
        break;
      case MatchKind::kExact:
        break;  // unreachable: exact fields are not in nonexact_fields_
    }
  }
  return true;
}

bool MatchActionTable::HasWildcardExact(const TableEntry& entry) const {
  for (const std::size_t f : exact_fields_) {
    if (entry.matches[f].mask == 0) return true;
  }
  return false;
}

std::vector<std::uint64_t> MatchActionTable::ExactKeyOf(const TableEntry& entry) const {
  std::vector<std::uint64_t> key;
  key.reserve(exact_fields_.size());
  for (const std::size_t f : exact_fields_) key.push_back(entry.matches[f].value);
  return key;
}

int MatchActionTable::PrefixScore(const TableEntry& entry) const {
  int score = 0;
  for (std::size_t f = 0; f < key_.size(); ++f) {
    if (key_[f].kind == MatchKind::kLpm) score += entry.matches[f].prefix_len;
  }
  return score;
}

void MatchActionTable::IndexEntryLocked(std::size_t index) {
  const TableEntry& entry = entries_[index];
  if (HasWildcardExact(entry)) {
    // A wildcarded exact field matches every probe value, so the entry
    // is unreachable from any single hash bucket; park it in the side
    // tier (priority desc, handle asc — the new entry has the largest
    // handle, so it slots after its priority peers).
    const auto pos = std::upper_bound(
        wildcard_spill_.begin(), wildcard_spill_.end(), entry.priority,
        [this](int priority, std::size_t i) { return entries_[i].priority < priority; });
    wildcard_spill_.insert(pos, index);
    return;
  }
  Bucket& bucket = index_[ExactKeyOf(entry)];
  if (IsPureEntry(entry)) {
    // The pure tier's winner is fully determined at install time:
    // pure entries share a prefix score of 0, so only (priority,
    // earliest handle) discriminate. Insertion happens in ascending
    // handle order (both incrementally and during rebuild), so a
    // strict priority improvement is the only way to displace the
    // incumbent.
    if (bucket.pure == Bucket::npos ||
        entry.priority > entries_[bucket.pure].priority) {
      bucket.pure = index;
    }
    return;
  }
  // Spill stays sorted by (priority desc, handle asc); the new entry
  // carries the largest handle, so it slots after its priority peers.
  const auto pos = std::upper_bound(
      bucket.spill.begin(), bucket.spill.end(), entry.priority,
      [this](int priority, std::size_t i) { return entries_[i].priority < priority; });
  bucket.spill.insert(pos, index);
}

void MatchActionTable::RebuildIndexLocked() {
  index_.clear();
  wildcard_spill_.clear();
  for (std::size_t i = 0; i < entries_.size(); ++i) IndexEntryLocked(i);
}

EntryHandle MatchActionTable::AddEntry(std::vector<FieldMatch> matches, ActionId action,
                                       ActionArgs args, int priority,
                                       std::uint16_t owner_tenant) {
  if (SFP_FAULT("switchsim.table.add_entry")) return kInvalidEntryHandle;
  std::unique_lock lock(entries_mutex_);
  SFP_CHECK_MSG(matches.size() == key_.size(), "entry key arity mismatch");
  SFP_CHECK_GE(action, 0);
  SFP_CHECK_LT(static_cast<std::size_t>(action), actions_.size());
  TableEntry entry;
  entry.matches = std::move(matches);
  entry.action = action;
  entry.args = std::move(args);
  entry.priority = priority;
  entry.owner_tenant = owner_tenant;
  entry.handle = next_handle_++;
  StampLocked(entry);
  entries_.push_back(std::move(entry));
  IndexEntryLocked(entries_.size() - 1);
  BumpEpoch();
  return entries_.back().handle;
}

bool MatchActionTable::RemoveEntry(EntryHandle handle) {
  std::unique_lock lock(entries_mutex_);
  auto it = std::find_if(entries_.begin(), entries_.end(),
                         [handle](const TableEntry& e) { return e.handle == handle; });
  if (it == entries_.end()) return false;
  StampLocked(*it);
  entries_.erase(it);
  // Removal shifts entry indices, so the index is rebuilt wholesale;
  // tenant departure is the control-plane slow path.
  RebuildIndexLocked();
  BumpEpoch();
  return true;
}

std::size_t MatchActionTable::RemoveTenantEntries(std::uint16_t tenant) {
  std::unique_lock lock(entries_mutex_);
  const std::size_t before = entries_.size();
  std::erase_if(entries_, [this, tenant](const TableEntry& e) {
    if (e.owner_tenant != tenant) return false;
    StampLocked(e);
    return true;
  });
  const std::size_t removed = before - entries_.size();
  if (removed > 0) {
    RebuildIndexLocked();
    // No epoch bump when nothing was removed: a departure that held
    // no rules here must not move the pipeline-wide counter, which
    // would send every other tenant's plan from the one-load Validate
    // fast path to a stamp sweep.
    BumpEpoch();
  }
  return removed;
}

std::size_t MatchActionTable::num_entries() const {
  std::shared_lock lock(entries_mutex_);
  return entries_.size();
}

void MatchActionTable::ExtractKey(const net::Packet& packet, const PacketMeta& meta,
                                  std::uint64_t* values) const {
  for (std::size_t f = 0; f < key_.size(); ++f) {
    values[f] = GetField(packet, meta, key_[f].field);
  }
}

const TableEntry* MatchActionTable::Lookup(const net::Packet& packet,
                                           const PacketMeta& meta) const {
  std::shared_lock lock(entries_mutex_);
  std::uint64_t values[kMaxKeyFields];
  ExtractKey(packet, meta, values);
  return LookupIndexedLocked(values);
}

const TableEntry* MatchActionTable::LookupReference(const net::Packet& packet,
                                                    const PacketMeta& meta) const {
  std::shared_lock lock(entries_mutex_);
  std::uint64_t values[kMaxKeyFields];
  ExtractKey(packet, meta, values);
  return LookupReferenceLocked(values);
}

const TableEntry* MatchActionTable::LookupIndexedLocked(const std::uint64_t* values) const {
  // Stack-array probe via the transparent hash — the per-packet serve
  // path allocates nothing here.
  std::uint64_t exact[kMaxKeyFields];
  std::size_t n = 0;
  for (const std::size_t f : exact_fields_) exact[n++] = values[f];
  const auto it = index_.find(std::span<const std::uint64_t>(exact, n));

  const TableEntry* best = nullptr;
  int best_priority = 0;
  int best_prefix = -1;
  EntryHandle best_handle = 0;
  if (it != index_.end()) {
    const Bucket& bucket = it->second;
    if (bucket.pure != Bucket::npos) {
      best = &entries_[bucket.pure];
      best_priority = best->priority;
      best_prefix = PrefixScore(*best);
      best_handle = best->handle;
    }
    for (const std::size_t index : bucket.spill) {
      const TableEntry& entry = entries_[index];
      // Spill is priority-sorted: once the candidate's priority falls
      // below the best match, nothing later can outrank it (equal
      // priority can still win on LPM prefix, so only strictly-lower
      // priorities are skipped).
      if (best != nullptr && entry.priority < best_priority) break;
      bool match = true;
      for (const std::size_t f : nonexact_fields_) {
        if (!FieldMatches(entry.matches[f], key_[f].kind, values[f])) {
          match = false;
          break;
        }
      }
      if (!match) continue;
      const int prefix = PrefixScore(entry);
      if (best == nullptr || entry.priority > best_priority ||
          (entry.priority == best_priority &&
           (prefix > best_prefix ||
            (prefix == best_prefix && entry.handle < best_handle)))) {
        best = &entry;
        best_priority = entry.priority;
        best_prefix = prefix;
        best_handle = entry.handle;
      }
    }
  }
  // Side tier: entries with a wildcarded exact field (per-pass
  // catch-alls on exact-key NFs). Same priority-sorted early break;
  // concrete fields — exact and non-exact alike — are verified in
  // full because the hash probe never vetted them.
  for (const std::size_t index : wildcard_spill_) {
    const TableEntry& entry = entries_[index];
    if (best != nullptr && entry.priority < best_priority) break;
    bool match = true;
    for (std::size_t f = 0; f < key_.size(); ++f) {
      if (!FieldMatches(entry.matches[f], key_[f].kind, values[f])) {
        match = false;
        break;
      }
    }
    if (!match) continue;
    const int prefix = PrefixScore(entry);
    if (best == nullptr || entry.priority > best_priority ||
        (entry.priority == best_priority &&
         (prefix > best_prefix ||
          (prefix == best_prefix && entry.handle < best_handle)))) {
      best = &entry;
      best_priority = entry.priority;
      best_prefix = prefix;
      best_handle = entry.handle;
    }
  }
  return best;
}

const TableEntry* MatchActionTable::LookupReferenceLocked(const std::uint64_t* values) const {
  const TableEntry* best = nullptr;
  int best_priority = 0;
  int best_prefix = -1;
  for (const TableEntry& entry : entries_) {
    bool match = true;
    int prefix_score = 0;
    for (std::size_t f = 0; f < key_.size() && match; ++f) {
      match = FieldMatches(entry.matches[f], key_[f].kind, values[f]);
      if (key_[f].kind == MatchKind::kLpm) prefix_score += entry.matches[f].prefix_len;
    }
    if (!match) continue;
    if (best == nullptr || entry.priority > best_priority ||
        (entry.priority == best_priority && prefix_score > best_prefix)) {
      best = &entry;
      best_priority = entry.priority;
      best_prefix = prefix_score;
    }
  }
  return best;
}

bool MatchActionTable::Apply(net::Packet& packet, PacketMeta& meta) {
  // Held across the action so the winning entry's args cannot be
  // removed mid-execution by a concurrent tenant departure.
  std::shared_lock lock(entries_mutex_);
  std::uint64_t values[kMaxKeyFields];
  ExtractKey(packet, meta, values);
  const TableEntry* entry = LookupIndexedLocked(values);
  if (entry != nullptr) {
    hits_.Add(1);
    actions_[static_cast<std::size_t>(entry->action)](packet, meta, entry->args);
    return true;
  }
  misses_.Add(1);
  if (default_action_) {
    default_hits_.Add(1);
    actions_[static_cast<std::size_t>(default_action_->first)](packet, meta,
                                                               default_action_->second);
  }
  return false;
}

bool MatchActionTable::NeedsTcam() const {
  return std::any_of(key_.begin(), key_.end(), [](const MatchFieldSpec& spec) {
    return spec.kind == MatchKind::kTernary || spec.kind == MatchKind::kRange;
  });
}

MatchActionTable::CompileSnapshot MatchActionTable::Snapshot(std::uint16_t tenant) const {
  std::shared_lock lock(entries_mutex_);
  CompileSnapshot snapshot;
  for (const TableEntry& entry : entries_) {
    if (CanMatchTenant(entry, tenant)) snapshot.entries.push_back(entry);
  }
  snapshot.actions = actions_;
  snapshot.action_names = action_names_;
  snapshot.default_action = default_action_;
  snapshot.epoch = TenantEpochLocked(tenant);
  return snapshot;
}

void MatchActionTable::AddApplyCounts(std::uint64_t hits, std::uint64_t misses,
                                      std::uint64_t default_hits) {
  if (hits != 0) hits_.Add(hits);
  if (misses != 0) misses_.Add(misses);
  if (default_hits != 0) default_hits_.Add(default_hits);
}

}  // namespace sfp::switchsim
