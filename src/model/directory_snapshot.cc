#include "model/directory_snapshot.h"

#include "util/metrics.h"
#include "util/string_util.h"

namespace ldapbound {

namespace {

struct SnapshotMetrics {
  Counter& publishes;
  Gauge& reclaim_lag;
  static SnapshotMetrics& Get() {
    static SnapshotMetrics* m = [] {
      MetricRegistry& r = MetricRegistry::Default();
      return new SnapshotMetrics{
          r.GetCounter("ldapbound_snapshot_publishes_total",
                       "Directory snapshots published by the MVCC read "
                       "path (one per committed write batch)"),
          r.GetGauge("ldapbound_snapshot_reclaim_lag",
                     "Retired snapshots whose grace period has not yet "
                     "elapsed (readers may still hold them)"),
      };
    }();
    return *m;
  }
};

}  // namespace

std::string SnapshotRdnKey(EntryId parent, std::string_view rdn) {
  std::string key = std::to_string(parent);
  key += '/';
  key += ToLower(rdn);
  return key;
}

EntryId DirectorySnapshot::FindChildByRdn(EntryId parent,
                                          std::string_view rdn) const {
  const EntryId* found = this->rdn.Find(SnapshotRdnKey(parent, rdn));
  return found == nullptr ? kInvalidEntryId : *found;
}

void SnapshotStore::Publish(const DirectorySnapshot* snap) {
  const DirectorySnapshot* old = head_.exchange(snap, std::memory_order_seq_cst);
  SnapshotMetrics& metrics = SnapshotMetrics::Get();
  metrics.publishes.Increment();
  if (old != nullptr) {
    epochs_->Retire([old] { delete old; });
  }
  metrics.reclaim_lag.Set(static_cast<int64_t>(epochs_->retired_pending()));
}

}  // namespace ldapbound
