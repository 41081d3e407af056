#include "baselines/sim_store.h"

#include <chrono>

#include "wal/log_writer.h"

namespace polarmp {

void SimLogDevice::CommitForce(int node) {
  if (profile_.log_append_ns == 0) return;  // instant-load profiles
  UniqueLock lock(mu_);
  NodeState& st = nodes_[node];  // map nodes are reference-stable
  const uint64_t ticket = st.next_seq++;
  for (;;) {
    if (st.durable_seq > ticket) return;  // the landed prefix covers us
    if (ticket >= st.claimed_seq && st.in_flight < kMaxForcesInFlight) {
      // Everything appended up to now rides this one device write.
      const uint64_t first = st.claimed_seq;
      const uint64_t covers = st.next_seq;
      st.claimed_seq = covers;
      ++st.in_flight;
      lock.unlock();
      SimDelay(profile_.log_append_ns);
      lock.lock();
      --st.in_flight;
      forces_.Inc();
      group_size_.Record(covers - first);
      // Durability advances over landed tickets in order.
      st.landed.emplace(first, covers);
      for (auto r = st.landed.begin();
           r != st.landed.end() && r->first == st.durable_seq;
           r = st.landed.erase(r)) {
        st.durable_seq = r->second;
      }
      cv_.notify_all();
      continue;
    }
    cv_.wait(lock, [&]() REQUIRES(mu_) {
      return st.durable_seq > ticket ||
             (ticket >= st.claimed_seq &&
              st.in_flight < kMaxForcesInFlight);
    });
  }
}

StatusOr<uint32_t> SimStore::CreateTable(const std::string& name) {
  MutexLock lock(mu_);
  if (table_ids_.count(name) != 0) {
    return Status::AlreadyExists("table exists: " + name);
  }
  const uint32_t id = static_cast<uint32_t>(table_ids_.size());
  table_ids_[name] = id;
  return id;
}

StatusOr<uint32_t> SimStore::TableId(const std::string& name) const {
  MutexLock lock(mu_);
  auto it = table_ids_.find(name);
  if (it == table_ids_.end()) {
    return Status::NotFound("table missing: " + name);
  }
  return it->second;
}

StatusOr<std::string> SimStore::GetRow(uint32_t table, int64_t key) const {
  row_reads_.Inc();
  MutexLock lock(mu_);
  auto it = rows_.find({table, key});
  if (it == rows_.end()) return Status::NotFound("row missing");
  return it->second;
}

bool SimStore::RowExists(uint32_t table, int64_t key) const {
  MutexLock lock(mu_);
  return rows_.count({table, key}) != 0;
}

void SimStore::PutRow(uint32_t table, int64_t key, const std::string& value) {
  row_writes_.Inc();
  MutexLock lock(mu_);
  rows_[{table, key}] = value;
}

void SimStore::EraseRow(uint32_t table, int64_t key) {
  row_writes_.Inc();
  MutexLock lock(mu_);
  rows_.erase({table, key});
}

Status SimStore::ScanRows(
    uint32_t table, int64_t lo, int64_t hi,
    const std::function<bool(int64_t, const std::string&)>& fn) const {
  // Snapshot first: callbacks re-enter the store (page touches, lock
  // acquisition) and must not run under mu_.
  std::vector<std::pair<int64_t, std::string>> snapshot;
  {
    MutexLock lock(mu_);
    for (auto it = rows_.lower_bound({table, lo});
         it != rows_.end() && it->first.first == table &&
         it->first.second <= hi;
         ++it) {
      snapshot.emplace_back(it->first.second, it->second);
    }
  }
  for (const auto& [key, value] : snapshot) {
    if (!fn(key, value)) break;
  }
  return Status::OK();
}

uint64_t SimStore::PageVersion(SimPageKey page) const {
  MutexLock lock(mu_);
  auto it = page_versions_.find(page);
  return it == page_versions_.end() ? 0 : it->second.version;
}

void SimStore::BumpPageVersion(SimPageKey page) {
  MutexLock lock(mu_);
  ++page_versions_[page].version;
}

bool SimStore::ValidateAndBump(
    const std::map<SimPageKey, uint64_t>& observed, int node) {
  occ_validations_.Inc();
  MutexLock lock(mu_);
  for (const auto& [page, version] : observed) {
    auto it = page_versions_.find(page);
    if (it == page_versions_.end()) continue;
    if (it->second.version != version && it->second.last_writer != node) {
      occ_aborts_.Inc();
      return false;
    }
  }
  for (const auto& [page, version] : observed) {
    PageState& state = page_versions_[page];
    ++state.version;
    state.last_writer = node;
  }
  return true;
}

void SimStore::ResetCounters() {
  row_reads_.Reset();
  row_writes_.Reset();
  occ_validations_.Reset();
  occ_aborts_.Reset();
}

bool SimLockTable::CanGrant(const Entry& e, uint64_t owner,
                            LockMode mode) const {
  for (const auto& [holder, held] : e.holders) {
    if (holder == owner) continue;
    if (LockModesConflict(held, mode)) return false;
  }
  return true;
}

Status SimLockTable::Acquire(uint64_t resource, uint64_t owner, LockMode mode,
                             uint64_t timeout_ms, bool charge_rpc) {
  if (charge_rpc) SimDelay(profile_.rpc_ns);
  UniqueLock lock(mu_);
  acquires_.Inc();
  Entry& e = locks_[resource];
  auto held = e.holders.find(owner);
  if (held != e.holders.end() &&
      (held->second == LockMode::kExclusive || held->second == mode)) {
    return Status::OK();
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  bool waited = false;
  while (!CanGrant(e, owner, mode)) {
    waited = true;
    ++e.waiters;
    const auto result = cv_.wait_until(lock, deadline);
    --e.waiters;
    if (result == std::cv_status::timeout && !CanGrant(e, owner, mode)) {
      if (e.holders.empty() && e.waiters == 0) locks_.erase(resource);
      return Status::Busy("baseline lock timeout");
    }
  }
  if (waited) waits_.Inc();
  auto& slot = e.holders[owner];
  slot = std::max(slot, mode);
  by_owner_[owner].insert(resource);
  return Status::OK();
}

void SimLockTable::ReleaseAll(uint64_t owner, bool charge_rpc) {
  if (charge_rpc) SimDelay(profile_.rpc_ns);
  MutexLock lock(mu_);
  auto it = by_owner_.find(owner);
  if (it == by_owner_.end()) return;
  for (uint64_t resource : it->second) {
    auto lit = locks_.find(resource);
    if (lit == locks_.end()) continue;
    lit->second.holders.erase(owner);
    if (lit->second.holders.empty() && lit->second.waiters == 0) {
      locks_.erase(lit);
    }
  }
  by_owner_.erase(it);
  cv_.notify_all();
}

}  // namespace polarmp
