#include "engine/plock_manager.h"

#include "rdma/rpc.h"

namespace polarmp {

Status PLockManager::Pin(PageId page, LockMode mode, uint64_t timeout_ms) {
  const uint64_t key = page.Pack();
  UniqueLock lock(mu_);
  for (;;) {
    Entry& e = entries_[key];
    if (e.releasing) {
      cv_.wait(lock);
      continue;
    }
    if (e.held && Sufficient(e.mode, mode)) {
      if (e.release_requested) {
        // Fusion fairness: a negotiated hold cannot grant locally; wait for
        // the release to complete, then acquire fresh behind the FIFO queue.
        if (e.refs == 0 && !e.acquiring) {
          // Nothing will trigger the release (the last Unpin predated the
          // negotiation); run it from here.
          e.releasing = true;
          ReleaseLocked(page);
        } else {
          cv_.wait(lock);
        }
        continue;
      }
      ++e.refs;
      local_grants_.Inc();
      return Status::OK();
    }
    if (e.acquiring) {
      cv_.wait(lock);
      continue;
    }
    if (e.held && !Sufficient(e.mode, mode) && e.refs == 0) {
      // Upgrade of an idle retained hold: give the weak mode back first.
      // Queuing an in-place upgrade while keeping the S hold deadlocks when
      // two nodes do it symmetrically (each X waits on the other's S); a
      // release-then-reacquire serializes cleanly through the FIFO queue.
      e.releasing = true;
      ReleaseLocked(page);
      continue;
    }
    // Fresh acquire or upgrade (refs held by peers) through Lock Fusion.
    e.acquiring = true;
    lock.unlock();
    const Status st = fusion_->AcquirePLock(node_, page, mode, timeout_ms);
    fusion_acquires_.Inc();
    lock.lock();
    Entry& e2 = entries_[key];  // may have rehashed
    e2.acquiring = false;
    cv_.notify_all();
    if (!st.ok()) {
      if (!e2.held && e2.refs == 0 && !e2.releasing &&
          !e2.release_requested) {
        entries_.erase(key);
      }
      return st;
    }
    e2.held = true;
    e2.mode = std::max(e2.mode, mode);
    ++e2.refs;
    return Status::OK();
  }
}

bool PLockManager::TryPinLocal(PageId page, LockMode mode) {
  MutexLock lock(mu_);
  auto it = entries_.find(page.Pack());
  if (it == entries_.end()) return false;
  Entry& e = it->second;
  if (!e.held || e.releasing || e.release_requested ||
      !Sufficient(e.mode, mode)) {
    return false;
  }
  ++e.refs;
  local_grants_.Inc();
  return true;
}

void PLockManager::Unpin(PageId page) {
  const uint64_t key = page.Pack();
  MutexLock lock(mu_);
  auto it = entries_.find(key);
  POLARMP_CHECK(it != entries_.end());
  Entry& e = it->second;
  POLARMP_CHECK_GT(e.refs, 0u);
  --e.refs;
  if (e.refs == 0 && (e.release_requested || !lazy_release_) &&
      !e.releasing) {
    if (!e.acquiring) {
      e.releasing = true;
      ReleaseLocked(page);
    } else if (e.held) {
      PartialReleaseLocked(page);
    }
  }
  cv_.notify_all();
}

void PLockManager::OnNegotiate(PageId page) {
  const uint64_t key = page.Pack();
  MutexLock lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return;  // already released
  Entry& e = it->second;
  e.release_requested = true;
  if (e.held && e.refs == 0 && !e.releasing) {
    if (!e.acquiring) {
      e.releasing = true;
      ReleaseLocked(page);
    } else {
      PartialReleaseLocked(page);
    }
  }
}

Status PLockManager::ForceRelease(PageId page) {
  const uint64_t key = page.Pack();
  MutexLock lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return Status::OK();
  Entry& e = it->second;
  if (!e.held) {
    if (e.acquiring || e.releasing) {
      return Status::Busy("PLock entry busy");
    }
    entries_.erase(it);
    return Status::OK();
  }
  if (e.refs > 0 || e.acquiring || e.releasing) {
    return Status::Busy("PLock in use");
  }
  e.releasing = true;
  ReleaseLocked(page);
  return Status::OK();
}

void PLockManager::ReturnToFusion(PageId page, LockMode mode) {
  // Doorbell batch: the hook's dirty-push NotifyPush and the release RPC
  // ride one fabric operation.
  RpcBatch batch(fusion_->fabric(), node_, kPmfsEndpoint);
  if (before_release_) {
    const Status s = before_release_(page);
    if (!s.ok()) {
      POLARMP_LOG(Warn) << "before-release hook failed for page "
                        << page.ToString() << ": " << s.ToString();
    }
  }
  const Status s = fusion_->ReleasePLock(node_, page, mode);
  if (!s.ok() && !s.IsNotFound()) {
    POLARMP_LOG(Warn) << "PLock release failed for page " << page.ToString()
                      << ": " << s.ToString();
  }
}

void PLockManager::ReleaseLocked(PageId page) {
  negotiated_releases_.Inc();
  const LockMode mode = entries_[page.Pack()].mode;
  mu_.unlock();
  ReturnToFusion(page, mode);
  mu_.lock();
  entries_.erase(page.Pack());
  cv_.notify_all();
}

void PLockManager::PartialReleaseLocked(PageId page) {
  Entry& e = entries_[page.Pack()];
  e.releasing = true;
  const LockMode mode = e.mode;
  mu_.unlock();
  ReturnToFusion(page, mode);
  mu_.lock();
  Entry& e2 = entries_[page.Pack()];
  e2.releasing = false;
  // release_requested stays set: a negotiation for the upgraded hold may
  // have arrived while we released (fusion re-negotiates at the grant), and
  // clearing it would strand that hold. At worst the new hold is given
  // back once more eagerly.
  if (e2.acquiring) {
    // The queued acquire has not landed yet; we no longer hold anything.
    e2.held = false;
    e2.mode = LockMode::kShared;
  }
  // else: the queued acquire was granted while we released — its fresh
  // hold stands; leave it untouched.
  cv_.notify_all();
}

bool PLockManager::HeldLocally(PageId page, LockMode mode) const {
  MutexLock lock(mu_);
  auto it = entries_.find(page.Pack());
  if (it == entries_.end()) return false;
  return it->second.held && Sufficient(it->second.mode, mode);
}

std::string PLockManager::DebugDump() const {
  MutexLock lock(mu_);
  std::string out = "PLockManager node " + std::to_string(node_) + ":\n";
  for (const auto& [key, e] : entries_) {
    out += "  page " + PageId::Unpack(key).ToString() +
           " held=" + std::to_string(e.held) +
           " mode=" + (e.mode == LockMode::kExclusive ? "X" : "S") +
           " refs=" + std::to_string(e.refs) +
           " rel_req=" + std::to_string(e.release_requested) +
           " acq=" + std::to_string(e.acquiring) +
           " rel=" + std::to_string(e.releasing) + "\n";
  }
  return out;
}

void PLockManager::DropAll() {
  MutexLock lock(mu_);
  entries_.clear();
  cv_.notify_all();
}

}  // namespace polarmp
