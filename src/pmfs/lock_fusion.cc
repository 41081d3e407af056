#include "pmfs/lock_fusion.h"

#include <algorithm>
#include <chrono>

#include "obs/trace.h"

namespace polarmp {

void LockFusion::AddNode(NodeId node, NegotiateHandler handler) {
  MutexLock lock(mu_);
  nodes_[node] = std::move(handler);
}

void LockFusion::RemoveNode(NodeId node) {
  std::vector<std::pair<PageId, NodeId>> to_negotiate;
  {
    MutexLock lock(mu_);
    nodes_.erase(node);
    for (auto& [key, entry] : plocks_) {
      // Exclusive holds become ghost holds until recovery replays the
      // node's log (see header comment); shared holds can go now.
      auto held = entry.holders.find(node);
      if (held != entry.holders.end() &&
          held->second == LockMode::kShared) {
        entry.holders.erase(held);
      }
      entry.negotiated.erase(node);
      for (auto& w : entry.queue) {
        if (w->node == node) w->failed = true;
      }
      std::vector<NodeId> targets;
      TryGrant(PageId::Unpack(key), &entry, &targets);
      for (NodeId t : targets) to_negotiate.emplace_back(PageId::Unpack(key), t);
    }
    // Row-lock waits originated by the crashed node's transactions die with
    // their worker threads.
    for (auto it = waits_by_waiter_.begin(); it != waits_by_waiter_.end();) {
      if (GTrxNode(it->first) == node) {
        it->second->done = true;
        it = waits_by_waiter_.erase(it);
      } else {
        ++it;
      }
    }
    // Waiters blocked on the crashed node's transactions are woken so they
    // re-examine the row; the locks clear once recovery rolls the
    // transactions back.
    for (auto it = waits_by_holder_.begin(); it != waits_by_holder_.end();) {
      if (GTrxNode(it->first) == node) {
        for (auto& w : it->second) w->done = true;
        it = waits_by_holder_.erase(it);
      } else {
        ++it;
      }
    }
    cv_.notify_all();
  }
  for (auto& [page, target] : to_negotiate) {
    NegotiateHandler handler;
    {
      MutexLock lock(mu_);
      auto it = nodes_.find(target);
      if (it == nodes_.end()) continue;
      handler = it->second;
    }
    handler(page);
  }
}

void LockFusion::ReleaseAllHolds(NodeId node) {
  std::vector<std::pair<PageId, NodeId>> to_negotiate;
  {
    MutexLock lock(mu_);
    for (auto it = plocks_.begin(); it != plocks_.end();) {
      PLockEntry& entry = it->second;
      entry.holders.erase(node);
      entry.negotiated.erase(node);
      std::vector<NodeId> targets;
      TryGrant(PageId::Unpack(it->first), &entry, &targets);
      for (NodeId t : targets) {
        to_negotiate.emplace_back(PageId::Unpack(it->first), t);
      }
      if (entry.holders.empty() && entry.queue.empty()) {
        it = plocks_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& [page, target] : to_negotiate) {
    NegotiateHandler handler;
    {
      MutexLock lock(mu_);
      auto it = nodes_.find(target);
      if (it == nodes_.end()) continue;
      handler = it->second;
    }
    handler(page);
  }
}

bool LockFusion::CanGrant(const PLockEntry& entry, const PLockWaiter& w) {
  for (const auto& [holder, mode] : entry.holders) {
    if (holder == w.node) continue;  // own hold never blocks an upgrade
    if (LockModesConflict(mode, w.mode)) return false;
  }
  return true;
}

void LockFusion::TryGrant(PageId page, PLockEntry* entry,
                          std::vector<NodeId>* negotiate_targets) {
  (void)page;
  bool granted_any = false;
  while (!entry->queue.empty()) {
    auto w = entry->queue.front();
    if (w->failed) {
      entry->queue.pop_front();
      continue;
    }
    if (!CanGrant(*entry, *w)) break;
    auto& held = entry->holders[w->node];  // inserts kShared(=0) if absent
    held = std::max(held, w->mode);
    // A grant resets negotiation state for this node: it is a fresh hold.
    entry->negotiated.erase(w->node);
    w->granted = true;
    entry->queue.pop_front();
    granted_any = true;
  }
  if (!entry->queue.empty()) {
    // Front waiter is blocked: ask every conflicting holder (once) to give
    // the lock back when its local references drain (§4.3.1 negotiation).
    const auto& front = *entry->queue.front();
    for (const auto& [holder, mode] : entry->holders) {
      if (holder == front.node) continue;
      if (!LockModesConflict(mode, front.mode)) continue;
      if (entry->negotiated[holder]) continue;
      entry->negotiated[holder] = true;
      negotiations_sent_.Inc();
      negotiate_targets->push_back(holder);
    }
  }
  if (granted_any) cv_.notify_all();
}

Status LockFusion::AcquirePLock(NodeId node, PageId page, LockMode mode,
                                uint64_t timeout_ms) {
  // One request id per logical call, reused across retransmits, so the
  // service can recognize a retry of an acquire it already executed.
  const uint64_t request_id =
      next_request_id_.fetch_add(1, std::memory_order_relaxed);
  return RetryTransient(fabric_, [&] {
    return AcquirePLockRpc(node, page, mode, timeout_ms, request_id);
  });
}

Status LockFusion::AcquirePLockRpc(NodeId node, PageId page, LockMode mode,
                                   uint64_t timeout_ms, uint64_t request_id) {
  POLARMP_RETURN_IF_ERROR(
      fabric_->InjectRpcFault(node, kPmfsEndpoint, FaultOp::kRpcRequest));
  if (auto hit = dedup_.Lookup(node, request_id)) {
    // Retransmit of an acquire that already executed (reply was lost):
    // replay the recorded outcome — one round trip, no second grant.
    fabric_->CountRpcDedupHit();
    fabric_->ChargeRpc(node, kPmfsEndpoint);
    return *hit;
  }
  const Status result = AcquirePLockImpl(node, page, mode, timeout_ms);
  dedup_.Record(node, request_id, result);
  POLARMP_RETURN_IF_ERROR(
      fabric_->InjectRpcFault(node, kPmfsEndpoint, FaultOp::kRpcReply));
  return result;
}

Status LockFusion::AcquirePLockImpl(NodeId node, PageId page, LockMode mode,
                                    uint64_t timeout_ms) {
  plock_acquire_rpcs_.Inc();
  // Request arrival to grant/timeout: the PLock wait time of §4.3.1
  // (covers the negotiate -> release -> grant round when contended).
  obs::TraceSpan span(&plock_wait_ns_);
  fabric_->ChargeRpc(node, kPmfsEndpoint);
  auto waiter = std::make_shared<PLockWaiter>();
  waiter->node = node;
  waiter->mode = mode;

  std::vector<NodeId> targets;
  {
    UniqueLock lock(mu_);
    PLockEntry& entry = plocks_[page.Pack()];
    auto held = entry.holders.find(node);
    if (held != entry.holders.end() &&
        (held->second == LockMode::kExclusive || held->second == mode)) {
      return Status::OK();  // already holds a sufficient mode
    }
    entry.queue.push_back(waiter);
    TryGrant(page, &entry, &targets);
  }
  for (NodeId t : targets) {
    NegotiateHandler handler;
    {
      MutexLock lock(mu_);
      auto it = nodes_.find(t);
      if (it == nodes_.end()) continue;
      handler = it->second;
    }
    handler(page);
  }

  UniqueLock lock(mu_);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (!waiter->granted && !waiter->failed) {
    if (cv_.wait_until(lock, deadline) == std::cv_status::timeout &&
        !waiter->granted && !waiter->failed) {
      // Withdraw the request; the grant logic skips failed waiters.
      waiter->failed = true;
      auto it = plocks_.find(page.Pack());
      std::string holders;
      if (it != plocks_.end()) {
        for (const auto& [h, m] : it->second.holders) {
          holders += std::to_string(h) +
                     (m == LockMode::kExclusive ? "X " : "S ");
        }
        std::vector<NodeId> more;
        TryGrant(page, &it->second, &more);
        // Timed-out path: skip extra negotiations; the next acquire retries.
      }
      POLARMP_LOG(Warn) << "PLock timeout: node " << node << " wanted "
                        << (mode == LockMode::kExclusive ? "X" : "S")
                        << " on page " << page.ToString() << "; holders: "
                        << holders;
      return Status::Busy("PLock timeout on page " + page.ToString());
    }
  }
  if (waiter->failed) {
    return Status::Unavailable("node removed while waiting for PLock");
  }
  return Status::OK();
}

Status LockFusion::ReleasePLock(NodeId node, PageId page, LockMode mode) {
  const uint64_t request_id =
      next_request_id_.fetch_add(1, std::memory_order_relaxed);
  return RetryTransient(fabric_, [&] {
    return ReleasePLockRpc(node, page, mode, request_id);
  });
}

Status LockFusion::ReleasePLockRpc(NodeId node, PageId page, LockMode mode,
                                   uint64_t request_id) {
  POLARMP_RETURN_IF_ERROR(
      fabric_->InjectRpcFault(node, kPmfsEndpoint, FaultOp::kRpcRequest));
  if (auto hit = dedup_.Lookup(node, request_id)) {
    // Without dedup a re-executed release would see "node does not hold
    // PLock" and turn a lost reply into a spurious NotFound.
    fabric_->CountRpcDedupHit();
    fabric_->ChargeRpc(node, kPmfsEndpoint);
    return *hit;
  }
  const Status result = ReleasePLockImpl(node, page, mode);
  dedup_.Record(node, request_id, result);
  POLARMP_RETURN_IF_ERROR(
      fabric_->InjectRpcFault(node, kPmfsEndpoint, FaultOp::kRpcReply));
  return result;
}

Status LockFusion::ReleasePLockImpl(NodeId node, PageId page,
                                    LockMode mode) {
  plock_release_rpcs_.Inc();
  fabric_->ChargeRpc(node, kPmfsEndpoint);
  std::vector<NodeId> targets;
  {
    MutexLock lock(mu_);
    auto it = plocks_.find(page.Pack());
    if (it == plocks_.end()) {
      return Status::NotFound("PLock entry missing: " + page.ToString());
    }
    PLockEntry& entry = it->second;
    const auto held = entry.holders.find(node);
    if (held == entry.holders.end()) {
      return Status::NotFound("node does not hold PLock: " + page.ToString());
    }
    // The node's queued upgrade was granted after it sent this release:
    // the X hold is newer than the S the node gave back, and the node
    // already counts on it. (The grant re-armed negotiation for it.)
    if (held->second > mode) return Status::OK();
    entry.holders.erase(held);
    entry.negotiated.erase(node);
    TryGrant(page, &entry, &targets);
    if (entry.holders.empty() && entry.queue.empty()) {
      plocks_.erase(it);
    }
  }
  for (NodeId t : targets) {
    NegotiateHandler handler;
    {
      MutexLock lock(mu_);
      auto hit = nodes_.find(t);
      if (hit == nodes_.end()) continue;
      handler = hit->second;
    }
    handler(page);
  }
  return Status::OK();
}

bool LockFusion::HoldsPLock(NodeId node, PageId page, LockMode mode) const {
  MutexLock lock(mu_);
  auto it = plocks_.find(page.Pack());
  if (it == plocks_.end()) return false;
  auto h = it->second.holders.find(node);
  if (h == it->second.holders.end()) return false;
  return h->second == LockMode::kExclusive || h->second == mode;
}

Status LockFusion::RegisterWait(GTrxId waiter, GTrxId holder) {
  POLARMP_CHECK_NE(waiter, holder);
  // Only the request leg is injected here: a wait registration mutates the
  // wait-for graph, and re-registering an already-registered waiter is a
  // protocol violation (the CHECK below), so retries are safe exactly when
  // the request was lost BEFORE execution. Reply loss is not modeled for
  // this verb — in the real system the registration rides the (idempotent)
  // ref-flag write's completion.
  return RetryTransient(fabric_, [&] {
    POLARMP_RETURN_IF_ERROR(fabric_->InjectRpcFault(
        GTrxNode(waiter), kPmfsEndpoint, FaultOp::kRpcRequest));
    return RegisterWaitImpl(waiter, holder);
  });
}

Status LockFusion::RegisterWaitImpl(GTrxId waiter, GTrxId holder) {
  fabric_->ChargeRpc(GTrxNode(waiter), kPmfsEndpoint);
  MutexLock lock(mu_);
  rlock_waits_.Inc();
  if (WaitChainReaches(holder, waiter)) {
    deadlocks_detected_.Inc();
    return Status::Aborted("deadlock: wait-for cycle detected");
  }
  POLARMP_CHECK_EQ(waits_by_waiter_.count(waiter), 0u)
      << "transaction already has a registered wait";
  auto wait = std::make_shared<TrxWait>();
  wait->waiter = waiter;
  wait->holder = holder;
  waits_by_waiter_[waiter] = wait;
  waits_by_holder_[holder].push_back(wait);
  return Status::OK();
}

bool LockFusion::WaitChainReaches(GTrxId from, GTrxId target) const {
  GTrxId cur = from;
  for (int depth = 0; depth < 256; ++depth) {
    if (cur == target) return true;
    auto it = waits_by_waiter_.find(cur);
    if (it == waits_by_waiter_.end()) return false;
    cur = it->second->holder;
  }
  // Pathologically deep chain: treat as a deadlock rather than risk a hang.
  return true;
}

Status LockFusion::AwaitHolder(GTrxId waiter, uint64_t timeout_ms) {
  obs::TraceSpan span(&rlock_wait_ns_);
  UniqueLock lock(mu_);
  auto it = waits_by_waiter_.find(waiter);
  if (it == waits_by_waiter_.end()) {
    return Status::OK();  // already notified and cleaned up
  }
  auto wait = it->second;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (!wait->done) {
    if (cv_.wait_until(lock, deadline) == std::cv_status::timeout &&
        !wait->done) {
      RemoveWaitLocked(waiter);
      return Status::Busy("row-lock wait timeout");
    }
  }
  RemoveWaitLocked(waiter);
  return Status::OK();
}

void LockFusion::CancelWait(GTrxId waiter) {
  fabric_->ChargeRpc(GTrxNode(waiter), kPmfsEndpoint);
  MutexLock lock(mu_);
  RemoveWaitLocked(waiter);
}

void LockFusion::RemoveWaitLocked(GTrxId waiter) {
  auto it = waits_by_waiter_.find(waiter);
  if (it == waits_by_waiter_.end()) return;
  auto wait = it->second;
  waits_by_waiter_.erase(it);
  auto hit = waits_by_holder_.find(wait->holder);
  if (hit != waits_by_holder_.end()) {
    auto& vec = hit->second;
    vec.erase(std::remove(vec.begin(), vec.end(), wait), vec.end());
    if (vec.empty()) waits_by_holder_.erase(hit);
  }
}

void LockFusion::NotifyTrxFinished(GTrxId holder) {
  fabric_->ChargeRpc(GTrxNode(holder), kPmfsEndpoint);
  MutexLock lock(mu_);
  auto it = waits_by_holder_.find(holder);
  if (it == waits_by_holder_.end()) return;
  for (auto& w : it->second) w->done = true;
  waits_by_holder_.erase(it);
  cv_.notify_all();
}

std::string LockFusion::DebugDump() const {
  MutexLock lock(mu_);
  std::string out = "LockFusion state:\n";
  for (const auto& [key, entry] : plocks_) {
    if (entry.queue.empty() && entry.holders.empty()) continue;
    out += "  page " + PageId::Unpack(key).ToString() + ": holders[";
    for (const auto& [h, m] : entry.holders) {
      out += std::to_string(h) + (m == LockMode::kExclusive ? "X" : "S") + " ";
    }
    out += "] queue[";
    for (const auto& w : entry.queue) {
      out += std::to_string(w->node) +
             (w->mode == LockMode::kExclusive ? "X" : "S") +
             (w->granted ? "(g)" : "") + (w->failed ? "(f)" : "") + " ";
    }
    out += "]\n";
  }
  for (const auto& [waiter, wait] : waits_by_waiter_) {
    out += "  rlock wait: " + std::to_string(waiter) + " -> " +
           std::to_string(wait->holder) +
           (wait->done ? " (done)" : "") + "\n";
  }
  return out;
}

void LockFusion::ResetCounters() {
  plock_acquire_rpcs_.Reset();
  plock_release_rpcs_.Reset();
  negotiations_sent_.Reset();
  rlock_waits_.Reset();
  deadlocks_detected_.Reset();
  plock_wait_ns_.Reset();
  rlock_wait_ns_.Reset();
}

}  // namespace polarmp
