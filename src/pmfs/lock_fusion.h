#ifndef POLARMP_PMFS_LOCK_FUSION_H_
#define POLARMP_PMFS_LOCK_FUSION_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/lock_rank.h"
#include "common/status.h"
#include "common/types.h"
#include "obs/metrics.h"
#include "rdma/fabric.h"
#include "rdma/retry_policy.h"

namespace polarmp {

// Lock Fusion (§4.3): the PMFS service implementing the two cross-node
// locking protocols.
//
//  * PLock (§4.3.1, Fig. 5) — node-granularity page locks guaranteeing
//    physical consistency. Lock Fusion tracks each lock's holders and a
//    FIFO waiter queue. Nodes retain released locks locally ("lazy
//    releasing"); when another node's request conflicts, Lock Fusion sends
//    the holder a *negotiation message* asking it to hand the lock back
//    once its local reference count drains.
//
//  * RLock (§4.3.2, Fig. 6) — row-lock metadata is embedded in the rows
//    themselves; Lock Fusion only keeps the wait-for relation. A blocked
//    transaction registers (waiter → holder), the holder's commit sends a
//    notification, and Lock Fusion wakes the waiters. The wait-for graph
//    also gives cross-node deadlock detection for free.
//
// All entry points charge one RPC on the fabric (callers are remote nodes).
class LockFusion {
 public:
  // Delivered to the holding node when another node wants a conflicting
  // PLock; the node must release once its reference count reaches zero.
  // Invoked WITHOUT LockFusion's internal mutex held; the handler may call
  // back into ReleasePLock.
  using NegotiateHandler = std::function<void(PageId page)>;

  explicit LockFusion(Fabric* fabric) : fabric_(fabric) {}

  LockFusion(const LockFusion&) = delete;
  LockFusion& operator=(const LockFusion&) = delete;

  // ---- node lifecycle -----------------------------------------------------
  void AddNode(NodeId node, NegotiateHandler handler);
  // Crash path: fails the node's waiters, clears its row-lock waits and
  // releases its SHARED holds. Exclusive holds are retained as "ghost"
  // holds: the crashed node may have logged changes to those pages that are
  // not yet in the DBP/storage, so other nodes must not touch them until
  // recovery has replayed the node's log and called ReleaseAllHolds.
  void RemoveNode(NodeId node);
  // Recovery-complete path: drops every remaining hold of `node` and grants
  // waiters.
  void ReleaseAllHolds(NodeId node);

  // ---- PLock ---------------------------------------------------------------
  // Blocks until granted. If the node already holds the page, the call is an
  // upgrade request (granted when no other node holds the page). Returns
  // Busy on timeout, Unavailable if the node was removed while waiting.
  //
  // Acquire/Release are NOT idempotent, so the client stub mints a request
  // id per logical call and retries injected transients with it; the
  // service keeps a per-client outcome window (RpcDedupCache) and replays
  // the recorded result for a retransmit whose original execution finished
  // (the lost-reply case) instead of granting twice.
  Status AcquirePLock(NodeId node, PageId page, LockMode mode,
                      uint64_t timeout_ms);
  // Gives back the node's hold, which the node holds in `mode` (called when
  // the local reference count is zero and a negotiation asked for the
  // page). If fusion has meanwhile granted the node a stronger mode — its
  // own upgrade, queued before the release was sent — that fresh hold is
  // kept: the release raced the grant and gives back nothing.
  Status ReleasePLock(NodeId node, PageId page, LockMode mode);

  // True if fusion records `node` as holding `page` at ≥ `mode`.
  bool HoldsPLock(NodeId node, PageId page, LockMode mode) const;

  // ---- RLock wait-for table -------------------------------------------------
  // Registers waiter→holder. Returns Aborted if the edge closes a cycle in
  // the wait-for graph (the requester is chosen as the deadlock victim).
  Status RegisterWait(GTrxId waiter, GTrxId holder);
  // Blocks until the holder finishes or timeout (Busy). Deregisters the
  // wait before returning. Must follow a successful RegisterWait.
  Status AwaitHolder(GTrxId waiter, uint64_t timeout_ms);
  // Deregisters without waiting (the waiter noticed the holder finished).
  void CancelWait(GTrxId waiter);
  // From a committing/rolling-back transaction whose TIT ref flag was set.
  void NotifyTrxFinished(GTrxId holder);

  // Human-readable dump of every held/contended PLock and wait edge
  // (deadlock forensics).
  std::string DebugDump() const;

  Fabric* fabric() const { return fabric_; }

  // ---- telemetry -------------------------------------------------------------
  // Thin shims over this instance's registry handles ("lock_fusion.*"
  // families). Safe to read lock-free from any thread; wait-time
  // distributions live in "lock_fusion.{plock,rlock}_wait_ns".
  uint64_t plock_acquire_rpcs() const { return plock_acquire_rpcs_.Value(); }
  uint64_t plock_release_rpcs() const { return plock_release_rpcs_.Value(); }
  uint64_t negotiations_sent() const { return negotiations_sent_.Value(); }
  uint64_t rlock_waits() const { return rlock_waits_.Value(); }
  uint64_t deadlocks_detected() const { return deadlocks_detected_.Value(); }
  void ResetCounters();

 private:
  struct PLockWaiter {
    NodeId node;
    LockMode mode;
    bool granted = false;
    bool failed = false;  // node removed while waiting
  };

  struct PLockEntry {
    std::map<NodeId, LockMode> holders;
    std::deque<std::shared_ptr<PLockWaiter>> queue;
    // Holders already sent a negotiation for the current conflict.
    std::map<NodeId, bool> negotiated;
  };

  struct TrxWait {
    GTrxId waiter;
    GTrxId holder;
    bool done = false;
  };

  // RPC wire layer: request-leg fault injection, dedup lookup, execution,
  // outcome recording, reply-leg fault injection. The public stubs retry
  // injected transients around these with the SAME request id.
  Status AcquirePLockRpc(NodeId node, PageId page, LockMode mode,
                         uint64_t timeout_ms, uint64_t request_id);
  Status ReleasePLockRpc(NodeId node, PageId page, LockMode mode,
                         uint64_t request_id);
  // Service bodies (the pre-fault-injection semantics, verbatim).
  Status AcquirePLockImpl(NodeId node, PageId page, LockMode mode,
                          uint64_t timeout_ms);
  Status ReleasePLockImpl(NodeId node, PageId page, LockMode mode);
  Status RegisterWaitImpl(GTrxId waiter, GTrxId holder);

  // Grants as many FIFO waiters as compatibility allows. Returns the pages'
  // holders that need (new) negotiation messages.
  void TryGrant(PageId page, PLockEntry* entry,
                std::vector<NodeId>* negotiate_targets) REQUIRES(mu_);
  static bool CanGrant(const PLockEntry& entry, const PLockWaiter& w);

  // True if starting from `from` the wait-for chain reaches `target`.
  bool WaitChainReaches(GTrxId from, GTrxId target) const REQUIRES(mu_);
  // Removes the waiter's edge from both indexes.
  void RemoveWaitLocked(GTrxId waiter) REQUIRES(mu_);

  Fabric* const fabric_;

  // Client-side request-id mint for the dedup-capable RPCs. Monotonic and
  // process-wide unique; never read back, so no ordering is needed.
  // polarlint: allow(raw-atomic) lock-free id mint, no associated state
  // polarlint: unguarded(atomic mint, independent of lock-fusion state)
  std::atomic<uint64_t> next_request_id_{1};
  // Service-side request-id -> outcome window (keyed by client node).
  // polarlint: unguarded(internally synchronized: own RankedMutex at kRpc)
  RpcDedupCache dedup_{"lock_fusion.dedup"};

  mutable RankedMutex mu_{LockRank::kPmfsService, "lock_fusion.state"};
  CondVar cv_;
  // key: PageId::Pack()
  std::unordered_map<uint64_t, PLockEntry> plocks_ GUARDED_BY(mu_);
  std::map<NodeId, NegotiateHandler> nodes_ GUARDED_BY(mu_);

  std::unordered_map<GTrxId, std::shared_ptr<TrxWait>> waits_by_waiter_
      GUARDED_BY(mu_);
  std::unordered_map<GTrxId, std::vector<std::shared_ptr<TrxWait>>>
      waits_by_holder_ GUARDED_BY(mu_);

  obs::Counter plock_acquire_rpcs_{"lock_fusion.plock_acquire_rpcs"};
  obs::Counter plock_release_rpcs_{"lock_fusion.plock_release_rpcs"};
  obs::Counter negotiations_sent_{"lock_fusion.negotiations_sent"};
  obs::Counter rlock_waits_{"lock_fusion.rlock_waits"};
  obs::Counter deadlocks_detected_{"lock_fusion.deadlocks_detected"};
  obs::LatencyHistogram plock_wait_ns_{"lock_fusion.plock_wait_ns"};
  obs::LatencyHistogram rlock_wait_ns_{"lock_fusion.rlock_wait_ns"};
};

}  // namespace polarmp

#endif  // POLARMP_PMFS_LOCK_FUSION_H_
