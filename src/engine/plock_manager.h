#ifndef POLARMP_ENGINE_PLOCK_MANAGER_H_
#define POLARMP_ENGINE_PLOCK_MANAGER_H_

#include <atomic>
#include <functional>
#include <unordered_map>

#include "common/lock_rank.h"
#include "obs/metrics.h"
#include "pmfs/lock_fusion.h"

namespace polarmp {

// Node-side PLock cache implementing the paper's lazy releasing (§4.3.1,
// Fig. 5): "Instead of releasing its PLock back to Lock Fusion immediately
// after use, a node decreases the reference count ... If the same node
// needs to acquire the PLock again, and the requested lock type is not
// stronger than the currently held type, the PLock can be granted locally."
//
// When Lock Fusion sends a negotiation message (another node wants a
// conflicting mode), new local grants are refused — "it must communicate
// with Lock Fusion, which manages the granting of locks in FIFO order" —
// and the hold is released once the reference count drains, after the
// dirty page (if any) has been pushed to the DBP by the before-release
// hook. LBP eviction does not touch the hold: an evicted page's hold stays
// until negotiation (or node stop) takes it, so re-reading an evicted page
// is a local grant.
class PLockManager {
 public:
  // `lazy_release` enables the paper's lazy releasing (§4.3.1); disabling
  // it releases every PLock back to Lock Fusion as soon as its reference
  // count drains (the ablation baseline).
  PLockManager(NodeId node, LockFusion* fusion, bool lazy_release = true)
      : node_(node), fusion_(fusion), lazy_release_(lazy_release) {}

  PLockManager(const PLockManager&) = delete;
  PLockManager& operator=(const PLockManager&) = delete;

  // Pushes the page to the DBP if dirty; runs before the PLock goes back to
  // Lock Fusion.
  void SetBeforeRelease(std::function<Status(PageId)> hook) {
    before_release_ = std::move(hook);
  }

  // Acquires (or locally re-grants) the PLock and takes a reference.
  // CALLER RULE: do not hold a reference on `page` while requesting a
  // stronger mode for it (pick the final mode before pinning).
  Status Pin(PageId page, LockMode mode, uint64_t timeout_ms);

  // Takes a reference only if the lock is already held locally at a
  // sufficient mode with no pending negotiation; never contacts Lock
  // Fusion. Used by best-effort paths like commit-time CTS backfill.
  bool TryPinLocal(PageId page, LockMode mode);

  // Drops a reference; triggers the negotiated release when it drains.
  void Unpin(PageId page);

  // Lock Fusion negotiation callback (registered via LockFusion::AddNode).
  void OnNegotiate(PageId page);

  // Releases the node's hold entirely, pushing the page first if dirty.
  // Returns Busy if the page has references or an acquire in flight. For
  // holds not worth retaining: SMO virtual index locks and the table
  // bootstrap's root lock.
  Status ForceRelease(PageId page);

  bool HeldLocally(PageId page, LockMode mode) const;

  // Crash simulation: forget all local state (Lock Fusion's RemoveNode
  // drops the server side).
  void DropAll();

  // Human-readable dump of all local entries (deadlock forensics).
  std::string DebugDump() const;

  // Telemetry shims over this instance's registry handles ("plock.*").
  uint64_t local_grants() const { return local_grants_.Value(); }
  uint64_t fusion_acquires() const { return fusion_acquires_.Value(); }
  uint64_t negotiated_releases() const {
    return negotiated_releases_.Value();
  }

 private:
  struct Entry {
    bool held = false;
    LockMode mode = LockMode::kShared;
    uint32_t refs = 0;
    bool release_requested = false;
    bool acquiring = false;
    bool releasing = false;
  };

  static bool Sufficient(LockMode held, LockMode wanted) {
    return held == LockMode::kExclusive || held == wanted;
  }

  // Runs the release protocol for `page`. The entry must be held with
  // refs==0 and releasing already set to true. Drops mu_ around the hook
  // and the fusion RPC, reacquiring it before returning (invisible to the
  // static analysis; the contract is held-on-entry, held-on-exit).
  void ReleaseLocked(PageId page) REQUIRES(mu_);

  // Gives the held mode back to Lock Fusion while an acquire for a
  // stronger mode is still queued there: the entry survives (held=false)
  // so the acquiring thread keeps its bookkeeping. Without this, a
  // negotiated release requested while refs==0 and acquiring==true would
  // never run — the lazily-retained weak hold then deadlocks the fusion
  // FIFO (our own queued upgrade waits behind the waiter our hold blocks).
  // Same drop-and-reacquire shape as ReleaseLocked.
  void PartialReleaseLocked(PageId page) REQUIRES(mu_);

  // Pushes the page if dirty (the before-release hook), then gives the
  // node's hold, held in `mode`, back to Lock Fusion; both ride one
  // doorbell batch.
  void ReturnToFusion(PageId page, LockMode mode) EXCLUDES(mu_);

  const NodeId node_;
  LockFusion* const fusion_;
  const bool lazy_release_;
  // polarlint: unguarded(installed once by DbNode before traffic)
  std::function<Status(PageId)> before_release_;

  mutable RankedMutex mu_{LockRank::kPlock, "plock.entries"};
  CondVar cv_;
  std::unordered_map<uint64_t, Entry> entries_ GUARDED_BY(mu_);

  obs::Counter local_grants_{"plock.local_grants"};
  obs::Counter fusion_acquires_{"plock.fusion_acquires"};
  obs::Counter negotiated_releases_{"plock.negotiated_releases"};
};

}  // namespace polarmp

#endif  // POLARMP_ENGINE_PLOCK_MANAGER_H_
