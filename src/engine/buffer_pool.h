#ifndef POLARMP_ENGINE_BUFFER_POOL_H_
#define POLARMP_ENGINE_BUFFER_POOL_H_

#include <atomic>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/lock_rank.h"
#include "engine/page.h"
#include "obs/metrics.h"
#include "pmfs/buffer_fusion.h"
#include "wal/llsn.h"

namespace polarmp {

// Local buffer pool (LBP, §4.2 Fig. 4): each frame carries the paper's two
// extra metadata fields — a `valid` flag (here an invalid flag so Buffer
// Fusion can set it with a one-sided write; the flags array is the node's
// kLbpFlagsRegion) and `r_addr`, the page's DBP frame address.
//
// Callers must hold the page's PLock before touching a page here; that is
// what makes the invalid flag stable during access (a remote push — the
// only writer of the flag — requires the X PLock this node would have to
// give up first).
//
// Invariant maintained with the PLock manager: a dirty frame implies this
// node holds the page's X PLock, so pushes to the DBP are always performed
// by the lock holder.
class BufferPool {
 public:
  struct Options {
    uint32_t frames = 1024;
  };

  // Handle to a pinned frame. Valid until Unpin.
  struct Handle {
    uint32_t frame = UINT32_MAX;
    char* data = nullptr;
    bool valid() const { return data != nullptr; }
  };

  BufferPool(NodeId node, Fabric* fabric, BufferFusion* buffer_fusion,
             PageStore* page_store, LlsnClock* llsn_clock,
             const Options& options);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  // WAL rule hook: forces the node's redo log up to the given LSN before a
  // dirty page leaves the node.
  void SetForceLog(std::function<Status(Lsn)> force_log) {
    force_log_ = std::move(force_log);
  }
  // Called after a page's content reaches the DBP (any push, clean or
  // dirty). The index cache uses it to retire its not-in-DBP install
  // backoff so the page becomes cacheable as soon as it is fetchable.
  void SetNotePush(std::function<void(PageId)> note_push) {
    note_push_ = std::move(note_push);
  }

  // Pins the page's frame, loading/refreshing content as needed:
  //   * cached + valid        → return it
  //   * cached + invalidated  → one-sided fetch from r_addr
  //   * absent                → RegisterCopy; fetch from DBP if present,
  //                             else storage read + push (clean load)
  // Caller must hold the PLock. `create` skips the load for brand-new pages
  // (B-tree page allocation); the caller formats and logs kInitPage.
  StatusOr<Handle> GetPage(PageId page_id, bool create);

  // Pins the frame only if the page is cached and valid; no loads, no RPCs.
  // Used by commit-time CTS backfill ("provided these rows are still in the
  // buffer", §4.1). Returns an invalid handle otherwise.
  Handle TryGetCached(PageId page_id);

  void Unpin(const Handle& handle);

  // Thread-level page latch (intra-node concurrency, §4.3.1: "internal page
  // concurrency control within a single node is still the same as before").
  // Which frame's latch is taken — and in which mode — is decided at
  // runtime, which the static analysis cannot follow; the crabbing handoff
  // is checked dynamically instead (Unlatch asserts the hold via the
  // rank-checker's held stack, and Mtr asserts it when guards transfer).
  void Latch(const Handle& handle, LockMode mode) NO_THREAD_SAFETY_ANALYSIS;
  void Unlatch(const Handle& handle, LockMode mode) NO_THREAD_SAFETY_ANALYSIS;

  // Crabbing/transfer assertion: dies unless this thread holds the frame's
  // latch (in any mode for kShared, exclusively for kExclusive).
  void AssertLatched(const Handle& handle, LockMode mode) const;

  // Marks the frame dirty with the LSN its redo is buffered at.
  void MarkDirty(const Handle& handle, Lsn newest_lsn);

  // Pushes the page to the DBP if dirty (forcing the log first) and marks
  // it clean. Used on negotiated PLock release and by checkpoints. No-op if
  // the page is not cached or not dirty.
  Status FlushPageForRelease(PageId page_id);

  // Drops the page's frame without flushing (crash simulation helper).
  void DropAll();

  // Checkpoint support: every dirty page currently cached.
  std::vector<PageId> DirtyPages() const;

  NodeId node() const { return node_; }
  uint32_t page_size() const { return page_size_; }
  Fabric* fabric() const { return fabric_; }

  // Telemetry shims over this instance's registry handles
  // ("buffer_pool.*").
  uint64_t hits() const { return hits_.Value(); }
  uint64_t dbp_fetches() const { return dbp_fetches_.Value(); }
  uint64_t storage_loads() const { return storage_loads_.Value(); }
  uint64_t invalid_refetches() const { return invalid_refetches_.Value(); }

 private:
  // Frame metadata is guarded by the pool-wide mu_ and by a per-frame
  // protocol (pins shield a frame from eviction; `installing` hands the
  // frame to a single loader with mu_ dropped; page bytes are additionally
  // serialized by `latch`). GUARDED_BY in a nested struct cannot name the
  // outer pool's mu_, so the fields carry lint escapes instead and the
  // protocol is enforced by the runtime checks.
  struct Frame {
    // polarlint: unguarded(bytes protected by pins+installing+latch protocol)
    std::unique_ptr<char[]> data;
    // polarlint: unguarded(guarded by BufferPool::mu_)
    PageId page_id;
    // polarlint: unguarded(guarded by BufferPool::mu_)
    bool used = false;
    // polarlint: unguarded(guarded by BufferPool::mu_)
    bool installing = false;  // load in progress; waiters block
    // polarlint: unguarded(written only by the installing loader)
    DsmPtr r_addr;
    // polarlint: unguarded(guarded by BufferPool::mu_)
    bool dirty = false;
    // polarlint: unguarded(guarded by BufferPool::mu_)
    Lsn newest_lsn = 0;
    // polarlint: unguarded(guarded by BufferPool::mu_)
    uint32_t pins = 0;
    // polarlint: unguarded(guarded by BufferPool::mu_)
    uint64_t last_used = 0;
    // Same-rank: a descent latches parent and child simultaneously
    // (crabbing); ordering among page latches comes from the B-tree
    // discipline, not the rank checker.
    RankedSharedMutex latch{LockRank::kPageLatch, "buffer_pool.page_latch",
                            SameRank::kAllow};
  };

  // Finds a victim frame (unpinned), evicting its current page. May drop
  // and reacquire mu_ while waiting for pins or evicting (invisible to the
  // static analysis; the contract is held-on-entry, held-on-exit). Returns
  // the frame index.
  StatusOr<uint32_t> AllocFrameLocked() REQUIRES(mu_);

  // Evicts frame `idx` (pins==0): flush if dirty, unregister the DBP copy.
  // The page's PLock stays with the node (lazy release, §4.3.1): only Lock
  // Fusion negotiation takes it away. Drops mu_ around the RPCs and
  // reacquires it before returning.
  //
  // Opens no doorbell scope of its own: a dirty victim's push notify and
  // the unregister join the caller's (Mtr::Acquire's RpcBatch), and so
  // does the new page's RegisterCopy, so a miss that evicts a clean frame
  // costs one PMFS round trip plus the one-sided page read. The unregister
  // completes before the frame is reused, so a later push of the old page
  // cannot set the frame's invalid flag.
  Status EvictLocked(uint32_t idx) REQUIRES(mu_);

  // Loads content into an installing frame. Called without mu_.
  Status LoadFrame(uint32_t idx, PageId page_id, bool create) EXCLUDES(mu_);

  // Pushes frame `idx`'s page to DBP (log force + seqlock write + notify).
  // Called without mu_; frame must be protected from concurrent writers
  // (pins drained or caller holds the only write path).
  Status PushFrame(uint32_t idx, bool clean_load) EXCLUDES(mu_);

  uint64_t FlagOffset(uint32_t idx) const { return idx * sizeof(uint64_t); }

  const NodeId node_;
  Fabric* const fabric_;
  BufferFusion* const buffer_fusion_;
  PageStore* const page_store_;
  LlsnClock* const llsn_clock_;
  const Options options_;
  const uint32_t page_size_;  // the page store's

  // polarlint: unguarded(installed once by DbNode before traffic)
  std::function<Status(Lsn)> force_log_;
  // polarlint: unguarded(installed once by DbNode before traffic)
  std::function<void(PageId)> note_push_;

  mutable RankedMutex mu_{LockRank::kBufferPool, "buffer_pool.frames"};
  CondVar cv_;
  // Sized in the constructor and never resized; the vector itself is
  // immutable after that, element state follows the Frame protocol above.
  // polarlint: unguarded(vector frozen after construction)
  std::vector<std::unique_ptr<Frame>> frames_;
  // polarlint: allow(raw-atomic) one-sided RDMA target (kLbpFlagsRegion)
  // polarlint: unguarded(lock-free flag array; remote one-sided writes)
  std::unique_ptr<std::atomic<uint64_t>[]> invalid_flags_;
  std::unordered_map<uint64_t, uint32_t> page_to_frame_ GUARDED_BY(mu_);
  uint64_t tick_ GUARDED_BY(mu_) = 0;

  obs::Counter hits_{"buffer_pool.hits"};
  obs::Counter dbp_fetches_{"buffer_pool.dbp_fetches"};
  obs::Counter storage_loads_{"buffer_pool.storage_loads"};
  obs::Counter invalid_refetches_{"buffer_pool.invalid_refetches"};
};

}  // namespace polarmp

#endif  // POLARMP_ENGINE_BUFFER_POOL_H_


