#ifndef POLARMP_CACHE_INDEX_CACHE_H_
#define POLARMP_CACHE_INDEX_CACHE_H_

#include <atomic>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cache/indirection.h"
#include "common/lock_rank.h"
#include "obs/metrics.h"
#include "pmfs/buffer_fusion.h"

namespace polarmp {

// Compute-side cache of internal B-tree pages with version-validated
// one-sided refresh (the compute-local caching tier the RDMA-disaggregation
// literature argues for; see DESIGN.md "Compute-side caching").
//
// The cache holds ROUTING state only: images of internal pages (level >= 1)
// used to skip the per-level PLock pin + LBP access during descents. Leaf
// pages are never cached here — a leaf's latest version can live solely in
// another node's dirty LBP, and only the PLock negotiation forces that node
// to push it, so leaf access stays on the fully guarded path. Internal
// images may be stale without harming correctness: splits only move keys
// RIGHT (there are no merges), so a stale route lands at or left of the
// key's home leaf and the B-link right-walk in BTree::SearchLeaf heals it.
//
// Coherence: each slot registers with Buffer Fusion as a page copy under
// kCacheFlagsRegion, exactly like an LBP frame registers under
// kLbpFlagsRegion. A remote push one-sided-writes the slot's invalid flag;
// the next route through the slot sees the flag, rejects the stale image
// and refreshes it with a single version-validated Dsm::ReadSeqlocked from
// the page's stable DBP frame — no Buffer Fusion RPC, no PLock. The
// returned seqlock word doubles as a content version: refreshes that
// observe the install-time word are counted as spurious
// (index_cache.refresh_unchanged).
//
// Locking protocol (ranks descend on acquisition):
//   * mu_ (kIndexCache = 85) guards the indirection table and slot LRU
//     metadata. It is held across the Buffer Fusion un/register pair during
//     installs (kPmfsService = 70 < 85) so an eviction's UnregisterCopy can
//     never interleave with a concurrent re-registration of the same page
//     and orphan the fresh registration's invalid flag.
//   * Each slot's latch (kCacheSlot = 82) shields the slot's bytes and
//     r_addr/seq metadata. It is always ACQUIRED UNDER mu_ (85 → 82, legal)
//     and released after mu_; holding it in any mode keeps the slot's
//     binding stable, because rebinding requires the exclusive latch which
//     is likewise only acquired under mu_. Routes read under the shared
//     latch; refreshes and installs write under the exclusive latch.
//   * Latch holders never wait on mu_, so an installer blocking on a
//     victim's latch while holding mu_ cannot deadlock.
//   * Slot eviction is local to the cache: it never touches the page's
//     PLock (kPlock = 90 is never taken under a cache lock).
class IndexCache {
 public:
  struct Options {
    // Number of page slots. 0 disables the cache outright.
    uint32_t slots = 1024;
  };

  struct RouteResult {
    // Deepest page reachable through cached internal images for the key
    // (the tree root if nothing routed).
    PageNo page_no = 0;
    // True when page_no is a leaf (the last hop routed through a level-1
    // image; non-root pages never change level, so this is a guarantee,
    // not a guess).
    bool leaf = false;
    // Internal pages the guarded descent no longer needs to visit.
    uint32_t levels_skipped = 0;
  };

  // Slots hold page images of `page_size` bytes (the LBP's page size).
  IndexCache(NodeId node, Fabric* fabric, BufferFusion* buffer_fusion,
             uint32_t page_size, const Options& options);
  ~IndexCache();

  IndexCache(const IndexCache&) = delete;
  IndexCache& operator=(const IndexCache&) = delete;

  bool enabled() const { return options_.slots > 0; }

  // Routes `key` from the tree root (page 0 of `space`) down through cached
  // internal images. Stops at the first page with no valid cached image.
  // Never performs an RPC; flagged slots are refreshed with one one-sided
  // read each. Safe without any PLock: stale routes are healed by the
  // caller's B-link right-walk.
  RouteResult Route(SpaceId space, int64_t key);

  // Installs an internal page's image (page_size bytes). No-op for leaves,
  // for already-cached pages, and when disabled. CALLER CONTRACT: the
  // caller holds the page's PLock (any mode) and frame latch, and `bytes`
  // is the page's current image — the PLock is what guarantees no remote
  // push (and hence no missed invalidation) can race the registration.
  // (The slot-latch handoff across the mu_ release is invisible to the
  // static analysis; the dynamic rank checker still covers it.)
  Status Install(PageId page, const char* bytes,
                 uint8_t level) NO_THREAD_SAFETY_ANALYSIS;

  // The local node just pushed `page` to the DBP: the page is fetchable
  // now, so any not-in-DBP install backoff for it is retired. Wired to
  // BufferPool::SetNotePush by DbNode. Purely local — no fabric op.
  void NotePushed(PageId page);

  // Marks this node's own cached image of `page` stale (local SMO: the
  // split just rewrote the page in the LBP; the DBP copy is behind until
  // the dirty push, and the flag keeps routes from trusting our image
  // meanwhile). Purely local — no fabric op.
  void InvalidateLocal(PageId page);

  // Drops every binding (crash/stop). Local only: the server side is
  // cleaned up by BufferFusion::RemoveNode, which erases this node's
  // copies in every flag region.
  void DropAll() NO_THREAD_SAFETY_ANALYSIS;

  uint32_t page_size() const { return page_size_; }

  // Telemetry shims over this instance's registry handles ("index_cache.*").
  uint64_t hits() const { return hits_.Value(); }
  uint64_t misses() const { return misses_.Value(); }
  uint64_t installs() const { return installs_.Value(); }
  uint64_t evictions() const { return evictions_.Value(); }
  uint64_t stale_rejects() const { return stale_rejects_.Value(); }
  uint64_t one_sided_refreshes() const {
    return one_sided_refreshes_.Value();
  }
  uint64_t refresh_unchanged() const { return refresh_unchanged_.Value(); }
  uint64_t register_backoffs() const { return register_backoffs_.Value(); }

 private:
  // Install-time sentinel: the DBP seqlock word for our locally sourced
  // image is unknown until the first refresh observes one.
  static constexpr uint64_t kUnknownSeq = UINT64_MAX;

  // A page whose RegisterCopy came back !present (the DBP has no content —
  // typically a locally created split page that has not been pushed yet)
  // cannot be cached. Without a backoff every guarded descent through it
  // would burn the RegisterCopy/UnregisterCopy RPC pair again; instead the
  // page sits out this many ticks before the next attempt. Ticks advance
  // with cache activity (including backed-off visits), so the retry lands
  // soon after the page's eventual push makes it cacheable.
  static constexpr uint64_t kRegisterBackoffTicks = 1024;

  struct Slot {
    const uint32_t index;
    // polarlint: unguarded(written under the slot's exclusive latch, read
    // under the shared latch)
    std::unique_ptr<char[]> data;
    // polarlint: unguarded(slot-latch protocol, as data)
    DsmPtr r_addr;
    // polarlint: unguarded(slot-latch protocol, as data)
    uint64_t seq = kUnknownSeq;
    // polarlint: unguarded(guarded by IndexCache::mu_)
    uint64_t last_used = 0;
    // Shields bytes + r_addr/seq. Acquired only under mu_ (85 → 82).
    RankedSharedMutex latch{LockRank::kCacheSlot, "index_cache.slot"};

    explicit Slot(uint32_t idx) : index(idx) {}
  };

  // One routing hop: resolves `page` through the table, validates (or
  // refreshes) the slot and routes `key` through the image. Returns false
  // on a miss (no binding, refresh failure, or validation livelock). Same
  // latch-across-scope caveat as Install.
  bool RouteHop(PageId page, int64_t key, PageNo* child,
                bool* to_leaf) NO_THREAD_SAFETY_ANALYSIS;

  // Re-reads the slot's page from its DBP frame (one one-sided
  // seqlock-validated read). Slot exclusive latch held by the caller.
  Status RefreshSlot(Slot* slot);

  // Picks a free slot, else the LRU bound slot.
  uint32_t PickVictimLocked() REQUIRES(mu_);

  uint64_t FlagOffset(uint32_t idx) const { return idx * sizeof(uint64_t); }

  const NodeId node_;
  Fabric* const fabric_;
  BufferFusion* const buffer_fusion_;
  const uint32_t page_size_;
  const Options options_;

  mutable RankedMutex mu_{LockRank::kIndexCache, "index_cache.table"};
  IndirectionTable table_ GUARDED_BY(mu_);
  uint64_t tick_ GUARDED_BY(mu_) = 0;
  // packed PageId -> tick of the last !present RegisterCopy attempt.
  std::unordered_map<uint64_t, uint64_t> not_in_dbp_ GUARDED_BY(mu_);
  // Sized in the constructor and never resized; element state follows the
  // slot-latch protocol above.
  // polarlint: unguarded(vector frozen after construction)
  std::vector<std::unique_ptr<Slot>> slots_;
  // polarlint: allow(raw-atomic) one-sided RDMA target (kCacheFlagsRegion)
  // polarlint: unguarded(lock-free flag array; remote one-sided writes)
  std::unique_ptr<std::atomic<uint64_t>[]> invalid_flags_;

  obs::Counter hits_{"index_cache.hits"};
  obs::Counter misses_{"index_cache.misses"};
  obs::Counter installs_{"index_cache.installs"};
  obs::Counter evictions_{"index_cache.evictions"};
  obs::Counter stale_rejects_{"index_cache.stale_rejects"};
  obs::Counter one_sided_refreshes_{"index_cache.one_sided_refreshes"};
  obs::Counter refresh_unchanged_{"index_cache.refresh_unchanged"};
  obs::Counter local_invalidations_{"index_cache.local_invalidations"};
  obs::Counter register_backoffs_{"index_cache.register_backoffs"};
};

}  // namespace polarmp

#endif  // POLARMP_CACHE_INDEX_CACHE_H_
