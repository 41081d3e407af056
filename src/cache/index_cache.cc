#include "cache/index_cache.h"

#include <cstring>

#include "engine/btree.h"
#include "engine/page.h"

namespace polarmp {

IndexCache::IndexCache(NodeId node, Fabric* fabric,
                       BufferFusion* buffer_fusion, uint32_t page_size,
                       const Options& options)
    : node_(node),
      fabric_(fabric),
      buffer_fusion_(buffer_fusion),
      page_size_(page_size),
      options_(options),
      table_(options.slots) {
  if (!enabled()) return;
  slots_.reserve(options_.slots);
  for (uint32_t i = 0; i < options_.slots; ++i) {
    auto s = std::make_unique<Slot>(i);
    s->data = std::make_unique<char[]>(page_size_);
    slots_.push_back(std::move(s));
  }
  // polarlint: allow(raw-atomic) one-sided RDMA target (kCacheFlagsRegion)
  invalid_flags_.reset(new std::atomic<uint64_t>[options_.slots]);
  for (uint32_t i = 0; i < options_.slots; ++i) {
    invalid_flags_[i].store(0, std::memory_order_relaxed);
  }
  const Status s = fabric_->RegisterRegion(node_, kCacheFlagsRegion,
                                           invalid_flags_.get(),
                                           options_.slots * sizeof(uint64_t));
  POLARMP_CHECK(s.ok()) << s.ToString();
}

IndexCache::~IndexCache() {
  if (!enabled()) return;
  // polarlint: allow(status-defuse) teardown: the fabric may
  // already have dropped the endpoint; there is no caller to report to.
  (void)fabric_->DeregisterRegion(node_, kCacheFlagsRegion);
}

IndexCache::RouteResult IndexCache::Route(SpaceId space, int64_t key) {
  RouteResult result;  // starts at the root (page 0)
  if (!enabled()) return result;
  // Trees are shallow; 16 hops bounds the walk against any pathology.
  for (int depth = 0; depth < 16 && !result.leaf; ++depth) {
    PageNo child = kInvalidPageNo;
    bool to_leaf = false;
    if (!RouteHop(PageId{space, result.page_no}, key, &child, &to_leaf)) {
      break;
    }
    result.page_no = child;
    result.leaf = to_leaf;
    ++result.levels_skipped;
  }
  return result;
}

bool IndexCache::RouteHop(PageId page, int64_t key, PageNo* child,
                          bool* to_leaf) {
  // A refresh consumes one attempt and revalidates; bounded so a flag that
  // keeps getting re-set (hot remote writer) degrades to the guarded path
  // instead of spinning.
  for (int attempt = 0; attempt < 4; ++attempt) {
    Slot* slot = nullptr;
    bool refresh = false;
    {
      MutexLock lock(mu_);
      const uint32_t idx = table_.Lookup(page.Pack());
      if (idx == IndirectionTable::kNoSlot) {
        misses_.Inc();
        return false;
      }
      slot = slots_[idx].get();
      slot->last_used = ++tick_;
      refresh = invalid_flags_[idx].load(std::memory_order_acquire) != 0;
      // Latch under mu_ (85 → 82): while any latch mode is held the
      // binding cannot change, because rebinding needs the exclusive
      // latch, which is likewise only acquired under mu_.
      if (refresh) {
        stale_rejects_.Inc();
        slot->latch.lock();
      } else {
        slot->latch.lock_shared();
      }
    }
    if (refresh) {
      Status st = Status::OK();
      // Another thread may have refreshed while we waited for the latch.
      if (invalid_flags_[slot->index].load(std::memory_order_acquire) != 0) {
        st = RefreshSlot(slot);
      }
      slot->latch.unlock();
      if (!st.ok()) return false;  // DSM unreachable: guarded path instead
      continue;                    // revalidate and route
    }
    Page image(slot->data.get(), page_size_);
    if (image.level() == 0) {
      // The refresh pulled a version from BEFORE the page became internal
      // (only possible for the root, whose level grows in place; the DBP
      // lags until the splitting node pushes). A leaf image cannot route;
      // miss to the guarded path — the eventual push re-flags the slot.
      slot->latch.unlock_shared();
      misses_.Inc();
      return false;
    }
    *child = BTree::RouteChild(image, key);
    *to_leaf = image.level() == 1;
    slot->latch.unlock_shared();
    hits_.Inc();
    return true;
  }
  return false;
}

Status IndexCache::RefreshSlot(Slot* slot) {
  // Clear-before-read: a push that lands after the clear re-flags the
  // slot, so a refresh can never mask a newer version. Reading a version
  // that is itself already stale (e.g. the local LBP holds a dirty, newer
  // image) is benign — stale routes land left of the key's home and the
  // B-link right-walk heals them.
  invalid_flags_[slot->index].store(0, std::memory_order_release);
  uint64_t seq = 0;
  one_sided_refreshes_.Inc();
  const Status s = buffer_fusion_->FetchPageVersioned(
      node_, slot->r_addr, slot->data.get(), &seq);
  if (!s.ok()) {
    invalid_flags_[slot->index].store(1, std::memory_order_release);
    return s;
  }
  if (seq == slot->seq) {
    refresh_unchanged_.Inc();
  } else {
    slot->seq = seq;
  }
  return Status::OK();
}

Status IndexCache::Install(PageId page, const char* bytes, uint8_t level) {
  if (!enabled() || level == 0) return Status::OK();
  UniqueLock lock(mu_);
  const uint32_t bound = table_.Lookup(page.Pack());
  if (bound != IndirectionTable::kNoSlot) {
    // Already bound: refresh the image in place. The caller holds the
    // page's PLock, so `bytes` is the page's CURRENT image — at least as
    // new as anything a one-sided refresh could have pulled (a lagging
    // DBP root may even have left an unroutable leaf-level image here;
    // this is what heals it). Clearing the flag is safe for the same
    // reason: any push that set it predates the caller's image.
    Slot* slot = slots_[bound].get();
    slot->latch.lock();
    slot->last_used = ++tick_;
    invalid_flags_[bound].store(0, std::memory_order_release);
    slot->seq = kUnknownSeq;
    lock.unlock();
    std::memcpy(slot->data.get(), bytes, page_size_);
    slot->latch.unlock();
    return Status::OK();
  }
  const auto backoff = not_in_dbp_.find(page.Pack());
  if (backoff != not_in_dbp_.end()) {
    // The page was not in the DBP last time; retrying RegisterCopy on
    // every descent would spend the RPC pair below for nothing. Visits
    // advance the clock so the backoff expires under pure-miss traffic
    // too (routes may never tick it forward).
    if (++tick_ - backoff->second < kRegisterBackoffTicks) {
      register_backoffs_.Inc();
      return Status::OK();
    }
    not_in_dbp_.erase(backoff);
  }
  const uint32_t idx = PickVictimLocked();
  Slot* slot = slots_[idx].get();
  // Exclusive latch under mu_ waits out in-flight routes through the
  // victim's old binding before it vanishes.
  slot->latch.lock();
  const uint64_t old_key = table_.PageAtSlot(idx);
  if (old_key != IndirectionTable::kNoPage) {
    table_.Unbind(idx);
    // Unregister under mu_: a concurrent Install of the same page cannot
    // register between the unbind and this unregister, so the unregister
    // can never erase a fresh registration and orphan its invalid flag
    // (which would silently lose invalidations).
    // polarlint: allow(status-defuse) best-effort eviction: a
    // failed unregister leaves a stale copy entry whose future
    // invalidations hit an unbound slot — harmless, and retrying under
    // mu_ would stall the read path.
    (void)buffer_fusion_->UnregisterCopy(node_, PageId::Unpack(old_key),
                                         kCacheFlagsRegion);
    evictions_.Inc();
  }
  auto reg = buffer_fusion_->RegisterCopy(node_, page, FlagOffset(idx),
                                          kCacheFlagsRegion);
  if (!reg.ok() || !reg.value().present) {
    // Without valid DBP content there is nothing to refresh against, so
    // the page is not cacheable right now. (By the caller contract the
    // page sits in the local LBP, whose load already pushed it, so the
    // !present case is rare.)
    if (reg.ok()) {
      // polarlint: allow(status-defuse) undo of a registration
      // we just made and will not use; a leak here only costs a stale
      // copy entry, and the caller already takes the uncached path.
      (void)buffer_fusion_->UnregisterCopy(node_, page, kCacheFlagsRegion);
      // Keep the backoff set bounded; internal pages number far fewer
      // than slots in any healthy tree, so a reset is essentially free.
      if (not_in_dbp_.size() >= options_.slots) not_in_dbp_.clear();
      not_in_dbp_[page.Pack()] = tick_;
    }
    slot->latch.unlock();
    return reg.ok() ? Status::OK() : reg.status();
  }
  invalid_flags_[idx].store(0, std::memory_order_release);
  slot->r_addr = reg.value().frame;
  slot->seq = kUnknownSeq;
  slot->last_used = ++tick_;
  table_.Bind(page.Pack(), idx);
  installs_.Inc();
  lock.unlock();
  // Bytes land under the exclusive latch with mu_ released; routes that
  // already found the new binding block on the latch until the image is
  // complete. The caller's PLock guarantees no remote push (and hence no
  // missed invalidation) races this copy.
  std::memcpy(slot->data.get(), bytes, page_size_);
  slot->latch.unlock();
  return Status::OK();
}

uint32_t IndexCache::PickVictimLocked() {
  uint32_t victim = 0;
  uint64_t oldest = UINT64_MAX;
  for (uint32_t i = 0; i < slots_.size(); ++i) {
    if (table_.PageAtSlot(i) == IndirectionTable::kNoPage) return i;
    if (slots_[i]->last_used < oldest) {
      oldest = slots_[i]->last_used;
      victim = i;
    }
  }
  return victim;
}

void IndexCache::NotePushed(PageId page) {
  if (!enabled()) return;
  MutexLock lock(mu_);
  not_in_dbp_.erase(page.Pack());
}

void IndexCache::InvalidateLocal(PageId page) {
  if (!enabled()) return;
  MutexLock lock(mu_);
  const uint32_t idx = table_.Lookup(page.Pack());
  if (idx == IndirectionTable::kNoSlot) return;
  invalid_flags_[idx].store(1, std::memory_order_release);
  local_invalidations_.Inc();
}

void IndexCache::DropAll() {
  if (!enabled()) return;
  MutexLock lock(mu_);
  not_in_dbp_.clear();
  for (uint32_t i = 0; i < slots_.size(); ++i) {
    if (table_.PageAtSlot(i) == IndirectionTable::kNoPage) continue;
    // Exclusive latch waits out in-flight routes before the binding goes.
    slots_[i]->latch.lock();
    table_.Unbind(i);
    invalid_flags_[i].store(0, std::memory_order_relaxed);
    slots_[i]->latch.unlock();
  }
}

}  // namespace polarmp
