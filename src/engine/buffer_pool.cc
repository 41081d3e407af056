#include "engine/buffer_pool.h"

#include <cstring>

namespace polarmp {

namespace {
constexpr int kEvictionAttempts = 8;
}  // namespace

BufferPool::BufferPool(NodeId node, Fabric* fabric,
                       BufferFusion* buffer_fusion, PageStore* page_store,
                       LlsnClock* llsn_clock, const Options& options)
    : node_(node),
      fabric_(fabric),
      buffer_fusion_(buffer_fusion),
      page_store_(page_store),
      llsn_clock_(llsn_clock),
      options_(options),
      page_size_(page_store->page_size()),
      // polarlint: allow(raw-atomic) one-sided RDMA target (kLbpFlagsRegion)
      invalid_flags_(new std::atomic<uint64_t>[options.frames]) {
  frames_.reserve(options_.frames);
  for (uint32_t i = 0; i < options_.frames; ++i) {
    auto f = std::make_unique<Frame>();
    f->data = std::make_unique<char[]>(page_size_);
    frames_.push_back(std::move(f));
    invalid_flags_[i].store(0, std::memory_order_relaxed);
  }
  const Status s = fabric_->RegisterRegion(
      node_, kLbpFlagsRegion, invalid_flags_.get(),
      options_.frames * sizeof(uint64_t));
  POLARMP_CHECK(s.ok()) << s.ToString();
}

BufferPool::~BufferPool() {
  // polarlint: allow(status-defuse) teardown: the fabric may
  // already have dropped the endpoint; there is no caller to report to.
  (void)fabric_->DeregisterRegion(node_, kLbpFlagsRegion);
}

StatusOr<BufferPool::Handle> BufferPool::GetPage(PageId page_id, bool create) {
  const uint64_t key = page_id.Pack();
  UniqueLock lock(mu_);
  for (;;) {
    auto it = page_to_frame_.find(key);
    if (it != page_to_frame_.end()) {
      const uint32_t idx = it->second;
      Frame& f = *frames_[idx];
      if (f.installing) {
        cv_.wait(lock);
        continue;
      }
      ++f.pins;
      f.last_used = ++tick_;
      lock.unlock();
      if (invalid_flags_[idx].load(std::memory_order_acquire) != 0) {
        // Another node pushed a newer version while we held no PLock on the
        // page; fetch the latest from the DBP (Fig. 4 invalid + r_addr path).
        Status refetch = Status::OK();
        {
          WriterLock frame_latch(f.latch);
          if (invalid_flags_[idx].load(std::memory_order_acquire) != 0) {
            invalid_refetches_.Inc();
            // polarlint: allow(blocking-under-lock) the write latch is
            // per-frame and guards the very bytes this fetch fills; anyone
            // queued on it needs the fill to finish before their read is
            // worth anything. The pool mutex is already dropped here.
            refetch = buffer_fusion_->FetchPage(node_, f.r_addr, f.data.get());
            if (refetch.ok()) {
              invalid_flags_[idx].store(0, std::memory_order_release);
              llsn_clock_->Observe(Page::PeekLlsn(f.data.get()));
            }
          }
        }
        if (!refetch.ok()) {
          Unpin(Handle{idx, f.data.get()});
          return refetch;
        }
      } else {
        hits_.Inc();
      }
      return Handle{idx, f.data.get()};
    }

    POLARMP_ASSIGN_OR_RETURN(uint32_t idx, AllocFrameLocked());
    // The eviction inside AllocFrameLocked may have dropped mu_; someone
    // else could have installed the page meanwhile.
    if (page_to_frame_.count(key) != 0) {
      frames_[idx]->used = false;
      cv_.notify_all();
      continue;
    }
    Frame& f = *frames_[idx];
    f.used = true;
    f.installing = true;
    f.page_id = page_id;
    f.pins = 1;
    f.dirty = false;
    f.newest_lsn = 0;
    f.last_used = ++tick_;
    invalid_flags_[idx].store(0, std::memory_order_release);
    page_to_frame_[key] = idx;
    lock.unlock();

    const Status load = LoadFrame(idx, page_id, create);

    lock.lock();
    f.installing = false;
    cv_.notify_all();
    if (!load.ok()) {
      page_to_frame_.erase(key);
      f.used = false;
      f.pins = 0;
      return load;
    }
    return Handle{idx, f.data.get()};
  }
}

Status BufferPool::LoadFrame(uint32_t idx, PageId page_id, bool create) {
  Frame& f = *frames_[idx];
  POLARMP_ASSIGN_OR_RETURN(
      BufferFusion::RegisterResult reg,
      buffer_fusion_->RegisterCopy(node_, page_id, FlagOffset(idx)));
  f.r_addr = reg.frame;
  if (create) {
    std::memset(f.data.get(), 0, page_size_);
    return Status::OK();
  }
  if (reg.present) {
    dbp_fetches_.Inc();
    POLARMP_RETURN_IF_ERROR(
        buffer_fusion_->FetchPage(node_, f.r_addr, f.data.get()));
  } else {
    storage_loads_.Inc();
    POLARMP_RETURN_IF_ERROR(page_store_->ReadPage(page_id, f.data.get()));
    // "Once loaded by a node, the page is registered to the DBP and
    // remotely written to it" (§4.2).
    POLARMP_RETURN_IF_ERROR(PushFrame(idx, /*clean_load=*/true));
  }
  llsn_clock_->Observe(Page::PeekLlsn(f.data.get()));
  return Status::OK();
}

Status BufferPool::PushFrame(uint32_t idx, bool clean_load) {
  Frame& f = *frames_[idx];
  if (!clean_load) {
    // WAL rule (§4.2/§4.4): logs covering the page reach storage before the
    // page can leave this node.
    POLARMP_RETURN_IF_ERROR(force_log_(f.newest_lsn));
  }
  const Llsn llsn = Page::PeekLlsn(f.data.get());
  POLARMP_RETURN_IF_ERROR(
      buffer_fusion_->PushPage(node_, f.r_addr, f.data.get()));
  POLARMP_RETURN_IF_ERROR(
      buffer_fusion_->NotifyPush(node_, f.page_id, llsn, clean_load));
  if (note_push_) note_push_(f.page_id);
  return Status::OK();
}

StatusOr<uint32_t> BufferPool::AllocFrameLocked() {
  for (int attempt = 0; attempt < kEvictionAttempts; ++attempt) {
    // Free frame?
    uint32_t victim = UINT32_MAX;
    uint64_t oldest = UINT64_MAX;
    for (uint32_t i = 0; i < frames_.size(); ++i) {
      Frame& f = *frames_[i];
      if (!f.used && !f.installing) return i;
      if (f.used && !f.installing && f.pins == 0 && f.last_used < oldest) {
        oldest = f.last_used;
        victim = i;
      }
    }
    if (victim == UINT32_MAX) {
      cv_.wait_for(mu_, std::chrono::milliseconds(10));
      continue;
    }
    const Status s = EvictLocked(victim);
    if (s.ok()) return victim;
    // Failed eviction (the dirty push or the unregister did not go
    // through): try another victim.
  }
  return Status::Internal("LBP exhausted: no evictable frame");
}

Status BufferPool::EvictLocked(uint32_t idx) {
  Frame& f = *frames_[idx];
  POLARMP_CHECK_EQ(f.pins, 0u);
  const PageId old_page = f.page_id;
  f.installing = true;
  const bool was_dirty = f.dirty;
  mu_.unlock();

  Status st = Status::OK();
  if (was_dirty) {
    st = PushFrame(idx, /*clean_load=*/false);
  }
  if (st.ok()) {
    st = buffer_fusion_->UnregisterCopy(node_, old_page);
  }

  mu_.lock();
  f.installing = false;
  cv_.notify_all();
  if (!st.ok()) return st;
  f.dirty = false;
  page_to_frame_.erase(old_page.Pack());
  f.used = false;
  return Status::OK();
}

BufferPool::Handle BufferPool::TryGetCached(PageId page_id) {
  MutexLock lock(mu_);
  auto it = page_to_frame_.find(page_id.Pack());
  if (it == page_to_frame_.end()) return Handle{};
  Frame& f = *frames_[it->second];
  if (f.installing) return Handle{};
  if (invalid_flags_[it->second].load(std::memory_order_acquire) != 0) {
    return Handle{};  // stale copy: pointless to backfill
  }
  ++f.pins;
  f.last_used = ++tick_;
  return Handle{it->second, f.data.get()};
}

void BufferPool::Unpin(const Handle& handle) {
  MutexLock lock(mu_);
  Frame& f = *frames_[handle.frame];
  POLARMP_CHECK_GT(f.pins, 0u);
  --f.pins;
  if (f.pins == 0) cv_.notify_all();
}

void BufferPool::Latch(const Handle& handle, LockMode mode) {
  Frame& f = *frames_[handle.frame];
  if (mode == LockMode::kExclusive) {
    f.latch.lock();
  } else {
    f.latch.lock_shared();
  }
}

void BufferPool::Unlatch(const Handle& handle, LockMode mode) {
  Frame& f = *frames_[handle.frame];
  if (mode == LockMode::kExclusive) {
    f.latch.unlock();
  } else {
    f.latch.unlock_shared();
  }
}

void BufferPool::AssertLatched(const Handle& handle, LockMode mode) const {
  const Frame& f = *frames_[handle.frame];
  if (mode == LockMode::kExclusive) {
    f.latch.AssertHeld();
  } else {
    f.latch.AssertAnyHeld();
  }
}

void BufferPool::MarkDirty(const Handle& handle, Lsn newest_lsn) {
  // The mini-transaction must still hold the frame exclusively: a dirty
  // marking outside the X latch could interleave with a concurrent push and
  // publish a torn page.
  frames_[handle.frame]->latch.AssertHeld();
  MutexLock lock(mu_);
  Frame& f = *frames_[handle.frame];
  f.dirty = true;
  if (newest_lsn > f.newest_lsn) f.newest_lsn = newest_lsn;
}

Status BufferPool::FlushPageForRelease(PageId page_id) {
  UniqueLock lock(mu_);
  for (;;) {
    auto it = page_to_frame_.find(page_id.Pack());
    if (it == page_to_frame_.end()) return Status::OK();
    Frame& f = *frames_[it->second];
    if (f.installing) {
      cv_.wait(lock);
      continue;
    }
    if (!f.dirty) return Status::OK();
    const uint32_t idx = it->second;
    ++f.pins;  // shield from eviction
    lock.unlock();

    // Shared latch keeps mini-transactions from mutating mid-push; the
    // dirty/clean transition happens under the same latch hold.
    f.latch.lock_shared();
    const Status st = PushFrame(idx, /*clean_load=*/false);
    if (st.ok()) {
      MutexLock relock(mu_);
      f.dirty = false;
    }
    f.latch.unlock_shared();

    lock.lock();
    POLARMP_CHECK_GT(f.pins, 0u);
    --f.pins;
    cv_.notify_all();
    return st;
  }
}

void BufferPool::DropAll() {
  MutexLock lock(mu_);
  page_to_frame_.clear();
  for (uint32_t i = 0; i < frames_.size(); ++i) {
    Frame& f = *frames_[i];
    f.used = false;
    f.installing = false;
    f.dirty = false;
    f.pins = 0;
    f.newest_lsn = 0;
    invalid_flags_[i].store(0, std::memory_order_relaxed);
  }
}

std::vector<PageId> BufferPool::DirtyPages() const {
  MutexLock lock(mu_);
  std::vector<PageId> out;
  for (const auto& f : frames_) {
    if (f->used && f->dirty) out.push_back(f->page_id);
  }
  return out;
}

}  // namespace polarmp
