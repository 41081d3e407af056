#include "engine/mtr.h"

#include "rdma/rpc.h"

namespace polarmp {

Mtr::~Mtr() {
  POLARMP_CHECK(records_.empty() || committed_)
      << "mini-transaction destroyed with unpublished redo";
  for (Guard& g : guards_) ReleaseGuard(&g);
}

StatusOr<size_t> Mtr::Acquire(PageId page, LockMode mode, bool create,
                              bool virtual_lock) {
  POLARMP_CHECK_EQ(FindGuard(page), -1)
      << "page acquired twice in one mtr: " << page.ToString();
  // Doorbell batch: the PLock pin and the LBP miss's RPCs (the victim's
  // push notify and unregister, the RegisterCopy, a clean-load NotifyPush)
  // ride one fabric operation. The nested scope of a release that Pin runs
  // (ReturnToFusion) joins this one.
  RpcBatch batch(ctx_->lbp->fabric(), ctx_->node, kPmfsEndpoint);
  POLARMP_RETURN_IF_ERROR(
      ctx_->plock->Pin(page, mode, ctx_->plock_timeout_ms));
  Guard guard;
  guard.page = page;
  guard.mode = mode;
  guard.virtual_lock = virtual_lock;
  if (!virtual_lock) {
    auto handle = ctx_->lbp->GetPage(page, create);
    if (!handle.ok()) {
      ctx_->plock->Unpin(page);
      return handle.status();
    }
    guard.handle = handle.value();
    ctx_->lbp->Latch(guard.handle, mode);
    guard.latched = true;
  }
  guards_.push_back(guard);
  return guards_.size() - 1;
}

StatusOr<size_t> Mtr::GetPage(PageId page, LockMode mode) {
  return Acquire(page, mode, /*create=*/false, /*virtual_lock=*/false);
}

StatusOr<size_t> Mtr::CreatePage(PageId page) {
  return Acquire(page, LockMode::kExclusive, /*create=*/true,
                 /*virtual_lock=*/false);
}

StatusOr<size_t> Mtr::LockVirtual(PageId page) {
  return Acquire(page, LockMode::kExclusive, /*create=*/false,
                 /*virtual_lock=*/true);
}

int Mtr::FindGuard(PageId page) const {
  for (size_t i = 0; i < guards_.size(); ++i) {
    if (!guards_[i].released && guards_[i].page == page) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

Page Mtr::PageAt(size_t g) {
  Guard& guard = guards_[g];
  POLARMP_CHECK(!guard.released && !guard.virtual_lock);
  return Page(guard.handle.data, ctx_->lbp->page_size());
}

PageId Mtr::PageIdAt(size_t g) const { return guards_[g].page; }

void Mtr::ReleasePage(size_t g) {
  Guard& guard = guards_[g];
  POLARMP_CHECK(!guard.modified) << "cannot early-release a modified page";
  ReleaseGuard(&guard);
}

void Mtr::ReleaseGuard(Guard* guard) {
  if (guard->released) return;
  if (guard->latched) {
    ctx_->lbp->Unlatch(guard->handle, guard->mode);
    guard->latched = false;
  }
  if (guard->handle.valid()) {
    ctx_->lbp->Unpin(guard->handle);
  }
  ctx_->plock->Unpin(guard->page);
  if (guard->virtual_lock) {
    // Virtual (index) locks have no temporal-locality payoff and would
    // ghost-fence the whole tree if the node crashed while retaining them;
    // give them back to Lock Fusion eagerly. Busy (another local thread
    // already reacquiring) is fine.
    const Status s = ctx_->plock->ForceRelease(guard->page);
    if (!s.ok() && !s.IsBusy()) {
      POLARMP_LOG(Warn) << "virtual lock release failed: " << s.ToString();
    }
  }
  guard->released = true;
}

// Applies are recorded with llsn 0; Commit assigns the real LLSNs
// atomically with the buffer append (stream monotonicity, §4.4).
void Mtr::RecordFor(size_t g, LogRecord rec) {
  if (g != SIZE_MAX) {
    // A logged mutation is only safe under the guard's exclusive latch; the
    // static analysis cannot see which frame a guard latched (runtime
    // indirection), so assert the hold here — the choke point every page
    // mutation funnels through.
    Guard& guard = guards_[g];
    POLARMP_CHECK(guard.mode == LockMode::kExclusive);
    if (guard.latched) {
      ctx_->lbp->AssertLatched(guard.handle, LockMode::kExclusive);
    }
    guard.modified = true;
  }
  records_.push_back(std::move(rec));
  record_guard_.push_back(g);
}

Status Mtr::LogInitPage(size_t g, uint8_t level, PageNo prev, PageNo next) {
  Page page = PageAt(g);
  page.Init(guards_[g].page, level, prev, next);
  RecordFor(g, MakeInitPage(ctx_->node, 0, guards_[g].page, level, prev, next));
  return Status::OK();
}

Status Mtr::LogWriteRow(size_t g, Slice row_image) {
  Page page = PageAt(g);
  POLARMP_RETURN_IF_ERROR(page.WriteRow(row_image));
  RecordFor(g, MakeWriteRow(ctx_->node, 0, guards_[g].page,
                            row_image.ToString()));
  return Status::OK();
}

Status Mtr::LogRemoveRow(size_t g, int64_t key) {
  Page page = PageAt(g);
  POLARMP_RETURN_IF_ERROR(page.RemoveRow(key));
  RecordFor(g, MakeRemoveRow(ctx_->node, 0, guards_[g].page, key));
  return Status::OK();
}

Status Mtr::LogSetLinks(size_t g, PageNo prev, PageNo next) {
  Page page = PageAt(g);
  page.set_links(prev, next);
  RecordFor(g, MakeSetPageLinks(ctx_->node, 0, guards_[g].page, prev, next));
  return Status::OK();
}

Status Mtr::LogLoadRows(size_t g, std::string images) {
  Page page = PageAt(g);
  POLARMP_RETURN_IF_ERROR(page.LoadRows(images));
  RecordFor(g, MakeLoadRows(ctx_->node, 0, guards_[g].page,
                            std::move(images)));
  return Status::OK();
}

Status Mtr::LogTruncateRows(size_t g, int64_t from_key) {
  Page page = PageAt(g);
  page.TruncateFromKey(from_key);
  RecordFor(g, MakeTruncateRows(ctx_->node, 0, guards_[g].page, from_key));
  return Status::OK();
}

void Mtr::LogUndoAppend(uint64_t offset, std::string bytes) {
  RecordFor(SIZE_MAX, MakeUndoAppend(ctx_->node, 0, offset, std::move(bytes)));
}

Lsn Mtr::Commit() {
  POLARMP_CHECK(!committed_);
  committed_ = true;
  Lsn end_lsn = 0;
  if (!records_.empty()) {
    // Shared against checkpoints: a checkpoint's dirty-set snapshot sees
    // either none or all of this mtr (log append + dirty marks together).
    ReaderLock checkpoint_guard(*ctx_->commit_mu);
    {
      // LLSN assignment, page stamping and the buffer append are one
      // atomic step per node so the stream stays LLSN-monotone (§4.4) —
      // the invariant every LLSN_bound merge (recovery, standby) depends
      // on. The pages are still exclusively latched, so stamping is safe.
      MutexLock order_guard(*ctx_->llsn_order_mu);
      std::string encoded;
      for (size_t i = 0; i < records_.size(); ++i) {
        records_[i].llsn = ctx_->llsn->Advance();
        if (record_guard_[i] != SIZE_MAX) {
          PageAt(record_guard_[i]).set_llsn(records_[i].llsn);
        }
        records_[i].AppendTo(&encoded);
      }
      end_lsn = ctx_->log->AddEncoded(encoded);
      commit_start_lsn_ = end_lsn - encoded.size();
    }
    for (Guard& g : guards_) {
      if (g.modified) ctx_->lbp->MarkDirty(g.handle, end_lsn);
    }
  }
  for (Guard& g : guards_) ReleaseGuard(&g);
  return end_lsn;
}

}  // namespace polarmp
