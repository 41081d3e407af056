#include "txn/transaction.h"

#include "obs/trace.h"

#include <algorithm>
#include <thread>

namespace polarmp {

TrxManager::TrxManager(EngineContext* engine, Tit* tit, TsoClient* tso,
                       TransactionFusion* txn_fusion, LockFusion* lock_fusion,
                       UndoStore* undo, const Options& options)
    : engine_(engine),
      tit_(tit),
      tso_(tso),
      txn_fusion_(txn_fusion),
      lock_fusion_(lock_fusion),
      undo_(undo),
      options_(options) {}

StatusOr<Transaction*> TrxManager::Begin(IsolationLevel iso) {
  UniqueLock lock(mu_);
  const TrxId local_id = next_local_id_++;
  lock.unlock();
  auto gid_or = tit_->AllocSlot(node(), local_id);
  for (int attempt = 0; !gid_or.ok() && attempt < 64; ++attempt) {
    // TIT full: recycling lags the commit rate. Run the recycle pass
    // synchronously (report view, read global minimum, free slots) and
    // retry — the paper's background reclamation, on demand.
    BackgroundTick();
    gid_or = tit_->AllocSlot(node(), local_id);
    if (!gid_or.ok()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  POLARMP_ASSIGN_OR_RETURN(GTrxId gid, std::move(gid_or));
  auto trx = std::make_unique<Transaction>(local_id, gid, iso);
  trx->view_.own = gid;
  Transaction* ptr = trx.get();
  lock.lock();
  active_[local_id] = std::move(trx);
  return ptr;
}

Status TrxManager::RefreshView(Transaction* trx) {
  if (trx->iso_ == IsolationLevel::kSnapshotIsolation && trx->has_view()) {
    return Status::OK();  // snapshot fixed at first statement
  }
  POLARMP_ASSIGN_OR_RETURN(Csn cts, tso_->ReadTimestamp());
  std::atomic_ref<Csn>(trx->view_.cts).store(cts, std::memory_order_release);
  return Status::OK();
}

Csn TrxManager::GetCtsForVersion(GTrxId g_trx, Csn row_cts) const {
  // Algorithm 1.
  if (row_cts != kCsnInit) return row_cts;          // CTS already backfilled
  if (g_trx == kInvalidGTrxId) return kCsnMin;      // bulk-loaded row
  auto slot = tit_->ReadSlot(node(), g_trx);
  if (!slot.ok()) {
    // Owner unreachable (crashed): conservatively treat as active until its
    // recovery rolls the transaction back or republishes the TIT.
    return kCsnMax;
  }
  if (slot.value().version != GTrxVersion(g_trx)) {
    // Slot reused ⇒ the transaction committed and is globally visible.
    return kCsnMin;
  }
  if (slot.value().cts == kCsnInit) return kCsnMax;  // still active
  if (CsnIsProvisional(slot.value().cts)) {
    // In commit (CTS fetched, log force in flight). The committer finalizes
    // the slot with a CTS fetched AFTER its force, so every view that can
    // observe the provisional bit predates the final CTS and must not admit
    // the version — resolving as active is exact, not conservative.
    return kCsnMax;
  }
  return slot.value().cts;
}

bool TrxManager::IsTrxActive(GTrxId g_trx) const {
  return GetCtsForVersion(g_trx, kCsnInit) == kCsnMax;
}

StatusOr<std::optional<RowVersion>> TrxManager::VisibleVersion(
    const Transaction* trx, const RowView& row) const {
  RowVersion version = RowVersion::FromView(row);
  for (int depth = 0; depth < 4096; ++depth) {
    if (version.g_trx_id == trx->gid()) return std::optional(version);
    const Csn cts = GetCtsForVersion(version.g_trx_id, version.cts);
    if (cts != kCsnMax && trx->view().VisibleCts(cts)) {
      return std::optional(version);
    }
    if (version.undo_ptr == kNullUndoPtr) return std::optional<RowVersion>();
    auto rec_or = undo_->Read(node(), version.undo_ptr);
    if (!rec_or.ok()) {
      if (rec_or.status().IsNotFound()) {
        // The history this snapshot needs was purged (or its owner's
        // segment is gone): the classic "snapshot too old". Abort so the
        // client restarts with a fresh view — the row itself is intact.
        return Status::Aborted("snapshot too old: " +
                               std::string(rec_or.status().message()));
      }
      return rec_or.status();
    }
    UndoRecord rec = std::move(rec_or).value();
    if (rec.type == UndoType::kInsert) {
      // The row did not exist before this insert.
      return std::optional<RowVersion>();
    }
    version.g_trx_id = rec.prev_trx;
    version.cts = rec.prev_cts;
    version.undo_ptr = rec.prev_undo;
    version.flags = rec.prev_flags;
    version.value = std::move(rec.prev_value);
  }
  return Status::Internal("version chain too deep");
}

StatusOr<std::string> TrxManager::ReadRow(Transaction* trx, BTree* tree,
                                          int64_t key) {
  POLARMP_RETURN_IF_ERROR(RefreshView(trx));
  Mtr mtr(engine_);
  POLARMP_ASSIGN_OR_RETURN(BTree::LeafPos pos,
                           tree->SearchLeaf(&mtr, key, LockMode::kShared));
  if (!pos.found) return Status::NotFound("no row for key");
  Page leaf = mtr.PageAt(pos.guard);
  POLARMP_ASSIGN_OR_RETURN(RowView row, leaf.RowAt(pos.slot));
  POLARMP_ASSIGN_OR_RETURN(std::optional<RowVersion> version,
                           VisibleVersion(trx, row));
  mtr.Commit();
  if (!version.has_value() || version->tombstone()) {
    return Status::NotFound("no visible version");
  }
  return std::move(version->value);
}

Status TrxManager::ScanRows(
    Transaction* trx, BTree* tree, int64_t lo, int64_t hi,
    const std::function<bool(int64_t, const std::string&)>& fn) {
  POLARMP_RETURN_IF_ERROR(RefreshView(trx));
  Status inner = Status::OK();
  const Status scan = tree->ScanRange(lo, hi, [&](const RowView& row) {
    auto version = VisibleVersion(trx, row);
    if (!version.ok()) {
      inner = version.status();
      return false;
    }
    if (!version.value().has_value() || version.value()->tombstone()) {
      return true;
    }
    return fn(version.value()->key, version.value()->value);
  });
  POLARMP_RETURN_IF_ERROR(scan);
  return inner;
}

Status TrxManager::WaitForRowLock(Transaction* trx, GTrxId holder) {
  lock_waits_.Inc();
  // Fig. 6: (1) register the wait-for edge, (2) raise the holder's ref flag,
  // (3) re-check the holder (it may have finished between our row check and
  // the flag write), (4) block until notified. The register-before-recheck
  // order closes the missed-wakeup race.
  const Status reg = lock_fusion_->RegisterWait(trx->gid(), holder);
  if (reg.IsAborted()) {
    deadlock_aborts_.Inc();
    return reg;
  }
  POLARMP_RETURN_IF_ERROR(reg);
  // polarlint: allow(status-defuse) best-effort flag raise; the
  // IsTrxActive recheck below covers a failed write (we just wait longer)
  (void)tit_->SetRefRemote(node(), holder);
  if (!IsTrxActive(holder)) {
    lock_fusion_->CancelWait(trx->gid());
    return Status::OK();
  }
  return lock_fusion_->AwaitHolder(trx->gid(), options_.lock_wait_timeout_ms);
}

template <typename Admit>
Status TrxManager::LockRow(Transaction* trx, BTree* tree, int64_t key,
                           size_t need, Admit&& admit) {
  POLARMP_CHECK_EQ(trx->state_, TrxState::kActive);
  POLARMP_RETURN_IF_ERROR(RefreshView(trx));
  GTrxId waited_for = kInvalidGTrxId;
  for (int attempt = 0; attempt < kRowLockRetryLimit; ++attempt) {
    GTrxId conflict_holder = kInvalidGTrxId;
    {
      Mtr mtr(engine_);
      POLARMP_ASSIGN_OR_RETURN(BTree::LeafPos pos,
                               tree->SearchLeafForWrite(&mtr, key, need));
      std::optional<RowView> row;
      if (pos.found) {
        POLARMP_ASSIGN_OR_RETURN(row, mtr.PageAt(pos.guard).RowAt(pos.slot));
      }
      if (row.has_value() && row->g_trx_id != trx->gid()) {
        // A backfilled row CTS proves the writer committed even when its
        // TIT is unreachable; only unresolved rows consult the TIT.
        const Csn row_commit_cts = GetCtsForVersion(row->g_trx_id, row->cts);
        if (row_commit_cts == kCsnMax) {
          // Embedded row lock held by another live transaction (§4.3.2).
          conflict_holder = row->g_trx_id;
        } else if (trx->iso_ == IsolationLevel::kSnapshotIsolation &&
                   (!trx->view().VisibleCts(row_commit_cts) ||
                    row->g_trx_id == waited_for)) {
          // First-committer-wins under snapshot isolation: neither a write
          // nor a locking read may build on a version the snapshot cannot
          // have seen. The waited_for arm is first-UPDATER-wins: a holder
          // we blocked on overlapped this transaction in real time, so its
          // commit must conflict even when its published CTS predates our
          // view. Since the provisional-CTS protocol (see Commit) finalizes
          // slots with a post-force timestamp, overlapping committers
          // normally fail the VisibleCts arm already; this arm remains as a
          // backstop for the degraded path where the finalizing TSO fetch
          // failed and the slot kept its pre-force CTS.
          return Status::Aborted("write-write conflict (SI)");
        }
      }

      if (conflict_holder == kInvalidGTrxId) {
        NewVersion next;
        POLARMP_RETURN_IF_ERROR(
            admit(row.has_value() ? &*row : nullptr, &next));
        if (!next.write) return Status::OK();
        UndoRecord undo_rec;
        undo_rec.space = tree->space();
        undo_rec.key = key;
        undo_rec.trx = trx->gid();
        undo_rec.trx_prev = trx->last_undo();
        if (row.has_value()) {
          undo_rec.type =
              row->tombstone() ? UndoType::kDelete : UndoType::kUpdate;
          undo_rec.prev_trx = row->g_trx_id;
          undo_rec.prev_cts = row->cts;
          undo_rec.prev_undo = row->undo_ptr;
          undo_rec.prev_flags = row->flags;
          undo_rec.prev_value = row->value.ToString();
        } else {
          undo_rec.type = UndoType::kInsert;
        }
        POLARMP_ASSIGN_OR_RETURN(UndoStore::AppendResult undo_res,
                                 undo_->Append(node(), undo_rec));
        mtr.LogUndoAppend(undo_res.offset, undo_res.bytes);
        const std::string image = EncodeRow(key, trx->gid(), kCsnInit,
                                            undo_res.ptr, next.flags,
                                            next.value);
        POLARMP_RETURN_IF_ERROR(mtr.LogWriteRow(pos.guard, image));
        mtr.Commit();
        if (trx->first_lsn_ == 0) {
          std::atomic_ref<Lsn>(trx->first_lsn_)
              .store(mtr.commit_start_lsn(), std::memory_order_release);
        }
        trx->last_undo_ = undo_res.ptr;
        std::atomic_ref<uint64_t>(trx->first_undo_offset_)
            .store(std::min(trx->first_undo_offset_, undo_res.offset),
                   std::memory_order_release);
        trx->touched_.push_back(Transaction::TouchedRow{
            mtr.PageIdAt(pos.guard), key, (next.flags & kRowTombstone) != 0});
        return Status::OK();
      }
      // Conflict: fall through with all guards released (the Mtr destructor
      // runs now; never block on a row lock while holding page latches).
    }
    const Status wait = WaitForRowLock(trx, conflict_holder);
    if (!wait.ok()) return wait;
    waited_for = conflict_holder;
  }
  return Status::Busy("row lock did not converge");
}

Status TrxManager::WriteRow(Transaction* trx, BTree* tree, int64_t key,
                            Slice value, bool tombstone, bool must_not_exist,
                            bool require_exists,
                            std::optional<RowVersion>* prev) {
  return LockRow(
      trx, tree, key, kRowHeaderSize + value.size(),
      [&](const RowView* row, NewVersion* next) -> Status {
        if (row == nullptr) {
          if (require_exists) return Status::NotFound("no row for key");
        } else if (must_not_exist && !row->tombstone()) {
          return Status::AlreadyExists("key exists");
        } else if (require_exists && row->tombstone()) {
          return Status::NotFound("row deleted");
        }
        if (prev != nullptr) {
          *prev = row == nullptr || row->tombstone()
                      ? std::optional<RowVersion>()
                      : std::optional(RowVersion::FromView(*row));
        }
        next->value = value;
        next->flags = tombstone ? kRowTombstone : 0;
        return Status::OK();
      });
}

StatusOr<std::string> TrxManager::ReadRowForUpdate(Transaction* trx,
                                                   BTree* tree, int64_t key) {
  std::string value;
  // The lock image is the same size as the current row, so an in-place
  // rewrite always fits: the header size is only the split hint.
  POLARMP_RETURN_IF_ERROR(LockRow(
      trx, tree, key, kRowHeaderSize,
      [&](const RowView* row, NewVersion* next) -> Status {
        if (row == nullptr) return Status::NotFound("no row for key");
        if (row->tombstone()) return Status::NotFound("row deleted");
        // Copy out before the rewrite: row->value points into the page.
        value = row->value.ToString();
        // Already locked (or written) by this transaction: no new version.
        next->write = row->g_trx_id != trx->gid();
        next->value = value;
        next->flags = row->flags;
        return Status::OK();
      }));
  return value;
}

Status TrxManager::Commit(Transaction* trx) {
  POLARMP_CHECK_EQ(trx->state_, TrxState::kActive);
  if (!trx->has_writes()) {
    trx->state_ = TrxState::kCommitted;
    // Read-only: no row ever carries this gid; the slot can recycle now.
    tit_->FreeSlot(trx->gid());
    FinishWaiters(trx);
    all_commits_.Inc();
    return Status::OK();
  }
  commits_.Inc();
  all_commits_.Inc();
  obs::TraceSpan commit_span(&commit_ns_);
  obs::TraceSpan enqueue_span(&commit_enqueue_ns_);
  // 1. Commit timestamp from the TSO (one-sided RDMA fetch-add).
  obs::TraceSpan tso_span(&commit_tso_ns_);
  auto cts_or = tso_->CommitTimestamp();
  if (!cts_or.ok()) {
    tso_span.Cancel();
    enqueue_span.Cancel();
    commit_span.Cancel();
    // Nothing published, still kActive: the caller rolls back.
    return cts_or.status();
  }
  tso_span.Finish();
  const Csn cts = cts_or.value();
  // Mark the slot "in commit" BEFORE the force: views created from here on
  // resolve this transaction as active instead of reading around its
  // versions and later admitting its CTS (the SI commit-publication
  // lost-update window, DESIGN.md §6).
  tit_->PublishProvisionalCts(trx->gid(), cts);
  trx->state_.store(TrxState::kCommitting, std::memory_order_release);
  // 2. Durability: buffer the commit record and wait for the group force
  //    that covers it ("before committing a transaction, the corresponding
  //    redo logs are synchronized to the storage", §4.4). The flusher
  //    amortizes one storage append over every committer queued behind
  //    this target. The record carries the provisional CTS; recovery
  //    backfills rows with it.
  const Lsn end =
      engine_->log->Add({MakeTrxCommit(node(), trx->gid(), cts)});
  enqueue_span.Finish();
  obs::TraceSpan log_span(&commit_log_ns_);
  Status forced = engine_->log->ForceAsync(end).Wait();
  log_span.Finish();
  return FinishCommit(trx, cts, std::move(forced));
}

Status TrxManager::FinishCommit(Transaction* trx, Csn provisional_cts,
                                Status force_status) {
  if (!force_status.ok()) {
    // Crash drain (LogWriter::Abandon, Aborted): the buffer is gone and the
    // node is tearing down — record the outcome, touch no engine state.
    // Any other failure: nothing durable, nothing published beyond the
    // provisional CTS (which no reader ever admits). Re-activate so the
    // caller can undo the row images.
    trx->state_.store(force_status.IsAborted() ? TrxState::kRolledBack
                                               : TrxState::kActive,
                      std::memory_order_release);
    return force_status;
  }
  obs::TraceSpan finalize_span(&commit_finalize_ns_);
  // 3. Visibility: finalize the TIT slot with a CTS fetched AFTER the force.
  //    Every view that observed the provisional bit was created before this
  //    fetch, so the final CTS exceeds its view CTS and the transaction
  //    stays invisible to it forever — that is what makes the reader-side
  //    "provisional ⇒ active" resolution exact. If the TSO fails here the
  //    transaction is already durable: fall back to the provisional value,
  //    degrading to the seed's narrow window rather than losing the commit.
  Csn final_cts = provisional_cts;
  if (auto fts = tso_->CommitTimestamp(); fts.ok()) final_cts = fts.value();
  trx->cts_ = final_cts;
  tit_->PublishCts(trx->gid(), final_cts);
  trx->state_.store(TrxState::kCommitted, std::memory_order_release);
  // 4. Best-effort CTS backfill into still-buffered rows (§4.1).
  BackfillCts(trx);
  // 5. Wake cross-node waiters if any flagged themselves (§4.3.2).
  FinishWaiters(trx);
  finalize_span.Finish();
  // 6. Hand the slot to the recycler once globally visible; tombstoned
  //    rows join the purge queue for physical removal.
  MutexLock lock(mu_);
  finished_.push_back(FinishedTrx{trx->gid(), final_cts,
                                  trx->first_undo_offset(),
                                  undo_->head(node())});
  for (const auto& touched : trx->touched_) {
    if (touched.tombstone) {
      purge_queue_.push_back(
          PurgeCandidate{touched.page.space, touched.key, final_cts});
    }
  }
  return Status::OK();
}

void TrxManager::BackfillCts(Transaction* trx) {
  BufferPool* const lbp = engine_->lbp;
  PLockManager* const plock = engine_->plock;
  // The one page held (PLock pin + exclusive frame latch) at a time. Moving
  // on releases it before taking the next, so no two latches are ever held
  // together and no acquisition order arises.
  PageId held_id;
  BufferPool::Handle held;
  auto release = [&] {
    if (!held.valid()) return;
    lbp->Unlatch(held, LockMode::kExclusive);
    lbp->Unpin(held);
    plock->Unpin(held_id);
    held = BufferPool::Handle{};
  };
  auto acquire = [&](PageId id) {
    if (held.valid() && held_id == id) return true;
    release();
    if (!plock->TryPinLocal(id, LockMode::kExclusive)) return false;
    held = lbp->TryGetCached(id);
    if (!held.valid()) {
      plock->Unpin(id);
      return false;
    }
    lbp->Latch(held, LockMode::kExclusive);
    held_id = id;
    return true;
  };
  PageId prev_hint;
  for (const auto& touched : trx->touched_) {
    const int64_t key = touched.key;
    // Start at the held leaf when its first key is <= key (leaves partition
    // the key space and never merge, so the key's home is that leaf or
    // right of it) and either it covers the key or the previous row had
    // the same hint (rows a split moved off one leaf sit side by side, so
    // this walk continues where that row's ended). Otherwise start at the
    // hint (a no-op when it is held).
    bool from_held = false;
    if (held.valid()) {
      const Page page(held.data, lbp->page_size());
      from_held = held_id.space == touched.page.space && page.is_leaf() &&
                  page.nslots() > 0 && key >= page.KeyAt(0) &&
                  (key <= page.KeyAt(page.nslots() - 1) ||
                   prev_hint == touched.page);
    }
    prev_hint = touched.page;
    bool done = false;
    if (from_held || acquire(touched.page)) {
      for (int hop = 0;; ++hop) {
        Page page(held.data, lbp->page_size());
        PageNo next = kInvalidPageNo;
        if (!page.is_leaf()) {
          // A root split turned the write-time leaf internal.
          next = BTree::RouteChild(page, key);
        } else if (const int slot = page.FindSlot(key); slot >= 0) {
          auto row = page.RowAt(slot);
          if (row.ok() && row.value().g_trx_id == trx->gid()) {
            // Unlogged metadata refinement: after a crash the CTS is
            // re-derivable (TIT mismatch ⇒ visible to all), so no redo
            // needed.
            page.SetRowCts(slot, trx->cts_);
            done = true;
          }
          break;
        } else if (page.nslots() > 0 && key > page.KeyAt(page.nslots() - 1)) {
          // A split moved the row right. The next leaf is its home only if
          // its low key admits the key; a leaf that does not (or is empty)
          // ends the walk at its FindSlot miss below.
          next = page.next();
        }
        if (next == kInvalidPageNo || hop == kBackfillMaxHops ||
            !acquire(PageId{held_id.space, next})) {
          break;
        }
      }
    }
    (done ? backfilled_rows_ : backfill_skips_).Inc();
  }
  release();
}

void TrxManager::FinishWaiters(Transaction* trx) {
  if (tit_->ReadAndClearRef(trx->gid())) {
    lock_fusion_->NotifyTrxFinished(trx->gid());
  }
}

Status TrxManager::UndoChain(GTrxId gid, UndoPtr last_undo) {
  // Resolver for the tree a rolled-back record belongs to is installed by
  // DbNode (tree_resolver_); without writes there is nothing to undo.
  UndoPtr cursor = last_undo;
  while (cursor != kNullUndoPtr) {
    POLARMP_ASSIGN_OR_RETURN(UndoRecord rec, undo_->Read(node(), cursor));
    if (rec.trx != gid) {
      return Status::Corruption("undo chain crosses transactions");
    }
    BTree* tree = tree_resolver_(rec.space);
    if (tree == nullptr) {
      return Status::Internal("no tree for space " + std::to_string(rec.space));
    }
    // Rollback holds row locks other transactions wait on; transient page
    // contention (Busy) must be retried, never surfaced.
    for (int attempt = 0;; ++attempt) {
      const Status applied = [&]() -> Status {
        Mtr mtr(engine_);
        const size_t need = kRowHeaderSize + rec.prev_value.size();
        POLARMP_ASSIGN_OR_RETURN(BTree::LeafPos pos,
                                 tree->SearchLeafForWrite(&mtr, rec.key, need));
        if (rec.type == UndoType::kInsert) {
          if (pos.found) {
            POLARMP_RETURN_IF_ERROR(mtr.LogRemoveRow(pos.guard, rec.key));
          }
        } else {
          // Restore only while the row still carries `gid`: always true in
          // a live rollback (the row lock is held), false when a re-run of
          // recovery finds the row already restored.
          bool restore = true;
          if (pos.found) {
            auto row = mtr.PageAt(pos.guard).RowAt(pos.slot);
            restore = row.ok() && row.value().g_trx_id == gid;
          }
          if (restore) {
            const std::string image =
                EncodeRow(rec.key, rec.prev_trx, rec.prev_cts, rec.prev_undo,
                          rec.prev_flags, rec.prev_value);
            POLARMP_RETURN_IF_ERROR(mtr.LogWriteRow(pos.guard, image));
          }
        }
        mtr.Commit();
        return Status::OK();
      }();
      if (applied.ok()) break;
      if (!applied.IsBusy()) return applied;
      if (attempt > 0 && attempt % 16 == 0) {
        POLARMP_LOG(Warn) << "rollback of trx " << gid
                          << " retrying under contention: "
                          << applied.ToString();
      }
    }
    cursor = rec.trx_prev;
  }
  return Status::OK();
}

Status TrxManager::Rollback(Transaction* trx) {
  POLARMP_CHECK_EQ(trx->state_, TrxState::kActive);
  POLARMP_RETURN_IF_ERROR(UndoChain(trx->gid(), trx->last_undo()));
  if (trx->has_writes()) {
    engine_->log->Add({MakeTrxRollbackEnd(node(), trx->gid())});
  }
  trx->state_ = TrxState::kRolledBack;
  FinishWaiters(trx);
  // Gate recycling on the TSO value observed now: any reader that captured
  // one of this transaction's row images has a view below it.
  auto now = tso_->ReadTimestamp();
  MutexLock lock(mu_);
  finished_.push_back(FinishedTrx{trx->gid(), now.ok() ? now.value() : kCsnMax,
                                  trx->first_undo_offset(),
                                  undo_->head(node())});
  return Status::OK();
}

void TrxManager::Release(Transaction* trx) {
  MutexLock lock(mu_);
  auto it = active_.find(trx->local_id());
  // Already dropped (crash teardown raced the release): nothing to do.
  if (it == active_.end()) return;
  POLARMP_CHECK(it->second->state_ != TrxState::kActive)
      << "release of active transaction";
  active_.erase(it);
}

void TrxManager::BackgroundTick() {
  // 1. Report this node's minimum view (§4.1 "TIT recycle").
  Csn min_view = kCsnMax;
  {
    MutexLock lock(mu_);
    for (const auto& [id, trx] : active_) {
      if (trx->state_ == TrxState::kActive && trx->has_view()) {
        min_view = std::min(min_view, trx->view_cts());
      }
    }
  }
  if (min_view == kCsnMax) {
    // No active views: any future view will read the TSO at >= current, so
    // everything committed at or below the current value is globally
    // visible. Reporting current+1 lets the strict `<` recycle gate pass
    // for the newest commit while staying exact for rollback gating.
    auto now = tso_->ReadTimestamp();
    if (!now.ok()) return;
    min_view = now.value() + 1;
  }
  (void)txn_fusion_->ReportMinView(node(), min_view);

  // 2. Read the consolidated minimum (one-sided) and recycle.
  auto gmin_or = txn_fusion_->GlobalMinView(node());
  if (!gmin_or.ok()) return;
  const Csn gmin = gmin_or.value();

  uint64_t purge_to = UINT64_MAX;
  {
    MutexLock lock(mu_);
    for (const auto& [id, trx] : active_) {
      if (trx->first_undo_offset() != UINT64_MAX) {
        purge_to = std::min(purge_to, trx->first_undo_offset());
      }
    }
    auto it = finished_.begin();
    while (it != finished_.end()) {
      if (it->recycle_after < gmin) {
        tit_->FreeSlot(it->gid);
        it = finished_.erase(it);
      } else {
        if (it->first_undo_offset != UINT64_MAX) {
          purge_to = std::min(purge_to, it->first_undo_offset);
        }
        ++it;
      }
    }
  }
  // 3. Purge undo below every possibly-needed record.
  if (purge_to == UINT64_MAX) purge_to = undo_->head(node());
  (void)undo_->FreeUpTo(node(), purge_to);

  // 4. Physically remove tombstones that are visible-to-all (row GC).
  std::vector<PurgeCandidate> ready;
  {
    MutexLock lock(mu_);
    auto it = purge_queue_.begin();
    while (it != purge_queue_.end()) {
      if (it->delete_cts < gmin) {
        ready.push_back(*it);
        it = purge_queue_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (const PurgeCandidate& candidate : ready) {
    const Status s = PurgeRow(candidate.space, candidate.key, gmin);
    if (!s.ok() && !s.IsNotFound() && !s.IsBusy()) {
      POLARMP_LOG(Warn) << "tombstone purge failed: " << s.ToString();
    }
  }
}

Status TrxManager::PurgeRow(SpaceId space, int64_t key, Csn gmin) {
  BTree* tree = tree_resolver_(space);
  if (tree == nullptr) return Status::NotFound("no tree for space");
  Mtr mtr(engine_);
  POLARMP_ASSIGN_OR_RETURN(BTree::LeafPos pos,
                           tree->SearchLeaf(&mtr, key, LockMode::kExclusive));
  if (!pos.found) return Status::OK();  // already gone
  POLARMP_ASSIGN_OR_RETURN(RowView row, mtr.PageAt(pos.guard).RowAt(pos.slot));
  // Only remove if the row is STILL a tombstone whose delete is globally
  // visible (it may have been re-inserted, or deleted again more recently).
  if (!row.tombstone()) return Status::OK();
  const Csn cts = GetCtsForVersion(row.g_trx_id, row.cts);
  if (cts == kCsnMax || cts >= gmin) return Status::OK();
  POLARMP_RETURN_IF_ERROR(mtr.LogRemoveRow(pos.guard, key));
  mtr.Commit();
  purged_rows_.Inc();
  return Status::OK();
}

Lsn TrxManager::OldestActiveFirstLsn() const {
  MutexLock lock(mu_);
  Lsn oldest = UINT64_MAX;
  for (const auto& [id, trx] : active_) {
    // kCommitting still gates the checkpoint: its redo (commit record
    // included) may not be durable until the in-flight force lands.
    const TrxState state = trx->state_.load(std::memory_order_acquire);
    if ((state == TrxState::kActive || state == TrxState::kCommitting) &&
        trx->first_lsn() != 0) {
      oldest = std::min(oldest, trx->first_lsn());
    }
  }
  return oldest;
}

Status TrxManager::RollbackRecovered(GTrxId gid, UndoPtr last_undo) {
  POLARMP_RETURN_IF_ERROR(UndoChain(gid, last_undo));
  engine_->log->Add({MakeTrxRollbackEnd(node(), gid)});
  lock_fusion_->NotifyTrxFinished(gid);
  return Status::OK();
}

void TrxManager::DropAll() {
  MutexLock lock(mu_);
  active_.clear();
  finished_.clear();
}

}  // namespace polarmp
