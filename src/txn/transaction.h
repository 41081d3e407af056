#ifndef POLARMP_TXN_TRANSACTION_H_
#define POLARMP_TXN_TRANSACTION_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/lock_rank.h"
#include "engine/btree.h"
#include "engine/undo.h"
#include "obs/metrics.h"
#include "pmfs/lock_fusion.h"
#include "pmfs/transaction_fusion.h"
#include "txn/read_view.h"
#include "txn/tit.h"

namespace polarmp {

enum class TrxState : uint8_t {
  kActive,
  // Provisional CTS published, commit record buffered, the committer
  // waiting on its group force; TrxManager::FinishCommit moves it on.
  kCommitting,
  kCommitted,
  kRolledBack,
};

// A transaction executing on one node (PolarDB-MP never needs distributed
// transactions: every node sees all data, §1).
class Transaction {
 public:
  Transaction(TrxId local_id, GTrxId gid, IsolationLevel iso)
      : local_id_(local_id), gid_(gid), iso_(iso) {}

  TrxId local_id() const { return local_id_; }
  GTrxId gid() const { return gid_; }
  IsolationLevel isolation() const { return iso_; }
  TrxState state() const { return state_.load(std::memory_order_acquire); }
  Csn cts() const { return cts_; }

  const ReadView& view() const { return view_; }
  // view_.cts is written by the owner thread (RefreshView) while the
  // TrxManager background thread scans it for the minimum view, so the
  // cross-thread accesses go through std::atomic_ref.
  bool has_view() const { return view_cts() != kCsnInit; }
  Csn view_cts() const {
    return std::atomic_ref<Csn>(const_cast<Csn&>(view_.cts))
        .load(std::memory_order_acquire);
  }

  UndoPtr last_undo() const { return last_undo_; }
  // Owner-written, scanned by the background purge pass (atomic_ref, like
  // view_cts() and first_lsn()).
  uint64_t first_undo_offset() const {
    return std::atomic_ref<uint64_t>(const_cast<uint64_t&>(first_undo_offset_))
        .load(std::memory_order_acquire);
  }
  bool has_writes() const { return last_undo_ != kNullUndoPtr; }
  // LSN of the transaction's first redo byte (checkpoints must not pass it
  // while the transaction is active); 0 if it has not written. Written by
  // the owner thread, scanned by the background checkpoint pass — same
  // atomic_ref discipline as view_cts().
  Lsn first_lsn() const {
    return std::atomic_ref<Lsn>(const_cast<Lsn&>(first_lsn_))
        .load(std::memory_order_acquire);
  }

 private:
  friend class TrxManager;

  struct TouchedRow {
    PageId page;  // leaf the row lived on at write time (backfill hint)
    int64_t key;
    bool tombstone;
  };

  const TrxId local_id_;
  const GTrxId gid_;
  const IsolationLevel iso_;
  std::atomic<TrxState> state_{TrxState::kActive};
  ReadView view_;
  Csn cts_ = kCsnInit;

  UndoPtr last_undo_ = kNullUndoPtr;
  uint64_t first_undo_offset_ = UINT64_MAX;  // lowest undo offset written
  Lsn first_lsn_ = 0;
  std::vector<TouchedRow> touched_;
};

// Per-node transaction manager: TIT slot lifecycle, MVCC visibility
// (Algorithm 1), the embedded-row-lock write protocol (§4.3.2), the durable
// commit (CTS fetch → provisional publish → redo append → wait on the group
// force → post-force CTS → TIT publish → CTS backfill → waiter
// notification, all on the committing thread) and undo-based rollback.
// The background tick drives min-view reporting, TIT recycling and undo
// purge.
class TrxManager {
 public:
  struct Options {
    uint64_t lock_wait_timeout_ms = 2'000;
  };

  TrxManager(EngineContext* engine, Tit* tit, TsoClient* tso,
             TransactionFusion* txn_fusion, LockFusion* lock_fusion,
             UndoStore* undo, const Options& options);

  TrxManager(const TrxManager&) = delete;
  TrxManager& operator=(const TrxManager&) = delete;

  // Maps a tablespace to its tree so Rollback can route undo records.
  // Installed by DbNode before any transaction runs.
  void SetTreeResolver(std::function<BTree*(SpaceId)> resolver) {
    tree_resolver_ = std::move(resolver);
  }

  NodeId node() const { return engine_->node; }

  StatusOr<Transaction*> Begin(IsolationLevel iso);

  // Durable commit: fetches the CTS, publishes it provisionally, buffers the
  // commit record, waits for the group force that covers it, then
  // finalizes (FinishCommit) — all on the calling thread. Returns once the
  // commit is durable and visible. On a non-OK return the transaction is
  // back in kActive and the caller must Rollback it (Session does).
  Status Commit(Transaction* trx);

  Status Rollback(Transaction* trx);
  // After Commit/Rollback the pointer stays valid until Release; callers
  // must not touch it afterwards.
  void Release(Transaction* trx);

  // ---- row operations (engine-facing; Session wraps them) ----

  // Writes `value` (or a tombstone) for `key`, acquiring the embedded row
  // lock, emitting undo and redo. `must_not_exist` gives INSERT semantics
  // (AlreadyExists if a committed, non-deleted version exists).
  // On success *prev (if non-null) receives the previous committed version
  // (absent for fresh inserts), which callers use for GSI maintenance.
  // Errors: Aborted (deadlock victim), Busy (lock wait timeout), NotFound
  // (update/delete of a missing row — when `require_exists`).
  Status WriteRow(Transaction* trx, BTree* tree, int64_t key, Slice value,
                  bool tombstone, bool must_not_exist, bool require_exists,
                  std::optional<RowVersion>* prev);

  // MVCC point read. NotFound if no visible version (or visible tombstone).
  StatusOr<std::string> ReadRow(Transaction* trx, BTree* tree, int64_t key);

  // Locking point read (SELECT ... FOR UPDATE): acquires the embedded row
  // lock by re-publishing the current committed version under this
  // transaction's gid (regular kUpdate undo restores it on rollback), then
  // returns that value. Unlike ReadRow this reads the LATEST committed
  // version, not the snapshot — which is the point: read-modify-write
  // cycles built on plain ReadRow lose updates under read committed (two
  // transactions read the same base, both write), while a ForUpdate read
  // serializes them on the row lock. Errors mirror WriteRow: Aborted
  // (deadlock victim / SI conflict), Busy (lock wait timeout), NotFound
  // (missing row or visible tombstone).
  StatusOr<std::string> ReadRowForUpdate(Transaction* trx, BTree* tree,
                                         int64_t key);

  // MVCC range scan: visible versions of rows with lo <= key <= hi.
  Status ScanRows(Transaction* trx, BTree* tree, int64_t lo, int64_t hi,
                  const std::function<bool(int64_t, const std::string&)>& fn);

  // Algorithm 1 (GetCTSForRow) generalized to any reconstructed version.
  Csn GetCtsForVersion(GTrxId g_trx, Csn row_cts) const;

  // Drives min-view reporting, TIT recycling and undo purge; called by the
  // node's background thread.
  void BackgroundTick();

  // Checkpoint gate: the lowest first-redo LSN among active writing
  // transactions (UINT64_MAX if none).
  Lsn OldestActiveFirstLsn() const;

  // Recovery: rolls back a pre-crash transaction identified by its gid and
  // last undo pointer, through the normal (logged, locked) engine path.
  Status RollbackRecovered(GTrxId gid, UndoPtr last_undo);

  // Crash support: forget all volatile transaction state. Callers quiesce
  // the node's sessions first.
  void DropAll();

  // Telemetry shims over this node's registry handles ("txn.*" counters;
  // the commit-path decomposition feeds "txn_fusion.commit*_ns").
  uint64_t purged_rows() const { return purged_rows_.Value(); }
  uint64_t lock_waits() const { return lock_waits_.Value(); }
  uint64_t deadlock_aborts() const { return deadlock_aborts_.Value(); }
  uint64_t backfilled_rows() const { return backfilled_rows_.Value(); }
  uint64_t backfill_skips() const { return backfill_skips_.Value(); }

 private:
  // Row-lock attempts (each after a wait on a holder) before Busy.
  static constexpr int kRowLockRetryLimit = 64;
  // Pages BackfillCts may step to past a row's write-time leaf. A commit's
  // own splits move a row one or two leaves right; the bound keeps a stale
  // hint from scanning the chain.
  static constexpr int kBackfillMaxHops = 8;

  // The version LockRow installs once it holds the row lock.
  struct NewVersion {
    Slice value;
    uint8_t flags = 0;
    bool write = true;  // false: the row already carries this gid; keep it
  };

  // The embedded-row-lock loop (§4.3.2) behind WriteRow and
  // ReadRowForUpdate: finds `key`'s leaf (splitting it if `need` bytes do
  // not fit), waits out a live holder (Fig. 6) with no page latch held,
  // applies the SI first-committer/first-updater-wins rule, then lets
  // `admit(const RowView* row, NewVersion* next)` judge the row (null when
  // absent) and pick the new version, which it writes under an undo record
  // and redo. A non-OK status from `admit` is returned as is.
  template <typename Admit>
  Status LockRow(Transaction* trx, BTree* tree, int64_t key, size_t need,
                 Admit&& admit);

  // Undoes `gid`'s changes newest first, from `last_undo` along the
  // transaction's undo chain, through the logged engine path; page
  // contention (Busy) is retried. Shared by Rollback and RollbackRecovered.
  Status UndoChain(GTrxId gid, UndoPtr last_undo);

  // Refreshes the statement view per the isolation level.
  Status RefreshView(Transaction* trx);

  // True if the transaction behind `g_trx` is still active (conservative on
  // unreachable owners).
  bool IsTrxActive(GTrxId g_trx) const;

  // Fig. 6 wait protocol. OK = holder finished, retry the row; Aborted =
  // deadlock victim; Busy = timeout.
  Status WaitForRowLock(Transaction* trx, GTrxId holder);

  // Reconstructs the newest version visible to `view`, starting from the
  // on-page row. Returns nullopt if no visible version exists.
  StatusOr<std::optional<RowVersion>> VisibleVersion(
      const Transaction* trx, const RowView& row) const;

  // Best-effort commit-time CTS backfill (§4.1) into the LBP-resident rows
  // the transaction wrote. A row a split moved off its write-time leaf is
  // followed right along the leaf chain (the B-link low-key rule of
  // BTree::SearchLeaf), and a leaf a root split turned internal is routed
  // down, for at most kBackfillMaxHops pages per row. Consecutive rows on
  // one page share one PLock pin and frame latch. Local only: pages are
  // taken with TryPinLocal + TryGetCached, so it issues no fabric op and
  // never blocks on a PLock; a row it cannot reach keeps kCsnInit and
  // readers resolve it through the TIT.
  void BackfillCts(Transaction* trx);

  // Second half of Commit, after the force returned `force_status`:
  // finalizes the CTS (fetched AFTER the force), publishes it, backfills
  // rows and wakes waiters. On a force error it re-activates the
  // transaction (or, for a crash drain, marks it rolled back) and returns
  // the error.
  Status FinishCommit(Transaction* trx, Csn provisional_cts,
                      Status force_status);

  // Physically removes `key`'s row if it is a globally-visible tombstone.
  Status PurgeRow(SpaceId space, int64_t key, Csn gmin);

  void FinishWaiters(Transaction* trx);

  EngineContext* const engine_;
  Tit* const tit_;
  TsoClient* const tso_;
  TransactionFusion* const txn_fusion_;
  LockFusion* const lock_fusion_;
  UndoStore* const undo_;
  const Options options_;
  // polarlint: unguarded(installed once by DbNode before transactions run)
  std::function<BTree*(SpaceId)> tree_resolver_;

  mutable RankedMutex mu_{LockRank::kTrxManager, "txn.active"};
  TrxId next_local_id_ GUARDED_BY(mu_) = 1;
  std::map<TrxId, std::unique_ptr<Transaction>> active_ GUARDED_BY(mu_);

  struct FinishedTrx {
    GTrxId gid;
    Csn recycle_after;          // recycle when global min view exceeds this
    uint64_t first_undo_offset;  // UINT64_MAX if no undo
    uint64_t end_undo_offset;    // undo head when the trx finished
  };
  std::vector<FinishedTrx> finished_ GUARDED_BY(mu_);

  // Tombstone purge queue: rows deleted by committed transactions become
  // physically removable once globally visible (the row-level analogue of
  // TIT recycling; without it deleted rows would pin page space forever).
  struct PurgeCandidate {
    SpaceId space;
    int64_t key;
    Csn delete_cts;
  };
  std::vector<PurgeCandidate> purge_queue_ GUARDED_BY(mu_);
  obs::Counter purged_rows_{"txn.purged_rows"};

  obs::Counter lock_waits_{"txn.lock_waits"};
  obs::Counter deadlock_aborts_{"txn.deadlock_aborts"};
  // Commit-time backfill outcome per touched row: CTS written, or skipped
  // (PLock not held locally, page not cached, or row not found).
  obs::Counter backfilled_rows_{"txn.backfilled_rows"};
  obs::Counter backfill_skips_{"txn.backfill_skips"};
  obs::Counter commits_{"txn_fusion.commits"};
  // All committed transactions INCLUDING read-only ones (which skip the
  // commit pipeline above). Benches derive fabric_ops_per_txn from this.
  obs::Counter all_commits_{"trx.commits"};

  // Commit-path segments, all on the committer thread: enqueue (CTS fetch
  // + provisional publish + record append), log (the wait on the group
  // force), finalize (post-force CTS fetch + TIT publish + backfill +
  // waiter wakeup), and the whole path. The TSO fetch keeps its own
  // sub-segment.
  obs::LatencyHistogram commit_ns_{"txn_fusion.commit_ns"};
  obs::LatencyHistogram commit_tso_ns_{"txn_fusion.commit_tso_ns"};
  obs::LatencyHistogram commit_enqueue_ns_{"txn_fusion.commit_enqueue_ns"};
  obs::LatencyHistogram commit_log_ns_{"txn_fusion.commit_log_ns"};
  obs::LatencyHistogram commit_finalize_ns_{"txn_fusion.commit_finalize_ns"};
};

}  // namespace polarmp

#endif  // POLARMP_TXN_TRANSACTION_H_
