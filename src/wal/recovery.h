#ifndef POLARMP_WAL_RECOVERY_H_
#define POLARMP_WAL_RECOVERY_H_

#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "engine/undo.h"
#include "pmfs/buffer_fusion.h"
#include "storage/log_store.h"
#include "storage/page_store.h"
#include "wal/log_record.h"

namespace polarmp {

struct RecoveryStats {
  uint64_t records_scanned = 0;
  uint64_t page_records_applied = 0;
  uint64_t page_records_skipped = 0;  // page LLSN already newer
  uint64_t undo_bytes_rebuilt = 0;
  uint64_t pages_from_dbp = 0;
  uint64_t pages_from_storage = 0;
  uint64_t committed_trxs = 0;
  uint64_t uncommitted_trxs = 0;
  uint64_t offline_rolled_back = 0;
};

// Crash recovery (§4.4).
//
// Redo replay follows the paper's chunked merge (wal/log_record.h): read one
// chunk from every participating node's log, compute LLSN_bound — the
// smallest last-read LLSN across the streams not yet at their end, which no
// remaining record can undershoot because each node's stream is
// LLSN-monotone — apply every record with llsn <= LLSN_bound, carry the
// rest into the next round. A record applies to its page iff the page's
// LLSN stamp is older, which makes replay idempotent and, combined with the
// bound, replays every page's records in generation order.
//
// Pages are sourced from the DBP when it survived (a node crash leaves the
// disaggregated memory intact — the §5.5 fast path) and from shared
// storage otherwise. kUndoAppend records rebuild the undo store before any
// rollback runs.
class Recovery {
 public:
  struct Options {
    // Endpoint charged for DBP page fetches (the recovering node).
    EndpointId reader = kPmfsEndpoint;
    // Replay kUndoAppend records into the undo store. A full restart needs
    // this (the store may be empty/lost); an online takeover must NOT — the
    // dead node's undo segment survived in DSM and survivors are concurrently
    // reading it, so rewriting identical bytes would only manufacture races.
    bool rebuild_undo = true;
  };

  // `buffer_fusion` may be null (full-cluster restart with DSM lost).
  Recovery(LogStore* log_store, PageStore* page_store, UndoStore* undo_store,
           BufferFusion* buffer_fusion, uint32_t page_size, Options options);
  Recovery(LogStore* log_store, PageStore* page_store, UndoStore* undo_store,
           BufferFusion* buffer_fusion, uint32_t page_size)
      : Recovery(log_store, page_store, undo_store, buffer_fusion, page_size,
                 Options()) {}

  Recovery(const Recovery&) = delete;
  Recovery& operator=(const Recovery&) = delete;

  struct UncommittedTrx {
    GTrxId gid = kInvalidGTrxId;
    UndoPtr last_undo = kNullUndoPtr;
  };

  // Phase 1+2: replays `nodes`' logs from their checkpoints and rebuilds
  // their undo segments. Returns the transactions that must be rolled back
  // (undo seen, no commit/rollback-end record).
  StatusOr<std::vector<UncommittedTrx>> RedoReplay(
      const std::vector<NodeId>& nodes);

  // Phase 3 (full-cluster restart only): applies undo chains directly to
  // the recovered pages, bypassing the live engine. Single-node restarts
  // use TrxManager::RollbackRecovered instead.
  Status OfflineRollback(const std::vector<UncommittedTrx>& trxs);

  // Phase 4a: writes every recovered page back (storage + DBP when
  // present) so the live engine / a re-run sees the recovered state.
  Status FlushPages();
  // Phase 4b: advances each node's durable checkpoint to its log end. For
  // single-node restarts this runs only after the live rollback completed
  // (its undo-append records must stay replayable until then).
  Status AdvanceCheckpoints(const std::vector<NodeId>& nodes);

  const RecoveryStats& stats() const { return stats_; }

 private:
  struct CachedPage {
    std::unique_ptr<char[]> data;
    bool dirty = false;
    bool exists = false;  // false: never materialized anywhere yet
  };

  StatusOr<CachedPage*> GetPage(PageId page_id);
  Status ApplyRecord(const LogRecord& rec);
  // Descends the recovered tree of `space` to the leaf owning `key`.
  StatusOr<CachedPage*> FindLeaf(SpaceId space, int64_t key);
  Llsn NextRecoveryLlsn() { return ++recovery_llsn_; }

  LogStore* log_store_;
  PageStore* page_store_;
  UndoStore* undo_store_;
  BufferFusion* buffer_fusion_;
  const uint32_t page_size_;
  const Options options_;

  std::unordered_map<uint64_t, CachedPage> cache_;
  Llsn recovery_llsn_ = 0;  // max-merged during replay
  RecoveryStats stats_;
};

}  // namespace polarmp

#endif  // POLARMP_WAL_RECOVERY_H_
