#include "wal/recovery.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <set>

#include "common/coding.h"
#include "engine/btree.h"
#include "engine/page.h"

namespace polarmp {

Recovery::Recovery(LogStore* log_store, PageStore* page_store,
                   UndoStore* undo_store, BufferFusion* buffer_fusion,
                   uint32_t page_size, Options options)
    : log_store_(log_store),
      page_store_(page_store),
      undo_store_(undo_store),
      buffer_fusion_(buffer_fusion),
      page_size_(page_size),
      options_(options) {}

StatusOr<Recovery::CachedPage*> Recovery::GetPage(PageId page_id) {
  auto it = cache_.find(page_id.Pack());
  if (it != cache_.end()) return &it->second;
  CachedPage cp;
  cp.data = std::make_unique<char[]>(page_size_);
  std::memset(cp.data.get(), 0, page_size_);
  // DBP first — a node crash leaves disaggregated memory intact, which is
  // what makes recovery fast (§5.5); storage is the fallback.
  if (buffer_fusion_ != nullptr && buffer_fusion_->HasValidPage(page_id)) {
    POLARMP_RETURN_IF_ERROR(buffer_fusion_->ReadPageForRecovery(
        options_.reader, page_id, cp.data.get()));
    cp.exists = true;
    ++stats_.pages_from_dbp;
  } else {
    const Status s = page_store_->ReadPage(page_id, cp.data.get());
    if (s.ok()) {
      cp.exists = true;
      ++stats_.pages_from_storage;
    } else if (!s.IsNotFound()) {
      return s;
    }
  }
  auto [pos, inserted] = cache_.emplace(page_id.Pack(), std::move(cp));
  (void)inserted;
  return &pos->second;
}

Status Recovery::ApplyRecord(const LogRecord& rec) {
  ++stats_.records_scanned;
  switch (rec.type) {
    case LogRecordType::kUndoAppend: {
      if (options_.rebuild_undo) {
        POLARMP_RETURN_IF_ERROR(
            undo_store_->WriteRaw(rec.node, rec.aux, rec.body));
        stats_.undo_bytes_rebuilt += rec.body.size();
      }
      return Status::OK();
    }
    case LogRecordType::kTrxCommit:
    case LogRecordType::kTrxRollbackEnd:
    case LogRecordType::kLlsnMark:
      return Status::OK();  // tracked by the caller / pure horizon marker
    default:
      break;
  }
  POLARMP_ASSIGN_OR_RETURN(CachedPage* cp, GetPage(rec.page_id));
  Page page(cp->data.get(), page_size_);
  if (cp->exists && page.llsn() >= rec.llsn) {
    ++stats_.page_records_skipped;
    return Status::OK();
  }
  POLARMP_RETURN_IF_ERROR(ApplyPageRecord(rec, &page));
  cp->exists = true;
  cp->dirty = true;
  recovery_llsn_ = std::max(recovery_llsn_, rec.llsn);
  ++stats_.page_records_applied;
  return Status::OK();
}

StatusOr<std::vector<Recovery::UncommittedTrx>> Recovery::RedoReplay(
    const std::vector<NodeId>& nodes) {
  LogStreams streams;
  std::map<NodeId, Lsn> ends;  // durable log ends when replay began
  for (NodeId node : nodes) {
    if (!log_store_->LogExists(node)) continue;
    LogStream& s = streams[node];
    s.node = node;
    POLARMP_ASSIGN_OR_RETURN(s.next_read, log_store_->GetCheckpoint(node));
    POLARMP_ASSIGN_OR_RETURN(ends[node], log_store_->DurableLsn(node));
    s.done = s.next_read >= ends[node];
    POLARMP_RETURN_IF_ERROR(undo_store_->AddNode(node));
  }

  std::unordered_map<GTrxId, UndoPtr> last_undo;
  std::set<GTrxId> finished;

  auto all_done = [&] {
    for (const auto& [node, s] : streams) {
      if (!s.done || !s.pending.empty()) return false;
    }
    return true;
  };

  while (!all_done()) {
    // Fill phase: one chunk per stream that is neither done nor holding
    // records back.
    for (auto& [node, s] : streams) {
      if (s.done || !s.pending.empty()) continue;
      POLARMP_RETURN_IF_ERROR(s.ReadChunk(*log_store_).status());
      if (s.next_read >= ends[node]) {
        if (!s.tail.empty()) {
          return Status::Corruption("torn record at end of node log " +
                                    std::to_string(node));
        }
        s.done = true;
      }
    }
    // Apply phase: the batch below LLSN_bound, in LLSN order.
    const std::vector<LogRecord> batch = TakeBelowBound(&streams);
    for (const LogRecord& rec : batch) {
      POLARMP_RETURN_IF_ERROR(ApplyRecord(rec));
      if (rec.type == LogRecordType::kTrxCommit) ++stats_.committed_trxs;
      if (rec.type == LogRecordType::kTrxCommit ||
          rec.type == LogRecordType::kTrxRollbackEnd) {
        finished.insert(rec.trx);
      } else if (rec.type == LogRecordType::kUndoAppend) {
        auto undo_rec = UndoRecord::Decode(rec.body);
        POLARMP_RETURN_IF_ERROR(undo_rec.status());
        last_undo[undo_rec.value().trx] = MakeUndoPtr(rec.node, rec.aux);
      }
    }
    if (batch.empty() && !all_done()) {
      // Should be impossible: either a fill added data or a bound advanced.
      bool any_fillable = false;
      for (const auto& [node, s] : streams) {
        if (!s.done && s.pending.empty()) any_fillable = true;
      }
      if (!any_fillable) {
        return Status::Internal("recovery merge stalled");
      }
    }
  }

  std::vector<UncommittedTrx> uncommitted;
  for (const auto& [gid, ptr] : last_undo) {
    if (finished.count(gid) == 0) {
      uncommitted.push_back(UncommittedTrx{gid, ptr});
      ++stats_.uncommitted_trxs;
    }
  }
  return uncommitted;
}

StatusOr<Recovery::CachedPage*> Recovery::FindLeaf(SpaceId space,
                                                   int64_t key) {
  POLARMP_ASSIGN_OR_RETURN(CachedPage* cp, GetPage(PageId{space, 0}));
  for (int depth = 0; depth < 64; ++depth) {
    Page page(cp->data.get(), page_size_);
    if (!cp->exists) return Status::Corruption("recovered tree missing page");
    if (page.is_leaf()) return cp;
    const PageNo child = BTree::RouteChild(page, key);
    POLARMP_ASSIGN_OR_RETURN(cp, GetPage(PageId{space, child}));
  }
  return Status::Corruption("recovered tree too deep");
}

Status Recovery::OfflineRollback(const std::vector<UncommittedTrx>& trxs) {
  for (const UncommittedTrx& trx : trxs) {
    UndoPtr cursor = trx.last_undo;
    while (cursor != kNullUndoPtr) {
      POLARMP_ASSIGN_OR_RETURN(
          UndoRecord rec,
          undo_store_->Read(UndoPtrNode(cursor), cursor));
      if (rec.trx != trx.gid) {
        return Status::Corruption("undo chain crosses transactions");
      }
      POLARMP_ASSIGN_OR_RETURN(CachedPage* cp, FindLeaf(rec.space, rec.key));
      Page page(cp->data.get(), page_size_);
      if (rec.type == UndoType::kInsert) {
        const Status s = page.RemoveRow(rec.key);
        if (!s.ok() && !s.IsNotFound()) return s;
      } else {
        const int slot = page.FindSlot(rec.key);
        bool restore = true;
        if (slot >= 0) {
          auto row = page.RowAt(slot);
          restore = row.ok() && row.value().g_trx_id == trx.gid;
        }
        if (restore) {
          const std::string image =
              EncodeRow(rec.key, rec.prev_trx, rec.prev_cts, rec.prev_undo,
                        rec.prev_flags, rec.prev_value);
          POLARMP_RETURN_IF_ERROR(page.WriteRow(image));
        }
      }
      page.set_llsn(NextRecoveryLlsn());
      cp->dirty = true;
      cursor = rec.trx_prev;
    }
    ++stats_.offline_rolled_back;
  }
  return Status::OK();
}

Status Recovery::FlushPages() {
  for (auto& [key, cp] : cache_) {
    if (!cp.dirty) continue;
    const PageId page_id = PageId::Unpack(key);
    POLARMP_RETURN_IF_ERROR(page_store_->WritePage(page_id, cp.data.get()));
    if (buffer_fusion_ != nullptr) {
      POLARMP_RETURN_IF_ERROR(buffer_fusion_->HostWritePage(
          page_id, cp.data.get(), Page::PeekLlsn(cp.data.get()),
          /*flushed=*/true));
    }
    cp.dirty = false;
  }
  return Status::OK();
}

Status Recovery::AdvanceCheckpoints(const std::vector<NodeId>& nodes) {
  for (NodeId node : nodes) {
    if (!log_store_->LogExists(node)) continue;
    POLARMP_ASSIGN_OR_RETURN(Lsn end, log_store_->DurableLsn(node));
    POLARMP_RETURN_IF_ERROR(log_store_->SetCheckpoint(node, end));
  }
  return Status::OK();
}

}  // namespace polarmp
