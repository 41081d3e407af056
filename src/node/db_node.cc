#include "node/db_node.h"

#include <algorithm>
#include <chrono>

#include "common/coding.h"

namespace polarmp {

std::string EncodeIndexedValue(const std::vector<uint64_t>& index_cols,
                               Slice payload) {
  std::string out;
  out.reserve(index_cols.size() * 8 + payload.size());
  for (uint64_t col : index_cols) PutFixed64(&out, col);
  out.append(payload.data(), payload.size());
  return out;
}

uint64_t DecodeIndexColumn(Slice value, size_t i) {
  POLARMP_CHECK_GE(value.size(), (i + 1) * 8);
  return DecodeFixed64(value.data() + i * 8);
}

int64_t MakeIndexEntryKey(uint64_t column, int64_t pk) {
  return static_cast<int64_t>(((column & 0xFFFFFFFFFFull) << 24) |
                              (static_cast<uint64_t>(pk) & 0xFFFFFFull));
}

DbNode::DbNode(NodeId id, const ClusterServices& services,
               const NodeOptions& options)
    : id_(id),
      services_(services),
      options_(options),
      log_writer_(id, services.log_store),
      lbp_(id, services.fabric, services.buffer_fusion, services.page_store,
           &llsn_, options.lbp),
      plock_(id, services.lock_fusion, options.lazy_plock_release),
      cache_(id, services.fabric, services.buffer_fusion,
             services.page_store->page_size(), options.cache),
      tso_client_(services.txn_fusion->tso(), id, options.linear_lamport),
      trx_mgr_(&engine_ctx_, services.tit, &tso_client_, services.txn_fusion,
               services.lock_fusion, services.undo, options.trx) {
  engine_ctx_.node = id_;
  engine_ctx_.plock = &plock_;
  engine_ctx_.lbp = &lbp_;
  engine_ctx_.cache = &cache_;
  engine_ctx_.log = &log_writer_;
  engine_ctx_.llsn = &llsn_;
  engine_ctx_.commit_mu = &commit_mu_;
  engine_ctx_.llsn_order_mu = &llsn_order_mu_;
  engine_ctx_.plock_timeout_ms = options.plock_timeout_ms;

  // Wire the cross-component hooks: WAL rule on page push, PLock release
  // flushes the dirty page. LBP eviction leaves the PLock alone: only
  // negotiation takes a retained hold away (lazy release, §4.3.1).
  // Eviction is inherently synchronous (the page cannot leave before its
  // redo), so the WAL-rule hook rides the async pipeline and waits on the
  // handle — it still groups with whatever committers are queued.
  lbp_.SetForceLog(
      [this](Lsn lsn) { return log_writer_.ForceAsync(lsn).Wait(); });
  plock_.SetBeforeRelease(
      [this](PageId page) { return lbp_.FlushPageForRelease(page); });
  lbp_.SetNotePush([this](PageId page) { cache_.NotePushed(page); });
  trx_mgr_.SetTreeResolver([this](SpaceId space) { return TreeForSpace(space); });
}

DbNode::~DbNode() {
  if (running_) {
    const Status s = Stop();
    if (!s.ok()) {
      POLARMP_LOG(Warn) << "node " << id_ << " stop failed: " << s.ToString();
    }
  }
}

Status DbNode::Start(bool run_recovery) {
  POLARMP_CHECK(!running_);
  const uint64_t epoch = services_.log_store->BumpNodeEpoch(id_);
  POLARMP_RETURN_IF_ERROR(services_.tit->AddNode(id_, epoch << 20));
  services_.tit->MarkDeparted(id_, false);
  POLARMP_RETURN_IF_ERROR(services_.undo->AddNode(id_));
  services_.lock_fusion->AddNode(
      id_, [this](PageId page) { plock_.OnNegotiate(page); });
  services_.buffer_fusion->AddNode(id_);

  if (run_recovery) {
    POLARMP_RETURN_IF_ERROR(RunRecovery());
  }

  services_.txn_fusion->AddNode(id_);
  {
    MutexLock lock(bg_mu_);
    bg_stop_ = false;
  }
  background_ = std::thread([this] { BackgroundLoop(); });
  running_ = true;
  crashed_ = false;
  return Status::OK();
}

Status DbNode::RunRecovery() {
  Recovery::Options opts;
  opts.reader = id_;
  Recovery recovery(services_.log_store, services_.page_store, services_.undo,
                    services_.buffer_fusion,
                    services_.page_store->page_size(), opts);
  POLARMP_ASSIGN_OR_RETURN(auto uncommitted, recovery.RedoReplay({id_}));
  POLARMP_RETURN_IF_ERROR(recovery.FlushPages());
  // Roll back in-flight transactions through the live engine (the pages
  // involved are still fenced by this node's ghost PLocks).
  for (const auto& trx : uncommitted) {
    POLARMP_RETURN_IF_ERROR(
        trx_mgr_.RollbackRecovered(trx.gid, trx.last_undo));
  }
  POLARMP_RETURN_IF_ERROR(log_writer_.ForceAllAsync().Wait());
  POLARMP_RETURN_IF_ERROR(Checkpoint());
  // Committed-before-crash rows now resolve as "slot reused" ⇒ visible.
  services_.tit->ResetNode(id_);
  // Drop the ghost holds (and whatever the rollback pinned): every change
  // is flushed, so other nodes may touch the pages again.
  for (PageId page : lbp_.DirtyPages()) {
    POLARMP_RETURN_IF_ERROR(lbp_.FlushPageForRelease(page));
  }
  plock_.DropAll();
  services_.lock_fusion->ReleaseAllHolds(id_);
  if (!uncommitted.empty()) {
    POLARMP_LOG(Info) << "node " << id_ << " recovery: rolled back "
                      << uncommitted.size() << " transactions, "
                      << recovery.stats().page_records_applied
                      << " records applied ("
                      << recovery.stats().pages_from_dbp << " pages via DBP, "
                      << recovery.stats().pages_from_storage
                      << " via storage)";
  }
  return Status::OK();
}

Status DbNode::Stop() {
  POLARMP_CHECK(running_);
  {
    MutexLock lock(bg_mu_);
    bg_stop_ = true;
    bg_cv_.notify_all();
  }
  background_.join();
  POLARMP_RETURN_IF_ERROR(Checkpoint());
  // Committed rows we wrote stay resolvable through the registry-held TIT.
  services_.tit->MarkDeparted(id_, true);
  cache_.DropAll();
  plock_.DropAll();
  services_.lock_fusion->RemoveNode(id_);
  services_.lock_fusion->ReleaseAllHolds(id_);
  services_.buffer_fusion->RemoveNode(id_);
  services_.txn_fusion->RemoveNode(id_);
  services_.fabric->DeregisterEndpoint(id_);
  running_ = false;
  return Status::OK();
}

void DbNode::Crash() {
  POLARMP_CHECK(running_);
  {
    MutexLock lock(bg_mu_);
    bg_stop_ = true;
    bg_cv_.notify_all();
  }
  background_.join();
  // Quiesce the log first: pending forces complete with Aborted and the
  // volatile log buffer evaporates before the services deregister below.
  log_writer_.Abandon();
  // Volatile state evaporates; PMFS keeps the exclusive PLocks as ghosts
  // and the DBP keeps every pushed page — that is the §5.5 recovery story.
  services_.fabric->DeregisterEndpoint(id_);
  services_.lock_fusion->RemoveNode(id_);
  services_.buffer_fusion->RemoveNode(id_);
  services_.txn_fusion->RemoveNode(id_);
  lbp_.DropAll();
  cache_.DropAll();
  plock_.DropAll();
  trx_mgr_.DropAll();
  running_ = false;
  crashed_ = true;
}

BTree* DbNode::TreeForSpace(SpaceId space) {
  MutexLock lock(trees_mu_);
  auto it = trees_.find(space);
  if (it == trees_.end()) {
    it = trees_
             .emplace(space, std::make_unique<BTree>(
                                 &engine_ctx_, services_.page_store, space))
             .first;
  }
  return it->second.get();
}

Status DbNode::CreateTreesFor(const TableInfo& info) {
  std::vector<SpaceId> spaces{info.primary_space};
  spaces.insert(spaces.end(), info.index_spaces.begin(),
                info.index_spaces.end());
  for (SpaceId space : spaces) {
    POLARMP_RETURN_IF_ERROR(services_.page_store->CreateSpace(space));
    POLARMP_RETURN_IF_ERROR(TreeForSpace(space)->Create());
    // Bootstrap hygiene: push the fresh root to the DBP and hand its PLock
    // back immediately. A lazily-retained bootstrap lock would ghost-fence
    // the whole table for every other node if this node crashed.
    const PageId root{space, 0};
    POLARMP_RETURN_IF_ERROR(log_writer_.ForceAllAsync().Wait());
    POLARMP_RETURN_IF_ERROR(lbp_.FlushPageForRelease(root));
    const Status released = plock_.ForceRelease(root);
    if (!released.ok() && !released.IsBusy()) return released;
  }
  return Status::OK();
}

StatusOr<TableHandle> DbNode::OpenTable(const std::string& name) {
  POLARMP_ASSIGN_OR_RETURN(TableInfo info, services_.catalog->GetByName(name));
  TableHandle handle;
  handle.info = info;
  handle.primary = TreeForSpace(info.primary_space);
  for (SpaceId space : info.index_spaces) {
    handle.indexes.push_back(TreeForSpace(space));
  }
  return handle;
}

Status DbNode::Checkpoint() {
  Lsn ckpt_candidate;
  std::vector<PageId> dirty;
  {
    // Exclusive against mtr commits: the snapshot sees either none or all
    // of any mini-transaction (log bytes + dirty marks).
    WriterLock barrier(commit_mu_);
    ckpt_candidate = log_writer_.buffered_lsn();
    dirty = lbp_.DirtyPages();
  }
  ckpt_candidate = std::min(ckpt_candidate, trx_mgr_.OldestActiveFirstLsn());
  POLARMP_RETURN_IF_ERROR(log_writer_.ForceAllAsync().Wait());
  for (PageId page : dirty) {
    POLARMP_RETURN_IF_ERROR(lbp_.FlushPageForRelease(page));
  }
  // Changes this node logged below the candidate may live only in the DBP
  // (pushed on an earlier negotiation); they must reach storage before the
  // checkpoint moves, or a DSM loss would strand them beyond replay.
  POLARMP_RETURN_IF_ERROR(services_.buffer_fusion->FlushAllDirty(id_));
  return services_.log_store->SetCheckpoint(id_, ckpt_candidate);
}

void DbNode::BackgroundLoop() {
  auto last_checkpoint = std::chrono::steady_clock::now();
  auto last_lbp_flush = last_checkpoint;
  for (;;) {
    {
      UniqueLock lock(bg_mu_);
      bg_cv_.wait_for(lock,
                      std::chrono::milliseconds(options_.background_interval_ms),
                      [&] { return bg_stop_; });
      if (bg_stop_) return;
    }
    trx_mgr_.BackgroundTick();
    const auto now = std::chrono::steady_clock::now();
    if (now - last_lbp_flush >=
        std::chrono::milliseconds(options_.lbp_flush_interval_ms)) {
      last_lbp_flush = now;
      // LLSN heartbeat: lets log consumers (standby replication, recovery
      // merges) advance their LLSN_bound past this stream when it idles.
      // Fold in the cluster watermark first so an idle node's horizon
      // tracks its busy peers. The order mutex keeps the mark monotone
      // with commits.
      auto watermark =
          services_.txn_fusion->MergeLlsnWatermark(id_, llsn_.Current());
      if (watermark.ok()) llsn_.Observe(watermark.value());
      {
        MutexLock order_guard(llsn_order_mu_);
        log_writer_.Add({MakeLlsnMark(id_, llsn_.Current())});
      }
      // Fire-and-forget: the heartbeat only needs the LLSN mark durable
      // eventually, so nothing waits on the handle. A failing log device
      // surfaces at the next Checkpoint(), whose force is waited on.
      log_writer_.ForceAllAsync();
      // Background dirty-page push (§4.2): keeps the DBP current so peers
      // and crash recovery find the latest pages in disaggregated memory.
      for (PageId page : lbp_.DirtyPages()) {
        const Status s = lbp_.FlushPageForRelease(page);
        if (!s.ok()) {
          POLARMP_LOG(Warn) << "node " << id_ << " background push failed: "
                            << s.ToString();
        }
      }
    }
    if (now - last_checkpoint >=
        std::chrono::milliseconds(options_.checkpoint_interval_ms)) {
      last_checkpoint = now;
      const Status s = Checkpoint();
      if (!s.ok()) {
        POLARMP_LOG(Warn) << "node " << id_
                          << " checkpoint failed: " << s.ToString();
      }
    }
  }
}

}  // namespace polarmp
