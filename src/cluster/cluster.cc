#include "cluster/cluster.h"

namespace polarmp {

Cluster::Cluster(const ClusterOptions& options) : options_(options) {
  fabric_ = std::make_unique<Fabric>(options.latency);
  dsm_ = std::make_unique<Dsm>(fabric_.get(), options.dsm_servers,
                               options.dsm_bytes_per_server);
  page_store_ =
      std::make_unique<PageStore>(options.latency, options.page_size);
  log_store_ = std::make_unique<LogStore>(options.latency);
  txn_fusion_ = std::make_unique<TransactionFusion>(fabric_.get());
  BufferFusion::Options bf;
  bf.capacity_pages = options.dbp_capacity_pages;
  bf.page_size = options.page_size;
  bf.flush_interval_ms = options.dbp_flush_interval_ms;
  buffer_fusion_ = std::make_unique<BufferFusion>(fabric_.get(), dsm_.get(),
                                                  page_store_.get(), bf);
  lock_fusion_ = std::make_unique<LockFusion>(fabric_.get());
  tit_ = std::make_unique<Tit>(fabric_.get(), options.tit_slots_per_node);
  undo_ = std::make_unique<UndoStore>(dsm_.get(), options.undo_segment_bytes);
  catalog_ = std::make_unique<Catalog>();

  services_.fabric = fabric_.get();
  services_.dsm = dsm_.get();
  services_.page_store = page_store_.get();
  services_.log_store = log_store_.get();
  services_.txn_fusion = txn_fusion_.get();
  services_.buffer_fusion = buffer_fusion_.get();
  services_.lock_fusion = lock_fusion_.get();
  services_.tit = tit_.get();
  services_.undo = undo_.get();
  services_.catalog = catalog_.get();
}

StatusOr<std::unique_ptr<Cluster>> Cluster::Create(
    const ClusterOptions& options) {
  std::unique_ptr<Cluster> cluster(new Cluster(options));
  cluster->buffer_fusion_->Start();
  return cluster;
}

Cluster::~Cluster() {
  for (auto& [id, node] : nodes_) {
    if (node->running()) {
      const Status s = node->Stop();
      if (!s.ok()) {
        POLARMP_LOG(Warn) << "stopping node " << id
                          << " failed: " << s.ToString();
      }
    }
  }
  nodes_.clear();
  buffer_fusion_->Stop();
}

StatusOr<DbNode*> Cluster::AddNode() {
  const NodeId id = next_node_id_++;
  auto node = std::make_unique<DbNode>(id, services_, options_.node);
  POLARMP_RETURN_IF_ERROR(node->Start(/*run_recovery=*/false));
  DbNode* ptr = node.get();
  nodes_[id] = std::move(node);
  return ptr;
}

Status Cluster::StopNode(NodeId id) {
  auto it = nodes_.find(id);
  if (it == nodes_.end()) return Status::NotFound("no such node");
  POLARMP_RETURN_IF_ERROR(it->second->Stop());
  nodes_.erase(it);
  return Status::OK();
}

Status Cluster::CrashNode(NodeId id) {
  auto it = nodes_.find(id);
  if (it == nodes_.end()) return Status::NotFound("no such node");
  it->second->Crash();
  nodes_.erase(it);  // the volatile instance is gone; PMFS keeps ghosts
  return Status::OK();
}

StatusOr<DbNode*> Cluster::RestartNode(NodeId id) {
  if (nodes_.count(id) != 0) {
    return Status::AlreadyExists("node still present: " + std::to_string(id));
  }
  auto node = std::make_unique<DbNode>(id, services_, options_.node);
  POLARMP_RETURN_IF_ERROR(node->Start(/*run_recovery=*/true));
  DbNode* ptr = node.get();
  nodes_[id] = std::move(node);
  return ptr;
}

std::vector<NodeId> Cluster::DeadNodes() const {
  std::vector<NodeId> dead;
  for (NodeId node : log_store_->AllLogs()) {
    if (nodes_.count(node) != 0) continue;      // live (or gracefully leaving)
    if (fabric_->EndpointAlive(node)) continue;
    if (tit_->IsDeparted(node)) continue;       // already taken over/stopped
    dead.push_back(node);
  }
  return dead;
}

StatusOr<RecoveryStats> Cluster::TakeoverNode(NodeId dead, NodeId survivor) {
  if (nodes_.count(dead) != 0) {
    return Status::InvalidArgument("node still present: " +
                                   std::to_string(dead));
  }
  auto it = nodes_.find(survivor);
  if (it == nodes_.end() || !it->second->running()) {
    return Status::InvalidArgument("survivor not running: " +
                                   std::to_string(survivor));
  }
  if (fabric_->EndpointAlive(dead)) {
    return Status::InvalidArgument("endpoint still alive: node " +
                                   std::to_string(dead));
  }
  if (tit_->IsDeparted(dead)) {
    return Status::AlreadyExists("node already recovered: " +
                                 std::to_string(dead));
  }
  // Crash() normally drops the dead node's LBP/cache copies on its way
  // down; repeat it here in case the node died before its epilogue ran.
  buffer_fusion_->RemoveNode(dead);
  // Survivors keep running: the dead node's un-pushed dirty pages are
  // fenced by its retained exclusive PLocks (RemoveNode keeps X holds as
  // ghosts), so nothing below races live writers on those pages. The undo
  // segment lives in DSM and survived the node, so replay skips rebuilding
  // it — survivors may be reading those bytes right now.
  Recovery::Options ro;
  ro.reader = survivor;
  ro.rebuild_undo = false;
  Recovery recovery(log_store_.get(), page_store_.get(), undo_.get(),
                    buffer_fusion_.get(), options_.page_size, ro);
  POLARMP_ASSIGN_OR_RETURN(auto uncommitted, recovery.RedoReplay({dead}));
  POLARMP_RETURN_IF_ERROR(recovery.OfflineRollback(uncommitted));
  POLARMP_RETURN_IF_ERROR(recovery.FlushPages());
  POLARMP_RETURN_IF_ERROR(recovery.AdvanceCheckpoints({dead}));
  // Re-baseline the TIT before releasing locks: once survivors can touch
  // the recovered pages, the dead node's old g_trx_ids must already resolve
  // as "slot reused ⇒ visible" rather than block on an unreachable table.
  // Deliberately NOT Tit::AddNode here: re-registering the TIT region would
  // resurrect the dead endpoint on the fabric (RegisterRegion marks it
  // alive), making the node look undead to DeadNodes/TakeoverNode. The
  // departed mark answers all visibility questions locally without fabric
  // reads; the node's own restart re-registers under a fresh epoch.
  tit_->ResetNode(dead);
  tit_->MarkDeparted(dead, true);
  // Last: drop the ghost fence. Waiters blocked on the dead node's PLocks
  // resume against fully recovered state.
  lock_fusion_->ReleaseAllHolds(dead);
  takeovers_.Inc();
  return recovery.stats();
}

DbNode* Cluster::node(NodeId id) {
  auto it = nodes_.find(id);
  return it == nodes_.end() ? nullptr : it->second.get();
}

std::vector<DbNode*> Cluster::live_nodes() {
  std::vector<DbNode*> out;
  for (auto& [id, node] : nodes_) {
    if (node->running()) out.push_back(node.get());
  }
  return out;
}

StatusOr<TableInfo> Cluster::CreateTable(const std::string& name,
                                         uint32_t num_indexes) {
  POLARMP_ASSIGN_OR_RETURN(TableInfo info,
                           catalog_->CreateTable(name, num_indexes));
  auto live = live_nodes();
  if (live.empty()) {
    return Status::Internal("no live node to create table trees");
  }
  POLARMP_RETURN_IF_ERROR(live.front()->CreateTreesFor(info));
  return info;
}

StatusOr<RecoveryStats> Cluster::RecoverAll(bool dsm_lost) {
  if (!nodes_.empty()) {
    return Status::InvalidArgument(
        "full-cluster recovery requires every node down");
  }
  if (dsm_lost) {
    dsm_->Reset();
    // The DBP directory points into reset memory; rebuild it empty by
    // restarting Buffer Fusion with a fresh instance.
    buffer_fusion_->Stop();
    BufferFusion::Options bf;
    bf.capacity_pages = options_.dbp_capacity_pages;
    bf.page_size = options_.page_size;
    bf.flush_interval_ms = options_.dbp_flush_interval_ms;
    buffer_fusion_ = std::make_unique<BufferFusion>(fabric_.get(), dsm_.get(),
                                                    page_store_.get(), bf);
    services_.buffer_fusion = buffer_fusion_.get();
    buffer_fusion_->Start();
    // Undo segments lived in the lost DSM as well.
    undo_ = std::make_unique<UndoStore>(dsm_.get(),
                                        options_.undo_segment_bytes);
    services_.undo = undo_.get();
  }
  Recovery recovery(log_store_.get(), page_store_.get(), undo_.get(),
                    dsm_lost ? nullptr : buffer_fusion_.get(),
                    options_.page_size);
  POLARMP_ASSIGN_OR_RETURN(auto uncommitted,
                           recovery.RedoReplay(log_store_->AllLogs()));
  POLARMP_RETURN_IF_ERROR(recovery.OfflineRollback(uncommitted));
  POLARMP_RETURN_IF_ERROR(recovery.FlushPages());
  POLARMP_RETURN_IF_ERROR(recovery.AdvanceCheckpoints(log_store_->AllLogs()));
  // Re-baseline every participating node: recovery has made all surviving
  // row versions committed state, so old g_trx_ids must resolve as "slot
  // reused ⇒ visible to all" (version bump) rather than block behind an
  // unreachable TIT; and the crashed nodes' ghost PLocks are obsolete.
  for (NodeId node : log_store_->AllLogs()) {
    const uint64_t epoch = log_store_->BumpNodeEpoch(node);
    POLARMP_RETURN_IF_ERROR(tit_->AddNode(node, epoch << 20));
    tit_->ResetNode(node);
    tit_->MarkDeparted(node, true);
    lock_fusion_->ReleaseAllHolds(node);
  }
  return recovery.stats();
}

}  // namespace polarmp
