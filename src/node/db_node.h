#ifndef POLARMP_NODE_DB_NODE_H_
#define POLARMP_NODE_DB_NODE_H_

#include <map>
#include <memory>
#include <thread>

#include "cache/index_cache.h"
#include "common/lock_rank.h"
#include "engine/btree.h"
#include "node/catalog.h"
#include "txn/transaction.h"
#include "wal/recovery.h"

namespace polarmp {

// Shared cluster infrastructure every node plugs into (the disaggregated
// services plus PMFS).
struct ClusterServices {
  Fabric* fabric = nullptr;
  Dsm* dsm = nullptr;
  PageStore* page_store = nullptr;
  LogStore* log_store = nullptr;
  TransactionFusion* txn_fusion = nullptr;
  BufferFusion* buffer_fusion = nullptr;
  LockFusion* lock_fusion = nullptr;
  Tit* tit = nullptr;
  UndoStore* undo = nullptr;
  Catalog* catalog = nullptr;
};

struct NodeOptions {
  // Both caches hold page images of the cluster's page size
  // (ClusterOptions::page_size, read from the page store).
  BufferPool::Options lbp;
  // Compute-side index cache (internal B-tree pages, one-sided refresh).
  IndexCache::Options cache;
  uint64_t plock_timeout_ms = 10'000;
  TrxManager::Options trx;
  bool linear_lamport = true;        // §4.1 timestamp-fetch optimization
  bool lazy_plock_release = true;    // §4.3.1 lazy releasing
  uint64_t background_interval_ms = 20;
  uint64_t checkpoint_interval_ms = 500;
  // §4.2: "the dirty pages are periodically flushed to the DBP in the
  // background" — this cadence keeps the DBP warm so a crashed node's
  // recovery reads from disaggregated memory, not storage (§5.5).
  uint64_t lbp_flush_interval_ms = 200;
};

// A resolved table: clustered tree + GSI trees. For tables with GSIs the
// row value must start with one fixed 8-byte column per index (see
// EncodeIndexedValue); Session maintains the index trees transparently.
struct TableHandle {
  TableInfo info;
  BTree* primary = nullptr;
  std::vector<BTree*> indexes;
};

// Builds a value whose leading columns feed the table's GSIs.
std::string EncodeIndexedValue(const std::vector<uint64_t>& index_cols,
                               Slice payload);
// Extracts GSI column `i` from such a value.
uint64_t DecodeIndexColumn(Slice value, size_t i);
// Packs (column value, primary key) into a GSI entry key:
// 40 bits of column, 24 bits of pk (documented engine limit).
int64_t MakeIndexEntryKey(uint64_t column, int64_t pk);

// A complete PolarDB-MP primary node: engine (LBP + PLock manager + B-trees
// + log writer + LLSN clock), transaction manager, PMFS clients and the
// background threads (min-view reporting/recycling and checkpoints).
class DbNode {
 public:
  DbNode(NodeId id, const ClusterServices& services,
         const NodeOptions& options);
  ~DbNode();

  DbNode(const DbNode&) = delete;
  DbNode& operator=(const DbNode&) = delete;

  // Joins the cluster. With `run_recovery`, replays this node's log from
  // its checkpoint first (restart after crash).
  Status Start(bool run_recovery);
  // Graceful shutdown: checkpoint, release every lock, leave the fabric.
  Status Stop();
  // Crash simulation: drops all volatile state without flushing; PMFS
  // retains the node's exclusive PLocks as ghosts until recovery.
  void Crash();

  NodeId id() const { return id_; }
  bool running() const { return running_; }

  TrxManager* trx_manager() { return &trx_mgr_; }
  EngineContext* engine() { return &engine_ctx_; }
  TsoClient* tso_client() { return &tso_client_; }
  BufferPool* buffer_pool() { return &lbp_; }
  PLockManager* plock_manager() { return &plock_; }
  IndexCache* index_cache() { return &cache_; }
  LogWriter* log_writer() { return &log_writer_; }

  // The tree for a tablespace (wrapper created lazily; the tree itself must
  // already exist via CreateTreesFor on some node).
  BTree* TreeForSpace(SpaceId space);

  // Formats the trees of a freshly catalogued table (creator node only).
  Status CreateTreesFor(const TableInfo& info);

  StatusOr<TableHandle> OpenTable(const std::string& name);

  // Sharp checkpoint: force log, push dirty pages to the DBP, flush them to
  // storage, advance the durable checkpoint LSN.
  Status Checkpoint();

 private:
  void BackgroundLoop();
  Status RunRecovery();

  const NodeId id_;
  const ClusterServices services_;
  const NodeOptions options_;

  // polarlint: unguarded(internally synchronized)
  LlsnClock llsn_;
  RankedMutex llsn_order_mu_{LockRank::kLlsnOrder, "db_node.llsn_order"};
  // polarlint: unguarded(internally synchronized)
  LogWriter log_writer_;
  // polarlint: unguarded(internally synchronized)
  BufferPool lbp_;
  // polarlint: unguarded(internally synchronized)
  PLockManager plock_;
  // polarlint: unguarded(internally synchronized)
  IndexCache cache_;
  RankedSharedMutex commit_mu_{LockRank::kCommitGate, "db_node.commit_gate"};
  // polarlint: unguarded(wired once in the constructor, read-only after)
  EngineContext engine_ctx_;
  // polarlint: unguarded(internally synchronized)
  TsoClient tso_client_;
  // polarlint: unguarded(internally synchronized)
  TrxManager trx_mgr_;

  RankedMutex trees_mu_{LockRank::kNodeTrees, "db_node.trees"};
  // Guards the map only: BTree objects are never erased, so a BTree* looked
  // up under trees_mu_ stays valid after the lock is dropped.
  std::map<SpaceId, std::unique_ptr<BTree>> trees_ GUARDED_BY(trees_mu_);

  // polarlint: unguarded(set in Start; joined in Stop/Crash after the
  // bg_stop_ handshake, necessarily outside the lock)
  std::thread background_;
  RankedMutex bg_mu_{LockRank::kNodeBackground, "db_node.background"};
  CondVar bg_cv_;
  bool bg_stop_ GUARDED_BY(bg_mu_) = false;
  // Control-plane flags: Start/Stop/Crash are externally serialized (one
  // operator per node); only the owning thread writes them.
  // polarlint: unguarded(control-plane flag; lifecycle calls are serialized)
  bool running_ = false;
  // polarlint: unguarded(control-plane flag; lifecycle calls are serialized)
  bool crashed_ = false;
};

}  // namespace polarmp

#endif  // POLARMP_NODE_DB_NODE_H_
