#ifndef POLARMP_CLUSTER_CLUSTER_H_
#define POLARMP_CLUSTER_CLUSTER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "node/db_node.h"
#include "node/session.h"
#include "obs/metrics.h"

namespace polarmp {

struct ClusterOptions {
  // Zero by default so tests run at memory speed; benches install
  // BenchLatencyProfile() to price RDMA/RPC/storage realistically.
  LatencyProfile latency = ZeroLatencyProfile();
  uint32_t page_size = 8192;
  uint32_t dsm_servers = 2;
  uint64_t dsm_bytes_per_server = 192ull << 20;
  uint64_t dbp_capacity_pages = 16384;
  uint64_t dbp_flush_interval_ms = 50;
  uint32_t tit_slots_per_node = 4096;
  uint64_t undo_segment_bytes = 48ull << 20;
  NodeOptions node;
};

// A PolarDB-MP cluster: the disaggregated substrates (fabric, DSM, shared
// page/log stores), PMFS (transaction/buffer/lock fusion) and N primary
// nodes. Nodes can be added online (§5.2 production workload), stopped
// gracefully, crashed and restarted with recovery (§5.5).
class Cluster {
 public:
  static StatusOr<std::unique_ptr<Cluster>> Create(
      const ClusterOptions& options);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // Adds a primary node (ids are assigned 1, 2, ...).
  StatusOr<DbNode*> AddNode();
  Status StopNode(NodeId id);
  // Crash simulation. Callers must have stopped issuing requests to the
  // node (in-flight sessions would be talking to freed state).
  Status CrashNode(NodeId id);
  // Restart after CrashNode: replays the node's log, rolls back in-flight
  // transactions, rejoins the cluster.
  StatusOr<DbNode*> RestartNode(NodeId id);

  // Crashed nodes that still need takeover or restart: their fabric
  // endpoint is down and no recovery has re-baselined them yet.
  std::vector<NodeId> DeadNodes() const;

  // Online single-node failure takeover: `survivor` recovers `dead`'s state
  // while the rest of the cluster keeps committing. Ordering (see DESIGN.md
  // § Fault injection & failure takeover): detect death via fabric
  // liveness, replay the dead node's log tail (DBP fast path, undo segment
  // kept — it survived in DSM), roll back its in-flight transactions
  // offline, publish recovered pages (which invalidates stale copies), then
  // re-baseline its TIT (epoch bump + departed) and finally release its
  // ghost PLocks — the locks fence survivors off the dead node's dirty
  // pages until every earlier step has made them consistent.
  StatusOr<RecoveryStats> TakeoverNode(NodeId dead, NodeId survivor);

  uint64_t takeovers() const { return takeovers_.Value(); }

  DbNode* node(NodeId id);
  std::vector<DbNode*> live_nodes();

  // Creates a table (clustered tree + GSIs) cluster-wide.
  StatusOr<TableInfo> CreateTable(const std::string& name,
                                  uint32_t num_indexes = 0);

  // Full-cluster recovery: with every node stopped/crashed, replays all
  // logs in LLSN order, rolls back in-flight transactions offline and
  // re-baselines storage. `dsm_lost` additionally resets the DSM tier
  // first (memory-server failure: recovery must come from storage alone).
  StatusOr<RecoveryStats> RecoverAll(bool dsm_lost);

  ClusterServices* services() { return &services_; }
  Fabric* fabric() { return fabric_.get(); }
  PageStore* page_store() { return page_store_.get(); }
  LogStore* log_store() { return log_store_.get(); }
  BufferFusion* buffer_fusion() { return buffer_fusion_.get(); }
  LockFusion* lock_fusion() { return lock_fusion_.get(); }
  TransactionFusion* txn_fusion() { return txn_fusion_.get(); }
  Dsm* dsm() { return dsm_.get(); }
  const ClusterOptions& options() const { return options_; }

 private:
  explicit Cluster(const ClusterOptions& options);

  ClusterOptions options_;
  std::unique_ptr<Fabric> fabric_;
  std::unique_ptr<Dsm> dsm_;
  std::unique_ptr<PageStore> page_store_;
  std::unique_ptr<LogStore> log_store_;
  std::unique_ptr<TransactionFusion> txn_fusion_;
  std::unique_ptr<BufferFusion> buffer_fusion_;
  std::unique_ptr<LockFusion> lock_fusion_;
  std::unique_ptr<Tit> tit_;
  std::unique_ptr<UndoStore> undo_;
  std::unique_ptr<Catalog> catalog_;
  ClusterServices services_;

  NodeId next_node_id_ = 1;
  std::map<NodeId, std::unique_ptr<DbNode>> nodes_;

  obs::Counter takeovers_{"cluster.takeovers"};
};

}  // namespace polarmp

#endif  // POLARMP_CLUSTER_CLUSTER_H_
