#ifndef POLARMP_PMFS_TRANSACTION_FUSION_H_
#define POLARMP_PMFS_TRANSACTION_FUSION_H_

#include <atomic>
#include <map>

#include "common/lock_rank.h"
#include "obs/metrics.h"
#include "pmfs/tso.h"

namespace polarmp {

// Transaction Fusion (§4.1): hosts the TSO and aggregates the per-node
// minimum active views into a global minimum view, which drives TIT slot
// recycling and undo purge ("each node runs a background thread that sends
// its minimal view to Transaction Fusion. Transaction Fusion consolidates
// these views to form a global minimum view, which is then broadcast to
// all nodes").
//
// The "broadcast" is implemented the RDMA-friendly way: the global minimum
// lives in fabric-registered memory and nodes read it with a one-sided
// RDMA read whenever they need it.
class TransactionFusion {
 public:
  explicit TransactionFusion(Fabric* fabric);
  ~TransactionFusion();

  TransactionFusion(const TransactionFusion&) = delete;
  TransactionFusion& operator=(const TransactionFusion&) = delete;

  Tso* tso() { return &tso_; }

  // Registers a node so its (yet unreported) view constrains the global
  // minimum; must be called before the node serves transactions.
  void AddNode(NodeId node);
  void RemoveNode(NodeId node);

  // RPC from a node's background thread: `min_view` is the smallest CTS any
  // of its active transactions / read views can still observe.
  Status ReportMinView(NodeId node, Csn min_view);

  // One-sided read of the consolidated minimum (from a node).
  StatusOr<Csn> GlobalMinView(EndpointId from) const;

  // Server-local read (no fabric charge), for tests and co-located logic.
  Csn GlobalMinViewLocal() const {
    return global_min_.load(std::memory_order_acquire);
  }

  // Max-merges `local` into the cluster-wide LLSN watermark and returns the
  // merged value (one one-sided RDMA op). Nodes fold the result into their
  // LLSN clocks before emitting heartbeat marks, so an idle node's log
  // horizon tracks the cluster instead of its own last write — which is
  // what lets LLSN_bound consumers (standby, recovery) drain past it.
  // Inflating a node's clock is always safe: only per-page monotonicity
  // matters, and that is enforced by the page-stamp max-merge.
  StatusOr<Llsn> MergeLlsnWatermark(EndpointId from, Llsn local);

  // ---- telemetry ------------------------------------------------------------
  // Shims over this instance's registry handles ("txn_fusion.*" families).
  // The commit-path latency decomposition ("txn_fusion.commit*_ns":
  // enqueue/tso, log across the group force, finalize — all on the
  // committer thread) is recorded node-side by TrxManager::Commit and
  // FinishCommit.
  uint64_t min_view_reports() const { return min_view_reports_.Value(); }
  uint64_t min_view_reads() const { return min_view_reads_.Value(); }
  uint64_t llsn_merges() const { return llsn_merges_.Value(); }
  void ResetCounters();

 private:
  void Recompute() REQUIRES(mu_);

  Fabric* const fabric_;
  // polarlint: unguarded(internally synchronized)
  Tso tso_;

  mutable RankedMutex mu_{LockRank::kPmfsService, "txn_fusion.reported"};
  // kCsnInit = registered, not yet reported
  std::map<NodeId, Csn> reported_ GUARDED_BY(mu_);

  // Fabric-registered broadcast cells.
  // polarlint: allow(raw-atomic) one-sided RDMA target (broadcast cell)
  // polarlint: unguarded(lock-free broadcast cell; CAS-published)
  std::atomic<uint64_t> global_min_;
  // polarlint: allow(raw-atomic) one-sided RDMA target (broadcast cell)
  // polarlint: unguarded(lock-free broadcast cell; CAS-published)
  std::atomic<uint64_t> global_llsn_{0};

  obs::Counter min_view_reports_{"txn_fusion.min_view_reports"};
  mutable obs::Counter min_view_reads_{"txn_fusion.min_view_reads"};
  obs::Counter llsn_merges_{"txn_fusion.llsn_merges"};
};

}  // namespace polarmp

#endif  // POLARMP_PMFS_TRANSACTION_FUSION_H_
