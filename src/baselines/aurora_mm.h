#ifndef POLARMP_BASELINES_AURORA_MM_H_
#define POLARMP_BASELINES_AURORA_MM_H_

#include "baselines/database.h"
#include "baselines/sim_store.h"
#include "common/lock_rank.h"
#include "obs/metrics.h"

namespace polarmp {

// Aurora Multi-Master behavioral model (§2.3, §5.3).
//
// Shared storage + optimistic concurrency control: nodes execute
// transactions against locally cached pages with no cross-node locking; at
// commit the storage tier validates that no other node modified the same
// *pages* since they were read, and on conflict the transaction aborts
// ("it reports such write conflicts to the application as a deadlock
// error"). There is no cache-coherence protocol: a node discovers remote
// writes only by observing a page-version change at its next access,
// paying a storage read to refresh — no RDMA shared memory, no DBP.
class AuroraMmDatabase : public Database {
 public:
  AuroraMmDatabase(const LatencyProfile& profile, int nodes);

  const char* name() const override { return "Aurora-MM"; }
  int num_nodes() const override { return nodes_; }
  Status AddNode() override {
    ++nodes_;
    node_caches_.emplace_back(new NodeCache());
    return Status::OK();
  }
  Status CreateTable(const std::string& name, uint32_t num_indexes) override;
  StatusOr<std::unique_ptr<Connection>> Connect(int node_index) override;

  uint64_t occ_aborts() const { return occ_aborts_.Value(); }

 private:
  friend class AuroraConnection;

  struct NodeCache {
    // Held while reading store page versions (SimStore mu_, kSimStore).
    RankedMutex mu{LockRank::kBaselineNode, "aurora.node_cache"};
    std::unordered_map<SimPageKey, uint64_t, SimPageKeyHash> versions
        GUARDED_BY(mu);
  };

  // Charges a storage read iff the node's cached page version is stale
  // (or absent); returns the version observed.
  uint64_t TouchPage(int node, SimPageKey page);

  SimStore store_;
  int nodes_;
  std::vector<std::unique_ptr<NodeCache>> node_caches_;
  obs::Counter occ_aborts_{"aurora_mm.occ_aborts"};
};

}  // namespace polarmp

#endif  // POLARMP_BASELINES_AURORA_MM_H_
