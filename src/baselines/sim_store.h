#ifndef POLARMP_BASELINES_SIM_STORE_H_
#define POLARMP_BASELINES_SIM_STORE_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/lock_rank.h"
#include "common/sim_latency.h"
#include "common/status.h"
#include "common/types.h"
#include "obs/metrics.h"

namespace polarmp {

// Substrate shared by the Aurora-MM / Taurus-MM / shared-nothing baselines.
//
// These baselines are *behavioral cost models*: they execute the workload's
// transactions with correct local semantics (committed reads, write
// buffering, 2PL or OCC validation) while charging the same latency profile
// PolarDB-MP pays, so throughput comparisons isolate the architectural
// difference the paper evaluates (abort-on-conflict vs page-store+replay
// coherence vs 2PC vs RDMA shared memory). Rows live in one shared map;
// the page abstraction — fixed-size key groups with a version counter —
// exists to model page-granular conflicts and page-granular coherence,
// which is where both Aurora-MM's aborts and Taurus-MM's replay costs come
// from.
inline constexpr int64_t kSimRowsPerPage = 160;  // ~16 KB page / ~100 B row
// Aurora-MM's cross-node write conflicts are detected by the storage tier
// at a granularity coarser than a row — pages plus the index/structural
// pages every insert or delete drags in. The model validates writes at
// segment granularity (a run of adjacent pages) to capture that false
// sharing; intra-node concurrency uses ordinary local locking and never
// OCC-aborts, as in the real system.
inline constexpr int64_t kSimPagesPerSegment = 32;

struct SimPageKey {
  uint32_t table = 0;
  int64_t page = 0;
  bool operator==(const SimPageKey& o) const {
    return table == o.table && page == o.page;
  }
  bool operator<(const SimPageKey& o) const {
    return table != o.table ? table < o.table : page < o.page;
  }
};

struct SimPageKeyHash {
  size_t operator()(const SimPageKey& k) const {
    return std::hash<uint64_t>()((static_cast<uint64_t>(k.table) << 40) ^
                                 static_cast<uint64_t>(k.page) *
                                     0x9E3779B97F4A7C15ull);
  }
};

// Per-node redo-log device shared by the baselines' commit paths.
//
// Every modeled system group-commits: concurrent committers on one node
// ride a single device force instead of serializing one log_append_ns
// each, and a node keeps up to kMaxForcesInFlight forces on the wire, as
// PolarDB-MP's log writer does. The cost models must charge the same way
// for the throughput comparison to stay an architecture comparison.
// CommitForce(node) takes a ticket; a force claims every ticket not yet
// claimed, and a ticket is durable once every force up to and including
// its own has landed.
class SimLogDevice {
 public:
  explicit SimLogDevice(const LatencyProfile& profile) : profile_(profile) {}

  // Models appending this committer's log and forcing the device, grouped
  // with concurrent committers of the same node: blocks for ~one
  // log_append_ns plus queueing for the landed prefix and the in-flight
  // bound.
  void CommitForce(int node);

  // Device forces actually charged ("sim_store.log_forces"; group sizes in
  // the "sim_store.log_group_size" histogram).
  uint64_t forces() const { return forces_.Value(); }

 private:
  struct NodeState {
    uint64_t next_seq = 0;     // next ticket to hand out
    uint64_t claimed_seq = 0;  // tickets below this ride some force
    uint64_t durable_seq = 0;  // tickets below this are durable
    int in_flight = 0;         // forces on the wire
    // Forces [first, second) of tickets landed above durable_seq.
    std::map<uint64_t, uint64_t> landed;
  };

  const LatencyProfile profile_;
  RankedMutex mu_{LockRank::kSimLogDevice, "sim_store.log_device"};
  CondVar cv_;
  std::map<int, NodeState> nodes_ GUARDED_BY(mu_);
  obs::Counter forces_{"sim_store.log_forces"};
  obs::LatencyHistogram group_size_{"sim_store.log_group_size"};
};

// Shared row + page-version store.
class SimStore {
 public:
  explicit SimStore(const LatencyProfile& profile) : profile_(profile) {}

  const LatencyProfile& profile() const { return profile_; }

  // The shared group-commit log device (one per cluster model, keyed by
  // node inside).
  SimLogDevice* log_device() { return &log_device_; }

  StatusOr<uint32_t> CreateTable(const std::string& name);
  StatusOr<uint32_t> TableId(const std::string& name) const;

  SimPageKey PageOf(uint32_t table, int64_t key) const {
    return SimPageKey{table, key / kSimRowsPerPage};
  }

  // Committed-state row access (callers hold whatever locks their protocol
  // requires; the map itself is internally consistent).
  StatusOr<std::string> GetRow(uint32_t table, int64_t key) const;
  bool RowExists(uint32_t table, int64_t key) const;
  void PutRow(uint32_t table, int64_t key, const std::string& value);
  void EraseRow(uint32_t table, int64_t key);
  Status ScanRows(uint32_t table, int64_t lo, int64_t hi,
                  const std::function<bool(int64_t, const std::string&)>& fn)
      const;

  // Page version counters (bumped by committed writes).
  uint64_t PageVersion(SimPageKey page) const;
  void BumpPageVersion(SimPageKey page);
  // Atomic OCC validation for `node`: fails iff some observed page has
  // since been modified BY A DIFFERENT NODE (intra-node interleavings are
  // serialized by node-local locking in the real system). On success bumps
  // all versions with `node` as the writer.
  bool ValidateAndBump(const std::map<SimPageKey, uint64_t>& observed,
                       int node);

  // ---- telemetry ------------------------------------------------------------
  // Shims over this instance's registry handles ("sim_store.*" families).
  uint64_t row_reads() const { return row_reads_.Value(); }
  uint64_t row_writes() const { return row_writes_.Value(); }
  uint64_t occ_validations() const { return occ_validations_.Value(); }
  uint64_t occ_aborts() const { return occ_aborts_.Value(); }
  void ResetCounters();

 private:
  struct PageState {
    uint64_t version = 0;
    int last_writer = -1;
  };

  const LatencyProfile profile_;
  // polarlint: unguarded(internally synchronized; owns its own RankedMutex)
  SimLogDevice log_device_{profile_};
  mutable RankedMutex mu_{LockRank::kSimStore, "sim_store.rows"};
  std::map<std::string, uint32_t> table_ids_ GUARDED_BY(mu_);
  // (table, key) -> value
  std::map<std::pair<uint32_t, int64_t>, std::string> rows_ GUARDED_BY(mu_);
  std::unordered_map<SimPageKey, PageState, SimPageKeyHash> page_versions_
      GUARDED_BY(mu_);

  mutable obs::Counter row_reads_{"sim_store.row_reads"};
  obs::Counter row_writes_{"sim_store.row_writes"};
  obs::Counter occ_validations_{"sim_store.occ_validations"};
  obs::Counter occ_aborts_{"sim_store.occ_aborts"};
};

// Blocking FIFO lock table keyed by an opaque 64-bit resource id, used for
// the baselines' page (Taurus) and row (shared-nothing) locks. Owners are
// transaction ids. Timeout-based deadlock resolution (the conventional
// fallback in both systems).
class SimLockTable {
 public:
  explicit SimLockTable(const LatencyProfile& profile) : profile_(profile) {}

  // Blocks until granted; charges one RPC per remote acquisition attempt
  // (`charge_rpc`). Busy on timeout. Re-entrant for the same owner
  // (upgrades S→X when possible).
  Status Acquire(uint64_t resource, uint64_t owner, LockMode mode,
                 uint64_t timeout_ms, bool charge_rpc);
  // Releases all of `owner`'s locks (commit/abort); charges one RPC.
  void ReleaseAll(uint64_t owner, bool charge_rpc);

  // Shims over registry handles ("sim_store.lock_*" families); safe to
  // read lock-free while workers are acquiring.
  uint64_t acquires() const { return acquires_.Value(); }
  uint64_t waits() const { return waits_.Value(); }

 private:
  struct Entry {
    std::map<uint64_t, LockMode> holders;
    uint64_t waiters = 0;
  };
  bool CanGrant(const Entry& e, uint64_t owner, LockMode mode) const
      REQUIRES(mu_);

  const LatencyProfile profile_;
  RankedMutex mu_{LockRank::kSimLockTable, "sim_store.lock_table"};
  CondVar cv_;
  std::unordered_map<uint64_t, Entry> locks_ GUARDED_BY(mu_);
  std::unordered_map<uint64_t, std::set<uint64_t>> by_owner_ GUARDED_BY(mu_);
  obs::Counter acquires_{"sim_store.lock_acquires"};
  obs::Counter waits_{"sim_store.lock_waits"};
};

}  // namespace polarmp

#endif  // POLARMP_BASELINES_SIM_STORE_H_
