#ifndef POLARMP_CLUSTER_STANDBY_H_
#define POLARMP_CLUSTER_STANDBY_H_

#include <functional>
#include <memory>
#include <thread>
#include <unordered_map>

#include "common/lock_rank.h"
#include "engine/row.h"
#include "storage/log_store.h"
#include "wal/log_record.h"

namespace polarmp {

// Cross-region standby (§3: "PolarDB-MP also incorporates a standby node to
// ensure high availability across regions. Changes occurring in the primary
// cluster are synchronized to the standby cluster using the write-ahead
// log").
//
// The replicator tails every primary node's redo stream and continuously
// applies the records to its own page store through the same LLSN-bounded
// merge as crash recovery (wal/log_record.h) — the standby is, in effect, a
// perpetually-recovering cluster. Applied state is crash-consistent at
// every instant: reads (`ScanTable`) see a transactionally-unsplit prefix
// only after `WaitForCatchUp` on a quiesced primary, which is how the
// cross-region failover runbook uses it.
class StandbyReplicator {
 public:
  struct Options {
    uint64_t poll_interval_ms = 20;
    uint32_t page_size = 8192;
  };

  // Tails `primary_log` (the primary region's log store); applied pages
  // live in the standby's own memory (its region's storage stand-in).
  StandbyReplicator(LogStore* primary_log, const Options& options);
  ~StandbyReplicator();

  StandbyReplicator(const StandbyReplicator&) = delete;
  StandbyReplicator& operator=(const StandbyReplicator&) = delete;

  void Start();
  void Stop();

  // Blocks until every known primary stream has been applied up to its
  // durable end at call time. Returns false on timeout.
  bool WaitForCatchUp(uint64_t timeout_ms);

  // Bytes of redo not yet applied, summed over streams.
  uint64_t LagBytes() const;
  uint64_t records_applied() const;

  // Read a table directly from the standby's pages (failover / verify
  // path). Walks the tree from `space`'s root, emitting the latest row
  // versions; rows whose transactions were uncommitted at the applied
  // horizon surface with their in-flight values, as on a physical replica
  // promoted without undo processing — callers quiesce the primary first.
  Status ScanTable(SpaceId space,
                   const std::function<bool(const RowView&)>& fn) const;

 private:
  void ReplicationLoop();
  // Drains whatever is durable beyond our cursors.
  Status ApplyAvailable() EXCLUDES(mu_);
  Status ApplyRecord(const LogRecord& rec) REQUIRES(mu_);
  // Bytes of `node`'s log up to `end` (its durable end) not yet applied.
  uint64_t UnappliedBytes(NodeId node, Lsn end) const REQUIRES(mu_);
  char* PageFor(PageId page_id) REQUIRES(mu_);

  LogStore* const primary_log_;
  const Options options_;

  mutable RankedMutex mu_{LockRank::kStandby, "standby.apply"};
  CondVar cv_;
  // One stream per primary node, kept across polls (never done).
  LogStreams streams_ GUARDED_BY(mu_);
  std::unordered_map<uint64_t, std::unique_ptr<char[]>> cache_ GUARDED_BY(mu_);
  uint64_t records_applied_ GUARDED_BY(mu_) = 0;

  // Set in Start under stop_mu_; joined in Stop after the stop_ handshake,
  // necessarily outside the lock.
  // polarlint: unguarded(lifecycle thread; Start/Stop are serialized)
  std::thread replicator_;
  RankedMutex stop_mu_{LockRank::kStandbyStop, "standby.stop"};
  CondVar stop_cv_;
  bool stop_ GUARDED_BY(stop_mu_) = false;
  bool started_ GUARDED_BY(stop_mu_) = false;
};

}  // namespace polarmp

#endif  // POLARMP_CLUSTER_STANDBY_H_
