#ifndef POLARMP_STORAGE_LOG_STORE_H_
#define POLARMP_STORAGE_LOG_STORE_H_

#include <map>
#include <string>
#include <vector>

#include "common/lock_rank.h"
#include "common/sim_latency.h"
#include "common/status.h"
#include "common/types.h"

namespace polarmp {

// Per-node append-only redo-log streams on shared storage (§4.4: "each node
// maintains its own sets of redo log and undo log files. This design enables
// different nodes to simultaneously synchronize these logs to the storage
// without explicit concurrency control").
//
// An LSN is a byte offset in the node's stream, exactly as in the paper
// ("this LSN also serves as the offset within the redo log file").
// An append is split in two so one node can keep several on the wire:
// Reserve places the bytes at the stream end in claim order, and Complete
// charges the log-force latency and marks the range landed. Ranges may land
// out of order; DurableLsn, ReadAt and Truncate see only the contiguous
// landed prefix, so recovery and the standby never read past a hole.
// Recovery reads charge storage-read latency per chunk. Checkpoint LSNs are
// stored durably alongside the log.
class LogStore {
 public:
  explicit LogStore(const LatencyProfile& profile) : profile_(profile) {}

  LogStore(const LogStore&) = delete;
  LogStore& operator=(const LogStore&) = delete;

  Status CreateLog(NodeId node);
  bool LogExists(NodeId node) const;
  // Every log stream that exists (recovery iterates all of them).
  std::vector<NodeId> AllLogs() const;

  // Places `data` at the end of the stream and returns the LSN of its first
  // byte. The bytes stay invisible until Complete lands them.
  StatusOr<Lsn> Reserve(NodeId node, const std::string& data);

  // Forces the reserved range [lsn, lsn + len) to the device: charges one
  // log_append_ns, then marks the range landed and returns the end of the
  // contiguous landed prefix. A failed force leaves the range a hole; a
  // later Complete of the same range re-forces it.
  StatusOr<Lsn> Complete(NodeId node, Lsn lsn, uint64_t len);

  // Reserve then Complete: one forced write; returns the LSN of its first
  // byte.
  StatusOr<Lsn> Append(NodeId node, const std::string& data);

  // End offset of the contiguous landed prefix.
  StatusOr<Lsn> DurableLsn(NodeId node) const;

  // A restarting writer drops everything above the landed prefix: ranges
  // reserved but never landed, and ranges that landed above such a hole.
  // Nothing there was ever durable, so nothing acknowledged is lost.
  Status DropUnlandedTail(NodeId node);

  // Reads up to `max_len` bytes at `offset` into `out` (may return fewer at
  // the end of the landed prefix). Reading below the truncation point is a
  // Corruption.
  Status ReadAt(NodeId node, Lsn offset, uint64_t max_len,
                std::string* out) const;

  // Logical truncation after a checkpoint: bytes below `new_start` (at most
  // the landed prefix) may be discarded.
  Status Truncate(NodeId node, Lsn new_start);

  // Durable checkpoint bookkeeping (recovery starts replay here).
  Status SetCheckpoint(NodeId node, Lsn lsn);
  StatusOr<Lsn> GetCheckpoint(NodeId node) const;

  // Durable restart-epoch counter, used to keep TIT slot versions unique
  // across restarts (a fresh TIT seeds slot versions from the epoch).
  uint64_t BumpNodeEpoch(NodeId node);
  uint64_t GetNodeEpoch(NodeId node) const;

  // Test-only fault injection: the next `n` Completes (any node) fail with
  // an IO error after charging the device latency, leaving their ranges
  // holes. Exercises the force-error completion path of the group commit
  // pipeline (every waiter at or above the hole must see the failure).
  void FailNextAppends(int n);

  // Test-only hold: the next `n` Completes (any node) park on the wire after
  // the device latency, before they land or fail, until
  // ReleaseHeldAppends. Lets tests order landings deterministically.
  void HoldNextAppends(int n);
  void ReleaseHeldAppends();
  // Completes parked by HoldNextAppends right now.
  int held_appends() const;

 private:
  struct Stream {
    std::string data;      // reserved bytes from `start` onward
    Lsn start = 0;         // truncation point
    Lsn landed = 0;        // end of the contiguous landed prefix
    // Ranges [first, second) landed above a hole, merged into `landed` once
    // the hole lands.
    std::map<Lsn, Lsn> landed_above;
    Lsn checkpoint = 0;
    uint64_t epoch = 0;
  };

  const LatencyProfile profile_;
  mutable RankedMutex mu_{LockRank::kStorage, "log_store.streams"};
  CondVar hold_cv_;
  std::map<NodeId, Stream> streams_ GUARDED_BY(mu_);
  int fail_appends_ GUARDED_BY(mu_) = 0;
  int hold_appends_ GUARDED_BY(mu_) = 0;
  int held_appends_ GUARDED_BY(mu_) = 0;
  // Bumped by ReleaseHeldAppends; a parked Complete waits for it to move.
  uint64_t hold_release_gen_ GUARDED_BY(mu_) = 0;
};

}  // namespace polarmp

#endif  // POLARMP_STORAGE_LOG_STORE_H_
