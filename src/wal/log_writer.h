#ifndef POLARMP_WAL_LOG_WRITER_H_
#define POLARMP_WAL_LOG_WRITER_H_

#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/lock_rank.h"
#include "common/status_future.h"
#include "obs/metrics.h"
#include "storage/log_store.h"
#include "wal/log_record.h"

namespace polarmp {

// Per-node redo log front end: buffers encoded records in LSN order and
// forces them to the LogStore with a pipelined group commit.
//
// Committers append records (Add/AddEncoded), enqueue a force target with
// ForceAsync and Wait() on the handle; a dedicated flusher thread claims
// the whole buffer, performs ONE storage append for every queued committer,
// and completes their handles. While an append is on the wire the buffer
// keeps accumulating the next batch, so consecutive forces pipeline
// back-to-back — commit throughput is bounded by force-latency per *group*,
// not per committer.
//
// API contract:
//  * ForceAsync(lsn) -> ForceHandle: completed (OK) once everything up to
//    `lsn` is durable, or with the error that failed the force. Handles for
//    targets already durable complete inline.
//  * Handles complete in ascending order of their targets.
//  * The flusher runs no caller code: it only completes handles, so a
//    waiter may hold page latches (eviction's WAL rule) without risking a
//    flusher self-deadlock.
class LogWriter {
 public:
  using ForceHandle = StatusFuture;

  LogWriter(NodeId node, LogStore* store);
  ~LogWriter();

  LogWriter(const LogWriter&) = delete;
  LogWriter& operator=(const LogWriter&) = delete;

  NodeId node() const { return node_; }

  // Buffers `records`; returns the end LSN after them (force target).
  Lsn Add(const std::vector<LogRecord>& records);
  Lsn AddEncoded(const std::string& encoded);

  // Enqueues a durability request up to `lsn` and returns immediately;
  // Wait() on the handle blocks until it lands.
  ForceHandle ForceAsync(Lsn lsn);
  ForceHandle ForceAllAsync();

  Lsn durable_lsn() const;
  Lsn buffered_lsn() const;

  // ---- test / crash-simulation hooks ---------------------------------------

  // Holds the flusher between batches: no NEW force starts until Resume
  // (an in-flight one completes first). Lets tests form deterministic
  // groups: pause, enqueue N committers, resume, observe one force.
  void PauseFlusher();
  void ResumeFlusher();

  // Crash support: drops the volatile buffer and fails every pending and
  // future force with Aborted. Blocks until the flusher has quiesced, so on
  // return every handle is completed — callers tear down the engine safely
  // after this. An append already on the wire is allowed to land (as it
  // could in a real crash) and its waiters complete normally before the
  // drain.
  void Abandon();

  // Pending force requests not yet completed (test introspection; also
  // exported as the "log_writer.force_queue_depth" gauge).
  size_t pending_forces() const;

  // ---- telemetry ------------------------------------------------------------
  // Shims over this instance's registry handles ("log_writer.*"):
  //  * force_ns      — device time of one storage append (the actual force)
  //  * commit_wait_ns— a committer's enqueue-to-completion wait on its group
  //  * group_size    — committers amortized by one force
  uint64_t appends() const { return appends_.Value(); }
  uint64_t forces() const { return forces_.Value(); }
  void ResetCounters();

 private:
  struct Waiter {
    uint64_t enqueue_ns = 0;  // commit_wait_ns start
    StatusPromise promise;
  };

  void FlusherLoop();
  // Pops every waiter with target <= durable (ascending target order).
  std::vector<Waiter> TakeReady(Lsn durable) REQUIRES(flusher_mu_);
  // Completes `ready` outside all locks, recording commit_wait_ns.
  void Complete(std::vector<Waiter> ready, const Status& status);

  const NodeId node_;
  LogStore* const store_;

  mutable RankedMutex mu_{LockRank::kLogWriter, "log_writer.buffer"};
  std::string buffer_ GUARDED_BY(mu_);       // encoded bytes not yet durable
  Lsn buffer_start_ GUARDED_BY(mu_) = 0;     // LSN of buffer_[0]
  Lsn durable_ GUARDED_BY(mu_) = 0;

  // Flusher queue state. flusher_mu_ ranks ABOVE mu_ (the flusher claims
  // the buffer while holding it); committer paths take them one at a time.
  mutable RankedMutex flusher_mu_{LockRank::kLogFlusher, "log_writer.flusher"};
  CondVar flusher_cv_;
  // Keyed by force target; equal targets keep their enqueue order.
  std::multimap<Lsn, Waiter> waiters_ GUARDED_BY(flusher_mu_);
  bool stop_ GUARDED_BY(flusher_mu_) = false;
  bool paused_ GUARDED_BY(flusher_mu_) = false;
  bool abandoned_ GUARDED_BY(flusher_mu_) = false;
  // True while the flusher is forcing or completing handles; Pause/Abandon
  // wait on it to quiesce.
  bool flusher_busy_ GUARDED_BY(flusher_mu_) = false;

  // polarlint: unguarded(joined in the destructor after the stop_ handshake)
  std::thread flusher_;

  obs::Counter appends_{"log_writer.appends"};
  obs::Counter forces_{"log_writer.forces"};
  obs::LatencyHistogram force_ns_{"log_writer.force_ns"};
  obs::LatencyHistogram commit_wait_ns_{"log_writer.commit_wait_ns"};
  obs::LatencyHistogram group_size_{"log_writer.group_size"};
  obs::Gauge force_queue_depth_{"log_writer.force_queue_depth"};
};

}  // namespace polarmp

#endif  // POLARMP_WAL_LOG_WRITER_H_
