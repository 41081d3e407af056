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

// Log appends one node keeps on the wire at once: the log device's queue
// depth. A named constant until the capacity model gives the device its own
// queue; not an option.
inline constexpr int kMaxForcesInFlight = 4;

// Per-node redo log front end: buffers encoded records in LSN order and
// forces them to the LogStore with a pipelined group commit.
//
// Committers append records (Add/AddEncoded), enqueue a force target with
// ForceAsync and Wait() on the handle. kMaxForcesInFlight flusher threads
// share the queue. A flusher claims a new force only while some waiter's
// target lies above the bytes already claimed; the force claims the WHOLE
// buffer, reserves its place at the stream end in claim order, and performs
// ONE storage append for every committer it covers. While forces are on
// the wire the buffer keeps accumulating the next batch, so a committer that
// arrives during a force waits for its own force, not for the device to go
// idle: commit throughput is bounded by force latency per *group*, divided
// among the forces in flight.
//
// Forces may land out of order. durable_lsn() advances only over the
// contiguous landed prefix, so no handle completes before every byte below
// its target has landed. A failed force leaves a hole: once every byte below
// it has landed, its waiters and every waiter above it fail, and the bytes
// are re-forced at the same offset (when a later waiter needs them) before
// durable can pass them.
//
// API contract:
//  * ForceAsync(lsn) -> ForceHandle: completed (OK) once everything up to
//    `lsn` is durable, or with the error that failed the force. Handles for
//    targets already durable complete inline.
//  * Handles complete in ascending order of their targets.
//  * The flushers run no caller code: they only complete handles, so a
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

  // Holds the flushers between batches: no NEW force starts until Resume
  // (forces in flight land first). Lets tests form deterministic
  // groups: pause, enqueue N committers, resume, observe one force.
  void PauseFlusher();
  void ResumeFlusher();

  // Crash support: drops the volatile buffer and fails every pending and
  // future force with Aborted. Blocks until the flushers have quiesced, so
  // on return every handle is completed — callers tear down the engine
  // safely after this. Appends already on the wire are allowed to land (as
  // they could in a real crash) and waiters they make durable complete
  // normally before the drain.
  void Abandon();

  // Pending force requests not yet completed (test introspection; also
  // exported as the "log_writer.force_queue_depth" gauge).
  size_t pending_forces() const;
  // Log appends on the wire right now (test introspection).
  int forces_in_flight() const;

  // ---- telemetry ------------------------------------------------------------
  // Shims over this instance's registry handles ("log_writer.*"):
  //  * force_ns      — device time of one storage append (the actual force)
  //  * commit_wait_ns— a committer's enqueue-to-completion wait on its group
  //  * group_size    — committers one landing made durable
  //  * forces_in_flight — appends on the wire, sampled as each is issued
  uint64_t appends() const { return appends_.Value(); }
  uint64_t forces() const { return forces_.Value(); }
  uint64_t max_forces_in_flight() const {
    return forces_in_flight_.Merged().max();
  }
  void ResetCounters();

 private:
  struct Waiter {
    uint64_t enqueue_ns = 0;  // commit_wait_ns start
    StatusPromise promise;
  };
  // A claimed stream range [start, start + len).
  struct Force {
    Lsn start = 0;
    uint64_t len = 0;
  };
  // A range whose append failed. `status` is the failure until it has been
  // delivered to the waiters at and above the hole, then OK.
  struct Hole {
    uint64_t len = 0;
    Status status;
  };

  void FlusherLoop();
  // True while a flusher may issue a force: not paused or abandoned, below
  // the in-flight bound, and some waiter's target lies above a hole whose
  // failure was delivered or above the bytes already claimed.
  bool CanClaim() const REQUIRES(flusher_mu_);
  // The lowest delivered hole below `top`, or holes_.end().
  std::map<Lsn, Hole>::const_iterator ReforceableHole(Lsn top) const
      REQUIRES(flusher_mu_);
  // Claims the next force (a hole to re-force, else the whole buffer,
  // reserved at the stream end). Requires CanClaim().
  Force Claim() REQUIRES(flusher_mu_);
  // Pops every waiter with target <= durable (ascending target order).
  std::vector<Waiter> TakeReady(Lsn durable) REQUIRES(flusher_mu_);
  // After a landing or failure: completes the waiters the landed prefix
  // covers, fails every waiter once the prefix reaches an undelivered hole,
  // and once stopping or abandoned with nothing on the wire, aborts the
  // rest. Completions are delivered in the order they are settled.
  void SettleLocked() REQUIRES(flusher_mu_);
  void Deliver(std::vector<Waiter> waiters, const Status& status)
      REQUIRES(flusher_mu_);
  // Sets queued promises outside all locks (rank kFutureState sits below
  // them); one thread at a time, so completion order is settle order.
  void DrainCompletionsLocked() REQUIRES(flusher_mu_);

  const NodeId node_;
  LogStore* const store_;

  mutable RankedMutex mu_{LockRank::kLogWriter, "log_writer.buffer"};
  std::string buffer_ GUARDED_BY(mu_);       // encoded bytes not yet claimed
  Lsn buffer_start_ GUARDED_BY(mu_) = 0;     // LSN of buffer_[0]

  // Flusher queue state. flusher_mu_ ranks ABOVE mu_ (a flusher claims the
  // buffer while holding it).
  mutable RankedMutex flusher_mu_{LockRank::kLogFlusher, "log_writer.flusher"};
  CondVar flusher_cv_;
  // End of the contiguous landed prefix.
  Lsn durable_ GUARDED_BY(flusher_mu_) = 0;
  // Keyed by force target; equal targets keep their enqueue order.
  std::multimap<Lsn, Waiter> waiters_ GUARDED_BY(flusher_mu_);
  std::map<Lsn, Hole> holes_ GUARDED_BY(flusher_mu_);  // keyed by start
  int in_flight_ GUARDED_BY(flusher_mu_) = 0;
  // Settled completions not yet delivered, and whether a thread is
  // delivering them.
  std::vector<std::pair<Waiter, Status>> to_complete_ GUARDED_BY(flusher_mu_);
  bool completing_ GUARDED_BY(flusher_mu_) = false;
  bool stop_ GUARDED_BY(flusher_mu_) = false;
  bool paused_ GUARDED_BY(flusher_mu_) = false;
  bool abandoned_ GUARDED_BY(flusher_mu_) = false;

  // polarlint: unguarded(joined in the destructor after the stop_ handshake)
  std::vector<std::thread> flushers_;

  obs::Counter appends_{"log_writer.appends"};
  obs::Counter forces_{"log_writer.forces"};
  obs::LatencyHistogram force_ns_{"log_writer.force_ns"};
  obs::LatencyHistogram commit_wait_ns_{"log_writer.commit_wait_ns"};
  obs::LatencyHistogram group_size_{"log_writer.group_size"};
  obs::LatencyHistogram forces_in_flight_{"log_writer.forces_in_flight"};
  obs::Gauge force_queue_depth_{"log_writer.force_queue_depth"};
};

}  // namespace polarmp

#endif  // POLARMP_WAL_LOG_WRITER_H_
