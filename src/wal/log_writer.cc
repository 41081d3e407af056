#include "wal/log_writer.h"

#include <algorithm>
#include <limits>

#include "obs/trace.h"

namespace polarmp {

namespace {

// TakeReady bound that drains every waiter.
constexpr Lsn kAllTargets = std::numeric_limits<Lsn>::max();

}  // namespace

LogWriter::LogWriter(NodeId node, LogStore* store)
    : node_(node), store_(store) {
  if (!store_->LogExists(node_)) {
    const Status s = store_->CreateLog(node_);
    POLARMP_CHECK(s.ok()) << s.ToString();
  }
  // What an earlier incarnation left above the landed prefix was never
  // durable; new appends go where it would have been.
  const Status dropped = store_->DropUnlandedTail(node_);
  POLARMP_CHECK(dropped.ok()) << dropped.ToString();
  const auto durable = store_->DurableLsn(node_);
  POLARMP_CHECK(durable.ok());
  durable_ = durable.value();
  buffer_start_ = durable_;
  for (int i = 0; i < kMaxForcesInFlight; ++i) {
    flushers_.emplace_back([this] { FlusherLoop(); });
  }
}

LogWriter::~LogWriter() {
  {
    MutexLock lock(flusher_mu_);
    stop_ = true;
    flusher_cv_.notify_all();
  }
  for (std::thread& t : flushers_) t.join();
}

Lsn LogWriter::Add(const std::vector<LogRecord>& records) {
  std::string encoded;
  for (const LogRecord& rec : records) rec.AppendTo(&encoded);
  return AddEncoded(encoded);
}

Lsn LogWriter::AddEncoded(const std::string& encoded) {
  appends_.Inc();
  MutexLock lock(mu_);
  buffer_ += encoded;
  return buffer_start_ + buffer_.size();
}

LogWriter::ForceHandle LogWriter::ForceAsync(Lsn lsn) {
  Status refused;
  {
    // durable_ advances under flusher_mu_, so a force that lands after this
    // check settles the waiter enqueued below: none is stranded.
    MutexLock lock(flusher_mu_);
    // A null handle reports done/OK, which is exactly the fast path.
    if (durable_ >= lsn) return ForceHandle();
    if (lsn > buffered_lsn()) {
      refused = Status::Internal("force target beyond buffered log");
    } else if (abandoned_ || stop_) {
      refused = Status::Aborted("log writer abandoned");
    } else {
      Waiter w;
      w.enqueue_ns = obs::TraceSpan::NowNanos();
      ForceHandle handle = w.promise.future();
      force_queue_depth_.Add(1);
      waiters_.emplace(lsn, std::move(w));
      flusher_cv_.notify_all();
      return handle;
    }
  }
  StatusPromise promise;
  ForceHandle handle = promise.future();
  promise.Set(refused);
  return handle;
}

LogWriter::ForceHandle LogWriter::ForceAllAsync() {
  return ForceAsync(buffered_lsn());
}

void LogWriter::PauseFlusher() {
  UniqueLock lock(flusher_mu_);
  paused_ = true;
  // Wait out the forces in flight: after return no new force starts.
  flusher_cv_.wait(lock, [&]() REQUIRES(flusher_mu_) {
    return in_flight_ == 0 && !completing_;
  });
}

void LogWriter::ResumeFlusher() {
  MutexLock lock(flusher_mu_);
  paused_ = false;
  flusher_cv_.notify_all();
}

void LogWriter::Abandon() {
  UniqueLock lock(flusher_mu_);
  abandoned_ = true;
  {
    // The volatile buffer evaporates, as it would in a real crash. The
    // durable prefix (and appends already on the wire) stay truthful.
    MutexLock buffer_lock(mu_);
    buffer_.clear();
  }
  // Forces in flight land (completing the waiters they make durable); the
  // last one off the wire, or this call if none is, aborts the rest. On
  // return every handle is completed.
  SettleLocked();
  flusher_cv_.wait(lock, [&]() REQUIRES(flusher_mu_) {
    return in_flight_ == 0 && waiters_.empty() && !completing_;
  });
}

size_t LogWriter::pending_forces() const {
  MutexLock lock(flusher_mu_);
  return waiters_.size();
}

int LogWriter::forces_in_flight() const {
  MutexLock lock(flusher_mu_);
  return in_flight_;
}

std::map<Lsn, LogWriter::Hole>::const_iterator LogWriter::ReforceableHole(
    Lsn top) const {
  for (auto it = holes_.begin(); it != holes_.end() && it->first < top; ++it) {
    if (it->second.status.ok()) return it;
  }
  return holes_.end();
}

bool LogWriter::CanClaim() const {
  if (abandoned_ || paused_ || in_flight_ >= kMaxForcesInFlight ||
      waiters_.empty()) {
    return false;
  }
  const Lsn top = waiters_.rbegin()->first;
  if (ReforceableHole(top) != holes_.end()) return true;
  MutexLock lock(mu_);
  return top > buffer_start_;
}

LogWriter::Force LogWriter::Claim() {
  // Re-force a hole first: durable cannot pass it.
  const auto hole = ReforceableHole(waiters_.rbegin()->first);
  if (hole != holes_.end()) {
    const Force force{hole->first, hole->second.len};
    holes_.erase(hole);
    return force;
  }
  // Claim the WHOLE buffer: one storage append covers every queued
  // committer (group commit). While it is on the wire, committers keep
  // buffering and enqueueing; the next batch accumulates behind it.
  MutexLock lock(mu_);
  // Targets are validated against the buffered end at enqueue and claims
  // happen under flusher_mu_, so a target above the claimed bytes means
  // the buffer holds them.
  POLARMP_CHECK(!buffer_.empty());
  const auto reserved = store_->Reserve(node_, buffer_);
  POLARMP_CHECK(reserved.ok() && reserved.value() == buffer_start_)
      << "log stream diverged from writer bookkeeping";
  const Force force{buffer_start_, buffer_.size()};
  buffer_start_ += buffer_.size();
  buffer_.clear();
  return force;
}

std::vector<LogWriter::Waiter> LogWriter::TakeReady(Lsn durable) {
  const auto end = waiters_.upper_bound(durable);
  std::vector<Waiter> ready;
  for (auto it = waiters_.begin(); it != end; ++it) {
    ready.push_back(std::move(it->second));
  }
  waiters_.erase(waiters_.begin(), end);
  return ready;
}

void LogWriter::Deliver(std::vector<Waiter> waiters, const Status& status) {
  for (Waiter& w : waiters) to_complete_.emplace_back(std::move(w), status);
}

void LogWriter::SettleLocked() {
  std::vector<Waiter> landed = TakeReady(durable_);
  if (!landed.empty()) group_size_.Record(landed.size());
  Deliver(std::move(landed), Status::OK());
  // Every byte below a failed range has landed: its waiters and every
  // waiter above it fail now, in order, and the holes wait for a later
  // waiter to need them re-forced.
  const auto hole = holes_.find(durable_);
  if (hole != holes_.end() && !hole->second.status.ok()) {
    Deliver(TakeReady(kAllTargets), hole->second.status);
    for (auto& [start, h] : holes_) h.status = Status::OK();
  }
  if ((abandoned_ || stop_) && in_flight_ == 0) {
    Deliver(TakeReady(kAllTargets), Status::Aborted("log writer abandoned"));
  }
  DrainCompletionsLocked();
}

void LogWriter::DrainCompletionsLocked() {
  if (completing_) return;  // the thread delivering now takes ours too
  completing_ = true;
  while (!to_complete_.empty()) {
    std::vector<std::pair<Waiter, Status>> batch;
    batch.swap(to_complete_);
    flusher_mu_.unlock();
    for (auto& [w, status] : batch) {
      commit_wait_ns_.Record(obs::TraceSpan::NowNanos() - w.enqueue_ns);
      force_queue_depth_.Add(-1);
      w.promise.Set(status);
    }
    flusher_mu_.lock();
  }
  completing_ = false;
  flusher_cv_.notify_all();
}

void LogWriter::FlusherLoop() {
  UniqueLock lock(flusher_mu_);
  for (;;) {
    flusher_cv_.wait(lock, [&]() REQUIRES(flusher_mu_) {
      return stop_ || CanClaim();
    });
    if (stop_) {
      SettleLocked();
      return;
    }
    const Force force = Claim();
    ++in_flight_;
    forces_in_flight_.Record(in_flight_);
    forces_.Inc();
    lock.unlock();
    StatusOr<Lsn> landed = Lsn{0};
    {
      // force_ns is the device force alone; the committers' wait is
      // commit_wait_ns.
      obs::TraceSpan span(&force_ns_);
      landed = store_->Complete(node_, force.start, force.len);
      if (!landed.ok()) span.Cancel();
    }
    lock.lock();
    --in_flight_;
    if (landed.ok()) {
      durable_ = std::max(durable_, landed.value());
    } else {
      // The bytes stay reserved at their offset; retry policy lives above
      // the log writer, so only a later waiter re-forces them.
      holes_[force.start] = Hole{force.len, landed.status()};
    }
    SettleLocked();
    flusher_cv_.notify_all();
  }
}

void LogWriter::ResetCounters() {
  appends_.Reset();
  forces_.Reset();
  force_ns_.Reset();
  commit_wait_ns_.Reset();
  group_size_.Reset();
  forces_in_flight_.Reset();
}

Lsn LogWriter::durable_lsn() const {
  MutexLock lock(flusher_mu_);
  return durable_;
}

Lsn LogWriter::buffered_lsn() const {
  MutexLock lock(mu_);
  return buffer_start_ + buffer_.size();
}

}  // namespace polarmp
