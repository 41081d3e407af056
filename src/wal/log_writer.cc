#include "wal/log_writer.h"

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
  const auto durable = store_->DurableLsn(node_);
  POLARMP_CHECK(durable.ok());
  durable_ = durable.value();
  buffer_start_ = durable_;
  flusher_ = std::thread([this] { FlusherLoop(); });
}

LogWriter::~LogWriter() {
  {
    MutexLock lock(flusher_mu_);
    stop_ = true;
    flusher_cv_.notify_all();
  }
  flusher_.join();
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
  bool already_durable = false;
  bool beyond_buffer = false;
  {
    MutexLock lock(mu_);
    if (durable_ >= lsn) {
      already_durable = true;
    } else if (lsn > buffer_start_ + buffer_.size()) {
      beyond_buffer = true;
    }
  }
  // A null handle reports done/OK, which is exactly the fast path.
  if (already_durable) return ForceHandle();
  if (beyond_buffer) {
    StatusPromise promise;
    ForceHandle handle = promise.future();
    promise.Set(Status::Internal("force target beyond buffered log"));
    return handle;
  }
  Waiter w;
  w.enqueue_ns = obs::TraceSpan::NowNanos();
  ForceHandle handle = w.promise.future();
  {
    MutexLock lock(flusher_mu_);
    if (!abandoned_ && !stop_) {
      force_queue_depth_.Add(1);
      waiters_.emplace(lsn, std::move(w));
      flusher_cv_.notify_all();
      return handle;
    }
  }
  w.promise.Set(Status::Aborted("log writer abandoned"));
  return handle;
}

LogWriter::ForceHandle LogWriter::ForceAllAsync() {
  return ForceAsync(buffered_lsn());
}

void LogWriter::PauseFlusher() {
  UniqueLock lock(flusher_mu_);
  paused_ = true;
  // Wait out an in-flight cycle: after return no new force starts.
  flusher_cv_.wait(lock,
                   [&]() REQUIRES(flusher_mu_) { return !flusher_busy_; });
}

void LogWriter::ResumeFlusher() {
  MutexLock lock(flusher_mu_);
  paused_ = false;
  flusher_cv_.notify_all();
}

void LogWriter::Abandon() {
  {
    // The volatile buffer evaporates, as it would in a real crash. The
    // durable prefix (and an append already on the wire) stays truthful.
    MutexLock lock(mu_);
    buffer_.clear();
  }
  UniqueLock lock(flusher_mu_);
  abandoned_ = true;
  flusher_cv_.notify_all();
  // Quiesce: an in-flight force finishes (completing its waiters normally —
  // those bytes made it out), then the flusher drains the rest with
  // Aborted. On return every handle is completed.
  flusher_cv_.wait(lock, [&]() REQUIRES(flusher_mu_) {
    return !flusher_busy_ && waiters_.empty();
  });
}

size_t LogWriter::pending_forces() const {
  MutexLock lock(flusher_mu_);
  return waiters_.size();
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

void LogWriter::Complete(std::vector<Waiter> ready, const Status& status) {
  // Runs with NO LogWriter locks held (rank kFutureState sits below them).
  for (Waiter& w : ready) {
    commit_wait_ns_.Record(obs::TraceSpan::NowNanos() - w.enqueue_ns);
    force_queue_depth_.Add(-1);
    w.promise.Set(status);
  }
}

void LogWriter::FlusherLoop() {
  for (;;) {
    bool draining = false;
    {
      UniqueLock lock(flusher_mu_);
      flusher_cv_.wait(lock, [&]() REQUIRES(flusher_mu_) {
        return stop_ || abandoned_ || (!paused_ && !waiters_.empty());
      });
      draining = stop_ || abandoned_;
      if (!draining && waiters_.empty()) continue;
      flusher_busy_ = true;
    }

    if (draining) {
      std::vector<Waiter> doomed;
      bool exit_now = false;
      {
        MutexLock lock(flusher_mu_);
        doomed = TakeReady(kAllTargets);
      }
      Complete(std::move(doomed), Status::Aborted("log writer abandoned"));
      {
        MutexLock lock(flusher_mu_);
        flusher_busy_ = false;
        exit_now = stop_;
        flusher_cv_.notify_all();
      }
      if (exit_now) return;
      // Abandoned but not yet destroyed: new requests are rejected at
      // enqueue, so just park until the destructor stops us.
      UniqueLock lock(flusher_mu_);
      flusher_cv_.wait(lock, [&]() REQUIRES(flusher_mu_) { return stop_; });
      continue;
    }

    // 1. Complete requests an earlier force already satisfied.
    Lsn durable_now;
    {
      MutexLock lock(mu_);
      durable_now = durable_;
    }
    std::vector<Waiter> ready;
    bool need_force = false;
    {
      MutexLock lock(flusher_mu_);
      ready = TakeReady(durable_now);
      need_force = !waiters_.empty();
    }
    Complete(std::move(ready), Status::OK());

    if (need_force) {
      // 2. Claim the WHOLE buffer: one storage append covers every queued
      //    committer (group commit). While it is on the wire, committers
      //    keep buffering and enqueueing — the next batch accumulates
      //    behind this one (the pipeline).
      std::string batch;
      Lsn batch_start = 0;
      {
        MutexLock lock(mu_);
        batch.swap(buffer_);
        batch_start = buffer_start_;
        buffer_start_ += batch.size();
      }
      if (batch.empty()) {
        // Unreachable through the public API (targets are validated against
        // the buffered end at enqueue; Abandon drains via the branch above).
        // Fail rather than spin if bookkeeping ever diverges.
        std::vector<Waiter> stuck;
        {
          MutexLock lock(flusher_mu_);
          stuck = TakeReady(kAllTargets);
        }
        Complete(std::move(stuck),
                 Status::Internal("force target beyond buffered log"));
      } else {
        forces_.Inc();
        Status force_status = Status::OK();
        Lsn new_durable = 0;
        {
          // force_ns is the device force alone; the committers' wait is
          // commit_wait_ns (split per the latency-accounting fix).
          obs::TraceSpan span(&force_ns_);
          auto appended = store_->Append(node_, batch);
          if (appended.ok()) {
            POLARMP_CHECK_EQ(appended.value(), batch_start)
                << "log stream diverged from writer bookkeeping";
            new_durable = batch_start + batch.size();
          } else {
            force_status = appended.status();
            span.Cancel();
          }
        }
        if (force_status.ok()) {
          {
            MutexLock lock(mu_);
            durable_ = new_durable;
          }
          std::vector<Waiter> landed;
          {
            MutexLock lock(flusher_mu_);
            landed = TakeReady(new_durable);
          }
          if (!landed.empty()) group_size_.Record(landed.size());
          Complete(std::move(landed), Status::OK());
        } else {
          // Restore the batch so a later force can retry the bytes, then
          // fail every queued committer: the durability they asked for did
          // not happen, and retry policy lives above the log writer.
          {
            MutexLock lock(mu_);
            buffer_.insert(0, batch);
            buffer_start_ = batch_start;
          }
          std::vector<Waiter> failed;
          {
            MutexLock lock(flusher_mu_);
            failed = TakeReady(kAllTargets);
          }
          Complete(std::move(failed), force_status);
        }
      }
    }

    {
      MutexLock lock(flusher_mu_);
      flusher_busy_ = false;
      flusher_cv_.notify_all();
    }
  }
}

void LogWriter::ResetCounters() {
  appends_.Reset();
  forces_.Reset();
  force_ns_.Reset();
  commit_wait_ns_.Reset();
  group_size_.Reset();
}

Lsn LogWriter::durable_lsn() const {
  MutexLock lock(mu_);
  return durable_;
}

Lsn LogWriter::buffered_lsn() const {
  MutexLock lock(mu_);
  return buffer_start_ + buffer_.size();
}

}  // namespace polarmp
