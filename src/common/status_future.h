#ifndef POLARMP_COMMON_STATUS_FUTURE_H_
#define POLARMP_COMMON_STATUS_FUTURE_H_

#include <memory>
#include <utility>

#include "common/lock_rank.h"
#include "common/status.h"

namespace polarmp {

// One-shot completion primitive for the group-commit log writer: the
// flusher completes it exactly once with a Status; any number of consumers
// Wait() or poll done(). std::future<Status> would do the same job but
// cannot participate in the lock-rank order — the shared state's mutex here
// is a RankedMutex at kFutureState, so completing or awaiting a future
// while holding an engine lock is caught like any other inversion.
//
// Copyable (shared-state semantics): LogWriter::ForceHandle is an alias of
// this type.

namespace status_future_internal {

struct State {
  mutable RankedMutex mu{LockRank::kFutureState, "future.state"};
  CondVar cv;
  bool done GUARDED_BY(mu) = false;
  Status status GUARDED_BY(mu) = Status::OK();
};

}  // namespace status_future_internal

class StatusFuture {
 public:
  // A default-constructed future is "null": done() is true and Wait()
  // returns OK immediately (used for fast paths that complete inline).
  StatusFuture() = default;

  bool valid() const { return state_ != nullptr; }

  bool done() const {
    if (state_ == nullptr) return true;
    MutexLock lock(state_->mu);
    return state_->done;
  }

  // Blocks until the producer completes the future; returns its Status.
  // Must be called with no engine locks held (rank kFutureState).
  Status Wait() const {
    if (state_ == nullptr) return Status::OK();
    UniqueLock lock(state_->mu);
    state_->cv.wait(lock, [&]() REQUIRES(state_->mu) { return state_->done; });
    return state_->status;
  }

 private:
  friend class StatusPromise;
  explicit StatusFuture(std::shared_ptr<status_future_internal::State> state)
      : state_(std::move(state)) {}

  std::shared_ptr<status_future_internal::State> state_;
};

class StatusPromise {
 public:
  StatusPromise() : state_(std::make_shared<status_future_internal::State>()) {}

  StatusFuture future() const { return StatusFuture(state_); }

  // Completes every current and future waiter. Must be called exactly once.
  void Set(Status status) {
    {
      MutexLock lock(state_->mu);
      POLARMP_CHECK(!state_->done) << "StatusPromise completed twice";
      state_->status = std::move(status);
      state_->done = true;
    }
    state_->cv.notify_all();
  }

 private:
  std::shared_ptr<status_future_internal::State> state_;
};

}  // namespace polarmp

#endif  // POLARMP_COMMON_STATUS_FUTURE_H_
