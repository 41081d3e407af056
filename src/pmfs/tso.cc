#include "pmfs/tso.h"

#include "common/sim_latency.h"
#include "rdma/retry_policy.h"

namespace polarmp {

Tso::Tso(Fabric* fabric) : fabric_(fabric), counter_(kCsnFirst - 1) {
  const Status s = fabric_->RegisterRegion(kPmfsEndpoint, kTsoRegion,
                                           &counter_, sizeof(counter_));
  POLARMP_CHECK(s.ok()) << s.ToString();
}

// polarlint: allow(status-defuse) teardown: nothing to report to.
Tso::~Tso() { (void)fabric_->DeregisterRegion(kPmfsEndpoint, kTsoRegion); }

StatusOr<Csn> Tso::NextCts(EndpointId from) {
  // Safe to retry: the fabric injects atomic faults BEFORE execution, so a
  // failed fetch-add never consumed a timestamp. (A retry that does skip a
  // CSN would still be harmless — the sequence only needs to be monotone.)
  POLARMP_ASSIGN_OR_RETURN(uint64_t prev, RetryTransientOr(fabric_, [&] {
                             return fabric_->FetchAdd64(from, kPmfsEndpoint,
                                                        kTsoRegion,
                                                        /*offset=*/0,
                                                        /*delta=*/1);
                           }));
  return prev + 1;
}

StatusOr<Csn> Tso::CurrentCts(EndpointId from) {
  return RetryTransientOr(fabric_, [&] {
    return fabric_->Load64(from, kPmfsEndpoint, kTsoRegion, /*offset=*/0);
  });
}

StatusOr<Csn> TsoClient::ReadTimestamp() {
  if (!use_linear_lamport_) {
    fetches_.Inc();
    return tso_->CurrentCts(self_);
  }
  const uint64_t arrival = NowNanos();
  for (;;) {
    // Reuse a timestamp whose fetch *started* after our arrival: the TSO
    // sample then reflects every commit that completed before we arrived,
    // which is all read committed needs (PolarDB-SCC's Linear Lamport
    // argument). The watermark is only published after the value, so a
    // match always pairs with a fresh-enough cached value.
    if (fetch_started_at_.load(std::memory_order_acquire) >= arrival) {
      reuses_.Inc();
      return cached_ts_.load(std::memory_order_acquire);
    }
    UniqueLock lock(fetch_mu_);
    if (fetch_in_flight_) {
      // Piggyback: when the in-flight fetch lands, re-check the watermark
      // (it serves us iff it started after our arrival).
      fetch_cv_.wait(lock, [&] { return !fetch_in_flight_; });
      continue;
    }
    if (fetch_started_at_.load(std::memory_order_acquire) >= arrival) {
      continue;  // a fetch landed between our check and the lock
    }
    fetch_in_flight_ = true;
    lock.unlock();

    // Peers block on this fetch: sleep no batched debt until they are
    // woken and fetch_mu_ is released (see the class comment).
    BeginSimSleepDeferral();
    const uint64_t started = NowNanos();
    auto ts = tso_->CurrentCts(self_);
    fetches_.Inc();
    if (ts.ok()) {
      cached_ts_.store(ts.value(), std::memory_order_release);
      fetch_started_at_.store(started, std::memory_order_release);
    }

    lock.lock();
    fetch_in_flight_ = false;
    fetch_cv_.notify_all();
    lock.unlock();
    EndSimSleepDeferral();
    return ts;
  }
}

StatusOr<Csn> TsoClient::CommitTimestamp() {
  fetches_.Inc();
  return tso_->NextCts(self_);
}

}  // namespace polarmp
