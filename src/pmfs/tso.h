#ifndef POLARMP_PMFS_TSO_H_
#define POLARMP_PMFS_TSO_H_

#include <atomic>
#include <chrono>

#include "common/lock_rank.h"
#include "common/types.h"
#include "obs/metrics.h"
#include "rdma/fabric.h"

namespace polarmp {

// Fabric region ids hosted at the PMFS endpoint.
inline constexpr uint32_t kTsoRegion = 1;
inline constexpr uint32_t kGlobalMinViewRegion = 2;
inline constexpr uint32_t kGlobalLlsnRegion = 3;

// Timestamp Oracle (§4.1): a logical, incrementally assigned commit
// timestamp counter hosted on PMFS. Nodes fetch commit timestamps with a
// one-sided RDMA fetch-add and read the current value with a one-sided
// read — "typically completed within several microseconds" and priced as
// such by the fabric.
class Tso {
 public:
  explicit Tso(Fabric* fabric);
  ~Tso();

  Tso(const Tso&) = delete;
  Tso& operator=(const Tso&) = delete;

  // Allocates the next commit timestamp (one-sided RDMA fetch-add).
  StatusOr<Csn> NextCts(EndpointId from);

  // Reads the latest assigned CTS without advancing (read views).
  StatusOr<Csn> CurrentCts(EndpointId from);

 private:
  Fabric* const fabric_;
  // counter_ holds the last CTS handed out; starts at kCsnFirst - 1.
  // polarlint: allow(raw-atomic) one-sided RDMA fetch-add target (kTsoRegion)
  // polarlint: unguarded(lock-free fetch-add cell)
  std::atomic<uint64_t> counter_;
};

// Client-side timestamp cache implementing the Linear Lamport Timestamp
// optimization from PolarDB-SCC (§4.1 "Timestamp fetching"): a request may
// reuse a timestamp that was *fetched after the request arrived*, which
// collapses concurrent read-view fetches into one TSO round trip under
// read-committed isolation.
//
// The thread that leads a fetch sleeps no batched SimDelay debt while
// peers wait on it (common/sim_latency.h, BeginSimSleepDeferral): only a
// fetch latency that fills a batch by itself sleeps inside the role; the
// rest is slept after fetch_mu_ is released.
class TsoClient {
 public:
  TsoClient(Tso* tso, EndpointId self, bool use_linear_lamport)
      : tso_(tso), self_(self), use_linear_lamport_(use_linear_lamport) {}

  TsoClient(const TsoClient&) = delete;
  TsoClient& operator=(const TsoClient&) = delete;

  // Returns a CTS valid for a read view of a request arriving "now".
  StatusOr<Csn> ReadTimestamp();

  // Commit timestamps are always fresh fetch-adds.
  StatusOr<Csn> CommitTimestamp();

  // Telemetry shims over this instance's registry handles ("tso.*").
  uint64_t fetches() const { return fetches_.Value(); }
  uint64_t reuses() const { return reuses_.Value(); }

 private:
  static uint64_t NowNanos() {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  Tso* const tso_;
  const EndpointId self_;
  const bool use_linear_lamport_;

  // polarlint: unguarded(lock-free cache; published before fetch_started_at_)
  std::atomic<Csn> cached_ts_{0};
  // Start time of the last *completed* fetch (published after the value).
  // polarlint: allow(raw-atomic) publication timestamp, not a counter
  // polarlint: unguarded(lock-free publication watermark)
  std::atomic<uint64_t> fetch_started_at_{0};  // ns; 0 = never fetched

  // Fetch coalescing: one thread fetches, concurrent requesters whose
  // arrival predates that fetch's start reuse its result.
  RankedMutex fetch_mu_{LockRank::kPmfsService, "tso.fetch"};
  CondVar fetch_cv_;
  bool fetch_in_flight_ GUARDED_BY(fetch_mu_) = false;

  obs::Counter fetches_{"tso.fetches"};
  obs::Counter reuses_{"tso.reuses"};
};

}  // namespace polarmp

#endif  // POLARMP_PMFS_TSO_H_
