#ifndef POLARMP_COMMON_SIM_LATENCY_H_
#define POLARMP_COMMON_SIM_LATENCY_H_

#include <atomic>
#include <cstdint>

namespace polarmp {

// The reproduction runs on commodity hardware with no RDMA NIC and no
// disaggregated-memory fabric, so every "remote" operation charges a
// configurable simulated latency instead. The benchmark harness relies on
// the *ratios* between these costs (RDMA ~30-50x cheaper than a storage
// I/O, RPC a few times an RDMA op), which mirror the paper's platform
// (ConnectX-6 RDMA ~2-5us vs NVMe/PolarStore ~100us+).
//
// Absolute values default to ~10-30x real hardware so that sleeps ride
// above the OS timer granularity; tests use ZeroLatencyProfile() so the
// full stack runs at memory speed.
// Default ratios (what the figures depend on): a log force costs ~30 RDMA
// ops, a storage page I/O ~60, an RPC ~2.4 — mirroring the paper's platform
// where RDMA is single-digit microseconds against 100us-class storage.
struct LatencyProfile {
  uint64_t rdma_read_ns = 15'000;      // one-sided RDMA read
  uint64_t rdma_write_ns = 15'000;     // one-sided RDMA write
  uint64_t rdma_cas_ns = 15'000;       // one-sided RDMA compare-and-swap
  uint64_t rpc_ns = 40'000;            // RDMA-based RPC round trip
  uint64_t storage_read_ns = 3'000'000;   // shared-storage page read
  uint64_t storage_write_ns = 3'000'000;  // shared-storage page write
  uint64_t log_append_ns = 1'200'000;  // redo-log force to storage
  uint64_t log_replay_per_record_ns = 15'000;  // CPU charge to apply one
                                               // redo record (baselines)
  // Engine-work equivalents charged by the behavioral baseline models so
  // their per-statement / per-commit base costs match the full engine that
  // backs PolarDB-MP (B-tree descent, MVCC bookkeeping, undo generation).
  // Calibrated against single-node PolarDB-MP throughput, which the paper
  // reports as comparable across systems.
  uint64_t baseline_op_overhead_ns = 100'000;
  uint64_t baseline_commit_overhead_ns = 1'000'000;
};

LatencyProfile ZeroLatencyProfile();

// Default profile used by benchmarks; see struct defaults.
LatencyProfile BenchLatencyProfile();

// Injects a delay of `ns` nanoseconds. Delays are batched per thread (see
// sim_latency.cc): short ones accrue and are slept off together once the
// thread's account reaches kSimBatchNanos; a delay at or above it sleeps at
// once. Sleeping lets latency-bound worker threads overlap on a host with
// far fewer cores than threads. A process-wide scale factor lets benches
// compress time.
inline constexpr uint64_t kSimBatchNanos = 300'000;
void SimDelay(uint64_t ns);

// Multiplies every SimDelay by `scale` (default 1.0). Benches may use
// <1.0 to compress wall-clock time uniformly, preserving ratios.
void SetSimTimeScale(double scale);
double GetSimTimeScale();

// Leader-role deferral. A thread whose peers block until it finishes (the
// TSO fetch leader, pmfs/tso.h) must not sleep batched debt it ran up
// before taking the role. Between BeginSimSleepDeferral() and
// EndSimSleepDeferral() sub-batch delays accrue without sleeping even past
// the batch threshold; a single delay at or above the threshold is the
// role's own latency and still sleeps at once (leaving the earlier debt
// pending). EndSimSleepDeferral() applies the batch rule to the debt: call
// it only after releasing whatever the peers wait on. Totals are charged
// at SimDelay time either way, so TotalSimDelayNanos() is unaffected.
void BeginSimSleepDeferral();
void EndSimSleepDeferral();

// The calling thread's accrued, not yet slept simulated nanoseconds.
uint64_t PendingSimDelayNanos();

// Counters for observability: total simulated nanoseconds injected and
// number of injections, process-wide.
uint64_t TotalSimDelayNanos();
uint64_t TotalSimDelayCount();
void ResetSimDelayCounters();

}  // namespace polarmp

#endif  // POLARMP_COMMON_SIM_LATENCY_H_
