#include "common/sim_latency.h"

#include <chrono>
#include <thread>

namespace polarmp {

namespace {
std::atomic<double> g_scale{1.0};
// Process totals for the simulated-latency budget. These are counters, but
// obs::Counter would register them with the global metrics registry whose
// construction order we cannot depend on here (SimDelay runs from static
// initializers in some benches).
// polarlint: allow(raw-atomic) pre-registry process totals
std::atomic<uint64_t> g_total_ns{0};
// polarlint: allow(raw-atomic) pre-registry process totals
std::atomic<uint64_t> g_total_count{0};

// Linux sleeps overshoot by 60-90us (timer slack) and spinning to a
// deadline burns a core per waiting thread (the simulated threads far
// outnumber the host's cores), so neither pure strategy works for
// RDMA-class (tens of us) delays. SimDelay instead BATCHES per thread:
// short delays accrue in a thread-local account and are slept off together
// once the account passes kSimBatchNanos. A worker's cumulative simulated
// latency — what throughput measurements integrate over — stays exact up
// to one sleep's overshoot per batch (a uniform few-percent inflation that
// cancels in every ratio); only sub-batch timing interleavings are
// approximated. Delays at or above the threshold sleep immediately.
//
// The leader rule: a thread leading a coalesced TSO fetch (pmfs/tso.h)
// sleeps no batch while its peers wait on it. Otherwise a 15us fetch that
// tips the leader's account over the threshold sleeps 300us+ of EARLIER
// debt while every other reader blocks on the fetch, and none of them can
// reuse it afterwards (they arrived after it started) — a per-node convoy.
// Inside a deferral scope sub-batch delays only accrue; a delay that fills
// a batch by itself is the role's own latency and sleeps at once. The debt
// is slept once the role is handed off (EndSimSleepDeferral).
thread_local uint64_t t_pending_ns = 0;
thread_local bool t_deferring = false;

void SleepPendingIfOverBatch() {
  if (t_pending_ns < kSimBatchNanos) return;
  const uint64_t to_sleep = t_pending_ns;
  t_pending_ns = 0;
  std::this_thread::sleep_for(std::chrono::nanoseconds(to_sleep));
}
}  // namespace

LatencyProfile ZeroLatencyProfile() {
  LatencyProfile p;
  p.rdma_read_ns = 0;
  p.rdma_write_ns = 0;
  p.rdma_cas_ns = 0;
  p.rpc_ns = 0;
  p.storage_read_ns = 0;
  p.storage_write_ns = 0;
  p.log_append_ns = 0;
  p.log_replay_per_record_ns = 0;
  p.baseline_op_overhead_ns = 0;
  p.baseline_commit_overhead_ns = 0;
  return p;
}

LatencyProfile BenchLatencyProfile() { return LatencyProfile(); }

void SetSimTimeScale(double scale) {
  g_scale.store(scale, std::memory_order_relaxed);
}

double GetSimTimeScale() { return g_scale.load(std::memory_order_relaxed); }

uint64_t TotalSimDelayNanos() {
  return g_total_ns.load(std::memory_order_relaxed);
}
uint64_t TotalSimDelayCount() {
  return g_total_count.load(std::memory_order_relaxed);
}
void ResetSimDelayCounters() {
  g_total_ns.store(0, std::memory_order_relaxed);
  g_total_count.store(0, std::memory_order_relaxed);
}

void SimDelay(uint64_t ns) {
  if (ns == 0) return;
  const double scale = g_scale.load(std::memory_order_relaxed);
  const uint64_t scaled = static_cast<uint64_t>(static_cast<double>(ns) * scale);
  g_total_ns.fetch_add(scaled, std::memory_order_relaxed);
  g_total_count.fetch_add(1, std::memory_order_relaxed);
  if (scaled == 0) return;
  if (!t_deferring) {
    t_pending_ns += scaled;
    SleepPendingIfOverBatch();
  } else if (scaled < kSimBatchNanos) {
    t_pending_ns += scaled;
  } else {
    std::this_thread::sleep_for(std::chrono::nanoseconds(scaled));
  }
}

void BeginSimSleepDeferral() { t_deferring = true; }

void EndSimSleepDeferral() {
  t_deferring = false;
  SleepPendingIfOverBatch();
}

uint64_t PendingSimDelayNanos() { return t_pending_ns; }

}  // namespace polarmp
