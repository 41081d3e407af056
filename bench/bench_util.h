#ifndef POLARMP_BENCH_BENCH_UTIL_H_
#define POLARMP_BENCH_BENCH_UTIL_H_

// Shared scaffolding for the figure-reproduction benches.
//
// Every bench reads its knobs from the environment so CI can run short
// smoke passes while a full reproduction uses longer windows:
//   POLARMP_BENCH_MEASURE_MS   measurement window per data point (default 1500)
//   POLARMP_BENCH_WARMUP_MS    warmup per data point (default 400)
//   POLARMP_BENCH_THREADS      workers per node (default 2)
//   POLARMP_BENCH_MAX_NODES    cap on the node-count sweep
//
// Loading and teardown run with SetSimTimeScale(0) (instant), measurement
// at scale 1.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "baselines/database.h"
#include "obs/metrics.h"
#include "rdma/fabric.h"
#include "rdma/fault_injector.h"
#include "workload/driver.h"

namespace polarmp {
namespace bench {

struct BenchConfig {
  uint64_t measure_ms = 1'500;
  uint64_t warmup_ms = 400;
  int threads_per_node = 2;
  int max_nodes = 8;

  static BenchConfig FromEnv() {
    BenchConfig cfg;
    if (const char* v = std::getenv("POLARMP_BENCH_MEASURE_MS")) {
      cfg.measure_ms = std::strtoull(v, nullptr, 10);
    }
    if (const char* v = std::getenv("POLARMP_BENCH_WARMUP_MS")) {
      cfg.warmup_ms = std::strtoull(v, nullptr, 10);
    }
    if (const char* v = std::getenv("POLARMP_BENCH_THREADS")) {
      cfg.threads_per_node = std::atoi(v);
    }
    if (const char* v = std::getenv("POLARMP_BENCH_MAX_NODES")) {
      cfg.max_nodes = std::atoi(v);
    }
    return cfg;
  }

  std::vector<int> NodeSweep(std::vector<int> candidates) const {
    std::vector<int> out;
    for (int n : candidates) {
      if (n <= max_nodes) out.push_back(n);
    }
    return out;
  }
};

inline ClusterOptions MakeBenchClusterOptions(int nodes) {
  ClusterOptions options;
  options.latency = BenchLatencyProfile();
  // Keep DSM usage bounded at high node counts.
  options.undo_segment_bytes = 8ull << 20;
  options.dsm_bytes_per_server = (64ull << 20) +
                                 static_cast<uint64_t>(nodes) * (12ull << 20);
  options.node.trx.lock_wait_timeout_ms = 2'000;
  // POLARMP_INDEX_CACHE=0 disables the compute-side index cache (the
  // cache-off ablation every bench can run without a rebuild).
  if (const char* v = std::getenv("POLARMP_INDEX_CACHE")) {
    if (std::atoi(v) == 0) options.node.cache.slots = 0;
  }
  // POLARMP_BENCH_LBP_FRAMES shrinks the local buffer pool, modelling the
  // compute node whose working set exceeds its LBP — the regime the index
  // cache targets (routing images are far smaller than the pages an LBP
  // frame would pin, so they survive where the frames do not).
  if (const char* v = std::getenv("POLARMP_BENCH_LBP_FRAMES")) {
    options.node.lbp.frames = static_cast<uint32_t>(std::atoi(v));
  }
  return options;
}

// POLARMP_FAULT_SEED=<nonzero>: arm the fabric's fault injector with the
// seeded DefaultChaosPlan — the chaos CI mode. Called AFTER workload
// loading (load phases use POLARMP_CHECK and run at time-scale 0, where a
// surfaced Busy would abort the bench rather than measure resilience), so
// only the measured traffic sees injected faults. Returns the seed, 0 when
// chaos is off.
inline uint64_t ArmChaosFromEnv(Fabric* fabric) {
  const char* v = std::getenv("POLARMP_FAULT_SEED");
  if (v == nullptr) return 0;
  const uint64_t seed = std::strtoull(v, nullptr, 10);
  if (seed != 0) fabric->fault_injector()->Arm(DefaultChaosPlan(seed));
  return seed;
}

// Fabric round trips (one-sided reads/writes/atomics + RPCs; coalesced
// doorbell passengers excluded — they share a round trip) per committed
// transaction, over the whole process so far. The headline figure for the
// compute-side cache: descents that route through cached internal pages
// skip the per-level Buffer Fusion traffic entirely.
inline double FabricOpsPerTxn() {
  const auto& reg = obs::MetricsRegistry::Global();
  const uint64_t ops = reg.CounterTotal("fabric.remote_reads") +
                       reg.CounterTotal("fabric.remote_writes") +
                       reg.CounterTotal("fabric.remote_atomics") +
                       reg.CounterTotal("fabric.rpcs");
  const uint64_t txns = reg.CounterTotal("trx.commits");
  return txns > 0 ? static_cast<double>(ops) / static_cast<double>(txns)
                  : 0.0;
}

// Loads `workload` at time-scale 0 (instant I/O), measures at scale 1, then
// returns at scale 0 so the caller's teardown (node stop, final flushes)
// costs no simulated latency.
inline DriverResult SetupAndRun(Database* db, Workload* workload, int nodes,
                                const BenchConfig& cfg) {
  SetSimTimeScale(0.0);
  const Status setup = workload->Setup(db);
  SetSimTimeScale(1.0);
  if (!setup.ok()) {
    std::fprintf(stderr, "workload setup failed: %s\n",
                 setup.ToString().c_str());
    std::exit(1);
  }
  DriverOptions opts;
  opts.num_nodes = nodes;
  opts.threads_per_node = cfg.threads_per_node;
  opts.warmup_ms = cfg.warmup_ms;
  opts.duration_ms = cfg.measure_ms;
  const DriverResult result = RunWorkload(db, workload, opts);
  SetSimTimeScale(0.0);
  return result;
}

inline void PrintFigureHeader(const char* figure, const char* title) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", figure, title);
  std::printf("==============================================================\n");
}

inline void PrintRow(const std::string& label, double tps, double relative,
                     double abort_rate, double p95_ms) {
  std::printf("%-34s %10.0f tps   %5.2fx   aborts %4.1f%%   p95 %6.2f ms\n",
              label.c_str(), tps, relative, abort_rate * 100.0, p95_ms);
}

// Dumps the process-wide metrics registry next to the binary's output as
// `<bench_name>.metrics.json` (override the directory with
// POLARMP_METRICS_DIR). Called at the end of every bench main so each run
// leaves a machine-readable sidecar of every `component.instrument` family.
inline void EmitMetricsSidecar(const std::string& bench_name) {
  std::string path = bench_name + ".metrics.json";
  if (const char* dir = std::getenv("POLARMP_METRICS_DIR")) {
    path = std::string(dir) + "/" + path;
  }
  std::string json = obs::MetricsRegistry::Global().SnapshotJson();
  // Splice the derived figures in as a top-level "derived" section so the
  // sidecar carries fabric_ops_per_txn ready-made (no consumer re-derives
  // it from the counter families).
  const size_t close = json.rfind('}');
  if (close != std::string::npos) {
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  ",\n  \"derived\": {\n    \"fabric_ops_per_txn\": %.4f\n  }\n",
                  FabricOpsPerTxn());
    json.insert(close, buf);
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "metrics sidecar: cannot open %s\n", path.c_str());
    return;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::printf("\nmetrics sidecar: %s\n", path.c_str());
}

}  // namespace bench
}  // namespace polarmp

#endif  // POLARMP_BENCH_BENCH_UTIL_H_
