// Commit-path microbenchmark (ISSUE 6): committed-tps as a function of
// concurrent committers on ONE node.
//
// Each committer thread loops minimal write transactions — a single-row
// Put on a private key, then Commit — so the measured path is dominated by
// the commit pipeline (CTS fetch, redo force, TIT publish) rather than by
// engine work or row conflicts. Under the bench latency profile the redo
// force costs 1.2 ms, so without group commit committed-tps is pinned near
// 1/force-latency per committer; the pipelined group-commit log writer
// amortizes one in-flight force over every queued committer.
//
// Sweeps committers {1, 2, 4, 8} and prints tps, scaling vs. one
// committer, and the mean force group size (appends per device force) for
// each point. Standard bench env knobs apply
// (POLARMP_BENCH_MEASURE_MS, POLARMP_BENCH_WARMUP_MS); emits the usual
// metrics sidecar, which carries the full log_writer.group_size histogram.

#include <atomic>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "cluster/cluster.h"
#include "node/session.h"
#include "obs/metrics.h"

namespace polarmp {
namespace {

struct Point {
  int committers = 0;
  double tps = 0;
  double mean_group = 0;  // log appends per device force during measure
};

Point RunPoint(int committers, const bench::BenchConfig& cfg) {
  auto cluster_or = Cluster::Create(bench::MakeBenchClusterOptions(1));
  POLARMP_CHECK(cluster_or.ok());
  auto cluster = std::move(cluster_or).value();
  auto node_or = cluster->AddNode();
  POLARMP_CHECK(node_or.ok());
  DbNode* node = node_or.value();
  POLARMP_CHECK(cluster->CreateTable("mc").ok());
  auto table_or = node->OpenTable("mc");
  POLARMP_CHECK(table_or.ok());
  const TableHandle table = table_or.value();

  // Load one private row per committer at time-scale 0 (instant I/O).
  SetSimTimeScale(0.0);
  {
    Session s(node, IsolationLevel::kReadCommitted);
    POLARMP_CHECK(s.Begin().ok());
    for (int i = 0; i < committers; ++i) {
      POLARMP_CHECK(s.Insert(table, 1000 + i, "seed-value").ok());
    }
    POLARMP_CHECK(s.Commit().ok());
  }
  SetSimTimeScale(1.0);
  // Chaos mode: measured traffic (not the load above) runs under the
  // seeded fault plan; the retry/dedup wrappers must absorb every injected
  // transient or the committers start failing and the point reads low.
  bench::ArmChaosFromEnv(cluster->fabric());

  std::atomic<bool> measuring{false};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> committed{0};
  std::vector<std::thread> workers;
  workers.reserve(committers);
  for (int i = 0; i < committers; ++i) {
    workers.emplace_back([&, i] {
      Session s(node, IsolationLevel::kReadCommitted);
      uint64_t serial = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        if (!s.Begin().ok()) break;
        const std::string value = "v" + std::to_string(serial++);
        if (!s.Put(table, 1000 + i, value).ok()) continue;
        if (s.Commit().ok() && measuring.load(std::memory_order_relaxed)) {
          committed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  const auto& reg = obs::MetricsRegistry::Global();
  std::this_thread::sleep_for(std::chrono::milliseconds(cfg.warmup_ms));
  measuring.store(true);
  const uint64_t appends0 = reg.CounterTotal("log_writer.appends");
  const uint64_t forces0 = reg.CounterTotal("log_writer.forces");
  const auto t0 = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(cfg.measure_ms));
  const uint64_t count = committed.load();
  const uint64_t appends1 = reg.CounterTotal("log_writer.appends");
  const uint64_t forces1 = reg.CounterTotal("log_writer.forces");
  const auto t1 = std::chrono::steady_clock::now();
  stop.store(true);
  for (auto& w : workers) w.join();
  const double secs =
      std::chrono::duration_cast<std::chrono::duration<double>>(t1 - t0)
          .count();
  Point p;
  p.committers = committers;
  p.tps = static_cast<double>(count) / secs;
  p.mean_group = forces1 > forces0
                     ? static_cast<double>(appends1 - appends0) /
                           static_cast<double>(forces1 - forces0)
                     : 0.0;
  return p;
}

void RunSweep(const bench::BenchConfig& cfg) {
  std::printf("\n-- durable commit (blocking Session::Commit) --\n");
  std::vector<Point> points;
  for (int committers : {1, 2, 4, 8}) {
    points.push_back(RunPoint(committers, cfg));
    const Point& p = points.back();
    const double base = points.front().tps;
    std::printf(
        "  %d committer(s): %10.0f tps   %5.2fx vs 1   mean group %.2f\n",
        committers, p.tps, base > 0 ? p.tps / base : 0.0, p.mean_group);
  }
}

void PrintGroupSizeHistogram() {
  const Histogram h =
      obs::MetricsRegistry::Global().HistogramTotal("log_writer.group_size");
  if (h.count() == 0) return;
  std::printf(
      "\nlog_writer.group_size (all points): count=%llu mean=%.2f "
      "p50=%llu p90=%llu p99=%llu max=%llu\n",
      static_cast<unsigned long long>(h.count()), h.Mean(),
      static_cast<unsigned long long>(h.Percentile(50)),
      static_cast<unsigned long long>(h.Percentile(90)),
      static_cast<unsigned long long>(h.Percentile(99)),
      static_cast<unsigned long long>(h.max()));
}

}  // namespace
}  // namespace polarmp

int main() {
  using namespace polarmp;
  const bench::BenchConfig cfg = bench::BenchConfig::FromEnv();
  bench::PrintFigureHeader("micro_commit",
                           "commit-path scaling with concurrent committers");
  std::printf("force latency: %.1f ms (BenchLatencyProfile log_append_ns)\n",
              BenchLatencyProfile().log_append_ns / 1e6);
  RunSweep(cfg);
  PrintGroupSizeHistogram();
  bench::EmitMetricsSidecar("micro_commit");
  return 0;
}
