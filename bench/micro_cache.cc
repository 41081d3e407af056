// Compute-side index-cache microbenchmark (ISSUE 7): hit/miss/invalidation
// sweep plus a fabric-ops table.
//
// Phase 1 — read-only point lookups on ONE node, cache off vs cache on.
// Every lookup descends the clustered B-tree; without the cache each
// internal level costs a PLock pin and (on LBP miss) Buffer Fusion traffic,
// with it the descent routes through cached internal images and touches
// only the leaf. The headline column is fabric round trips per committed
// (read-only) transaction, which the cache must cut.
//
// Phase 2 — invalidation churn on TWO nodes: node 0 runs the same readers
// while node 1 splits leaves (dense appends) and periodically checkpoints,
// one-sided invalidating node 0's cached images. Measures how the hit rate
// and the stale-reject/refresh traffic behave under continuous SMOs.
//
// Phase 3 — LBP pressure: 1 KiB pages deepen the tree and a 64-frame LBP
// cannot hold the working set, so without the cache every descent level is
// a Buffer Fusion round trip. This is the regime the cache exists for.
//
// Standard bench env knobs apply (POLARMP_BENCH_MEASURE_MS,
// POLARMP_BENCH_WARMUP_MS, POLARMP_BENCH_THREADS); POLARMP_INDEX_CACHE=0
// forces the cache off everywhere (phase 1 toggles it per point anyway).
// Emits the usual metrics sidecar, which carries every index_cache.*
// family plus the derived fabric_ops_per_txn.

#include <atomic>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "cluster/cluster.h"
#include "common/random.h"
#include "node/session.h"
#include "obs/metrics.h"

namespace polarmp {
namespace {

constexpr int64_t kSeedRows = 8'000;

struct Point {
  double reads_per_sec = 0;
  double fabric_ops_per_read = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t stale_rejects = 0;
  uint64_t refreshes = 0;
};

uint64_t FabricOpsTotal() {
  const auto& reg = obs::MetricsRegistry::Global();
  return reg.CounterTotal("fabric.remote_reads") +
         reg.CounterTotal("fabric.remote_writes") +
         reg.CounterTotal("fabric.remote_atomics") +
         reg.CounterTotal("fabric.rpcs");
}

void SeedRows(DbNode* node, const TableHandle& table, int64_t begin,
              int64_t end) {
  SetSimTimeScale(0.0);
  for (int64_t k = begin; k < end; k += 2'000) {
    Session s(node, IsolationLevel::kReadCommitted);
    POLARMP_CHECK(s.Begin().ok());
    const int64_t batch_end = std::min(end, k + 2'000);
    for (int64_t i = k; i < batch_end; ++i) {
      POLARMP_CHECK(s.Insert(table, i, "cache-bench-row").ok());
    }
    POLARMP_CHECK(s.Commit().ok());
  }
  SetSimTimeScale(1.0);
}

struct PointOpts {
  bool cache_on = true;
  // Adds a splitting/checkpointing writer on a second node.
  bool churn_writer = false;
  // 0 keeps the cluster defaults. Small pages deepen the tree; few LBP
  // frames force the descent's pages out of the local pool.
  uint32_t page_size = 0;
  uint32_t lbp_frames = 0;
  uint32_t cache_slots = 0;
  int64_t rows = kSeedRows;
};

Point RunPoint(const PointOpts& po, const bench::BenchConfig& cfg) {
  const int nodes = po.churn_writer ? 2 : 1;
  ClusterOptions options = bench::MakeBenchClusterOptions(nodes);
  if (!po.cache_on) options.node.cache.slots = 0;
  if (po.page_size != 0) options.page_size = po.page_size;
  if (po.lbp_frames != 0) options.node.lbp.frames = po.lbp_frames;
  // The environment can only force the cache off (slots = 0).
  if (po.cache_slots != 0 && options.node.cache.slots != 0) {
    options.node.cache.slots = po.cache_slots;
  }
  auto cluster = Cluster::Create(options).value();
  std::vector<DbNode*> db;
  for (int i = 0; i < nodes; ++i) db.push_back(cluster->AddNode().value());
  POLARMP_CHECK(cluster->CreateTable("ic").ok());
  std::vector<TableHandle> tables;
  for (DbNode* n : db) tables.push_back(n->OpenTable("ic").value());
  SeedRows(db[0], tables[0], 0, po.rows);
  // Push the freshly loaded tree to the DBP (a just-bulk-loaded table is
  // flushed in any real deployment). Without this the seeded internals sit
  // dirty-local and are not cacheable until LBP churn pushes them.
  SetSimTimeScale(0.0);
  POLARMP_CHECK(db[0]->Checkpoint().ok());
  SetSimTimeScale(1.0);

  std::atomic<bool> measuring{false};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < cfg.threads_per_node; ++t) {
    workers.emplace_back([&, t] {
      Random rng(0xCACE + t);
      Session s(db[0], IsolationLevel::kReadCommitted);
      while (!stop.load(std::memory_order_relaxed)) {
        if (!s.Begin().ok()) break;
        const int64_t key = static_cast<int64_t>(rng.Uniform(po.rows));
        const bool ok = s.Get(tables[0], key).ok();
        if (s.Commit().ok() && ok &&
            measuring.load(std::memory_order_relaxed)) {
          reads.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  if (po.churn_writer) {
    workers.emplace_back([&] {
      int64_t next = po.rows;
      int batches = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        Session s(db[1], IsolationLevel::kReadCommitted);
        if (!s.Begin().ok()) break;
        bool ok = true;
        for (int i = 0; i < 50 && ok; ++i) {
          ok = s.Insert(tables[1], next++, "churn-row").ok();
        }
        if (!s.Commit().ok()) continue;
        // Every few batches push the dirty pages so the split's internal-
        // page updates one-sided invalidate node 0's cached images.
        if (++batches % 4 == 0) (void)db[1]->Checkpoint();
      }
    });
  }

  IndexCache* cache = db[0]->index_cache();
  std::this_thread::sleep_for(std::chrono::milliseconds(cfg.warmup_ms));
  const uint64_t ops0 = FabricOpsTotal();
  const uint64_t hits0 = cache->hits();
  const uint64_t miss0 = cache->misses();
  const uint64_t stale0 = cache->stale_rejects();
  const uint64_t refresh0 = cache->one_sided_refreshes();
  measuring.store(true);
  const auto t0 = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(cfg.measure_ms));
  const uint64_t count = reads.load();
  const uint64_t ops1 = FabricOpsTotal();
  const auto t1 = std::chrono::steady_clock::now();
  stop.store(true);
  for (auto& w : workers) w.join();

  const double secs =
      std::chrono::duration_cast<std::chrono::duration<double>>(t1 - t0)
          .count();
  Point p;
  p.reads_per_sec = static_cast<double>(count) / secs;
  p.fabric_ops_per_read =
      count > 0 ? static_cast<double>(ops1 - ops0) / static_cast<double>(count)
                : 0.0;
  p.hits = cache->hits() - hits0;
  p.misses = cache->misses() - miss0;
  p.stale_rejects = cache->stale_rejects() - stale0;
  p.refreshes = cache->one_sided_refreshes() - refresh0;
  return p;
}

void PrintPoint(const char* label, const Point& p) {
  const uint64_t routed = p.hits + p.misses;
  std::printf(
      "  %-26s %9.0f reads/s   fabric ops/read %6.2f   hit rate %5.1f%%   "
      "stale rejects %llu   refreshes %llu\n",
      label, p.reads_per_sec, p.fabric_ops_per_read,
      routed > 0 ? 100.0 * static_cast<double>(p.hits) /
                       static_cast<double>(routed)
                 : 0.0,
      static_cast<unsigned long long>(p.stale_rejects),
      static_cast<unsigned long long>(p.refreshes));
}

}  // namespace
}  // namespace polarmp

int main() {
  using namespace polarmp;
  const bench::BenchConfig cfg = bench::BenchConfig::FromEnv();
  bench::PrintFigureHeader(
      "micro_cache", "compute-side index cache: hits, misses, invalidation");

  std::printf("\n-- phase 1: read-only point lookups, 1 node --\n");
  PointOpts warm;
  warm.cache_on = false;
  const Point off = RunPoint(warm, cfg);
  PrintPoint("cache off", off);
  warm.cache_on = true;
  const Point on = RunPoint(warm, cfg);
  PrintPoint("cache on", on);
  if (off.fabric_ops_per_read > 0) {
    std::printf("  fabric ops/read reduction: %.1f%%\n",
                100.0 * (1.0 - on.fabric_ops_per_read /
                                   off.fabric_ops_per_read));
  }

  std::printf(
      "\n-- phase 2: invalidation churn, 2 nodes (reader + splitting "
      "writer) --\n");
  // Remote splits rewrite internal pages, revoking the reader's PLocks on
  // them; an unrouted descent re-pins every level through Lock Fusion while
  // a routed one touches only the leaf.
  PointOpts churny;
  churny.churn_writer = true;
  churny.cache_on = false;
  const Point churn_off = RunPoint(churny, cfg);
  PrintPoint("cache off + remote SMOs", churn_off);
  churny.cache_on = true;
  const Point churn = RunPoint(churny, cfg);
  PrintPoint("cache on + remote SMOs", churn);
  if (churn_off.fabric_ops_per_read > 0) {
    std::printf("  fabric ops/read reduction under churn: %.1f%%\n",
                100.0 * (1.0 - churn.fabric_ops_per_read /
                                   churn_off.fabric_ops_per_read));
  }

  std::printf(
      "\n-- phase 3: LBP pressure (1 KiB pages, deep tree, tiny LBP) --\n");
  // The regime the cache targets: the working set dwarfs the LBP, so every
  // descent level is an LBP miss. Cache off pays the Buffer Fusion
  // register/fetch cycle per internal level; cache on routes through the
  // cached images and pays it only for the leaf. A warm LBP (phase 1) hides
  // this entirely — internal pages are the hottest pages and LRU keeps
  // them resident until the pool is too small to hold the churn.
  PointOpts pressure;
  pressure.page_size = 1024;
  pressure.lbp_frames = 64;
  // The tree's ~2k internal pages must fit: 4096 routing slots cost 4 MiB
  // where 4096 LBP frames would pin 4 MiB of page frames PLUS their PLocks
  // — and the LBP needs the leaves far more than the internals.
  pressure.cache_slots = 4096;
  pressure.rows = 200'000;
  pressure.cache_on = false;
  const Point cold_off = RunPoint(pressure, cfg);
  PrintPoint("cache off + LBP pressure", cold_off);
  pressure.cache_on = true;
  const Point cold_on = RunPoint(pressure, cfg);
  PrintPoint("cache on + LBP pressure", cold_on);
  if (cold_off.fabric_ops_per_read > 0) {
    std::printf("  fabric ops/read reduction under LBP pressure: %.1f%%\n",
                100.0 * (1.0 - cold_on.fabric_ops_per_read /
                                   cold_off.fabric_ops_per_read));
  }

  std::printf("\nprocess-wide fabric_ops_per_txn: %.2f\n",
              bench::FabricOpsPerTxn());
  bench::EmitMetricsSidecar("micro_cache");
  return 0;
}
