// Microbenchmarks (google-benchmark) for the PMFS primitives the paper's
// design arguments rest on (§4): one-sided TSO fetches, remote TIT reads,
// local vs fusion PLock grants, DBP push/fetch, undo appends and log
// forces. Run with zero simulated latency to measure the implementation's
// own CPU cost; the simulated-latency figures are in the fig* benches.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/bench_util.h"
#include "cluster/cluster.h"
#include "obs/metrics.h"

namespace polarmp {
namespace {

struct MicroEnv {
  MicroEnv() {
    ClusterOptions options;  // zero latency
    cluster = Cluster::Create(options).value();
    node1 = cluster->AddNode().value();
    node2 = cluster->AddNode().value();
    cluster->CreateTable("micro").status().ok();
    table1 = node1->OpenTable("micro").value();
    table2 = node2->OpenTable("micro").value();
    Session session(node1, IsolationLevel::kReadCommitted);
    session.Begin().ok();
    for (int64_t k = 0; k < 1000; ++k) {
      session.Insert(table1, k, "micro-value").ok();
    }
    session.Commit().ok();
  }

  std::unique_ptr<Cluster> cluster;
  DbNode* node1;
  DbNode* node2;
  TableHandle table1, table2;
};

MicroEnv* Env() {
  static MicroEnv* env = new MicroEnv();
  return env;
}

void BM_TsoCommitTimestamp(benchmark::State& state) {
  auto* tso = Env()->cluster->txn_fusion()->tso();
  for (auto _ : state) {
    benchmark::DoNotOptimize(tso->NextCts(1));
  }
}
BENCHMARK(BM_TsoCommitTimestamp);

void BM_TsoReadWithLinearLamport(benchmark::State& state) {
  auto* client = Env()->node1->tso_client();
  for (auto _ : state) {
    benchmark::DoNotOptimize(client->ReadTimestamp());
  }
}
BENCHMARK(BM_TsoReadWithLinearLamport);

void BM_TitLocalRead(benchmark::State& state) {
  auto* tit = Env()->cluster->services()->tit;
  const GTrxId gid = tit->AllocSlot(1, 424242).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(tit->ReadSlot(1, gid));
  }
  tit->FreeSlot(gid);
}
BENCHMARK(BM_TitLocalRead);

void BM_TitRemoteRead(benchmark::State& state) {
  auto* tit = Env()->cluster->services()->tit;
  const GTrxId gid = tit->AllocSlot(1, 424243).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(tit->ReadSlot(2, gid));  // cross-node
  }
  tit->FreeSlot(gid);
}
BENCHMARK(BM_TitRemoteRead);

void BM_PLockLocalRegrant(benchmark::State& state) {
  auto* plock = Env()->node1->plock_manager();
  const PageId page{999, 1};
  plock->Pin(page, LockMode::kShared, 1000).ok();
  for (auto _ : state) {
    benchmark::DoNotOptimize(plock->Pin(page, LockMode::kShared, 1000));
    plock->Unpin(page);
  }
  plock->Unpin(page);
}
BENCHMARK(BM_PLockLocalRegrant);

void BM_PLockFusionGrant(benchmark::State& state) {
  auto* fusion = Env()->cluster->lock_fusion();
  const PageId page{999, 2};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fusion->AcquirePLock(1, page, LockMode::kExclusive, 1000));
    fusion->ReleasePLock(1, page, LockMode::kExclusive).ok();
  }
}
BENCHMARK(BM_PLockFusionGrant);

void BM_SessionPointRead(benchmark::State& state) {
  MicroEnv* env = Env();
  Session session(env->node1, IsolationLevel::kReadCommitted);
  session.Begin().ok();
  int64_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.Get(env->table1, k++ % 1000));
  }
  session.Commit().ok();
}
BENCHMARK(BM_SessionPointRead);

void BM_SessionWriteCommit(benchmark::State& state) {
  MicroEnv* env = Env();
  int64_t k = 100000;
  for (auto _ : state) {
    Session session(env->node1, IsolationLevel::kReadCommitted);
    session.Begin().ok();
    session.Put(env->table1, k++, "bench-write").ok();
    benchmark::DoNotOptimize(session.Commit());
  }
}
BENCHMARK(BM_SessionWriteCommit);

void BM_CrossNodePagePingPong(benchmark::State& state) {
  MicroEnv* env = Env();
  int64_t toggle = 0;
  for (auto _ : state) {
    DbNode* node = (toggle++ % 2 == 0) ? env->node1 : env->node2;
    const TableHandle& table = node == env->node1 ? env->table1 : env->table2;
    Session session(node, IsolationLevel::kReadCommitted);
    session.Begin().ok();
    session.Put(table, 7, "ping-pong").ok();
    benchmark::DoNotOptimize(session.Commit());
  }
}
BENCHMARK(BM_CrossNodePagePingPong);

// One row of the post-run fusion-service table, built entirely from the
// process-wide registry (no per-instance getters): how often the service
// was invoked, what one-sided traffic it generated, and its latency shape.
struct ServiceRow {
  const char* service;
  const char* rpc_counter;       // "" if the service has no RPC family
  const char* remote_reads;      // one-sided reads it issued
  const char* remote_writes;     // one-sided writes
  const char* remote_atomics;    // one-sided fetch-add/CAS
  const char* latency_family;    // representative histogram family
};

void PrintFusionServiceTable() {
  const obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  const ServiceRow rows[] = {
      {"lock fusion", "lock_fusion.plock_acquire_rpcs", "", "", "",
       "lock_fusion.plock_wait_ns"},
      {"transaction fusion", "txn_fusion.min_view_reports", "", "",
       "tso.fetches", "txn_fusion.commit_ns"},
      {"buffer fusion", "buffer_fusion.fetches", "", "buffer_fusion.pushes",
       "", ""},
      {"tit", "", "tit.remote_slot_reads", "tit.remote_ref_sets", "",
       "tit.remote_read_ns"},
      {"fabric (all)", "fabric.rpcs", "fabric.remote_reads",
       "fabric.remote_writes", "fabric.remote_atomics", "fabric.rpc_ns"},
  };
  auto cell = [&](const char* family) -> std::string {
    if (family[0] == '\0') return "-";
    return std::to_string(reg.CounterTotal(family));
  };
  std::printf("\nper-fusion-service totals (process-wide registry)\n");
  std::printf("%-20s %12s %12s %12s %12s %12s %12s\n", "service", "rpcs",
              "rd-reads", "rd-writes", "rd-atomics", "p50(ns)", "p99(ns)");
  for (const ServiceRow& row : rows) {
    std::string p50 = "-";
    std::string p99 = "-";
    if (row.latency_family[0] != '\0') {
      const Histogram h = reg.HistogramTotal(row.latency_family);
      if (h.count() > 0) {
        p50 = std::to_string(h.Percentile(50));
        p99 = std::to_string(h.Percentile(99));
      }
    }
    std::printf("%-20s %12s %12s %12s %12s %12s %12s\n", row.service,
                cell(row.rpc_counter).c_str(), cell(row.remote_reads).c_str(),
                cell(row.remote_writes).c_str(),
                cell(row.remote_atomics).c_str(), p50.c_str(), p99.c_str());
  }
}

}  // namespace
}  // namespace polarmp

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  polarmp::PrintFusionServiceTable();
  polarmp::bench::EmitMetricsSidecar("micro_fusion");
  return 0;
}
