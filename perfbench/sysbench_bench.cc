// Closed-loop SysBench benchmark of PolarDB-MP, driven only through the
// Database/Connection interface (baselines/database.h) and reusing
// SysbenchWorkload for loading and transaction generation.
//
//   sysbench_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// One process runs one workload:
//   1. times kSetups set-ups (cluster creation + data load at time scale 0),
//      one of them the measured cluster's and the rest in forked children,
//      and reports the fastest as setup_s;
//   2. runs the closed loop untraced for <s> seconds: tps and exact p50/p99
//      from the raw latency of every committed transaction;
//   3. runs it again traced, timing each Connection call in a decorator and
//      diffing the engine's obs counters over the window, and checks that the
//      workload still stresses the layer it was chosen for;
//   4. scans every loaded table for exactly keys 1..rows.
// Every Get is checked in both runs. The last stdout line is the JSON result
// (end-to-end metrics with --trace 0, per-layer metrics with --trace 1); the
// exit code is 0 only when every check held.

#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "baselines/database.h"
#include "common/sim_latency.h"
#include "obs/metrics.h"
#include "workload/sysbench.h"

namespace polarmp {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kSetups = 9;  // set-ups per run; setup_s is the fastest
constexpr int kTablesPerGroup = 4;
constexpr int64_t kRowsPerTable = 10'000;
constexpr int kValueSize = 64;
constexpr uint64_t kWarmupMs = 1'000;
constexpr uint64_t kTracedWarmupMs = 300;

struct Spec {
  const char* name;
  int nodes;
  int clients_per_node;
  SysbenchOptions::Mix mix;
  int shared_pct;
  uint32_t lbp_frames;
};

constexpr Spec kSpecs[] = {
    {"ro_hot_1n", 1, 4, SysbenchOptions::Mix::kReadOnly, 0, 1024},
    {"ro_cold_2n", 2, 2, SysbenchOptions::Mix::kReadOnly, 100, 128},
    {"rw_shared_2n", 2, 2, SysbenchOptions::Mix::kReadWrite, 100, 1024},
};

SysbenchOptions WorkloadOptions(const Spec& spec) {
  SysbenchOptions o;
  o.num_nodes = spec.nodes;
  o.tables_per_group = kTablesPerGroup;
  o.rows_per_table = kRowsPerTable;
  o.shared_pct = spec.shared_pct;
  o.mix = spec.mix;
  o.reads_per_txn = 10;
  o.writes_per_txn = 4;  // 2 puts + a delete/put pair on one key
  o.value_size = kValueSize;
  return o;
}

// The repository's bench cluster (bench/bench_util.h) with the LBP size
// pinned per workload.
ClusterOptions MakeClusterOptions(const Spec& spec) {
  ClusterOptions o;
  o.latency = BenchLatencyProfile();
  o.undo_segment_bytes = 8ull << 20;
  o.dsm_bytes_per_server =
      (64ull << 20) + static_cast<uint64_t>(spec.nodes) * (12ull << 20);
  o.node.trx.lock_wait_timeout_ms = 2'000;
  o.node.lbp.frames = spec.lbp_frames;
  return o;
}

// Tables SysbenchWorkload::Setup loads: the shared group when queries go
// there, else the private groups (names follow workload/sysbench.cc).
std::vector<std::string> LoadedTables(const Spec& spec) {
  std::vector<int> groups;
  if (spec.shared_pct > 0) groups.push_back(spec.nodes);
  if (spec.shared_pct < 100) {
    for (int g = 0; g < spec.nodes; ++g) groups.push_back(g);
  }
  std::vector<std::string> names;
  for (int g : groups) {
    for (int t = 0; t < kTablesPerGroup; ++t) {
      names.push_back("sbtest_g" + std::to_string(g) + "_t" +
                      std::to_string(t));
    }
  }
  return names;
}

// A row the workload can hold: loaded as all 'v', rewritten as all 'w'.
bool ValidPayload(const std::string& v) {
  return v.size() == static_cast<size_t>(kValueSize) &&
         (v[0] == 'v' || v[0] == 'w') &&
         std::all_of(v.begin(), v.end(), [&](char c) { return c == v[0]; });
}

uint64_t Nanos(Clock::duration d) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
}

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

enum Op { kBegin, kGet, kPut, kDelete, kCommit, kNumOps };
constexpr const char* kOpNames[kNumOps] = {"begin", "get", "put", "delete",
                                           "commit"};

struct OpTotals {
  uint64_t ns[kNumOps] = {};

  void Add(const OpTotals& o) {
    for (int i = 0; i < kNumOps; ++i) ns[i] += o.ns[i];
  }
};

// Connection decorator owned by one client thread. It checks every Get
// against the rows the workload can hold and, when tracing, times each call
// into the node layer. Spans accrue per transaction until TakeSpans().
class CheckedConnection : public Connection {
 public:
  CheckedConnection(std::unique_ptr<Connection> inner, bool trace)
      : inner_(std::move(inner)), trace_(trace) {}

  Status Begin() override {
    bad_read_ = false;
    return Timed(kBegin, [&] { return inner_->Begin(); });
  }
  Status Commit() override {
    return Timed(kCommit, [&] { return inner_->Commit(); });
  }
  Status Rollback() override { return inner_->Rollback(); }
  Status Insert(const std::string& table, int64_t key, Slice value) override {
    return inner_->Insert(table, key, value);
  }
  Status Update(const std::string& table, int64_t key, Slice value) override {
    return inner_->Update(table, key, value);
  }
  Status Put(const std::string& table, int64_t key, Slice value) override {
    return Timed(kPut, [&] { return inner_->Put(table, key, value); });
  }
  Status Delete(const std::string& table, int64_t key) override {
    return Timed(kDelete, [&] { return inner_->Delete(table, key); });
  }
  StatusOr<std::string> Get(const std::string& table, int64_t key) override {
    StatusOr<std::string> v =
        Timed(kGet, [&] { return inner_->Get(table, key); });
    if (v.ok() ? !ValidPayload(*v) : v.status().IsNotFound()) bad_read_ = true;
    return v;
  }
  Status Scan(const std::string& table, int64_t lo, int64_t hi,
              const std::function<bool(int64_t, const std::string&)>& fn)
      override {
    return inner_->Scan(table, lo, hi, fn);
  }

  // A Get since the last Begin found no row or a payload never written.
  bool bad_read() const { return bad_read_; }

  OpTotals TakeSpans() {
    const OpTotals out = spans_;
    spans_ = OpTotals{};
    return out;
  }

 private:
  template <typename F>
  std::invoke_result_t<F> Timed(Op op, F&& call) {
    if (!trace_) return call();
    const auto t0 = Clock::now();
    auto result = call();
    spans_.ns[op] += Nanos(Clock::now() - t0);
    return result;
  }

  std::unique_ptr<Connection> inner_;
  const bool trace_;
  bool bad_read_ = false;
  OpTotals spans_;
};

// One closed-loop window. A transaction counts when it completes inside it.
struct Window {
  uint64_t committed = 0;
  uint64_t aborted = 0;
  uint64_t errors = 0;
  uint64_t bad_reads = 0;  // committed, but a Get failed its check
  double elapsed_s = 0;
  std::vector<uint64_t> latency_ns;  // committed transactions, raw
  OpTotals spans;                    // committed transactions, traced runs
  uint64_t txn_ns = 0;               // committed transactions

  uint64_t failed() const { return aborted + errors + bad_reads; }
  uint64_t attempted() const { return committed + failed(); }
  double tps() const {
    return elapsed_s > 0 ? static_cast<double>(committed) / elapsed_s : 0;
  }

  void Merge(const Window& o) {
    committed += o.committed;
    aborted += o.aborted;
    errors += o.errors;
    bad_reads += o.bad_reads;
    latency_ns.insert(latency_ns.end(), o.latency_ns.begin(),
                      o.latency_ns.end());
    spans.Add(o.spans);
    txn_ns += o.txn_ns;
  }
};

// Engine-wide totals read from the obs registry, the SimDelay counters and
// the process CPU clock.
struct LayerSnapshot {
  std::map<std::string, double> values;

  static LayerSnapshot Take() {
    static const char* const kCounters[] = {
        "tso.fetches",
        "tso.reuses",
        "fabric.remote_reads",
        "fabric.remote_writes",
        "fabric.remote_atomics",
        "fabric.rpcs",
        "fabric.retries",
        "buffer_pool.hits",
        "buffer_pool.dbp_fetches",
        "buffer_pool.invalid_refetches",
        "buffer_pool.storage_loads",
        "plock.local_grants",
        "plock.fusion_acquires",
        "plock.negotiated_releases",
        "buffer_fusion.fetches",
        "buffer_fusion.pushes",
        "buffer_fusion.invalidations",
        "lock_fusion.rlock_waits",
        "txn.lock_waits",
        "tit.remote_slot_reads",
        "log_writer.forces",
        "index_cache.hits",
        "index_cache.misses",
        "index_cache.stale_rejects",
        "page_store.reads",
        "page_store.writes",
    };
    static const char* const kHistograms[] = {
        "log_writer.group_size",
        "log_writer.commit_wait_ns",
        "lock_fusion.plock_wait_ns",
    };
    const auto& reg = obs::MetricsRegistry::Global();
    LayerSnapshot s;
    for (const char* c : kCounters) {
      s.values[c] = static_cast<double>(reg.CounterTotal(c));
    }
    for (const char* h : kHistograms) {
      const Histogram hist = reg.HistogramTotal(h);
      s.values[std::string(h) + ".count"] = static_cast<double>(hist.count());
      s.values[std::string(h) + ".sum"] =
          hist.Mean() * static_cast<double>(hist.count());
    }
    s.values["sim.ns"] = static_cast<double>(TotalSimDelayNanos());
    s.values["sim.count"] = static_cast<double>(TotalSimDelayCount());
    s.values["cpu.s"] = CpuSeconds();
    return s;
  }

  LayerSnapshot Minus(const LayerSnapshot& before) const {
    LayerSnapshot d;
    for (const auto& [k, v] : values) d.values[k] = v - before.values.at(k);
    return d;
  }

  double operator[](const std::string& k) const { return values.at(k); }
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::vector<Metric> LayerMetrics(const Window& w, const LayerSnapshot& d) {
  const auto per_txn = [&](double v) {
    return Ratio(v, static_cast<double>(w.committed));
  };
  std::vector<Metric> m;
  for (int op = 0; op < kNumOps; ++op) {
    m.push_back({std::string("node.") + kOpNames[op] + "_us",
                 per_txn(static_cast<double>(w.spans.ns[op]) / 1e3), "us/txn"});
  }
  const double txn_ns = static_cast<double>(w.txn_ns);
  m.push_back({"node.get_share",
               Ratio(static_cast<double>(w.spans.ns[kGet]), txn_ns), "ratio"});
  m.push_back({"node.commit_share",
               Ratio(static_cast<double>(w.spans.ns[kCommit]), txn_ns),
               "ratio"});
  m.push_back({"sim.wait_us", per_txn(d["sim.ns"] / 1e3), "us/txn"});
  m.push_back({"sim.delays", per_txn(d["sim.count"]), "1/txn"});
  m.push_back({"cpu.us", per_txn(d["cpu.s"] * 1e6), "us/txn"});
  m.push_back({"tso.fetches", per_txn(d["tso.fetches"]), "1/txn"});
  m.push_back({"tso.reuse_ratio",
               Ratio(d["tso.reuses"], d["tso.reuses"] + d["tso.fetches"]),
               "ratio"});
  const double fabric_ops = d["fabric.remote_reads"] +
                            d["fabric.remote_writes"] +
                            d["fabric.remote_atomics"] + d["fabric.rpcs"];
  m.push_back({"fabric.reads", per_txn(d["fabric.remote_reads"]), "1/txn"});
  m.push_back({"fabric.writes", per_txn(d["fabric.remote_writes"]), "1/txn"});
  m.push_back(
      {"fabric.atomics", per_txn(d["fabric.remote_atomics"]), "1/txn"});
  m.push_back({"fabric.rpcs", per_txn(d["fabric.rpcs"]), "1/txn"});
  m.push_back({"fabric.ops", per_txn(fabric_ops), "1/txn"});
  m.push_back({"fabric.retries", per_txn(d["fabric.retries"]), "1/txn"});
  const double lookups =
      d["buffer_pool.hits"] + d["buffer_pool.dbp_fetches"] +
      d["buffer_pool.invalid_refetches"] + d["buffer_pool.storage_loads"];
  m.push_back({"buffer_pool.hit_ratio", Ratio(d["buffer_pool.hits"], lookups),
               "ratio"});
  for (const char* k :
       {"buffer_pool.dbp_fetches", "buffer_pool.invalid_refetches",
        "buffer_pool.storage_loads"}) {
    m.push_back({k, per_txn(d[k]), "1/txn"});
  }
  m.push_back({"plock.local_grant_ratio",
               Ratio(d["plock.local_grants"],
                     d["plock.local_grants"] + d["plock.fusion_acquires"]),
               "ratio"});
  for (const char* k : {"plock.fusion_acquires", "plock.negotiated_releases",
                        "buffer_fusion.fetches", "buffer_fusion.pushes",
                        "buffer_fusion.invalidations",
                        "lock_fusion.rlock_waits"}) {
    m.push_back({k, per_txn(d[k]), "1/txn"});
  }
  m.push_back({"lock_fusion.plock_wait_us",
               per_txn(d["lock_fusion.plock_wait_ns.sum"] / 1e3), "us/txn"});
  for (const char* k :
       {"txn.lock_waits", "tit.remote_slot_reads", "log_writer.forces"}) {
    m.push_back({k, per_txn(d[k]), "1/txn"});
  }
  m.push_back({"log_writer.group_size_mean",
               Ratio(d["log_writer.group_size.sum"],
                     d["log_writer.group_size.count"]),
               "txn/force"});
  m.push_back({"log_writer.commit_wait_us",
               per_txn(d["log_writer.commit_wait_ns.sum"] / 1e3), "us/txn"});
  m.push_back({"index_cache.hit_ratio",
               Ratio(d["index_cache.hits"],
                     d["index_cache.hits"] + d["index_cache.misses"]),
               "ratio"});
  for (const char* k : {"index_cache.stale_rejects", "page_store.reads",
                        "page_store.writes"}) {
    m.push_back({k, per_txn(d[k]), "1/txn"});
  }
  m.push_back({"traced.tps", w.tps(), "1/s"});
  return m;
}

double MetricValue(const std::vector<Metric>& ms, const std::string& name) {
  for (const Metric& m : ms) {
    if (m.name == name) return m.value;
  }
  std::fprintf(stderr, "no metric %s\n", name.c_str());
  std::exit(2);
}

// Whether the workload still stresses the layer it was chosen for: empty
// when it does, else the condition that failed. Read-only commits force no
// log; the only forces on ro_hot_1n are each node's LLSN heartbeat, five a
// second (about 0.001 per transaction), hence the 0.01 ceiling.
std::string CheckSignature(const Spec& spec, const std::vector<Metric>& m) {
  const std::string name = spec.name;
  const double dbp = MetricValue(m, "buffer_pool.dbp_fetches");
  const double forces = MetricValue(m, "log_writer.forces");
  const double inval = MetricValue(m, "buffer_fusion.invalidations");
  if (name == "ro_hot_1n" && !(dbp < 0.05 && forces < 0.01)) {
    return "ro_hot_1n wants buffer_pool.dbp_fetches < 0.05 and "
           "log_writer.forces < 0.01";
  }
  if (name == "ro_cold_2n" && !(dbp > 5)) {
    return "ro_cold_2n wants buffer_pool.dbp_fetches > 5";
  }
  if (name == "rw_shared_2n" && !(forces >= 0.9 && inval > 1)) {
    return "rw_shared_2n wants log_writer.forces >= 0.9 and "
           "buffer_fusion.invalidations > 1";
  }
  return "";
}

// Runs spec.nodes * spec.clients_per_node closed-loop clients for warmup +
// measure; `layers`, when given, receives the engine totals' change over the
// measured window.
Window RunClients(PolarMpDatabase* db, SysbenchWorkload* workload,
                  const Spec& spec, uint64_t seed, bool trace,
                  uint64_t warmup_ms, uint64_t measure_ms,
                  LayerSnapshot* layers) {
  const size_t clients =
      static_cast<size_t>(spec.nodes) * static_cast<size_t>(spec.clients_per_node);
  std::atomic<bool> stop{false};
  std::atomic<bool> measuring{false};
  std::vector<Window> per_client(clients);
  std::vector<std::string> connect_errors(clients);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      const int node = static_cast<int>(c) % spec.nodes;
      Window& out = per_client[c];
      out.latency_ns.reserve(1 << 16);
      auto inner = db->Connect(node);
      if (!inner.ok()) {
        connect_errors[c] = inner.status().ToString();
        return;
      }
      CheckedConnection conn(std::move(*inner), trace);
      Random rng(seed * 1000003 + c);
      while (!stop.load(std::memory_order_relaxed)) {
        const auto t0 = Clock::now();
        const Status st =
            workload->RunOne(&conn, node, static_cast<int>(c), &rng);
        const auto t1 = Clock::now();
        const OpTotals spans = conn.TakeSpans();
        // Aborted/Busy have rolled back per the Connection contract, where
        // this is a no-op; it closes the transaction after other errors.
        if (!st.ok()) (void)conn.Rollback();
        if (!measuring.load(std::memory_order_relaxed)) continue;
        if (!st.ok()) {
          ++(st.IsAborted() || st.IsBusy() ? out.aborted : out.errors);
        } else if (conn.bad_read()) {
          ++out.bad_reads;
        } else {
          ++out.committed;
          out.latency_ns.push_back(Nanos(t1 - t0));
          out.spans.Add(spans);
          out.txn_ns += Nanos(t1 - t0);
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(warmup_ms));
  const LayerSnapshot before = LayerSnapshot::Take();
  measuring.store(true);
  const auto start = Clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(measure_ms));
  measuring.store(false);
  const auto end = Clock::now();
  if (layers != nullptr) *layers = LayerSnapshot::Take().Minus(before);
  stop.store(true);
  for (auto& t : threads) t.join();

  Window total;
  for (size_t c = 0; c < clients; ++c) {
    if (!connect_errors[c].empty()) {
      std::fprintf(stderr, "client %zu cannot connect: %s\n", c,
                   connect_errors[c].c_str());
      std::exit(1);
    }
    total.Merge(per_client[c]);
  }
  total.elapsed_s = std::chrono::duration<double>(end - start).count();
  return total;
}

// Nearest-rank percentile of sorted samples, in milliseconds.
double PercentileMs(const std::vector<uint64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  const size_t n = sorted.size();
  const auto rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  return static_cast<double>(sorted[std::clamp<size_t>(rank, 1, n) - 1]) / 1e6;
}

// Scans every loaded table in its own transaction; returns how many do not
// hold exactly keys 1..rows with valid payloads.
int CheckTables(PolarMpDatabase* db, const Spec& spec) {
  int bad = 0;
  for (const std::string& table : LoadedTables(spec)) {
    auto conn = db->Connect(0);
    int64_t expect = 1;
    bool ok = conn.ok() && (*conn)->Begin().ok();
    if (ok) {
      const Status st = (*conn)->Scan(
          table, std::numeric_limits<int64_t>::min() + 1,  // engine minimum
          std::numeric_limits<int64_t>::max(),
          [&](int64_t key, const std::string& value) {
            ok = key == expect && ValidPayload(value);
            ++expect;
            return ok;
          });
      ok = ok && st.ok() && (*conn)->Commit().ok();
    }
    if (!ok || expect != kRowsPerTable + 1) {
      std::fprintf(stderr, "table check failed: %s (next key %lld)\n",
                   table.c_str(), static_cast<long long>(expect));
      ++bad;
    }
  }
  return bad;
}

// One set-up: cluster creation plus data load, timed on the wall clock.
StatusOr<double> TimedSetup(const ClusterOptions& options, const Spec& spec,
                            SysbenchWorkload* workload,
                            std::unique_ptr<PolarMpDatabase>* db) {
  const auto t0 = Clock::now();
  POLARMP_ASSIGN_OR_RETURN(*db, PolarMpDatabase::Create(options, spec.nodes));
  POLARMP_RETURN_IF_ERROR(workload->Setup(db->get()));
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// TimedSetup in a forked child, which exits without teardown; returns the
// child's set-up seconds, or -1 when it failed. Refuses to fork while this
// process runs other threads, since the child could inherit a held lock.
double TimeSetupInChild(const ClusterOptions& options, const Spec& spec,
                        SysbenchWorkload* workload) {
  const auto tasks = std::filesystem::directory_iterator("/proc/self/task");
  if (std::distance(begin(tasks), end(tasks)) != 1) {
    std::fprintf(stderr, "cannot fork a set-up: other threads are running\n");
    return -1;
  }
  int fds[2];
  if (pipe(fds) != 0) return -1;
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid == 0) {
    // Never outlive the benchmark, even when it is killed mid-run.
    if (prctl(PR_SET_PDEATHSIG, SIGKILL) != 0 || getppid() != parent) {
      _exit(1);
    }
    close(fds[0]);
    std::unique_ptr<PolarMpDatabase> db;
    const StatusOr<double> s = TimedSetup(options, spec, workload, &db);
    const double out = s.ok() ? *s : -1;
    const bool sent = write(fds[1], &out, sizeof(out)) == sizeof(out);
    _exit(sent && s.ok() ? 0 : 1);
  }
  close(fds[1]);
  double s = -1;
  if (pid < 0 || read(fds[0], &s, sizeof(s)) != sizeof(s)) s = -1;
  close(fds[0]);
  int status = 0;
  if (pid > 0 && (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
                  WEXITSTATUS(status) != 0)) {
    s = -1;
  }
  return s;
}

[[noreturn]] void Usage() {
  std::fprintf(stderr,
               "usage: sysbench_bench --workload <ro_hot_1n|ro_cold_2n|"
               "rw_shared_2n> --seed <n> --seconds <s> --trace <0|1>\n");
  std::exit(2);
}

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-28s %14.6f %s\n", m.name.c_str(), m.value, m.unit);
  }
}

int Main(int argc, char** argv) {
  std::string workload_name;
  uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  if (argc % 2 != 1) Usage();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      workload_name = v;
    } else if (flag == "--seed") {
      seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atoi(v);
    } else if (flag == "--trace") {
      trace = std::atoi(v);
    } else {
      Usage();
    }
  }
  const Spec* spec = nullptr;
  for (const Spec& s : kSpecs) {
    if (workload_name == s.name) spec = &s;
  }
  if (spec == nullptr || seconds <= 0 || (trace != 0 && trace != 1)) Usage();

  std::printf("workload=%s seed=%llu seconds=%d trace=%d clients=%dx%d\n",
              spec->name, static_cast<unsigned long long>(seed), seconds,
              trace, spec->nodes, spec->clients_per_node);
  std::fflush(stdout);  // before forking, so children inherit no output

  // Set-up: cluster creation + data load, at time scale 0 like every bench.
  // Set-up is CPU- and page-fault-bound, and on a shared 4-core host its speed
  // drifts by a third over seconds to minutes, so the set-ups are spread over
  // the run (half in forked children before the measured cluster, half after
  // it is gone) and setup_s is the fastest: the median of each run's set-ups
  // moved 28% between two sets of ten runs of the same code, the fastest
  // 13%. Each child is a fresh process, as the measured set-up is, and forks
  // happen only while this process has a single thread.
  SysbenchWorkload workload(WorkloadOptions(*spec));
  const ClusterOptions options = MakeClusterOptions(*spec);
  std::vector<double> setup_s;
  const auto child_setups = [&](int n) {
    for (int i = 0; i < n; ++i) {
      const double s = TimeSetupInChild(options, *spec, &workload);
      if (s < 0) {
        std::fprintf(stderr, "set-up in a child process failed\n");
        std::exit(1);
      }
      setup_s.push_back(s);
    }
  };
  SetSimTimeScale(0.0);
  child_setups(kSetups / 2);
  std::unique_ptr<PolarMpDatabase> db;
  const StatusOr<double> own_setup = TimedSetup(options, *spec, &workload, &db);
  if (!own_setup.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n",
                 own_setup.status().ToString().c_str());
    return 1;
  }
  setup_s.push_back(*own_setup);
  SetSimTimeScale(1.0);

  // Untraced window: the end-to-end metrics.
  const uint64_t measure_ms = static_cast<uint64_t>(seconds) * 1000;
  Window e2e = RunClients(db.get(), &workload, *spec, seed, /*trace=*/false,
                          kWarmupMs, measure_ms, nullptr);
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;

  // Traced window: the per-layer metrics, on the warm cluster.
  LayerSnapshot layers;
  const uint64_t traced_ms = std::max<uint64_t>(1'000, measure_ms / 5);
  const Window traced =
      RunClients(db.get(), &workload, *spec, seed + 1, /*trace=*/true,
                 kTracedWarmupMs, traced_ms, &layers);
  const std::vector<Metric> layer_metrics = LayerMetrics(traced, layers);
  const std::string signature = CheckSignature(*spec, layer_metrics);

  SetSimTimeScale(0.0);
  const int bad_tables = CheckTables(db.get(), *spec);
  db.reset();  // teardown at scale 0, outside every metric
  child_setups(kSetups - 1 - kSetups / 2);

  std::printf("setup_s per set-up:");
  for (double s : setup_s) std::printf(" %.4f", s);
  std::printf("\n");
  std::sort(e2e.latency_ns.begin(), e2e.latency_ns.end());
  const std::vector<Metric> e2e_metrics = {
      {"tps", e2e.tps(), "1/s"},
      {"p50_ms", PercentileMs(e2e.latency_ns, 50), "ms"},
      {"p99_ms", PercentileMs(e2e.latency_ns, 99), "ms"},
      {"setup_s", *std::min_element(setup_s.begin(), setup_s.end()), "s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
  PrintMetrics("end-to-end (untraced window):", e2e_metrics);
  std::printf("  %-28s %14.6f %%  (%llu of %llu attempted; %llu samples)\n",
              "fail_pct",
              100.0 * Ratio(static_cast<double>(e2e.failed()),
                            static_cast<double>(e2e.attempted())),
              static_cast<unsigned long long>(e2e.failed()),
              static_cast<unsigned long long>(e2e.attempted()),
              static_cast<unsigned long long>(e2e.latency_ns.size()));
  PrintMetrics("per-layer (traced window, per committed txn):",
               layer_metrics);
  std::printf(
      "tracing overhead: untraced %.1f tps, traced %.1f tps (%+.2f%%)\n",
      e2e.tps(), traced.tps(),
      100.0 * Ratio(traced.tps() - e2e.tps(), e2e.tps()));

  const uint64_t bad_reads = e2e.bad_reads + traced.bad_reads;
  std::printf("checks: %llu bad reads, %d bad tables, signature %s\n",
              static_cast<unsigned long long>(bad_reads), bad_tables,
              signature.empty() ? "ok" : signature.c_str());
  if (!signature.empty()) {
    std::fprintf(stderr, "workload signature broken: %s\n", signature.c_str());
  }
  const bool correct = bad_reads == 0 && bad_tables == 0 &&
                       signature.empty() && e2e.committed > 0 &&
                       traced.committed > 0;

  const Window& reported = trace ? traced : e2e;
  const std::vector<Metric>& metrics = trace ? layer_metrics : e2e_metrics;
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(reported.attempted()) +
                     ", \"failed\": " + std::to_string(reported.failed()) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit);
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace polarmp

int main(int argc, char** argv) { return polarmp::Main(argc, argv); }
