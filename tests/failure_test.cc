#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <thread>

#include "cluster/cluster.h"
#include "common/random.h"

namespace polarmp {
namespace {

// Failure injection: crash nodes at random points under load and verify
// the durability contract — every ACKNOWLEDGED commit survives, every
// unacknowledged transaction either fully survives or fully disappears.
class FailureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ClusterOptions opts;
    opts.page_size = 1024;
    opts.node.checkpoint_interval_ms = 100;
    auto cluster = Cluster::Create(opts);
    ASSERT_TRUE(cluster.ok());
    cluster_ = std::move(cluster).value();
  }

  std::unique_ptr<Cluster> cluster_;
};

TEST_F(FailureTest, AcknowledgedCommitsSurviveRepeatedCrashes) {
  DbNode* node = cluster_->AddNode().value();
  ASSERT_TRUE(cluster_->CreateTable("t").ok());
  std::set<int64_t> acknowledged;
  Random rng(3);
  int64_t next_key = 0;
  const NodeId id = node->id();

  for (int cycle = 0; cycle < 4; ++cycle) {
    DbNode* n = cluster_->node(id);
    TableHandle table = n->OpenTable("t").value();
    // A bursts of transactions, one left open at the crash point.
    const int txns = 20 + static_cast<int>(rng.Uniform(20));
    for (int i = 0; i < txns; ++i) {
      Session s(n, IsolationLevel::kReadCommitted);
      ASSERT_TRUE(s.Begin().ok());
      const int64_t a = next_key++, b = next_key++;
      ASSERT_TRUE(s.Insert(table, a, "ack").ok());
      ASSERT_TRUE(s.Insert(table, b, "ack").ok());
      if (s.Commit().ok()) {
        acknowledged.insert(a);
        acknowledged.insert(b);
      }
    }
    Session in_flight(n, IsolationLevel::kReadCommitted);
    ASSERT_TRUE(in_flight.Begin().ok());
    const int64_t ghost = next_key++;
    ASSERT_TRUE(in_flight.Insert(table, ghost, "never-acked").ok());
    ASSERT_TRUE(cluster_->CrashNode(id).ok());
    in_flight.Disarm();
    ASSERT_TRUE(cluster_->RestartNode(id).ok());

    // Every acknowledged row is present; the in-flight row is gone.
    DbNode* revived = cluster_->node(id);
    TableHandle t2 = revived->OpenTable("t").value();
    Session check(revived, IsolationLevel::kReadCommitted);
    ASSERT_TRUE(check.Begin().ok());
    for (int64_t key : acknowledged) {
      ASSERT_TRUE(check.Get(t2, key).ok()) << "lost acknowledged key " << key
                                           << " in cycle " << cycle;
    }
    EXPECT_TRUE(check.Get(t2, ghost).status().IsNotFound());
    ASSERT_TRUE(check.Commit().ok());
  }
}

TEST_F(FailureTest, CrashUnderConcurrentLoadKeepsAcknowledgedWrites) {
  DbNode* victim = cluster_->AddNode().value();
  DbNode* survivor = cluster_->AddNode().value();
  ASSERT_TRUE(cluster_->CreateTable("tv").ok());
  ASSERT_TRUE(cluster_->CreateTable("ts").ok());

  std::mutex acked_mu;
  std::set<int64_t> acked_victim, acked_survivor;
  std::atomic<bool> stop{false};
  std::atomic<int64_t> key_source{0};
  const NodeId victim_id = victim->id();

  std::thread victim_writer([&] {
    TableHandle t = victim->OpenTable("tv").value();
    while (!stop.load()) {
      Session s(victim, IsolationLevel::kReadCommitted);
      if (!s.Begin().ok()) break;
      const int64_t key = key_source.fetch_add(1);
      if (!s.Insert(t, key, "v").ok()) {
        s.Disarm();  // node may be dying under us
        break;
      }
      if (s.Commit().ok()) {
        std::lock_guard lock(acked_mu);
        acked_victim.insert(key);
      } else {
        s.Disarm();
        break;
      }
    }
  });
  std::thread survivor_writer([&] {
    TableHandle t = survivor->OpenTable("ts").value();
    while (!stop.load()) {
      Session s(survivor, IsolationLevel::kReadCommitted);
      if (!s.Begin().ok()) break;
      const int64_t key = key_source.fetch_add(1);
      if (!s.Insert(t, key, "s").ok()) continue;
      if (s.Commit().ok()) {
        std::lock_guard lock(acked_mu);
        acked_survivor.insert(key);
      }
    }
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop.store(true);
  victim_writer.join();  // stop issuing before yanking the node
  ASSERT_TRUE(cluster_->CrashNode(victim_id).ok());
  survivor_writer.join();
  auto revived = cluster_->RestartNode(victim_id);
  ASSERT_TRUE(revived.ok());

  TableHandle tv = revived.value()->OpenTable("tv").value();
  TableHandle ts = survivor->OpenTable("ts").value();
  Session check(survivor, IsolationLevel::kReadCommitted);
  ASSERT_TRUE(check.Begin().ok());
  for (int64_t key : acked_victim) {
    EXPECT_TRUE(check.Get(tv, key).ok()) << "lost victim-acked key " << key;
  }
  for (int64_t key : acked_survivor) {
    EXPECT_TRUE(check.Get(ts, key).ok()) << "lost survivor key " << key;
  }
  ASSERT_TRUE(check.Commit().ok());
}

// The headline robustness scenario (ISSUE 8): 3 primaries under load, one
// crashes, a SURVIVOR takes its state over while the others keep
// committing — no global halt, zero acknowledged commits lost, and the
// ghost of the victim's in-flight transaction is rolled back.
TEST_F(FailureTest, OnlineTakeoverKeepsClusterAvailable) {
  DbNode* victim = cluster_->AddNode().value();
  DbNode* s1 = cluster_->AddNode().value();
  DbNode* s2 = cluster_->AddNode().value();
  ASSERT_TRUE(cluster_->CreateTable("tv").ok());
  ASSERT_TRUE(cluster_->CreateTable("t1").ok());
  ASSERT_TRUE(cluster_->CreateTable("t2").ok());

  std::mutex acked_mu;
  std::set<int64_t> acked_victim, acked_s1, acked_s2;
  std::atomic<bool> stop_victim{false}, stop_all{false};
  std::atomic<int64_t> key_source{0};
  const NodeId victim_id = victim->id();

  std::thread victim_writer([&] {
    TableHandle t = victim->OpenTable("tv").value();
    while (!stop_victim.load()) {
      Session s(victim, IsolationLevel::kReadCommitted);
      if (!s.Begin().ok()) break;
      const int64_t key = key_source.fetch_add(1);
      if (!s.Insert(t, key, "v").ok()) {
        s.Disarm();
        break;
      }
      if (s.Commit().ok()) {
        std::lock_guard lock(acked_mu);
        acked_victim.insert(key);
      } else {
        s.Disarm();
        break;
      }
    }
  });
  auto survivor_loop = [&](DbNode* node, const char* table,
                           std::set<int64_t>* acked) {
    TableHandle t = node->OpenTable(table).value();
    while (!stop_all.load()) {
      Session s(node, IsolationLevel::kReadCommitted);
      if (!s.Begin().ok()) break;
      const int64_t key = key_source.fetch_add(1);
      if (!s.Insert(t, key, "s").ok()) continue;
      if (s.Commit().ok()) {
        std::lock_guard lock(acked_mu);
        acked->insert(key);
      }
    }
  };
  std::thread s1_writer(survivor_loop, s1, "t1", &acked_s1);
  std::thread s2_writer(survivor_loop, s2, "t2", &acked_s2);

  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  // Quiesce only the victim's client, leave an in-flight ghost, then yank
  // the node — survivors keep writing throughout.
  stop_victim.store(true);
  victim_writer.join();
  Session in_flight(victim, IsolationLevel::kReadCommitted);
  ASSERT_TRUE(in_flight.Begin().ok());
  TableHandle tv_pre = victim->OpenTable("tv").value();
  const int64_t ghost = key_source.fetch_add(1);
  ASSERT_TRUE(in_flight.Insert(tv_pre, ghost, "never-acked").ok());
  ASSERT_TRUE(cluster_->CrashNode(victim_id).ok());
  in_flight.Disarm();

  // Dead-node detection via the fabric liveness map.
  const std::vector<NodeId> dead = cluster_->DeadNodes();
  ASSERT_EQ(dead.size(), 1u);
  EXPECT_EQ(dead[0], victim_id);

  // Survivor s1 takes over while s2 (and s1's own writer) keep committing.
  const size_t s2_acked_before = [&] {
    std::lock_guard lock(acked_mu);
    return acked_s2.size();
  }();
  auto stats = cluster_->TakeoverNode(victim_id, s1->id());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(cluster_->takeovers(), 1u);
  EXPECT_TRUE(cluster_->DeadNodes().empty());
  // No double takeover.
  EXPECT_TRUE(cluster_->TakeoverNode(victim_id, s1->id()).status()
                  .IsAlreadyExists());

  // Survivors never stalled: they kept acknowledging during the takeover.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  stop_all.store(true);
  s1_writer.join();
  s2_writer.join();
  {
    std::lock_guard lock(acked_mu);
    EXPECT_GT(acked_s2.size(), s2_acked_before);
  }

  // Every acknowledged key — victim's included — reads back through a
  // survivor; the ghost is gone.
  TableHandle tv = s2->OpenTable("tv").value();
  TableHandle t1 = s2->OpenTable("t1").value();
  TableHandle t2 = s2->OpenTable("t2").value();
  Session check(s2, IsolationLevel::kReadCommitted);
  ASSERT_TRUE(check.Begin().ok());
  for (int64_t key : acked_victim) {
    EXPECT_TRUE(check.Get(tv, key).ok()) << "lost victim-acked key " << key;
  }
  for (int64_t key : acked_s1) {
    EXPECT_TRUE(check.Get(t1, key).ok()) << "lost s1 key " << key;
  }
  for (int64_t key : acked_s2) {
    EXPECT_TRUE(check.Get(t2, key).ok()) << "lost s2 key " << key;
  }
  EXPECT_TRUE(check.Get(tv, ghost).status().IsNotFound());
  ASSERT_TRUE(check.Commit().ok());

  // The node can come back later; restart is a no-op replay (checkpoint
  // already advanced by the takeover) and the cluster accepts its writes.
  auto revived = cluster_->RestartNode(victim_id);
  ASSERT_TRUE(revived.ok()) << revived.status().ToString();
  TableHandle tr = revived.value()->OpenTable("tv").value();
  Session again(revived.value(), IsolationLevel::kReadCommitted);
  ASSERT_TRUE(again.Begin().ok());
  ASSERT_TRUE(again.Insert(tr, key_source.fetch_add(1), "back").ok());
  ASSERT_TRUE(again.Commit().ok());
}

TEST_F(FailureTest, FullClusterCrashWithDsmLossKeepsAcknowledged) {
  DbNode* n1 = cluster_->AddNode().value();
  DbNode* n2 = cluster_->AddNode().value();
  ASSERT_TRUE(cluster_->CreateTable("t").ok());
  std::set<int64_t> acked;
  for (int i = 0; i < 60; ++i) {
    DbNode* node = i % 2 == 0 ? n1 : n2;
    TableHandle t = node->OpenTable("t").value();
    Session s(node, IsolationLevel::kReadCommitted);
    ASSERT_TRUE(s.Begin().ok());
    ASSERT_TRUE(s.Insert(t, i, "ack").ok());
    if (s.Commit().ok()) acked.insert(i);
  }
  const NodeId id1 = n1->id(), id2 = n2->id();
  ASSERT_TRUE(cluster_->CrashNode(id1).ok());
  ASSERT_TRUE(cluster_->CrashNode(id2).ok());
  ASSERT_TRUE(cluster_->RecoverAll(/*dsm_lost=*/true).ok());

  DbNode* fresh = cluster_->AddNode().value();
  TableHandle t = fresh->OpenTable("t").value();
  Session check(fresh, IsolationLevel::kReadCommitted);
  ASSERT_TRUE(check.Begin().ok());
  for (int64_t key : acked) {
    EXPECT_TRUE(check.Get(t, key).ok()) << "lost key " << key;
  }
  ASSERT_TRUE(check.Commit().ok());
}

TEST_F(FailureTest, UndoSegmentExhaustionSurfacesCleanly) {
  // A long-running transaction pins the undo tail; a tiny segment must
  // surface Internal("undo segment full"), not corrupt anything.
  ClusterOptions opts;
  opts.undo_segment_bytes = 16 << 10;
  auto cluster = Cluster::Create(opts).value();
  DbNode* node = cluster->AddNode().value();
  ASSERT_TRUE(cluster->CreateTable("t").ok());
  TableHandle t = node->OpenTable("t").value();

  Session pinner(node, IsolationLevel::kSnapshotIsolation);
  ASSERT_TRUE(pinner.Begin().ok());
  ASSERT_TRUE(pinner.Insert(t, 1'000'000, "pin").ok());  // holds undo tail

  Session writer(node, IsolationLevel::kReadCommitted);
  ASSERT_TRUE(writer.Begin().ok());
  Status st = Status::OK();
  for (int i = 0; i < 500 && st.ok(); ++i) {
    st = writer.Put(t, i, std::string(100, 'x'));
  }
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  (void)writer.Rollback();
  // The pinner can still finish.
  EXPECT_TRUE(pinner.Commit().ok());
}

}  // namespace
}  // namespace polarmp
