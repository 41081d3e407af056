#include <gtest/gtest.h>

#include "cluster/cluster.h"

namespace polarmp {
namespace {

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ClusterOptions opts;
    opts.page_size = 1024;
    opts.node.checkpoint_interval_ms = 100;
    auto cluster = Cluster::Create(opts);
    ASSERT_TRUE(cluster.ok());
    cluster_ = std::move(cluster).value();
  }

  DbNode* AddNode() {
    auto node = cluster_->AddNode();
    EXPECT_TRUE(node.ok());
    return node.value();
  }

  TableHandle Open(DbNode* node, const std::string& name = "t") {
    auto table = node->OpenTable(name);
    EXPECT_TRUE(table.ok());
    return table.value();
  }

  Status Write1(DbNode* node, const TableHandle& t, int64_t key,
                const std::string& value) {
    Session s(node, IsolationLevel::kReadCommitted);
    POLARMP_RETURN_IF_ERROR(s.Begin());
    POLARMP_RETURN_IF_ERROR(s.Put(t, key, value));
    return s.Commit();
  }

  StatusOr<std::string> Read1(DbNode* node, const TableHandle& t,
                              int64_t key) {
    Session s(node, IsolationLevel::kReadCommitted);
    POLARMP_RETURN_IF_ERROR(s.Begin());
    auto v = s.Get(t, key);
    POLARMP_RETURN_IF_ERROR(s.Commit());
    return v;
  }

  std::unique_ptr<Cluster> cluster_;
};

TEST_F(RecoveryTest, CommittedDataSurvivesNodeCrash) {
  DbNode* n1 = AddNode();
  ASSERT_TRUE(cluster_->CreateTable("t").ok());
  TableHandle t1 = Open(n1);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(Write1(n1, t1, i, "v" + std::to_string(i)).ok());
  }
  const NodeId id = n1->id();
  ASSERT_TRUE(cluster_->CrashNode(id).ok());
  auto restarted = cluster_->RestartNode(id);
  ASSERT_TRUE(restarted.ok());
  TableHandle t2 = Open(restarted.value());
  for (int i = 0; i < 200; ++i) {
    auto v = Read1(restarted.value(), t2, i);
    ASSERT_TRUE(v.ok()) << "key " << i << ": " << v.status().ToString();
    EXPECT_EQ(v.value(), "v" + std::to_string(i));
  }
}

TEST_F(RecoveryTest, UncommittedTransactionRolledBackOnRestart) {
  DbNode* n1 = AddNode();
  ASSERT_TRUE(cluster_->CreateTable("t").ok());
  TableHandle t1 = Open(n1);
  ASSERT_TRUE(Write1(n1, t1, 1, "committed").ok());
  // Leave a transaction in flight across the crash: its redo (undo-append +
  // row write) is forced by a later committed transaction's group commit.
  {
    Session in_flight(n1, IsolationLevel::kReadCommitted);
    ASSERT_TRUE(in_flight.Begin().ok());
    ASSERT_TRUE(in_flight.Update(t1, 1, "uncommitted").ok());
    ASSERT_TRUE(in_flight.Insert(t1, 999, "ghost-row").ok());
    ASSERT_TRUE(Write1(n1, t1, 2, "forcer").ok());  // forces the log
    const NodeId id = n1->id();
    // Crash with the transaction still open. The Session destructor would
    // roll back through a dead node, so disarm it first.
    ASSERT_TRUE(cluster_->CrashNode(id).ok());
    // NOTE: `in_flight` must not touch the dead node; we intentionally leak
    // the logical transaction (the crash dropped it) and only destroy the
    // local object after restart.
    auto restarted = cluster_->RestartNode(id);
    ASSERT_TRUE(restarted.ok());
    TableHandle t2 = Open(restarted.value());
    EXPECT_EQ(Read1(restarted.value(), t2, 1).value(), "committed");
    EXPECT_TRUE(Read1(restarted.value(), t2, 999).status().IsNotFound());
    EXPECT_EQ(Read1(restarted.value(), t2, 2).value(), "forcer");
    in_flight.Disarm();
  }
}

TEST_F(RecoveryTest, SurvivorUnaffectedByPeerCrash) {
  // Fig. 15 setup: the two nodes access different tables, so the
  // survivor's traffic never hits the crashed node's ghost-fenced pages.
  DbNode* n1 = AddNode();
  DbNode* n2 = AddNode();
  ASSERT_TRUE(cluster_->CreateTable("t1").ok());
  ASSERT_TRUE(cluster_->CreateTable("t2").ok());
  TableHandle t1 = Open(n1, "t1");
  TableHandle t2 = Open(n2, "t2");
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(Write1(n1, t1, i, "n1").ok());
    ASSERT_TRUE(Write1(n2, t2, 1000 + i, "n2").ok());
  }
  const NodeId id1 = n1->id();
  ASSERT_TRUE(cluster_->CrashNode(id1).ok());
  // Node 2 keeps serving its partition (the Fig. 15 scenario).
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(Write1(n2, t2, 2000 + i, "during-crash").ok());
    EXPECT_EQ(Read1(n2, t2, 1000 + i).value(), "n2");
  }
  auto restarted = cluster_->RestartNode(id1);
  ASSERT_TRUE(restarted.ok());
  TableHandle t1b = Open(restarted.value(), "t1");
  TableHandle t2b = Open(restarted.value(), "t2");
  EXPECT_EQ(Read1(restarted.value(), t1b, 10).value(), "n1");
  // Cross-visibility after recovery.
  EXPECT_EQ(Read1(restarted.value(), t2b, 2000).value(), "during-crash");
  Session s(n2, IsolationLevel::kReadCommitted);
  ASSERT_TRUE(s.Begin().ok());
  TableHandle t1_on_n2 = Open(n2, "t1");
  EXPECT_EQ(s.Get(t1_on_n2, 10).value(), "n1");
  ASSERT_TRUE(s.Commit().ok());
}

TEST_F(RecoveryTest, RecoveryUsesDbpFastPath) {
  DbNode* n1 = AddNode();
  DbNode* n2 = AddNode();
  ASSERT_TRUE(cluster_->CreateTable("t").ok());
  TableHandle t1 = Open(n1);
  (void)n2;
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(Write1(n1, t1, i, std::string(100, 'x')).ok());
  }
  // Deterministically publish the working set to the DBP, then produce a
  // log tail the recovery must replay.
  ASSERT_TRUE(n1->Checkpoint().ok());
  for (int i = 50; i < 100; ++i) {
    ASSERT_TRUE(Write1(n1, t1, i, std::string(100, 'y')).ok());
  }
  const uint64_t storage_reads_before = cluster_->page_store()->reads();
  const NodeId id = n1->id();
  ASSERT_TRUE(cluster_->CrashNode(id).ok());
  auto restarted = cluster_->RestartNode(id);
  ASSERT_TRUE(restarted.ok());
  // Most recovery pages should come from the DBP, not storage (§5.5).
  const uint64_t storage_reads = cluster_->page_store()->reads() -
                                 storage_reads_before;
  EXPECT_LT(storage_reads, 20u);
}

TEST_F(RecoveryTest, CrashedNodesGhostLocksFenceDirtyPages) {
  DbNode* n1 = AddNode();
  DbNode* n2 = AddNode();
  ASSERT_TRUE(cluster_->CreateTable("t").ok());
  TableHandle t1 = Open(n1);
  TableHandle t2 = Open(n2);
  ASSERT_TRUE(Write1(n1, t1, 1, "v1").ok());
  const NodeId id = n1->id();
  ASSERT_TRUE(cluster_->CrashNode(id).ok());
  // n1 held the leaf's X PLock lazily; n2 must still read the committed
  // value — either the ghost fence forces a wait until restart, or the
  // page had already reached the DBP. Restart first, then verify.
  auto restarted = cluster_->RestartNode(id);
  ASSERT_TRUE(restarted.ok());
  EXPECT_EQ(Read1(n2, t2, 1).value(), "v1");
}

TEST_F(RecoveryTest, FullClusterRestartFromLogs) {
  DbNode* n1 = AddNode();
  DbNode* n2 = AddNode();
  ASSERT_TRUE(cluster_->CreateTable("t").ok());
  TableHandle t1 = Open(n1);
  TableHandle t2 = Open(n2);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(Write1(i % 2 == 0 ? n1 : n2, i % 2 == 0 ? t1 : t2, i,
                       "v" + std::to_string(i))
                    .ok());
  }
  const NodeId id1 = n1->id(), id2 = n2->id();
  ASSERT_TRUE(cluster_->CrashNode(id1).ok());
  ASSERT_TRUE(cluster_->CrashNode(id2).ok());
  // Lose the DSM tier too: recovery must work from storage + logs alone.
  auto stats = cluster_->RecoverAll(/*dsm_lost=*/true);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  DbNode* fresh = AddNode();
  TableHandle t = Open(fresh);
  for (int i = 0; i < 100; ++i) {
    auto v = Read1(fresh, t, i);
    ASSERT_TRUE(v.ok()) << "key " << i;
    EXPECT_EQ(v.value(), "v" + std::to_string(i));
  }
}

TEST_F(RecoveryTest, FullClusterRestartRollsBackInFlight) {
  DbNode* n1 = AddNode();
  ASSERT_TRUE(cluster_->CreateTable("t").ok());
  TableHandle t1 = Open(n1);
  ASSERT_TRUE(Write1(n1, t1, 1, "keep").ok());
  {
    Session in_flight(n1, IsolationLevel::kReadCommitted);
    ASSERT_TRUE(in_flight.Begin().ok());
    ASSERT_TRUE(in_flight.Update(t1, 1, "drop-me").ok());
    ASSERT_TRUE(Write1(n1, t1, 2, "forcer").ok());
    ASSERT_TRUE(cluster_->CrashNode(n1->id()).ok());
    in_flight.Disarm();
  }
  auto stats = cluster_->RecoverAll(/*dsm_lost=*/true);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->uncommitted_trxs, 1u);
  DbNode* fresh = AddNode();
  TableHandle t = Open(fresh);
  EXPECT_EQ(Read1(fresh, t, 1).value(), "keep");
  EXPECT_EQ(Read1(fresh, t, 2).value(), "forcer");
}

TEST_F(RecoveryTest, RepeatedCrashRestartCycles) {
  DbNode* node = AddNode();
  ASSERT_TRUE(cluster_->CreateTable("t").ok());
  const NodeId id = node->id();
  for (int cycle = 0; cycle < 3; ++cycle) {
    TableHandle t = Open(cluster_->node(id));
    for (int i = 0; i < 30; ++i) {
      ASSERT_TRUE(Write1(cluster_->node(id), t, cycle * 100 + i,
                         "c" + std::to_string(cycle))
                      .ok());
    }
    ASSERT_TRUE(cluster_->CrashNode(id).ok());
    ASSERT_TRUE(cluster_->RestartNode(id).ok());
  }
  TableHandle t = Open(cluster_->node(id));
  for (int cycle = 0; cycle < 3; ++cycle) {
    for (int i = 0; i < 30; i += 7) {
      EXPECT_EQ(Read1(cluster_->node(id), t, cycle * 100 + i).value(),
                "c" + std::to_string(cycle));
    }
  }
}

}  // namespace
}  // namespace polarmp
