#include <gtest/gtest.h>

#include <thread>

#include "cluster/cluster.h"

namespace polarmp {
namespace {

// Behaviours that must hold under BOTH isolation levels, parameterized
// (TEST_P) so every scenario runs under read committed and snapshot
// isolation, on a two-node cluster so visibility always crosses the TIT.
class IsolationSweepTest : public ::testing::TestWithParam<IsolationLevel> {
 protected:
  void SetUp() override {
    ClusterOptions opts;
    opts.node.trx.lock_wait_timeout_ms = 500;
    auto cluster = Cluster::Create(opts);
    ASSERT_TRUE(cluster.ok());
    cluster_ = std::move(cluster).value();
    n1_ = cluster_->AddNode().value();
    n2_ = cluster_->AddNode().value();
    ASSERT_TRUE(cluster_->CreateTable("t").ok());
    t1_ = n1_->OpenTable("t").value();
    t2_ = n2_->OpenTable("t").value();
  }

  Session New(DbNode* node) {
    Session s(node, GetParam());
    EXPECT_TRUE(s.Begin().ok());
    return s;
  }

  std::unique_ptr<Cluster> cluster_;
  DbNode* n1_ = nullptr;
  DbNode* n2_ = nullptr;
  TableHandle t1_, t2_;
};

TEST_P(IsolationSweepTest, NoDirtyReadsAcrossNodes) {
  Session w = New(n1_);
  ASSERT_TRUE(w.Insert(t1_, 1, "uncommitted").ok());
  Session r = New(n2_);
  EXPECT_TRUE(r.Get(t2_, 1).status().IsNotFound());  // never dirty-read
  ASSERT_TRUE(w.Commit().ok());
  ASSERT_TRUE(r.Commit().ok());
}

TEST_P(IsolationSweepTest, OwnWritesAlwaysVisible) {
  Session s = New(n1_);
  ASSERT_TRUE(s.Insert(t1_, 1, "mine").ok());
  EXPECT_EQ(s.Get(t1_, 1).value(), "mine");
  ASSERT_TRUE(s.Update(t1_, 1, "mine-v2").ok());
  EXPECT_EQ(s.Get(t1_, 1).value(), "mine-v2");
  ASSERT_TRUE(s.Delete(t1_, 1).ok());
  EXPECT_TRUE(s.Get(t1_, 1).status().IsNotFound());
  ASSERT_TRUE(s.Rollback().ok());
}

TEST_P(IsolationSweepTest, CommittedWritesVisibleToNewTransactions) {
  {
    Session w = New(n1_);
    ASSERT_TRUE(w.Insert(t1_, 5, "done").ok());
    ASSERT_TRUE(w.Commit().ok());
  }
  Session r = New(n2_);
  EXPECT_EQ(r.Get(t2_, 5).value(), "done");
  ASSERT_TRUE(r.Commit().ok());
}

TEST_P(IsolationSweepTest, WriteLocksExcludeAcrossNodes) {
  {
    Session seed = New(n1_);
    ASSERT_TRUE(seed.Insert(t1_, 1, "seed").ok());
    ASSERT_TRUE(seed.Commit().ok());
  }
  Session a = New(n1_);
  ASSERT_TRUE(a.Update(t1_, 1, "a").ok());
  Session b = New(n2_);
  const Status st = b.Update(t2_, 1, "b");
  // Either blocked-then-timeout (Busy) or — under SI after a's commit wins —
  // Aborted; it must NOT succeed while a's lock is held.
  EXPECT_FALSE(st.ok()) << st.ToString();
  ASSERT_TRUE(a.Commit().ok());
}

TEST_P(IsolationSweepTest, ScanMatchesPointReads) {
  {
    Session w = New(n1_);
    for (int i = 0; i < 30; ++i) {
      ASSERT_TRUE(w.Insert(t1_, i, "v" + std::to_string(i)).ok());
    }
    ASSERT_TRUE(w.Commit().ok());
  }
  Session r = New(n2_);
  int scanned = 0;
  ASSERT_TRUE(r.Scan(t2_, 0, 100, [&](int64_t k, const std::string& v) {
                 EXPECT_EQ(v, r.Get(t2_, k).value());
                 ++scanned;
                 return true;
               })
                  .ok());
  EXPECT_EQ(scanned, 30);
  ASSERT_TRUE(r.Commit().ok());
}

TEST_P(IsolationSweepTest, RollbackLeavesNoTrace) {
  {
    Session w = New(n1_);
    ASSERT_TRUE(w.Insert(t1_, 1, "keep").ok());
    ASSERT_TRUE(w.Commit().ok());
  }
  {
    Session w = New(n2_);
    ASSERT_TRUE(w.Update(t2_, 1, "discard").ok());
    ASSERT_TRUE(w.Insert(t2_, 2, "discard").ok());
    ASSERT_TRUE(w.Delete(t2_, 1).ok());
    ASSERT_TRUE(w.Rollback().ok());
  }
  Session r = New(n1_);
  EXPECT_EQ(r.Get(t1_, 1).value(), "keep");
  EXPECT_TRUE(r.Get(t1_, 2).status().IsNotFound());
  ASSERT_TRUE(r.Commit().ok());
}

INSTANTIATE_TEST_SUITE_P(
    Levels, IsolationSweepTest,
    ::testing::Values(IsolationLevel::kReadCommitted,
                      IsolationLevel::kSnapshotIsolation),
    [](const ::testing::TestParamInfo<IsolationLevel>& info) {
      return info.param == IsolationLevel::kReadCommitted
                 ? "ReadCommitted"
                 : "SnapshotIsolation";
    });

// Regression test for the SI lost-update window that used to live between
// fetching a commit timestamp and publishing it to the TIT (DESIGN.md §6).
// Before the fix, the CTS was fetched from the TSO before the log force
// but published only after it; a snapshot created inside that window
// resolved the committer as still active, read around its version, and a
// later update from that snapshot slipped past first-committer-wins.
//
// The fix publishes a *provisional* CTS (kCsnProvisionalBit set) to the
// TIT before the force and finalizes it with a second TSO fetch afterwards
// (transaction.cc: PublishProvisionalCts → ForceAsync(...).Wait() →
// PublishCts, all on the committing thread). Readers
// that observe the provisional bit treat the version as
// committed-after-snapshot immediately; the finalized CTS necessarily
// exceeds any snapshot begun during the force, so the conflict check
// aborts the stale update.
//
// The simulated fabric's latency profile makes the interleaving
// deterministic: log_append_ns stretches the force to 200ms of simulated
// wall time, holding the window open while the reader starts.
TEST(SnapshotIsolationWindowTest, CommitPublicationWindowLosesUpdate) {
  ClusterOptions opts;
  opts.latency.log_append_ns = 200'000'000;  // 200ms force: the open window
  auto cluster = Cluster::Create(opts).value();
  DbNode* n1 = cluster->AddNode().value();
  DbNode* n2 = cluster->AddNode().value();
  ASSERT_TRUE(cluster->CreateTable("t").ok());
  TableHandle t1 = n1->OpenTable("t").value();
  TableHandle t2 = n2->OpenTable("t").value();

  {
    Session seed(n1, IsolationLevel::kSnapshotIsolation);
    ASSERT_TRUE(seed.Begin().ok());
    ASSERT_TRUE(seed.Insert(t1, 1, "v0").ok());
    ASSERT_TRUE(seed.Commit().ok());
  }

  // Writer: its commit fetches the CTS immediately, then sits in the log
  // force for ~200ms before publishing the CTS to the TIT.
  Session w(n1, IsolationLevel::kSnapshotIsolation);
  ASSERT_TRUE(w.Begin().ok());
  ASSERT_TRUE(w.Update(t1, 1, "v1").ok());
  std::thread committer([&] { EXPECT_TRUE(w.Commit().ok()); });

  // Reader: begins inside the window, so its snapshot CTS is newer than the
  // writer's, yet the TIT still reports the writer as active — the read
  // resolves the pre-image.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  Session r(n2, IsolationLevel::kSnapshotIsolation);
  ASSERT_TRUE(r.Begin().ok());
  EXPECT_EQ(r.Get(t2, 1).value(), "v0");

  committer.join();  // publication done; no row lock remains to wait on

  // First-committer-wins demands this update abort: the writer committed a
  // version of row 1 that this snapshot never saw. Today the conflict check
  // resolves the writer's CTS (fetched before the reader's snapshot) as
  // visible and lets the lost update through.
  const Status st = r.Update(t2, 1, "v2-from-v0");
  if (st.ok()) {
    ASSERT_TRUE(r.Commit().ok());
  }
  EXPECT_TRUE(st.IsAborted())
      << "SI lost-update window: update built on stale read succeeded ("
      << st.ToString() << ")";
}

// Cross-node GSI coherence: index maintained on one node, queried on
// another, with concurrent updates moving entries between buckets.
TEST(CrossNodeGsiTest, IndexCoherentAcrossNodes) {
  auto cluster = Cluster::Create(ClusterOptions()).value();
  DbNode* n1 = cluster->AddNode().value();
  DbNode* n2 = cluster->AddNode().value();
  ASSERT_TRUE(cluster->CreateTable("orders", 1).ok());
  TableHandle t1 = n1->OpenTable("orders").value();
  TableHandle t2 = n2->OpenTable("orders").value();

  {
    Session s(n1, IsolationLevel::kReadCommitted);
    ASSERT_TRUE(s.Begin().ok());
    for (int64_t k = 1; k <= 20; ++k) {
      ASSERT_TRUE(
          s.Insert(t1, k, EncodeIndexedValue({static_cast<uint64_t>(k % 4)}, "payload")).ok());
    }
    ASSERT_TRUE(s.Commit().ok());
  }
  // Move every bucket-0 order to bucket 9, from node 2.
  {
    Session s(n2, IsolationLevel::kReadCommitted);
    ASSERT_TRUE(s.Begin().ok());
    auto bucket0 = s.LookupByIndex(t2, 0, 0).value();
    EXPECT_EQ(bucket0.size(), 5u);
    for (int64_t pk : bucket0) {
      ASSERT_TRUE(s.Update(t2, pk, EncodeIndexedValue({9}, "moved")).ok());
    }
    ASSERT_TRUE(s.Commit().ok());
  }
  // Node 1 sees the index move.
  Session s(n1, IsolationLevel::kReadCommitted);
  ASSERT_TRUE(s.Begin().ok());
  EXPECT_TRUE(s.LookupByIndex(t1, 0, 0).value().empty());
  EXPECT_EQ(s.LookupByIndex(t1, 0, 9).value().size(), 5u);
  EXPECT_EQ(s.LookupByIndex(t1, 0, 1).value().size(), 5u);
  ASSERT_TRUE(s.Commit().ok());
}

}  // namespace
}  // namespace polarmp
