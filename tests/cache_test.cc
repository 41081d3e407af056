#include <gtest/gtest.h>

#include <string>

#include "cluster/cluster.h"

namespace polarmp {
namespace {

// Compute-side index cache: version-validated one-sided routing, remote and
// local SMO invalidation, LBP eviction interplay, slot eviction and the
// disabled mode.
class IndexCacheTest : public ::testing::Test {
 protected:
  // cache_slots = 0 disables the cache.
  void StartCluster(int nodes, uint32_t cache_slots, uint32_t lbp_frames = 64) {
    ClusterOptions opts;
    opts.page_size = 1024;
    opts.node.lbp.frames = lbp_frames;
    opts.node.cache.slots = cache_slots;
    opts.node.trx.lock_wait_timeout_ms = 2000;
    auto cluster = Cluster::Create(opts);
    ASSERT_TRUE(cluster.ok());
    cluster_ = std::move(cluster).value();
    for (int i = 0; i < nodes; ++i) {
      auto node = cluster_->AddNode();
      ASSERT_TRUE(node.ok());
      nodes_.push_back(node.value());
    }
    ASSERT_TRUE(cluster_->CreateTable("t").ok());
    for (DbNode* node : nodes_) {
      auto table = node->OpenTable("t");
      ASSERT_TRUE(table.ok());
      tables_.push_back(table.value());
    }
  }

  Status InsertRange(int node, int64_t begin, int64_t end,
                     const std::string& tag, int value_len = 4) {
    Session s(nodes_[node], IsolationLevel::kReadCommitted);
    POLARMP_RETURN_IF_ERROR(s.Begin());
    for (int64_t k = begin; k < end; ++k) {
      std::string v = tag + std::to_string(k);
      if (static_cast<int>(v.size()) < value_len) {
        v.resize(value_len, '.');
      }
      POLARMP_RETURN_IF_ERROR(s.Insert(tables_[node], k, v));
    }
    return s.Commit();
  }

  StatusOr<std::string> Read1(int node, int64_t key) {
    Session s(nodes_[node], IsolationLevel::kReadCommitted);
    POLARMP_RETURN_IF_ERROR(s.Begin());
    auto v = s.Get(tables_[node], key);
    POLARMP_RETURN_IF_ERROR(s.Commit());
    return v;
  }

  std::string Expected(int64_t key, const std::string& tag,
                       int value_len = 4) {
    std::string v = tag + std::to_string(key);
    if (static_cast<int>(v.size()) < value_len) v.resize(value_len, '.');
    return v;
  }

  std::unique_ptr<Cluster> cluster_;
  std::vector<DbNode*> nodes_;
  std::vector<TableHandle> tables_;
};

TEST_F(IndexCacheTest, WarmRoutesSkipInternalPages) {
  StartCluster(1, 64);
  ASSERT_TRUE(InsertRange(0, 0, 600, "a").ok());
  IndexCache* cache = nodes_[0]->index_cache();
  // First pass installs the internal image(s); later passes route through
  // them without touching the guarded path for internal levels.
  for (int pass = 0; pass < 3; ++pass) {
    for (int64_t k = 0; k < 600; k += 17) {
      auto v = Read1(0, k);
      ASSERT_TRUE(v.ok()) << "pass " << pass << " key " << k;
      EXPECT_EQ(v.value(), Expected(k, "a"));
    }
  }
  EXPECT_GT(cache->installs(), 0u);
  EXPECT_GT(cache->hits(), 0u);
}

TEST_F(IndexCacheTest, DisabledCacheStaysCold) {
  StartCluster(1, /*cache_slots=*/0);
  ASSERT_TRUE(InsertRange(0, 0, 300, "a").ok());
  for (int64_t k = 0; k < 300; k += 13) {
    auto v = Read1(0, k);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(v.value(), Expected(k, "a"));
  }
  EXPECT_EQ(nodes_[0]->index_cache()->installs(), 0u);
  EXPECT_EQ(nodes_[0]->index_cache()->hits(), 0u);
}

// The acceptance scenario: a remote node runs an SMO (leaf splits update
// the internal level) and pushes the result; the reader's cached internal
// image is one-sided invalidated, the next route REJECTS the stale version
// and refreshes with a one-sided seqlock-validated read — after which every
// key, including ones that moved during the split, is found.
TEST_F(IndexCacheTest, RemoteSplitInvalidatesCachedRouteAfterPush) {
  StartCluster(2, 64);
  ASSERT_TRUE(InsertRange(0, 0, 600, "a").ok());

  // Warm node 0's cache (installs the root/internal images).
  for (int64_t k = 0; k < 600; k += 17) {
    ASSERT_TRUE(Read1(0, k).ok());
  }
  IndexCache* cache = nodes_[0]->index_cache();
  ASSERT_GT(cache->installs(), 0u);
  const uint64_t stale_before = cache->stale_rejects();
  const uint64_t refresh_before = cache->one_sided_refreshes();

  // Node 1 splits leaves (dense appends) and force-pushes the dirty pages,
  // which one-sided writes node 0's cache invalid flags.
  ASSERT_TRUE(InsertRange(1, 600, 1000, "b").ok());
  ASSERT_TRUE(nodes_[1]->Checkpoint().ok());

  // Node 0 reads across the whole (grown) key space through its cache.
  for (int64_t k = 0; k < 1000; k += 7) {
    auto v = Read1(0, k);
    ASSERT_TRUE(v.ok()) << "key " << k;
    EXPECT_EQ(v.value(), Expected(k, k < 600 ? "a" : "b"));
  }
  // The stale image was rejected by the version check and refreshed with
  // one-sided reads — not via Buffer Fusion RPCs.
  EXPECT_GT(cache->stale_rejects(), stale_before);
  EXPECT_GT(cache->one_sided_refreshes(), refresh_before);
}

// Without a push the reader's image is stale with no flag set: routes land
// at-or-left of the key's home and the B-link right-walk heals them. Pure
// correctness assertion — no counter can (or should) fire here.
TEST_F(IndexCacheTest, StaleRouteHealsByRightWalkWithoutPush) {
  StartCluster(2, 64);
  ASSERT_TRUE(InsertRange(0, 0, 600, "a").ok());
  for (int64_t k = 0; k < 600; k += 17) {
    ASSERT_TRUE(Read1(0, k).ok());
  }
  // Leaf splits on node 1, dirty pages NOT checkpointed.
  ASSERT_TRUE(InsertRange(1, 600, 900, "b").ok());
  for (int64_t k = 0; k < 900; k += 11) {
    auto v = Read1(0, k);
    ASSERT_TRUE(v.ok()) << "key " << k;
    EXPECT_EQ(v.value(), Expected(k, k < 600 ? "a" : "b"));
  }
}

TEST_F(IndexCacheTest, LocalSplitInvalidatesOwnRoute) {
  StartCluster(1, 64);
  ASSERT_TRUE(InsertRange(0, 0, 400, "a").ok());
  for (int64_t k = 0; k < 400; k += 17) {
    ASSERT_TRUE(Read1(0, k).ok());
  }
  // Local SMOs mark this node's own cached images stale (the LBP copy is
  // ahead of the DBP until the background push).
  ASSERT_TRUE(InsertRange(0, 400, 800, "b").ok());
  for (int64_t k = 0; k < 800; k += 7) {
    auto v = Read1(0, k);
    ASSERT_TRUE(v.ok()) << "key " << k;
    EXPECT_EQ(v.value(), Expected(k, k < 400 ? "a" : "b"));
  }
}

// Writers route through the cache too, and mixed read/write traffic under
// continuous remote splits stays correct.
TEST_F(IndexCacheTest, CachedRoutesServeWritesUnderRemoteChurn) {
  StartCluster(2, 64);
  ASSERT_TRUE(InsertRange(0, 0, 400, "a").ok());
  for (int64_t k = 0; k < 400; k += 17) {
    ASSERT_TRUE(Read1(0, k).ok());
  }
  for (int round = 0; round < 4; ++round) {
    const int64_t base = 400 + round * 100;
    ASSERT_TRUE(InsertRange(1, base, base + 100, "b").ok());
    if (round % 2 == 0) {
      ASSERT_TRUE(nodes_[1]->Checkpoint().ok());
    }
    // Updates through node 0's (possibly stale) routes.
    Session s(nodes_[0], IsolationLevel::kReadCommitted);
    ASSERT_TRUE(s.Begin().ok());
    for (int64_t k = base; k < base + 100; k += 9) {
      ASSERT_TRUE(s.Put(tables_[0], k, "w" + std::to_string(k)).ok());
    }
    ASSERT_TRUE(s.Commit().ok());
    for (int64_t k = base; k < base + 100; k += 9) {
      auto v = Read1(1, k);
      ASSERT_TRUE(v.ok()) << "key " << k;
      EXPECT_EQ(v.value(), "w" + std::to_string(k));
    }
  }
}

// A deep tree with a tiny cache churns slots; slot eviction is local to
// the cache (the page's PLock stays put) and routing stays correct
// throughout.
TEST_F(IndexCacheTest, TinyCacheEvictsAndStaysCorrect) {
  StartCluster(1, 2);
  // 40-byte values force ~3 levels at 1 KiB pages: multiple internal pages
  // compete for the 2 slots.
  ASSERT_TRUE(InsertRange(0, 0, 1400, "a", 40).ok());
  for (int pass = 0; pass < 2; ++pass) {
    for (int64_t k = 0; k < 1400; k += 13) {
      auto v = Read1(0, k);
      ASSERT_TRUE(v.ok()) << "key " << k;
      EXPECT_EQ(v.value(), Expected(k, "a", 40));
    }
  }
  EXPECT_GT(nodes_[0]->index_cache()->evictions(), 0u);
}

// LBP eviction leaves the evicted pages' PLocks on the node: once every
// page has been touched, further passes that keep evicting and reloading
// pages re-pin them with local grants only, never a fusion round trip.
TEST_F(IndexCacheTest, LbpEvictionLeavesLeaseForCachedPages) {
  StartCluster(1, 64, /*lbp_frames=*/8);
  ASSERT_TRUE(InsertRange(0, 0, 400, "a").ok());
  PLockManager* plock = nodes_[0]->plock_manager();
  BufferPool* lbp = nodes_[0]->buffer_pool();
  for (int64_t k = 0; k < 400; k += 5) {
    ASSERT_TRUE(Read1(0, k).ok());
  }
  const uint64_t fusion_before = plock->fusion_acquires();
  const uint64_t local_before = plock->local_grants();
  const uint64_t reloads_before = lbp->dbp_fetches();
  for (int pass = 0; pass < 2; ++pass) {
    for (int64_t k = 0; k < 400; k += 5) {
      auto v = Read1(0, k);
      ASSERT_TRUE(v.ok());
      EXPECT_EQ(v.value(), Expected(k, "a"));
    }
  }
  // The 8-frame LBP evicted and reloaded pages, yet every pin was local.
  EXPECT_GT(lbp->dbp_fetches(), reloads_before);
  EXPECT_EQ(plock->fusion_acquires(), fusion_before);
  EXPECT_GT(plock->local_grants(), local_before);
  // Splits descend the guarded path over the evicted internals.
  ASSERT_TRUE(InsertRange(0, 400, 800, "b").ok());
  for (int64_t k = 0; k < 800; k += 23) {
    auto v = Read1(0, k);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(v.value(), Expected(k, k < 400 ? "a" : "b"));
  }
}

// Crash + recovery drops the cache; post-recovery traffic rebuilds it and
// reads stay correct (restart re-registers the flag region).
TEST_F(IndexCacheTest, SurvivesCrashRecovery) {
  StartCluster(2, 64);
  ASSERT_TRUE(InsertRange(0, 0, 500, "a").ok());
  for (int64_t k = 0; k < 500; k += 17) {
    ASSERT_TRUE(Read1(0, k).ok());
  }
  ASSERT_GT(nodes_[0]->index_cache()->installs(), 0u);

  const NodeId crashed = nodes_[0]->id();
  ASSERT_TRUE(cluster_->CrashNode(crashed).ok());
  auto restarted = cluster_->RestartNode(crashed);
  ASSERT_TRUE(restarted.ok());
  nodes_[0] = restarted.value();
  tables_[0] = nodes_[0]->OpenTable("t").value();

  for (int64_t k = 0; k < 500; k += 17) {
    auto v = Read1(0, k);
    ASSERT_TRUE(v.ok()) << "key " << k;
    EXPECT_EQ(v.value(), Expected(k, "a"));
  }
  EXPECT_GT(nodes_[0]->index_cache()->installs(), 0u);
}

}  // namespace
}  // namespace polarmp
