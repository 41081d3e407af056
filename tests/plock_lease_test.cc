#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "cluster/cluster.h"
#include "engine/plock_manager.h"

namespace polarmp {
namespace {

// PLockManager retained-hold and ForceRelease race tests against a real
// LockFusion over a zero-latency fabric. Negotiation callbacks are wired
// straight into the managers, exactly as DbNode does it.
class PLockLeaseTest : public ::testing::Test {
 protected:
  PLockLeaseTest()
      : fabric_(ZeroLatencyProfile()),
        fusion_(&fabric_),
        a_(1, &fusion_),
        b_(2, &fusion_) {
    fusion_.AddNode(1, [this](PageId p) { a_.OnNegotiate(p); });
    fusion_.AddNode(2, [this](PageId p) { b_.OnNegotiate(p); });
  }

  Fabric fabric_;
  LockFusion fusion_;
  PLockManager a_;
  PLockManager b_;
};

// ForceRelease (SMO virtual locks, table bootstrap) must refuse (Busy)
// while a Pin for the same page is queued at Lock Fusion (acquiring in
// flight) and while references are held, and succeed only on an idle hold.
TEST_F(PLockLeaseTest, ForceReleaseVsConcurrentPinRace) {
  const PageId page{1, 7};
  // b holds X with a live reference, so a's Pin(S) queues in the fusion
  // FIFO (the negotiation request parks behind b's refs).
  ASSERT_TRUE(b_.Pin(page, LockMode::kExclusive, 1000).ok());

  std::atomic<bool> granted{false};
  std::thread pinner([&] {
    ASSERT_TRUE(a_.Pin(page, LockMode::kShared, 10'000).ok());
    granted = true;
  });

  // While the acquire is in flight, ForceRelease must step aside: poll
  // until the entry exists in the acquiring state and reports Busy.
  for (;;) {
    const Status st = a_.ForceRelease(page);
    if (st.IsBusy()) break;
    ASSERT_TRUE(st.ok()) << st.ToString();
    std::this_thread::yield();
  }
  EXPECT_FALSE(granted.load());
  EXPECT_FALSE(a_.HeldLocally(page, LockMode::kShared));

  // b drains its reference; the negotiated release runs and a is granted.
  b_.Unpin(page);
  pinner.join();
  ASSERT_TRUE(granted.load());
  EXPECT_TRUE(a_.HeldLocally(page, LockMode::kShared));

  // Still referenced: ForceRelease keeps refusing.
  EXPECT_TRUE(a_.ForceRelease(page).IsBusy());
  a_.Unpin(page);
  // Idle now (lazily retained): ForceRelease releases for real.
  EXPECT_TRUE(a_.ForceRelease(page).ok());
  EXPECT_FALSE(a_.HeldLocally(page, LockMode::kShared));
  EXPECT_FALSE(fusion_.HoldsPLock(1, page, LockMode::kShared));
}

// An idle retained hold keeps the fusion-side grant until a conflicting
// remote acquisition revokes it through negotiation, immediately.
TEST_F(PLockLeaseTest, LeaseRevokedByRemoteConflict) {
  const PageId page{1, 5};
  ASSERT_TRUE(a_.Pin(page, LockMode::kExclusive, 1000).ok());
  a_.Unpin(page);
  EXPECT_TRUE(a_.HeldLocally(page, LockMode::kExclusive));
  EXPECT_TRUE(fusion_.HoldsPLock(1, page, LockMode::kExclusive));

  // b's conflicting acquire negotiates a's hold away without waiting.
  ASSERT_TRUE(b_.Pin(page, LockMode::kExclusive, 5000).ok());
  EXPECT_FALSE(a_.HeldLocally(page, LockMode::kShared));
  EXPECT_FALSE(fusion_.HoldsPLock(1, page, LockMode::kShared));
  EXPECT_TRUE(fusion_.HoldsPLock(2, page, LockMode::kExclusive));
  b_.Unpin(page);
}

// Pin vs ForceRelease vs remote X: one thread keeps pinning/unpinning, one
// keeps force-releasing, while a remote node periodically grabs the page
// exclusively. Every outcome must be OK or Busy and the page must keep
// being acquirable; at the end the hold is fully released.
TEST_F(PLockLeaseTest, EvictionVsPinVsRevocationStress) {
  const PageId page{1, 10};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> a_pins{0};

  std::thread pinner([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      if (a_.Pin(page, LockMode::kShared, 2000).ok()) {
        a_pins.fetch_add(1, std::memory_order_relaxed);
        a_.Unpin(page);
      }
    }
  });
  std::thread releaser([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const Status st = a_.ForceRelease(page);
      ASSERT_TRUE(st.ok() || st.IsBusy()) << st.ToString();
    }
  });

  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(b_.Pin(page, LockMode::kExclusive, 10'000).ok());
    b_.Unpin(page);
    const Status st = b_.ForceRelease(page);
    ASSERT_TRUE(st.ok() || st.IsBusy()) << st.ToString();
  }
  // With b quiet, a's pinner is guaranteed to get through; don't stop the
  // threads before it has proven so at least once.
  while (a_pins.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }
  stop.store(true);
  pinner.join();
  releaser.join();
  EXPECT_GT(a_pins.load(), 0u);

  // Quiesce: drain whatever hold is left on a's side.
  for (;;) {
    const Status st = a_.ForceRelease(page);
    if (st.ok()) break;
    std::this_thread::yield();
  }
  EXPECT_FALSE(a_.HeldLocally(page, LockMode::kShared));
  EXPECT_FALSE(fusion_.HoldsPLock(1, page, LockMode::kShared));
}

// PLocks outlive LBP eviction, end to end: two nodes with an 8-frame LBP
// and no index cache. Table "k" is a single-leaf tree (its root, page 0,
// is the leaf holding key kKey); churning table "c" cycles every LBP
// frame, so the leaf is evicted while its X hold stays on the node.
class PLockEvictionTest : public ::testing::Test {
 protected:
  static constexpr int64_t kKey = 1;

  void SetUp() override {
    ClusterOptions opts;
    opts.page_size = 1024;
    opts.node.lbp.frames = 8;
    opts.node.cache.slots = 0;
    opts.node.trx.lock_wait_timeout_ms = 5000;
    auto cluster = Cluster::Create(opts);
    ASSERT_TRUE(cluster.ok());
    cluster_ = std::move(cluster).value();
    a_ = cluster_->AddNode().value();
    b_ = cluster_->AddNode().value();
    auto info = cluster_->CreateTable("k");
    ASSERT_TRUE(info.ok());
    leaf_ = PageId{info.value().primary_space, 0};
    ASSERT_TRUE(cluster_->CreateTable("c").ok());
  }

  Status Write1(DbNode* node, const std::string& table, int64_t key,
                const std::string& value) {
    POLARMP_ASSIGN_OR_RETURN(TableHandle t, node->OpenTable(table));
    Session s(node, IsolationLevel::kReadCommitted);
    POLARMP_RETURN_IF_ERROR(s.Begin());
    POLARMP_RETURN_IF_ERROR(s.Put(t, key, value));
    return s.Commit();
  }

  StatusOr<std::string> Read1(DbNode* node, const std::string& table,
                              int64_t key) {
    POLARMP_ASSIGN_OR_RETURN(TableHandle t, node->OpenTable(table));
    Session s(node, IsolationLevel::kReadCommitted);
    POLARMP_RETURN_IF_ERROR(s.Begin());
    auto v = s.Get(t, key);
    POLARMP_RETURN_IF_ERROR(s.Commit());
    return v;
  }

  // Probing a cached page refreshes its LRU position, so probe sparingly.
  static bool InLbp(DbNode* node, PageId page) {
    const BufferPool::Handle h = node->buffer_pool()->TryGetCached(page);
    if (!h.valid()) return false;
    node->buffer_pool()->Unpin(h);
    return true;
  }

  // Writes batches of fresh keys of table "c" on `node` until `leaf_`
  // leaves its LBP.
  void ChurnUntilEvicted(DbNode* node) {
    const std::string filler(100, 'c');
    int64_t key = 1;
    while (InLbp(node, leaf_)) {
      ASSERT_LT(key, 2000) << "leaf never evicted";
      for (const int64_t end = key + 40; key < end; ++key) {
        ASSERT_TRUE(Write1(node, "c", key, filler).ok());
      }
    }
  }

  std::unique_ptr<Cluster> cluster_;
  DbNode* a_ = nullptr;
  DbNode* b_ = nullptr;
  PageId leaf_;
};

TEST_F(PLockEvictionTest, EvictedPageKeepsHoldUntilNegotiated) {
  ASSERT_TRUE(Write1(a_, "k", kKey, "from-a").ok());
  ASSERT_NO_FATAL_FAILURE(ChurnUntilEvicted(a_));
  PLockManager* plock = a_->plock_manager();
  EXPECT_TRUE(plock->HeldLocally(leaf_, LockMode::kExclusive));

  // Re-reading the evicted leaf reloads it from the DBP under the
  // retained hold: a local grant, no Lock Fusion round trip.
  const uint64_t fusion_before = plock->fusion_acquires();
  const uint64_t local_before = plock->local_grants();
  auto v = Read1(a_, "k", kKey);
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(v.value(), "from-a");
  EXPECT_EQ(plock->fusion_acquires(), fusion_before);
  EXPECT_GT(plock->local_grants(), local_before);

  // B's write negotiates A's hold away; B sees A's value, then A sees B's.
  {
    TableHandle t = b_->OpenTable("k").value();
    Session s(b_, IsolationLevel::kReadCommitted);
    ASSERT_TRUE(s.Begin().ok());
    auto seen = s.Get(t, kKey);
    ASSERT_TRUE(seen.ok()) << seen.status().ToString();
    EXPECT_EQ(seen.value(), "from-a");
    ASSERT_TRUE(s.Put(t, kKey, "from-b").ok());
    ASSERT_TRUE(s.Commit().ok());
  }
  EXPECT_FALSE(plock->HeldLocally(leaf_, LockMode::kShared));
  v = Read1(a_, "k", kKey);
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(v.value(), "from-b");
}

// A crash with X held on an evicted (hence pushed) page leaves a ghost hold
// at Lock Fusion. Recovery drops it, after which B's write to the page
// commits over A's last acknowledged value; a clean Stop leaves no hold.
TEST_F(PLockEvictionTest, GhostHoldOnEvictedPageClearedByRecovery) {
  ASSERT_TRUE(Write1(a_, "k", kKey, "acked-by-a").ok());
  ASSERT_NO_FATAL_FAILURE(ChurnUntilEvicted(a_));
  ASSERT_TRUE(a_->plock_manager()->HeldLocally(leaf_, LockMode::kExclusive));

  const NodeId a_id = a_->id();
  ASSERT_TRUE(cluster_->CrashNode(a_id).ok());
  LockFusion* fusion = cluster_->lock_fusion();
  EXPECT_TRUE(fusion->HoldsPLock(a_id, leaf_, LockMode::kExclusive));

  auto restarted = cluster_->RestartNode(a_id);
  ASSERT_TRUE(restarted.ok()) << restarted.status().ToString();
  a_ = restarted.value();
  EXPECT_FALSE(fusion->HoldsPLock(a_id, leaf_, LockMode::kShared));

  {
    TableHandle t = b_->OpenTable("k").value();
    Session s(b_, IsolationLevel::kReadCommitted);
    ASSERT_TRUE(s.Begin().ok());
    auto seen = s.Get(t, kKey);
    ASSERT_TRUE(seen.ok()) << seen.status().ToString();
    EXPECT_EQ(seen.value(), "acked-by-a");
    ASSERT_TRUE(s.Put(t, kKey, "from-b").ok());
    ASSERT_TRUE(s.Commit().ok());
  }

  // A re-reads (taking a retained S hold), then stops cleanly.
  auto v = Read1(a_, "k", kKey);
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(v.value(), "from-b");
  ASSERT_TRUE(fusion->HoldsPLock(a_id, leaf_, LockMode::kShared));
  ASSERT_TRUE(cluster_->StopNode(a_id).ok());
  EXPECT_FALSE(fusion->HoldsPLock(a_id, leaf_, LockMode::kShared));
}

}  // namespace
}  // namespace polarmp
