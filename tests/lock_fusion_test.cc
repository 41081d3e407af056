#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "obs/metrics.h"
#include "pmfs/lock_fusion.h"

namespace polarmp {
namespace {

class LockFusionTest : public ::testing::Test {
 protected:
  LockFusionTest() : fabric_(ZeroLatencyProfile()), fusion_(&fabric_) {
    fusion_.AddNode(1, [this](PageId p) { Push(&negotiations_1_, p); });
    fusion_.AddNode(2, [this](PageId p) { Push(&negotiations_2_, p); });
  }

  // Negotiation handlers run on waiter threads while test bodies poll, so
  // the vectors are mutex-guarded.
  void Push(std::vector<PageId>* v, PageId p) {
    std::lock_guard lock(neg_mu_);
    v->push_back(p);
  }
  std::vector<PageId> Negotiations(const std::vector<PageId>& v) {
    std::lock_guard lock(neg_mu_);
    return v;
  }
  void AwaitNegotiation(const std::vector<PageId>& v) {
    while (Negotiations(v).empty()) std::this_thread::yield();
  }

  Fabric fabric_;
  LockFusion fusion_;
  std::mutex neg_mu_;
  std::vector<PageId> negotiations_1_;
  std::vector<PageId> negotiations_2_;
};

TEST_F(LockFusionTest, SharedLocksCompatible) {
  const PageId page{1, 1};
  ASSERT_TRUE(fusion_.AcquirePLock(1, page, LockMode::kShared, 1000).ok());
  ASSERT_TRUE(fusion_.AcquirePLock(2, page, LockMode::kShared, 1000).ok());
  EXPECT_TRUE(fusion_.HoldsPLock(1, page, LockMode::kShared));
  EXPECT_TRUE(fusion_.HoldsPLock(2, page, LockMode::kShared));
  EXPECT_TRUE(Negotiations(negotiations_1_).empty());
  EXPECT_TRUE(Negotiations(negotiations_2_).empty());
}

TEST_F(LockFusionTest, ExclusiveConflictNegotiates) {
  const PageId page{1, 1};
  ASSERT_TRUE(fusion_.AcquirePLock(1, page, LockMode::kExclusive, 1000).ok());

  std::atomic<bool> granted{false};
  std::thread waiter([&] {
    ASSERT_TRUE(fusion_.AcquirePLock(2, page, LockMode::kExclusive, 5000).ok());
    granted = true;
  });
  // The waiter's conflict sends node 1 a negotiation message.
  AwaitNegotiation(negotiations_1_);
  EXPECT_EQ(Negotiations(negotiations_1_)[0], page);
  EXPECT_FALSE(granted.load());
  ASSERT_TRUE(fusion_.ReleasePLock(1, page, LockMode::kExclusive).ok());
  waiter.join();
  EXPECT_TRUE(granted.load());
  EXPECT_TRUE(fusion_.HoldsPLock(2, page, LockMode::kExclusive));
}

TEST_F(LockFusionTest, AlreadyHeldIsIdempotent) {
  const PageId page{1, 1};
  ASSERT_TRUE(fusion_.AcquirePLock(1, page, LockMode::kExclusive, 1000).ok());
  ASSERT_TRUE(fusion_.AcquirePLock(1, page, LockMode::kShared, 1000).ok());
  ASSERT_TRUE(fusion_.AcquirePLock(1, page, LockMode::kExclusive, 1000).ok());
  // One release clears the node's (single) hold.
  ASSERT_TRUE(fusion_.ReleasePLock(1, page, LockMode::kExclusive).ok());
  EXPECT_FALSE(fusion_.HoldsPLock(1, page, LockMode::kShared));
}

TEST_F(LockFusionTest, UpgradeWaitsForOtherSharers) {
  const PageId page{1, 1};
  ASSERT_TRUE(fusion_.AcquirePLock(1, page, LockMode::kShared, 1000).ok());
  ASSERT_TRUE(fusion_.AcquirePLock(2, page, LockMode::kShared, 1000).ok());
  std::atomic<bool> upgraded{false};
  std::thread upgrader([&] {
    ASSERT_TRUE(fusion_.AcquirePLock(1, page, LockMode::kExclusive, 5000).ok());
    upgraded = true;
  });
  AwaitNegotiation(negotiations_2_);
  EXPECT_FALSE(upgraded.load());
  ASSERT_TRUE(fusion_.ReleasePLock(2, page, LockMode::kShared).ok());
  upgrader.join();
  EXPECT_TRUE(fusion_.HoldsPLock(1, page, LockMode::kExclusive));
}

// A node gives its S hold back (a negotiated release) while its own S→X
// upgrade is queued, and fusion grants the upgrade before the release lands.
// The release must not take the fresh X with it: the node already counts
// on it, and a second node granted X meanwhile would write the same page.
TEST_F(LockFusionTest, ReleaseRacingOwnUpgradeKeepsGrantedUpgrade) {
  const PageId page{1, 1};
  ASSERT_TRUE(fusion_.AcquirePLock(1, page, LockMode::kShared, 1000).ok());
  ASSERT_TRUE(fusion_.AcquirePLock(1, page, LockMode::kExclusive, 1000).ok());
  ASSERT_TRUE(fusion_.ReleasePLock(1, page, LockMode::kShared).ok());
  EXPECT_TRUE(fusion_.HoldsPLock(1, page, LockMode::kExclusive));
  EXPECT_TRUE(
      fusion_.AcquirePLock(2, page, LockMode::kExclusive, 50).IsBusy());
  ASSERT_TRUE(fusion_.ReleasePLock(1, page, LockMode::kExclusive).ok());
  EXPECT_TRUE(fusion_.AcquirePLock(2, page, LockMode::kExclusive, 1000).ok());
}

TEST_F(LockFusionTest, TimeoutReturnsBusy) {
  const PageId page{1, 1};
  ASSERT_TRUE(fusion_.AcquirePLock(1, page, LockMode::kExclusive, 1000).ok());
  const Status s = fusion_.AcquirePLock(2, page, LockMode::kExclusive, 50);
  EXPECT_TRUE(s.IsBusy());
  // Holder unaffected.
  EXPECT_TRUE(fusion_.HoldsPLock(1, page, LockMode::kExclusive));
  // After release the page is grantable again.
  ASSERT_TRUE(fusion_.ReleasePLock(1, page, LockMode::kExclusive).ok());
  EXPECT_TRUE(fusion_.AcquirePLock(2, page, LockMode::kExclusive, 1000).ok());
}

TEST_F(LockFusionTest, FifoOrdering) {
  const PageId page{1, 1};
  fusion_.AddNode(3, [](PageId) {});
  ASSERT_TRUE(fusion_.AcquirePLock(1, page, LockMode::kExclusive, 1000).ok());
  std::vector<int> grant_order;
  std::mutex mu;
  std::thread t2([&] {
    ASSERT_TRUE(fusion_.AcquirePLock(2, page, LockMode::kExclusive, 5000).ok());
    {
      std::lock_guard lock(mu);
      grant_order.push_back(2);
    }
    ASSERT_TRUE(fusion_.ReleasePLock(2, page, LockMode::kExclusive).ok());
  });
  AwaitNegotiation(negotiations_1_);
  std::thread t3([&] {
    ASSERT_TRUE(fusion_.AcquirePLock(3, page, LockMode::kExclusive, 5000).ok());
    std::lock_guard lock(mu);
    grant_order.push_back(3);
  });
  // Give node 3 time to enqueue behind node 2.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_TRUE(fusion_.ReleasePLock(1, page, LockMode::kExclusive).ok());
  t2.join();
  t3.join();
  ASSERT_EQ(grant_order.size(), 2u);
  EXPECT_EQ(grant_order[0], 2);
  EXPECT_EQ(grant_order[1], 3);
}

TEST_F(LockFusionTest, RemoveNodeReleasesSharedKeepsExclusiveGhost) {
  const PageId spage{1, 1}, xpage{1, 2};
  ASSERT_TRUE(fusion_.AcquirePLock(1, spage, LockMode::kShared, 1000).ok());
  ASSERT_TRUE(fusion_.AcquirePLock(1, xpage, LockMode::kExclusive, 1000).ok());
  fusion_.RemoveNode(1);
  // Shared hold gone: node 2 can take X immediately.
  EXPECT_TRUE(fusion_.AcquirePLock(2, spage, LockMode::kExclusive, 100).ok());
  // Exclusive hold is a ghost: node 2 must wait for recovery.
  EXPECT_TRUE(fusion_.AcquirePLock(2, xpage, LockMode::kShared, 50).IsBusy());
  fusion_.ReleaseAllHolds(1);
  EXPECT_TRUE(fusion_.AcquirePLock(2, xpage, LockMode::kShared, 100).ok());
}

TEST_F(LockFusionTest, RlockWaitNotify) {
  const GTrxId waiter = MakeGTrxId(1, 1, 1);
  const GTrxId holder = MakeGTrxId(2, 1, 1);
  ASSERT_TRUE(fusion_.RegisterWait(waiter, holder).ok());
  std::atomic<bool> woke{false};
  std::thread t([&] {
    ASSERT_TRUE(fusion_.AwaitHolder(waiter, 5000).ok());
    woke = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(woke.load());
  fusion_.NotifyTrxFinished(holder);
  t.join();
  EXPECT_TRUE(woke.load());
}

TEST_F(LockFusionTest, RlockNotifyBeforeAwaitStillWakes) {
  const GTrxId waiter = MakeGTrxId(1, 1, 1);
  const GTrxId holder = MakeGTrxId(2, 1, 1);
  ASSERT_TRUE(fusion_.RegisterWait(waiter, holder).ok());
  fusion_.NotifyTrxFinished(holder);  // lands before AwaitHolder
  EXPECT_TRUE(fusion_.AwaitHolder(waiter, 1000).ok());
}

TEST_F(LockFusionTest, RlockTimeout) {
  const GTrxId waiter = MakeGTrxId(1, 1, 1);
  const GTrxId holder = MakeGTrxId(2, 1, 1);
  ASSERT_TRUE(fusion_.RegisterWait(waiter, holder).ok());
  EXPECT_TRUE(fusion_.AwaitHolder(waiter, 30).IsBusy());
  // The edge was cleaned up: registering again succeeds.
  ASSERT_TRUE(fusion_.RegisterWait(waiter, holder).ok());
  fusion_.CancelWait(waiter);
}

TEST_F(LockFusionTest, DeadlockDetected) {
  const GTrxId a = MakeGTrxId(1, 1, 1);
  const GTrxId b = MakeGTrxId(2, 1, 1);
  const GTrxId c = MakeGTrxId(2, 2, 1);
  ASSERT_TRUE(fusion_.RegisterWait(a, b).ok());
  ASSERT_TRUE(fusion_.RegisterWait(b, c).ok());
  // c → a closes the cycle.
  EXPECT_TRUE(fusion_.RegisterWait(c, a).IsAborted());
  EXPECT_EQ(fusion_.deadlocks_detected(), 1u);
  // Non-cyclic edge still fine.
  ASSERT_TRUE(fusion_.RegisterWait(c, MakeGTrxId(1, 9, 1)).ok());
  fusion_.CancelWait(a);
  fusion_.CancelWait(b);
  fusion_.CancelWait(c);
}


// Acquire/release traffic flows through the process-wide registry
// families (deltas: other tests' LockFusion instances share them), and
// the blocking acquire records a wait-latency sample.
TEST_F(LockFusionTest, CountersVisibleThroughRegistry) {
  auto& reg = obs::MetricsRegistry::Global();
  const uint64_t acq0 = reg.CounterTotal("lock_fusion.plock_acquire_rpcs");
  const uint64_t rel0 = reg.CounterTotal("lock_fusion.plock_release_rpcs");
  const uint64_t waits0 = reg.HistogramTotal("lock_fusion.plock_wait_ns").count();

  const PageId page{1, 77};
  ASSERT_TRUE(fusion_.AcquirePLock(1, page, LockMode::kExclusive, 1000).ok());
  ASSERT_TRUE(fusion_.ReleasePLock(1, page, LockMode::kExclusive).ok());

  EXPECT_EQ(reg.CounterTotal("lock_fusion.plock_acquire_rpcs"), acq0 + 1);
  EXPECT_EQ(reg.CounterTotal("lock_fusion.plock_release_rpcs"), rel0 + 1);
  EXPECT_EQ(reg.HistogramTotal("lock_fusion.plock_wait_ns").count(),
            waits0 + 1);
  // Registry totals agree with the instance's own shim getters for the
  // traffic this test added.
  EXPECT_GE(reg.CounterTotal("lock_fusion.plock_acquire_rpcs"),
            fusion_.plock_acquire_rpcs());
}

// ResetCounters must be callable while another thread hammers the
// counters (the original implementation read them lock-free but reset
// under the mutex; with registry handles both sides are atomic).
TEST_F(LockFusionTest, ResetRacesWithAcquisitionsSafely) {
  std::atomic<bool> stop{false};
  std::thread worker([&] {
    const PageId page{1, 88};
    while (!stop.load(std::memory_order_acquire)) {
      fusion_.AcquirePLock(1, page, LockMode::kShared, 1000).ok();
      fusion_.ReleasePLock(1, page, LockMode::kShared).ok();
    }
  });
  for (int i = 0; i < 1000; ++i) {
    fusion_.ResetCounters();
    (void)fusion_.plock_acquire_rpcs();
    (void)fusion_.plock_release_rpcs();
  }
  stop.store(true, std::memory_order_release);
  worker.join();
}

}  // namespace
}  // namespace polarmp
