#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "pmfs/tso.h"
#include "pmfs/transaction_fusion.h"
#include "txn/tit.h"

namespace polarmp {
namespace {

class TitTest : public ::testing::Test {
 protected:
  TitTest() : fabric_(ZeroLatencyProfile()), tit_(&fabric_, 64) {
    EXPECT_TRUE(tit_.AddNode(1).ok());
    EXPECT_TRUE(tit_.AddNode(2).ok());
  }
  Fabric fabric_;
  Tit tit_;
};

TEST_F(TitTest, AllocPublishRead) {
  auto gid = tit_.AllocSlot(1, 100);
  ASSERT_TRUE(gid.ok());
  EXPECT_EQ(GTrxNode(*gid), 1);

  // Active: cts INIT, matching version.
  auto read = tit_.ReadSlot(2, *gid);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->cts, kCsnInit);
  EXPECT_EQ(read->version, GTrxVersion(*gid));

  tit_.PublishCts(*gid, 555);
  read = tit_.ReadSlot(2, *gid);
  EXPECT_EQ(read->cts, 555u);
}

TEST_F(TitTest, SlotReuseBumpsVersion) {
  auto g1 = tit_.AllocSlot(1, 100);
  ASSERT_TRUE(g1.ok());
  tit_.PublishCts(*g1, 10);
  tit_.FreeSlot(*g1);
  // Allocate until the same slot is reused.
  GTrxId g2 = kInvalidGTrxId;
  for (int i = 0; i < 200; ++i) {
    auto g = tit_.AllocSlot(1, 200 + i);
    ASSERT_TRUE(g.ok());
    if (GTrxSlot(*g) == GTrxSlot(*g1)) {
      g2 = *g;
      break;
    }
    tit_.FreeSlot(*g);
  }
  ASSERT_NE(g2, kInvalidGTrxId);
  EXPECT_GT(GTrxVersion(g2), GTrxVersion(*g1));
  // A read against the OLD gid sees the version mismatch (Algorithm 1's
  // "slot reused ⇒ committed and visible to all" case).
  auto read = tit_.ReadSlot(2, *g1);
  ASSERT_TRUE(read.ok());
  EXPECT_NE(read->version, GTrxVersion(*g1));
}

TEST_F(TitTest, RefFlagProtocol) {
  auto gid = tit_.AllocSlot(1, 1);
  ASSERT_TRUE(gid.ok());
  EXPECT_FALSE(tit_.ReadAndClearRef(*gid));
  ASSERT_TRUE(tit_.SetRefRemote(2, *gid).ok());
  EXPECT_TRUE(tit_.ReadAndClearRef(*gid));
  EXPECT_FALSE(tit_.ReadAndClearRef(*gid));  // cleared
}

TEST_F(TitTest, ExhaustionAndLiveCount) {
  std::vector<GTrxId> gids;
  for (uint32_t i = 0; i < 64; ++i) {
    auto g = tit_.AllocSlot(1, i + 1);
    ASSERT_TRUE(g.ok());
    gids.push_back(*g);
  }
  EXPECT_EQ(tit_.LiveSlots(1), 64u);
  EXPECT_FALSE(tit_.AllocSlot(1, 999).ok());
  tit_.FreeSlot(gids[10]);
  EXPECT_TRUE(tit_.AllocSlot(1, 999).ok());
}

TEST_F(TitTest, DeadOwnerUnavailable) {
  auto gid = tit_.AllocSlot(1, 1);
  ASSERT_TRUE(gid.ok());
  fabric_.DeregisterEndpoint(1);
  EXPECT_TRUE(tit_.ReadSlot(2, *gid).status().IsUnavailable());
  EXPECT_TRUE(tit_.SetRefRemote(2, *gid).IsUnavailable());
}

TEST_F(TitTest, ResetBumpsAllVersions) {
  auto gid = tit_.AllocSlot(1, 1);
  ASSERT_TRUE(gid.ok());
  tit_.ResetNode(1);
  auto read = tit_.ReadSlot(2, *gid);
  ASSERT_TRUE(read.ok());
  EXPECT_NE(read->version, GTrxVersion(*gid));  // old gid resolves "reused"
  EXPECT_EQ(tit_.LiveSlots(1), 0u);
}

TEST_F(TitTest, BaseVersionSeedsFreshTable) {
  Fabric fabric(ZeroLatencyProfile());
  Tit tit(&fabric, 8);
  ASSERT_TRUE(tit.AddNode(5, uint64_t{3} << 20).ok());
  auto gid = tit.AllocSlot(5, 1);
  ASSERT_TRUE(gid.ok());
  EXPECT_GT(GTrxVersion(*gid), uint32_t{3} << 20);
}

TEST_F(TitTest, ConcurrentAllocDistinctSlots) {
  std::vector<std::thread> threads;
  std::mutex mu;
  std::vector<GTrxId> all;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 10; ++i) {
        auto g = tit_.AllocSlot(2, t * 100 + i + 1);
        ASSERT_TRUE(g.ok());
        std::lock_guard lock(mu);
        all.push_back(*g);
      }
    });
  }
  for (auto& t : threads) t.join();
  std::set<uint32_t> slots;
  for (GTrxId g : all) slots.insert(GTrxSlot(g));
  EXPECT_EQ(slots.size(), all.size());  // no slot double-allocated
}

TEST(TsoTest, MonotoneTimestamps) {
  Fabric fabric(ZeroLatencyProfile());
  Tso tso(&fabric);
  auto c1 = tso.NextCts(1);
  auto c2 = tso.NextCts(2);
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE(c2.ok());
  EXPECT_EQ(c1.value(), kCsnFirst);
  EXPECT_EQ(c2.value(), kCsnFirst + 1);
  EXPECT_EQ(tso.CurrentCts(1).value(), kCsnFirst + 1);
}

TEST(TsoClientTest, LinearLamportCoalescesConcurrentFetches) {
  // With a realistic TSO round-trip latency, concurrent readers piggyback
  // on in-flight fetches: one fetch serves every request that arrived
  // before the fetch started.
  LatencyProfile profile = ZeroLatencyProfile();
  profile.rdma_read_ns = 300'000;  // sleeps, giving peers time to arrive
  Fabric fabric(profile);
  Tso tso(&fabric);
  TsoClient client(&tso, 1, /*use_linear_lamport=*/true);
  constexpr int kThreads = 4, kReads = 25;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kReads; ++i) {
        ASSERT_TRUE(client.ReadTimestamp().ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(client.fetches() + client.reuses(), kThreads * kReads);
  EXPECT_GT(client.reuses(), 0u);
  EXPECT_LT(client.fetches(), static_cast<uint64_t>(kThreads) * kReads);
}

TEST(TsoClientTest, LinearLamportNeverReusesAFetchOlderThanTheCaller) {
  // A read timestamp must cover every commit timestamp handed out before
  // the read arrived. Checkers take a commit timestamp, then read: a reused
  // fetch that started before their arrival may have sampled the TSO before
  // that commit timestamp existed. Pacers keep fetches in flight, and a
  // fetch takes at least one batch of wall time, so reads really coalesce.
  LatencyProfile profile = ZeroLatencyProfile();
  profile.rdma_read_ns = kSimBatchNanos;
  Fabric fabric(profile);
  Tso tso(&fabric);
  TsoClient client(&tso, 1, /*use_linear_lamport=*/true);
  constexpr int kCheckers = 4, kPacers = 2, kReads = 40;
  std::atomic<bool> done{false};
  std::vector<std::thread> pacers;
  for (int t = 0; t < kPacers; ++t) {
    pacers.emplace_back([&] {
      while (!done.load()) ASSERT_TRUE(client.ReadTimestamp().ok());
    });
  }
  std::vector<std::thread> checkers;
  for (int t = 0; t < kCheckers; ++t) {
    checkers.emplace_back([&] {
      for (int i = 0; i < kReads; ++i) {
        auto committed = tso.NextCts(1);
        ASSERT_TRUE(committed.ok());
        auto read = client.ReadTimestamp();
        ASSERT_TRUE(read.ok());
        EXPECT_GE(read.value(), committed.value());
      }
    });
  }
  for (auto& t : checkers) t.join();
  done.store(true);
  for (auto& t : pacers) t.join();
}

TEST(TsoClientTest, WithoutLltEveryReadFetches) {
  Fabric fabric(ZeroLatencyProfile());
  Tso tso(&fabric);
  TsoClient client(&tso, 1, /*use_linear_lamport=*/false);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(client.ReadTimestamp().ok());
  }
  EXPECT_EQ(client.fetches(), 10u);
  EXPECT_EQ(client.reuses(), 0u);
}

TEST(TransactionFusionTest, GlobalMinViewAggregation) {
  Fabric fabric(ZeroLatencyProfile());
  TransactionFusion fusion(&fabric);
  fusion.AddNode(1);
  fusion.AddNode(2);
  // Unreported nodes pin the minimum at its initial value.
  ASSERT_TRUE(fusion.ReportMinView(1, 100).ok());
  EXPECT_EQ(fusion.GlobalMinViewLocal(), kCsnFirst);
  ASSERT_TRUE(fusion.ReportMinView(2, 50).ok());
  EXPECT_EQ(fusion.GlobalMinViewLocal(), 50u);
  ASSERT_TRUE(fusion.ReportMinView(2, 120).ok());
  EXPECT_EQ(fusion.GlobalMinViewLocal(), 100u);
  // One-sided read path agrees.
  EXPECT_EQ(fusion.GlobalMinView(1).value(), 100u);
  // Removing the laggard lets the minimum advance.
  fusion.RemoveNode(1);
  EXPECT_EQ(fusion.GlobalMinViewLocal(), 120u);
  // Late/stale reports never regress the broadcast value.
  ASSERT_TRUE(fusion.ReportMinView(2, 60).ok());
  EXPECT_EQ(fusion.GlobalMinViewLocal(), 120u);
}

}  // namespace
}  // namespace polarmp
