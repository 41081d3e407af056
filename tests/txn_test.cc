#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>

#include "cluster/cluster.h"

namespace polarmp {
namespace {

// Transaction-layer tests (MVCC visibility, isolation, locks, rollback,
// GSIs) on a single-node cluster.
class TxnTest : public ::testing::Test {
 protected:
  void SetUp() override { SetUpWithIndexes(0); }

  void SetUpWithIndexes(uint32_t num_indexes) {
    ClusterOptions opts;
    opts.page_size = 1024;
    opts.node.trx.lock_wait_timeout_ms = 300;
    auto cluster = Cluster::Create(opts);
    ASSERT_TRUE(cluster.ok());
    cluster_ = std::move(cluster).value();
    auto node = cluster_->AddNode();
    ASSERT_TRUE(node.ok());
    node_ = node.value();
    auto info = cluster_->CreateTable("t", num_indexes);
    ASSERT_TRUE(info.ok());
    auto table = node_->OpenTable("t");
    ASSERT_TRUE(table.ok());
    table_ = table.value();
  }

  Session NewSession(IsolationLevel iso = IsolationLevel::kReadCommitted) {
    Session s(node_, iso);
    EXPECT_TRUE(s.Begin().ok());
    return s;
  }

  std::unique_ptr<Cluster> cluster_;
  DbNode* node_ = nullptr;
  TableHandle table_;
};

TEST_F(TxnTest, CommitMakesVisible) {
  Session w = NewSession();
  ASSERT_TRUE(w.Insert(table_, 1, "hello").ok());
  // Uncommitted row invisible to another transaction...
  Session r = NewSession();
  EXPECT_TRUE(r.Get(table_, 1).status().IsNotFound());
  // ...but visible to its own.
  EXPECT_EQ(w.Get(table_, 1).value(), "hello");
  ASSERT_TRUE(w.Commit().ok());
  // Read-committed refreshes its view per statement.
  EXPECT_EQ(r.Get(table_, 1).value(), "hello");
  ASSERT_TRUE(r.Commit().ok());
}

TEST_F(TxnTest, RollbackRestoresPreviousVersion) {
  {
    Session s = NewSession();
    ASSERT_TRUE(s.Insert(table_, 1, "v1").ok());
    ASSERT_TRUE(s.Commit().ok());
  }
  {
    Session s = NewSession();
    ASSERT_TRUE(s.Update(table_, 1, "v2").ok());
    ASSERT_TRUE(s.Rollback().ok());
  }
  Session r = NewSession();
  EXPECT_EQ(r.Get(table_, 1).value(), "v1");
  ASSERT_TRUE(r.Commit().ok());
}

TEST_F(TxnTest, RollbackOfInsertRemovesRow) {
  {
    Session s = NewSession();
    ASSERT_TRUE(s.Insert(table_, 5, "temp").ok());
    ASSERT_TRUE(s.Rollback().ok());
  }
  Session r = NewSession();
  EXPECT_TRUE(r.Get(table_, 5).status().IsNotFound());
  // The key is insertable again.
  ASSERT_TRUE(r.Insert(table_, 5, "second").ok());
  ASSERT_TRUE(r.Commit().ok());
}

TEST_F(TxnTest, InsertDuplicateFails) {
  Session s = NewSession();
  ASSERT_TRUE(s.Insert(table_, 1, "a").ok());
  ASSERT_TRUE(s.Commit().ok());
  Session s2 = NewSession();
  EXPECT_TRUE(s2.Insert(table_, 1, "b").IsAlreadyExists());
  ASSERT_TRUE(s2.Rollback().ok());
}

TEST_F(TxnTest, UpdateDeleteRequireExistence) {
  Session s = NewSession();
  EXPECT_TRUE(s.Update(table_, 9, "x").IsNotFound());
  EXPECT_TRUE(s.Delete(table_, 9).IsNotFound());
  ASSERT_TRUE(s.Commit().ok());
}

TEST_F(TxnTest, DeleteThenReinsert) {
  Session s = NewSession();
  ASSERT_TRUE(s.Insert(table_, 1, "first").ok());
  ASSERT_TRUE(s.Commit().ok());
  Session s2 = NewSession();
  ASSERT_TRUE(s2.Delete(table_, 1).ok());
  ASSERT_TRUE(s2.Commit().ok());
  Session s3 = NewSession();
  EXPECT_TRUE(s3.Get(table_, 1).status().IsNotFound());
  ASSERT_TRUE(s3.Insert(table_, 1, "again").ok());
  ASSERT_TRUE(s3.Commit().ok());
  Session s4 = NewSession();
  EXPECT_EQ(s4.Get(table_, 1).value(), "again");
  ASSERT_TRUE(s4.Commit().ok());
}

TEST_F(TxnTest, SnapshotIsolationSeesFixedSnapshot) {
  Session w = NewSession();
  ASSERT_TRUE(w.Insert(table_, 1, "v1").ok());
  ASSERT_TRUE(w.Commit().ok());

  Session si = NewSession(IsolationLevel::kSnapshotIsolation);
  EXPECT_EQ(si.Get(table_, 1).value(), "v1");  // snapshot pinned here

  Session w2 = NewSession();
  ASSERT_TRUE(w2.Update(table_, 1, "v2").ok());
  ASSERT_TRUE(w2.Commit().ok());

  // SI keeps reading the old version; RC sees the new one.
  EXPECT_EQ(si.Get(table_, 1).value(), "v1");
  Session rc = NewSession();
  EXPECT_EQ(rc.Get(table_, 1).value(), "v2");
  ASSERT_TRUE(si.Commit().ok());
  ASSERT_TRUE(rc.Commit().ok());
}

TEST_F(TxnTest, SnapshotIsolationWriteWriteConflictAborts) {
  Session setup = NewSession();
  ASSERT_TRUE(setup.Insert(table_, 1, "base").ok());
  ASSERT_TRUE(setup.Commit().ok());

  Session a = NewSession(IsolationLevel::kSnapshotIsolation);
  EXPECT_EQ(a.Get(table_, 1).value(), "base");  // pin snapshot

  Session b = NewSession();
  ASSERT_TRUE(b.Update(table_, 1, "from-b").ok());
  ASSERT_TRUE(b.Commit().ok());

  // First-committer-wins: a's write sees a version beyond its snapshot.
  EXPECT_TRUE(a.Update(table_, 1, "from-a").IsAborted());
}

TEST_F(TxnTest, ReadCommittedLostUpdateAllowed) {
  Session setup = NewSession();
  ASSERT_TRUE(setup.Insert(table_, 1, "base").ok());
  ASSERT_TRUE(setup.Commit().ok());
  Session a = NewSession();
  EXPECT_EQ(a.Get(table_, 1).value(), "base");
  Session b = NewSession();
  ASSERT_TRUE(b.Update(table_, 1, "b").ok());
  ASSERT_TRUE(b.Commit().ok());
  // RC just overwrites the latest committed version.
  ASSERT_TRUE(a.Update(table_, 1, "a").ok());
  ASSERT_TRUE(a.Commit().ok());
  Session r = NewSession();
  EXPECT_EQ(r.Get(table_, 1).value(), "a");
  ASSERT_TRUE(r.Commit().ok());
}

TEST_F(TxnTest, RowLockBlocksSecondWriterUntilCommit) {
  Session setup = NewSession();
  ASSERT_TRUE(setup.Insert(table_, 1, "base").ok());
  ASSERT_TRUE(setup.Commit().ok());

  Session a = NewSession();
  ASSERT_TRUE(a.Update(table_, 1, "a").ok());

  std::atomic<bool> b_done{false};
  std::thread blocked([&] {
    Session b(node_, IsolationLevel::kReadCommitted);
    ASSERT_TRUE(b.Begin().ok());
    ASSERT_TRUE(b.Update(table_, 1, "b").ok());  // waits for a
    ASSERT_TRUE(b.Commit().ok());
    b_done = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(b_done.load());
  ASSERT_TRUE(a.Commit().ok());
  blocked.join();
  EXPECT_TRUE(b_done.load());
  Session r = NewSession();
  EXPECT_EQ(r.Get(table_, 1).value(), "b");
  ASSERT_TRUE(r.Commit().ok());
}

TEST_F(TxnTest, RowLockReleasedByRollback) {
  Session setup = NewSession();
  ASSERT_TRUE(setup.Insert(table_, 1, "base").ok());
  ASSERT_TRUE(setup.Commit().ok());
  Session a = NewSession();
  ASSERT_TRUE(a.Update(table_, 1, "a").ok());
  std::thread unlocker([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    ASSERT_TRUE(a.Rollback().ok());
  });
  Session b = NewSession();
  ASSERT_TRUE(b.Update(table_, 1, "b").ok());
  ASSERT_TRUE(b.Commit().ok());
  unlocker.join();
  Session r = NewSession();
  EXPECT_EQ(r.Get(table_, 1).value(), "b");
  ASSERT_TRUE(r.Commit().ok());
}

TEST_F(TxnTest, LockWaitTimeoutReturnsBusy) {
  Session setup = NewSession();
  ASSERT_TRUE(setup.Insert(table_, 1, "base").ok());
  ASSERT_TRUE(setup.Commit().ok());
  Session a = NewSession();
  ASSERT_TRUE(a.Update(table_, 1, "a").ok());
  Session b = NewSession();
  EXPECT_TRUE(b.Update(table_, 1, "b").IsBusy());  // 300 ms timeout
  ASSERT_TRUE(a.Commit().ok());
}

TEST_F(TxnTest, DeadlockVictimAborted) {
  Session setup = NewSession();
  ASSERT_TRUE(setup.Insert(table_, 1, "r1").ok());
  ASSERT_TRUE(setup.Insert(table_, 2, "r2").ok());
  ASSERT_TRUE(setup.Commit().ok());

  Session a = NewSession();
  ASSERT_TRUE(a.Update(table_, 1, "a1").ok());
  std::atomic<int> outcomes{0};
  std::thread tb([&] {
    Session b(node_, IsolationLevel::kReadCommitted);
    ASSERT_TRUE(b.Begin().ok());
    ASSERT_TRUE(b.Update(table_, 2, "b2").ok());
    const Status s = b.Update(table_, 1, "b1");  // waits for a
    if (s.ok()) {
      ASSERT_TRUE(b.Commit().ok());
    }
    outcomes.fetch_add(s.ok() ? 1 : 100);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // a → row2 closes the cycle; exactly one transaction must abort.
  const Status s = a.Update(table_, 2, "a2");
  if (s.ok()) {
    ASSERT_TRUE(a.Commit().ok());
    outcomes.fetch_add(1);
  } else {
    EXPECT_TRUE(s.IsAborted() || s.IsBusy());
    outcomes.fetch_add(100);
  }
  tb.join();
  // One winner (+1) and one victim (+100) in either order.
  EXPECT_EQ(outcomes.load(), 101);
}

TEST_F(TxnTest, ScanSkipsInvisibleAndDeleted) {
  Session setup = NewSession();
  for (int64_t k = 0; k < 10; ++k) {
    ASSERT_TRUE(setup.Insert(table_, k, "v" + std::to_string(k)).ok());
  }
  ASSERT_TRUE(setup.Commit().ok());
  Session d = NewSession();
  ASSERT_TRUE(d.Delete(table_, 3).ok());
  ASSERT_TRUE(d.Commit().ok());
  Session w = NewSession();
  ASSERT_TRUE(w.Insert(table_, 100, "uncommitted").ok());

  Session r = NewSession();
  std::vector<int64_t> keys;
  ASSERT_TRUE(r.Scan(table_, 0, 1000, [&](int64_t k, const std::string&) {
                 keys.push_back(k);
                 return true;
               })
                  .ok());
  EXPECT_EQ(keys.size(), 9u);  // 10 inserted − 1 deleted; 100 invisible
  EXPECT_TRUE(std::find(keys.begin(), keys.end(), 3) == keys.end());
  EXPECT_TRUE(std::find(keys.begin(), keys.end(), 100) == keys.end());
  ASSERT_TRUE(w.Rollback().ok());
  ASSERT_TRUE(r.Commit().ok());
}

TEST_F(TxnTest, LongVersionChainReconstruction) {
  Session setup = NewSession();
  ASSERT_TRUE(setup.Insert(table_, 1, "v0").ok());
  ASSERT_TRUE(setup.Commit().ok());
  Session old_reader = NewSession(IsolationLevel::kSnapshotIsolation);
  EXPECT_EQ(old_reader.Get(table_, 1).value(), "v0");
  for (int i = 1; i <= 50; ++i) {
    Session w = NewSession();
    ASSERT_TRUE(w.Update(table_, 1, "v" + std::to_string(i)).ok());
    ASSERT_TRUE(w.Commit().ok());
  }
  // The old snapshot still reconstructs v0 through 50 undo records.
  EXPECT_EQ(old_reader.Get(table_, 1).value(), "v0");
  ASSERT_TRUE(old_reader.Commit().ok());
}

TEST_F(TxnTest, TombstonesPhysicallyPurged) {
  Session s = NewSession();
  for (int64_t k = 0; k < 20; ++k) {
    ASSERT_TRUE(s.Insert(table_, k, "doomed").ok());
  }
  ASSERT_TRUE(s.Commit().ok());
  Session d = NewSession();
  for (int64_t k = 0; k < 20; ++k) {
    ASSERT_TRUE(d.Delete(table_, k).ok());
  }
  ASSERT_TRUE(d.Commit().ok());
  // The purge runs once the deletes are globally visible.
  for (int i = 0; i < 200; ++i) {
    if (node_->trx_manager()->purged_rows() >= 20) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(node_->trx_manager()->purged_rows(), 20u);
  // Physically gone: a raw engine scan sees no rows at all.
  int raw_rows = 0;
  ASSERT_TRUE(node_->TreeForSpace(table_.info.primary_space)
                  ->ScanRange(0, 100,
                              [&](const RowView&) {
                                ++raw_rows;
                                return true;
                              })
                  .ok());
  EXPECT_EQ(raw_rows, 0);
  // And the keys are insertable again.
  Session again = NewSession();
  ASSERT_TRUE(again.Insert(table_, 3, "reborn").ok());
  ASSERT_TRUE(again.Commit().ok());
}

TEST_F(TxnTest, PurgeSkipsReinsertedRows) {
  Session s = NewSession();
  ASSERT_TRUE(s.Insert(table_, 1, "first").ok());
  ASSERT_TRUE(s.Commit().ok());
  Session d = NewSession();
  ASSERT_TRUE(d.Delete(table_, 1).ok());
  ASSERT_TRUE(d.Commit().ok());
  // Reinsert immediately: the queued purge for the old tombstone must not
  // remove the live row.
  Session r = NewSession();
  ASSERT_TRUE(r.Insert(table_, 1, "second").ok());
  ASSERT_TRUE(r.Commit().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  Session check = NewSession();
  EXPECT_EQ(check.Get(table_, 1).value(), "second");
  ASSERT_TRUE(check.Commit().ok());
}

TEST_F(TxnTest, TitSlotsRecycledAfterCommit) {
  for (int i = 0; i < 50; ++i) {
    Session s = NewSession();
    ASSERT_TRUE(s.Insert(table_, 1000 + i, "x").ok());
    ASSERT_TRUE(s.Commit().ok());
  }
  // Let the background tick report views and recycle.
  for (int i = 0; i < 100; ++i) {
    if (cluster_->services()->tit->LiveSlots(node_->id()) == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(cluster_->services()->tit->LiveSlots(node_->id()), 0u);
}

class TxnGsiTest : public TxnTest {
 protected:
  void SetUp() override { SetUpWithIndexes(2); }
};

TEST_F(TxnGsiTest, IndexMaintainedOnInsertUpdateDelete) {
  Session s = NewSession();
  // Row 1: col0=7, col1=9.
  ASSERT_TRUE(s.Insert(table_, 1, EncodeIndexedValue({7, 9}, "payload1")).ok());
  ASSERT_TRUE(s.Insert(table_, 2, EncodeIndexedValue({7, 8}, "payload2")).ok());
  ASSERT_TRUE(s.Commit().ok());

  Session r = NewSession();
  auto pks = r.LookupByIndex(table_, 0, 7);
  ASSERT_TRUE(pks.ok());
  EXPECT_EQ(pks->size(), 2u);
  pks = r.LookupByIndex(table_, 1, 9);
  ASSERT_TRUE(pks.ok());
  ASSERT_EQ(pks->size(), 1u);
  EXPECT_EQ((*pks)[0], 1);
  ASSERT_TRUE(r.Commit().ok());

  // Update moves row 1's col1 from 9 to 8.
  Session u = NewSession();
  ASSERT_TRUE(u.Update(table_, 1, EncodeIndexedValue({7, 8}, "payload1b")).ok());
  ASSERT_TRUE(u.Commit().ok());
  Session r2 = NewSession();
  EXPECT_TRUE(r2.LookupByIndex(table_, 1, 9)->empty());
  EXPECT_EQ(r2.LookupByIndex(table_, 1, 8)->size(), 2u);
  ASSERT_TRUE(r2.Commit().ok());

  // Delete removes all index entries.
  Session d = NewSession();
  ASSERT_TRUE(d.Delete(table_, 1).ok());
  ASSERT_TRUE(d.Commit().ok());
  Session r3 = NewSession();
  EXPECT_EQ(r3.LookupByIndex(table_, 0, 7)->size(), 1u);
  EXPECT_EQ(r3.LookupByIndex(table_, 1, 8)->size(), 1u);
  ASSERT_TRUE(r3.Commit().ok());
}

// Deterministic repro of the bank_transfer balance drift (ROADMAP): under
// read committed, a read-modify-write built on plain snapshot Gets loses
// updates — both transactions read the same base, both write, one delta
// vanishes. This is expected RC behavior, which is exactly why the example
// was wrong to rely on it; the fixed example (and the test below) use
// GetForUpdate.
TEST_F(TxnTest, PlainReadModifyWriteLosesUpdates) {
  {
    Session s = NewSession();
    ASSERT_TRUE(s.Insert(table_, 1, "100").ok());
    ASSERT_TRUE(s.Commit().ok());
  }
  Session a = NewSession();
  Session b = NewSession();
  const int64_t base_a = std::stoll(a.Get(table_, 1).value());
  const int64_t base_b = std::stoll(b.Get(table_, 1).value());
  ASSERT_EQ(base_a, 100);
  ASSERT_EQ(base_b, 100);
  ASSERT_TRUE(a.Update(table_, 1, std::to_string(base_a + 10)).ok());
  ASSERT_TRUE(a.Commit().ok());
  ASSERT_TRUE(b.Update(table_, 1, std::to_string(base_b - 5)).ok());
  ASSERT_TRUE(b.Commit().ok());
  Session r = NewSession();
  // The +10 is gone: 95, not 105. (Documents the hazard, not a defect.)
  EXPECT_EQ(r.Get(table_, 1).value(), "95");
  ASSERT_TRUE(r.Commit().ok());
}

TEST_F(TxnTest, GetForUpdateSerializesReadModifyWrite) {
  {
    Session s = NewSession();
    ASSERT_TRUE(s.Insert(table_, 1, "100").ok());
    ASSERT_TRUE(s.Commit().ok());
  }
  Session a = NewSession();
  const auto locked = a.GetForUpdate(table_, 1);
  ASSERT_TRUE(locked.ok());
  ASSERT_EQ(*locked, "100");
  // The second RMW cycle blocks on the row lock until `a` commits, then
  // reads a's result — no lost update.
  std::thread other([&] {
    Session b(node_, IsolationLevel::kReadCommitted);
    ASSERT_TRUE(b.Begin().ok());
    const auto base = b.GetForUpdate(table_, 1);
    ASSERT_TRUE(base.ok());
    EXPECT_EQ(*base, "110");
    ASSERT_TRUE(
        b.Update(table_, 1, std::to_string(std::stoll(*base) - 5)).ok());
    ASSERT_TRUE(b.Commit().ok());
  });
  ASSERT_TRUE(a.Update(table_, 1, std::to_string(std::stoll(*locked) + 10))
                  .ok());
  ASSERT_TRUE(a.Commit().ok());
  other.join();
  Session r = NewSession();
  EXPECT_EQ(r.Get(table_, 1).value(), "105");
  ASSERT_TRUE(r.Commit().ok());
}

TEST_F(TxnTest, GetForUpdateBasicsAndRollback) {
  EXPECT_TRUE(NewSession().GetForUpdate(table_, 9).status().IsNotFound());
  {
    Session s = NewSession();
    ASSERT_TRUE(s.Insert(table_, 1, "v1").ok());
    ASSERT_TRUE(s.Commit().ok());
  }
  // Lock write rolls back cleanly: the prior version survives, unlocked.
  {
    Session s = NewSession();
    EXPECT_EQ(s.GetForUpdate(table_, 1).value(), "v1");
    // Idempotent within the transaction (own-gid fast path).
    EXPECT_EQ(s.GetForUpdate(table_, 1).value(), "v1");
    ASSERT_TRUE(s.Rollback().ok());
  }
  Session r = NewSession();
  EXPECT_EQ(r.Get(table_, 1).value(), "v1");
  EXPECT_EQ(r.GetForUpdate(table_, 1).value(), "v1");  // lock acquirable
  ASSERT_TRUE(r.Commit().ok());
  // A deleted row reads NotFound, same as Get.
  {
    Session s = NewSession();
    ASSERT_TRUE(s.Delete(table_, 1).ok());
    ASSERT_TRUE(s.Commit().ok());
  }
  EXPECT_TRUE(NewSession().GetForUpdate(table_, 1).status().IsNotFound());
}

// A locking read obeys the same snapshot-isolation conflict rules as a
// write: it may not lock a version its snapshot cannot have seen.
TEST_F(TxnTest, GetForUpdateObeysSnapshotConflicts) {
  {
    Session s = NewSession();
    ASSERT_TRUE(s.Insert(table_, 1, "base").ok());
    ASSERT_TRUE(s.Insert(table_, 2, "base").ok());
    ASSERT_TRUE(s.Commit().ok());
  }
  // First-committer-wins: a version committed after the snapshot.
  {
    Session a = NewSession(IsolationLevel::kSnapshotIsolation);
    EXPECT_EQ(a.Get(table_, 1).value(), "base");  // pin snapshot
    Session b = NewSession();
    ASSERT_TRUE(b.Update(table_, 1, "from-b").ok());
    ASSERT_TRUE(b.Commit().ok());
    EXPECT_TRUE(a.GetForUpdate(table_, 1).status().IsAborted());
  }
  // First-updater-wins: the locking read blocks on b's uncommitted write
  // and aborts once b commits.
  Session b = NewSession();
  ASSERT_TRUE(b.Update(table_, 2, "from-b").ok());
  const uint64_t waits_before = node_->trx_manager()->lock_waits();
  std::atomic<bool> a_done{false};
  Status a_status;
  std::thread reader([&] {
    Session a(node_, IsolationLevel::kSnapshotIsolation);
    ASSERT_TRUE(a.Begin().ok());
    a_status = a.GetForUpdate(table_, 2).status();
    a_done = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(a_done.load());
  ASSERT_TRUE(b.Commit().ok());
  reader.join();
  EXPECT_TRUE(a_status.IsAborted()) << a_status.ToString();
  EXPECT_GT(node_->trx_manager()->lock_waits(), waits_before);
}

// Commit-time CTS backfill (§4.1) must reach rows the transaction's own
// splits moved off the leaf they were written on: ascending inserts fill the
// rightmost leaf, and each split moves its upper half right before the
// commit runs.
TEST_F(TxnTest, BackfillReachesRowsSplitsMovedRight) {
  TrxManager* mgr = node_->trx_manager();
  BTree* tree = table_.primary;
  BufferPool* lbp = node_->buffer_pool();
  const uint64_t splits_before = tree->splits();
  const uint64_t backfilled_before = mgr->backfilled_rows();
  const uint64_t skips_before = mgr->backfill_skips();
  constexpr int64_t kRows = 200;
  Transaction* trx = mgr->Begin(IsolationLevel::kReadCommitted).value();
  for (int64_t key = 1; key <= kRows; ++key) {
    ASSERT_TRUE(mgr->WriteRow(trx, tree, key, "sequential-load-row",
                              /*tombstone=*/false, /*must_not_exist=*/true,
                              /*require_exists=*/false, nullptr)
                    .ok());
  }
  const uint64_t splits = tree->splits() - splits_before;
  ASSERT_GE(splits, 2u);
  // The backfill pins each page once, not once per row: the rows sit on
  // splits + 1 leaves, plus the root a first split turned internal, which
  // routes the rows hinted at it down.
  const uint64_t pins_before = node_->plock_manager()->local_grants();
  ASSERT_TRUE(mgr->Commit(trx).ok());
  EXPECT_LE(node_->plock_manager()->local_grants() - pins_before,
            splits + 2);
  const GTrxId gid = trx->gid();
  const Csn cts = trx->cts();
  mgr->Release(trx);
  EXPECT_EQ(mgr->backfilled_rows() - backfilled_before,
            static_cast<uint64_t>(kRows));
  EXPECT_EQ(mgr->backfill_skips() - skips_before, 0u);

  // Every row is still LBP-resident (the scan loads nothing) and its image
  // carries the commit's CTS.
  const uint64_t loads_before = lbp->storage_loads() + lbp->dbp_fetches();
  int64_t seen = 0;
  ASSERT_TRUE(tree->ScanRange(1, kRows, [&](const RowView& row) {
                    EXPECT_EQ(row.g_trx_id, gid) << "key " << row.key;
                    EXPECT_EQ(row.cts, cts) << "key " << row.key;
                    ++seen;
                    return true;
                  })
                  .ok());
  EXPECT_EQ(seen, kRows);
  EXPECT_EQ(lbp->storage_loads() + lbp->dbp_fetches(), loads_before);
}

// Two writers on one node insert interleaved ascending keys, so each one's
// splits move rows the other wrote and has not committed yet. Writer 1 then
// keeps inserting past the shared range, splitting the right edge while
// writer 0 commits and backfills. Every row still ends up with its writer's
// CTS. The backfill latches one page at a time; the runtime lock-rank
// checker aborts the process on any inversion.
TEST_F(TxnTest, InterleavedWritersBackfillRowsEachOthersSplitsMoved) {
  TrxManager* mgr = node_->trx_manager();
  BTree* tree = table_.primary;
  const uint64_t backfilled_before = mgr->backfilled_rows();
  const uint64_t skips_before = mgr->backfill_skips();
  constexpr int64_t kShared = 160;  // keys 1..kShared alternate writers
  constexpr int64_t kTail = 120;    // writer 1's keys past kShared
  std::atomic<int64_t> last_written{0};
  GTrxId gids[2] = {kInvalidGTrxId, kInvalidGTrxId};
  Csn ctss[2] = {kCsnInit, kCsnInit};
  auto write = [&](Transaction* trx, int64_t key) {
    const Status st = mgr->WriteRow(trx, tree, key, "interleaved-row",
                                    /*tombstone=*/false,
                                    /*must_not_exist=*/true,
                                    /*require_exists=*/false, nullptr);
    EXPECT_TRUE(st.ok()) << "key " << key << ": " << st.ToString();
  };
  auto writer = [&](int w) {
    Transaction* trx = mgr->Begin(IsolationLevel::kReadCommitted).value();
    for (int64_t key = 1 + w; key <= kShared; key += 2) {
      // Strict alternation keeps the global insert order ascending, so
      // every leaf holds both writers' rows.
      while (last_written.load(std::memory_order_acquire) != key - 1) {
        std::this_thread::yield();
      }
      write(trx, key);
      last_written.store(key, std::memory_order_release);
    }
    if (w == 1) {
      for (int64_t key = kShared + 1; key <= kShared + kTail; ++key) {
        write(trx, key);
      }
    }
    const Status st = mgr->Commit(trx);
    EXPECT_TRUE(st.ok()) << st.ToString();
    gids[w] = trx->gid();
    ctss[w] = trx->cts();
    mgr->Release(trx);
  };
  std::thread w0(writer, 0);
  std::thread w1(writer, 1);
  w0.join();
  w1.join();

  constexpr int64_t kRows = kShared + kTail;
  EXPECT_EQ(mgr->backfilled_rows() - backfilled_before,
            static_cast<uint64_t>(kRows));
  EXPECT_EQ(mgr->backfill_skips() - skips_before, 0u);
  int64_t seen = 0;
  ASSERT_TRUE(tree->ScanRange(1, kRows, [&](const RowView& row) {
                    const int w = row.key <= kShared ? (row.key - 1) % 2 : 1;
                    EXPECT_EQ(row.g_trx_id, gids[w]) << "key " << row.key;
                    EXPECT_EQ(row.cts, ctss[w]) << "key " << row.key;
                    ++seen;
                    return true;
                  })
                  .ok());
  EXPECT_EQ(seen, kRows);
}

TEST_F(TxnGsiTest, RollbackRevertsIndexEntries) {
  Session s = NewSession();
  ASSERT_TRUE(s.Insert(table_, 1, EncodeIndexedValue({5, 6}, "p")).ok());
  ASSERT_TRUE(s.Rollback().ok());
  Session r = NewSession();
  EXPECT_TRUE(r.LookupByIndex(table_, 0, 5)->empty());
  EXPECT_TRUE(r.LookupByIndex(table_, 1, 6)->empty());
  ASSERT_TRUE(r.Commit().ok());
}

}  // namespace
}  // namespace polarmp
