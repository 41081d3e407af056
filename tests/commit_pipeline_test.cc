// Deterministic tests for the pipelined group-commit log writer and the
// durable commit path: group formation, completion ordering, force-error
// delivery, and rollback of a commit whose force failed.

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "common/sim_latency.h"
#include "node/session.h"
#include "wal/log_record.h"
#include "wal/log_writer.h"

namespace polarmp {
namespace {

constexpr uint64_t kLockWaitTimeoutMs = 20'000;

ClusterOptions QuietClusterOptions() {
  // Background activity (heartbeats, checkpoints, LBP/DBP flushes) forces
  // the log on its own; push it out past the test horizon so the only
  // forces observed are the ones the test issues.
  ClusterOptions opts;
  opts.node.trx.lock_wait_timeout_ms = kLockWaitTimeoutMs;
  opts.node.background_interval_ms = 60'000;
  opts.node.checkpoint_interval_ms = 60'000;
  opts.node.lbp_flush_interval_ms = 60'000;
  opts.dbp_flush_interval_ms = 60'000;
  return opts;
}

// Polls `done` until it holds; the writer's flushers run on their own
// threads, so the tests wait for a state, never for a duration.
template <typename Pred>
void WaitUntil(Pred done) {
  while (!done()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

// The transaction ids of the commit records in `node`'s durable stream, read
// the way recovery reads it.
std::vector<GTrxId> DurableCommits(const LogStore& store, NodeId node) {
  LogStream stream;
  stream.node = node;
  for (;;) {
    auto read = stream.ReadChunk(store);
    EXPECT_TRUE(read.ok());
    if (!read.ok() || read.value() == 0) break;
  }
  EXPECT_TRUE(stream.tail.empty());
  std::vector<GTrxId> trxs;
  for (const LogRecord& rec : stream.pending) trxs.push_back(rec.trx);
  return trxs;
}

class CommitPipelineTest : public ::testing::Test {
 protected:
  DbNode* MakeClusterWithNode() {
    auto cluster = Cluster::Create(QuietClusterOptions());
    EXPECT_TRUE(cluster.ok());
    cluster_ = std::move(cluster).value();
    auto node = cluster_->AddNode();
    EXPECT_TRUE(node.ok());
    return node.value();
  }

  TableHandle Open(DbNode* node) {
    auto table = node->OpenTable("t");
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

// N committers queued behind a paused flusher ride ONE device force.
TEST_F(CommitPipelineTest, GroupFormationOneForcePerBatch) {
  constexpr int kCommitters = 6;
  DbNode* node = MakeClusterWithNode();
  ASSERT_TRUE(cluster_->CreateTable("t").ok());
  TableHandle t = Open(node);
  LogWriter* writer = node->log_writer();

  writer->PauseFlusher();
  const uint64_t forces_before = writer->forces();
  std::vector<std::thread> committers;
  for (int i = 0; i < kCommitters; ++i) {
    committers.emplace_back(
        [&, i] { ASSERT_TRUE(Write1(node, t, 100 + i, "gv").ok()); });
  }
  // Every committer parks one force request on the paused flusher.
  while (writer->pending_forces() < static_cast<size_t>(kCommitters)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(writer->forces(), forces_before);
  writer->ResumeFlusher();
  for (auto& c : committers) c.join();

  // One batch claim, one storage append, six completions.
  EXPECT_EQ(writer->forces(), forces_before + 1);
  EXPECT_EQ(writer->pending_forces(), 0u);
  for (int i = 0; i < kCommitters; ++i) {
    auto v = Read1(node, t, 100 + i);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(v.value(), "gv");
  }
}

// Force handles complete in LSN order of their targets, regardless of the
// order they were enqueued in: once the highest target's handle completes,
// every lower one already has.
TEST_F(CommitPipelineTest, HandlesCompleteInLsnOrder) {
  LogStore store(ZeroLatencyProfile());
  LogWriter writer(7, &store);
  writer.PauseFlusher();

  constexpr int kRecords = 8;
  std::vector<Lsn> ends;
  for (int i = 0; i < kRecords; ++i) {
    ends.push_back(writer.Add({MakeTrxCommit(7, 100 + i, 1)}));
  }
  // Enqueue in REVERSE target order: handles[0] has the highest target.
  std::vector<LogWriter::ForceHandle> handles;
  for (int i = kRecords - 1; i >= 0; --i) {
    handles.push_back(writer.ForceAsync(ends[i]));
  }
  EXPECT_EQ(writer.pending_forces(), static_cast<size_t>(kRecords));
  for (const auto& h : handles) EXPECT_FALSE(h.done());
  writer.ResumeFlusher();

  ASSERT_TRUE(handles.front().Wait().ok());
  for (const auto& h : handles) EXPECT_TRUE(h.done());
  for (Lsn end : ends) EXPECT_GE(writer.durable_lsn(), end);
  for (const auto& h : handles) EXPECT_TRUE(h.Wait().ok());
}

// A failed commit force surfaces to the committer, which rolls back: the old
// value stays visible, the row lock is free at once, and the rolled-back
// write never resurfaces after a crash.
TEST_F(CommitPipelineTest, ForceFailureRollsBackCommit) {
  DbNode* node = MakeClusterWithNode();
  ASSERT_TRUE(cluster_->CreateTable("t").ok());
  TableHandle t = Open(node);
  ASSERT_TRUE(Write1(node, t, 1, "old").ok());

  cluster_->log_store()->FailNextAppends(1);
  const Status failed = Write1(node, t, 1, "new");
  EXPECT_TRUE(failed.IsIOError()) << failed.ToString();

  auto v = Read1(node, t, 1);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), "old");

  // The row lock went with the rollback: a second writer must not wait out
  // the lock timeout (it would fail Busy after it).
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(Write1(node, t, 1, "second").ok());
  EXPECT_LT(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(kLockWaitTimeoutMs / 2));

  const NodeId id = node->id();
  ASSERT_TRUE(cluster_->CrashNode(id).ok());
  auto restarted = cluster_->RestartNode(id);
  ASSERT_TRUE(restarted.ok());
  DbNode* revived = restarted.value();
  auto after = Read1(revived, Open(revived), 1);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value(), "second");
}

// A LogStore append failure is delivered to EVERY queued committer, the
// buffer survives, and a retry force succeeds.
TEST_F(CommitPipelineTest, ForceErrorReachesEveryWaiter) {
  LogStore store(ZeroLatencyProfile());
  LogWriter writer(9, &store);
  writer.PauseFlusher();

  const Lsn end1 = writer.Add({MakeTrxCommit(9, 1, 1)});
  const Lsn end2 = writer.Add({MakeTrxCommit(9, 2, 2)});
  LogWriter::ForceHandle first = writer.ForceAsync(end1);
  LogWriter::ForceHandle second = writer.ForceAsync(end2);

  store.FailNextAppends(1);
  writer.ResumeFlusher();

  const Status first_status = first.Wait();
  const Status second_status = second.Wait();
  EXPECT_TRUE(first_status.IsIOError()) << first_status.ToString();
  EXPECT_TRUE(second_status.IsIOError()) << second_status.ToString();
  EXPECT_EQ(writer.durable_lsn(), 0u);
  EXPECT_EQ(writer.buffered_lsn(), end2);

  // The failed batch went back into the buffer: a retry forces all of it.
  ASSERT_TRUE(writer.ForceAsync(end2).Wait().ok());
  EXPECT_EQ(writer.durable_lsn(), end2);
  EXPECT_EQ(store.DurableLsn(9).value(), end2);
}

// With the first force held on the wire, a later committer's force is
// issued beside it and lands first; its handle still waits for the first.
TEST_F(CommitPipelineTest, SecondForceOverlapsButWaitsForTheFirstToLand) {
  LogStore store(ZeroLatencyProfile());
  LogWriter writer(11, &store);
  store.HoldNextAppends(1);
  const Lsn end1 = writer.Add({MakeTrxCommit(11, 1, 1)});
  LogWriter::ForceHandle first = writer.ForceAsync(end1);
  WaitUntil([&] { return store.held_appends() == 1; });

  const Lsn end2 = writer.Add({MakeTrxCommit(11, 2, 2)});
  LogWriter::ForceHandle second = writer.ForceAsync(end2);
  WaitUntil([&] {
    return writer.forces() == 2 && writer.forces_in_flight() == 1;
  });
  EXPECT_EQ(writer.max_forces_in_flight(), 2u);
  // The second force landed above the hole the first still leaves.
  EXPECT_FALSE(first.done());
  EXPECT_FALSE(second.done());
  EXPECT_EQ(writer.durable_lsn(), 0u);
  EXPECT_EQ(store.DurableLsn(11).value(), 0u);
  EXPECT_TRUE(DurableCommits(store, 11).empty());

  store.ReleaseHeldAppends();
  ASSERT_TRUE(second.Wait().ok());
  EXPECT_TRUE(first.done());
  EXPECT_TRUE(first.Wait().ok());
  EXPECT_EQ(writer.forces(), 2u);
  EXPECT_EQ(writer.durable_lsn(), end2);
  EXPECT_EQ(DurableCommits(store, 11), (std::vector<GTrxId>{1, 2}));
}

// The first of two forces in flight fails: neither group is acknowledged,
// though the second group's bytes landed, and the next force re-forces the
// hole at its offset, which makes both durable.
TEST_F(CommitPipelineTest, FailedFirstForceFailsBothGroupsUntilReforced) {
  LogStore store(ZeroLatencyProfile());
  LogWriter writer(12, &store);
  store.FailNextAppends(1);
  store.HoldNextAppends(1);
  const Lsn end1 = writer.Add({MakeTrxCommit(12, 1, 1)});
  LogWriter::ForceHandle first = writer.ForceAsync(end1);
  WaitUntil([&] { return store.held_appends() == 1; });
  const Lsn end2 = writer.Add({MakeTrxCommit(12, 2, 2)});
  LogWriter::ForceHandle second = writer.ForceAsync(end2);
  WaitUntil([&] {
    return writer.forces() == 2 && writer.forces_in_flight() == 1;
  });
  EXPECT_FALSE(first.done());
  EXPECT_FALSE(second.done());

  store.ReleaseHeldAppends();
  const Status first_status = first.Wait();
  const Status second_status = second.Wait();
  EXPECT_TRUE(first_status.IsIOError()) << first_status.ToString();
  EXPECT_TRUE(second_status.IsIOError()) << second_status.ToString();
  EXPECT_EQ(writer.durable_lsn(), 0u);
  EXPECT_TRUE(DurableCommits(store, 12).empty());

  ASSERT_TRUE(writer.ForceAsync(end2).Wait().ok());
  EXPECT_EQ(writer.forces(), 3u);
  EXPECT_EQ(writer.durable_lsn(), end2);
  EXPECT_EQ(store.DurableLsn(12).value(), end2);
  EXPECT_EQ(DurableCommits(store, 12), (std::vector<GTrxId>{1, 2}));
}

// A crash with two forces on the wire: Abandon waits for both, the first
// fails and leaves a hole, and recovery reads exactly the landed prefix, not
// the second force's bytes above the hole. A restarted writer appends where
// the hole was.
TEST_F(CommitPipelineTest, AbandonWithTwoForcesInFlightKeepsTheLandedPrefix) {
  LogStore store(ZeroLatencyProfile());
  Lsn end0 = 0;
  {
    LogWriter writer(13, &store);
    end0 = writer.Add({MakeTrxCommit(13, 1, 1)});
    ASSERT_TRUE(writer.ForceAsync(end0).Wait().ok());

    store.FailNextAppends(1);
    store.HoldNextAppends(2);
    const Lsn end1 = writer.Add({MakeTrxCommit(13, 2, 2)});
    LogWriter::ForceHandle first = writer.ForceAsync(end1);
    WaitUntil([&] { return store.held_appends() == 1; });
    const Lsn end2 = writer.Add({MakeTrxCommit(13, 3, 3)});
    LogWriter::ForceHandle second = writer.ForceAsync(end2);
    WaitUntil([&] { return store.held_appends() == 2; });
    EXPECT_EQ(writer.forces_in_flight(), 2);
    writer.Add({MakeTrxCommit(13, 4, 4)});  // buffered, never forced

    std::thread crash([&] { writer.Abandon(); });
    // Abandon drops the buffer at once, then waits for the wire.
    WaitUntil([&] { return writer.buffered_lsn() == end2; });
    EXPECT_FALSE(first.done());
    EXPECT_FALSE(second.done());
    store.ReleaseHeldAppends();
    crash.join();
    EXPECT_EQ(writer.forces_in_flight(), 0);
    EXPECT_TRUE(first.Wait().IsIOError());
    EXPECT_FALSE(second.Wait().ok());
    EXPECT_EQ(writer.durable_lsn(), end0);
  }
  EXPECT_EQ(store.DurableLsn(13).value(), end0);
  EXPECT_EQ(DurableCommits(store, 13), (std::vector<GTrxId>{1}));

  LogWriter revived(13, &store);
  EXPECT_EQ(revived.durable_lsn(), end0);
  const Lsn end5 = revived.Add({MakeTrxCommit(13, 5, 5)});
  ASSERT_TRUE(revived.ForceAsync(end5).Wait().ok());
  EXPECT_EQ(DurableCommits(store, 13), (std::vector<GTrxId>{1, 5}));
}

// No handle completes before every byte below its target has landed, however
// the overlapping forces of concurrent committers interleave.
TEST_F(CommitPipelineTest, NoHandleCompletesAheadOfTheLandedPrefix) {
  LatencyProfile profile = ZeroLatencyProfile();
  profile.log_append_ns = kSimBatchNanos;  // sleeps, so forces overlap
  LogStore store(profile);
  LogWriter writer(14, &store);
  constexpr int kThreads = 8, kCommits = 25;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kCommits; ++i) {
        const Lsn end = writer.Add(
            {MakeTrxCommit(14, static_cast<GTrxId>(t * 1000 + i), 1)});
        ASSERT_TRUE(writer.ForceAsync(end).Wait().ok());
        EXPECT_GE(store.DurableLsn(14).value(), end);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_LE(writer.max_forces_in_flight(),
            static_cast<uint64_t>(kMaxForcesInFlight));
  EXPECT_EQ(writer.durable_lsn(), writer.buffered_lsn());
  EXPECT_EQ(DurableCommits(store, 14).size(),
            static_cast<size_t>(kThreads * kCommits));
}

}  // namespace
}  // namespace polarmp
