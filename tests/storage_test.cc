#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "storage/log_store.h"
#include "storage/page_store.h"
#include "wal/log_record.h"
#include "wal/log_writer.h"

namespace polarmp {
namespace {

TEST(PageStoreTest, SpaceLifecycle) {
  PageStore store(ZeroLatencyProfile(), 512);
  EXPECT_FALSE(store.SpaceExists(1));
  ASSERT_TRUE(store.CreateSpace(1).ok());
  EXPECT_TRUE(store.SpaceExists(1));
  EXPECT_TRUE(store.CreateSpace(1).IsAlreadyExists());
  ASSERT_TRUE(store.DropSpace(1).ok());
  EXPECT_FALSE(store.SpaceExists(1));
}

TEST(PageStoreTest, ReadWritePages) {
  PageStore store(ZeroLatencyProfile(), 512);
  ASSERT_TRUE(store.CreateSpace(1).ok());
  std::string page(512, 'x');
  const PageId id{1, 7};
  EXPECT_FALSE(store.PageExists(id));
  std::string out(512, 0);
  EXPECT_TRUE(store.ReadPage(id, out.data()).IsNotFound());
  ASSERT_TRUE(store.WritePage(id, page.data()).ok());
  ASSERT_TRUE(store.ReadPage(id, out.data()).ok());
  EXPECT_EQ(out, page);
  EXPECT_EQ(store.writes(), 1u);
  EXPECT_EQ(store.reads(), 2u);
}

TEST(PageStoreTest, AllocPageNoMonotonic) {
  PageStore store(ZeroLatencyProfile(), 512);
  ASSERT_TRUE(store.CreateSpace(1).ok());
  EXPECT_EQ(store.AllocPageNo(1).value(), 0u);
  EXPECT_EQ(store.AllocPageNo(1).value(), 1u);
  EXPECT_EQ(store.MaxPageNo(1).value(), 2u);
  EXPECT_FALSE(store.AllocPageNo(9).ok());
}

TEST(LogStoreTest, AppendAndRead) {
  LogStore store(ZeroLatencyProfile());
  ASSERT_TRUE(store.CreateLog(1).ok());
  auto lsn1 = store.Append(1, "hello");
  ASSERT_TRUE(lsn1.ok());
  EXPECT_EQ(lsn1.value(), 0u);
  auto lsn2 = store.Append(1, "world");
  EXPECT_EQ(lsn2.value(), 5u);
  EXPECT_EQ(store.DurableLsn(1).value(), 10u);
  std::string out;
  ASSERT_TRUE(store.ReadAt(1, 2, 6, &out).ok());
  EXPECT_EQ(out, "llowor");
  ASSERT_TRUE(store.ReadAt(1, 10, 4, &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST(LogStoreTest, TruncateAndCheckpoint) {
  LogStore store(ZeroLatencyProfile());
  ASSERT_TRUE(store.CreateLog(1).ok());
  ASSERT_TRUE(store.Append(1, "0123456789").ok());
  ASSERT_TRUE(store.SetCheckpoint(1, 4).ok());
  EXPECT_EQ(store.GetCheckpoint(1).value(), 4u);
  // Checkpoints never regress.
  ASSERT_TRUE(store.SetCheckpoint(1, 2).ok());
  EXPECT_EQ(store.GetCheckpoint(1).value(), 4u);
  ASSERT_TRUE(store.Truncate(1, 4).ok());
  std::string out;
  EXPECT_TRUE(store.ReadAt(1, 2, 2, &out).IsCorruption());
  ASSERT_TRUE(store.ReadAt(1, 4, 3, &out).ok());
  EXPECT_EQ(out, "456");
}

TEST(LogStoreTest, Epochs) {
  LogStore store(ZeroLatencyProfile());
  EXPECT_EQ(store.GetNodeEpoch(3), 0u);
  EXPECT_EQ(store.BumpNodeEpoch(3), 1u);
  EXPECT_EQ(store.BumpNodeEpoch(3), 2u);
  EXPECT_EQ(store.GetNodeEpoch(3), 2u);
}

TEST(LogRecordTest, EncodeDecodeRoundTrip) {
  LogRecord rec = MakeWriteRow(7, 42, PageId{3, 9}, "row-image-bytes");
  const std::string enc = rec.Encode();
  size_t consumed = 0;
  auto dec = LogRecord::Decode(enc, &consumed);
  ASSERT_TRUE(dec.ok());
  EXPECT_EQ(consumed, enc.size());
  EXPECT_EQ(dec->type, LogRecordType::kWriteRow);
  EXPECT_EQ(dec->node, 7);
  EXPECT_EQ(dec->llsn, 42u);
  EXPECT_EQ(dec->page_id, (PageId{3, 9}));
  EXPECT_EQ(dec->body, "row-image-bytes");
}

TEST(LogRecordTest, AllConstructors) {
  EXPECT_TRUE(MakeInitPage(1, 2, PageId{1, 0}, 3, 4, 5).IsPageRecord());
  EXPECT_TRUE(MakeRemoveRow(1, 2, PageId{1, 0}, -9).IsPageRecord());
  EXPECT_TRUE(MakeSetPageLinks(1, 2, PageId{1, 0}, 4, 5).IsPageRecord());
  EXPECT_TRUE(MakeLoadRows(1, 2, PageId{1, 0}, "x").IsPageRecord());
  EXPECT_TRUE(MakeTruncateRows(1, 2, PageId{1, 0}, 10).IsPageRecord());
  EXPECT_FALSE(MakeUndoAppend(1, 2, 30, "u").IsPageRecord());
  EXPECT_FALSE(MakeTrxCommit(1, 99, 100).IsPageRecord());
  EXPECT_FALSE(MakeTrxRollbackEnd(1, 99).IsPageRecord());
  // Commit record carries trx + cts in aux.
  const LogRecord commit = MakeTrxCommit(1, 99, 100);
  size_t n;
  auto dec = LogRecord::Decode(commit.Encode(), &n);
  ASSERT_TRUE(dec.ok());
  EXPECT_EQ(dec->trx, 99u);
  EXPECT_EQ(dec->aux, 100u);
}

TEST(LogRecordTest, ShortBufferRejected) {
  LogRecord rec = MakeWriteRow(1, 1, PageId{1, 1}, "abcdef");
  const std::string enc = rec.Encode();
  size_t consumed;
  EXPECT_FALSE(LogRecord::Decode(std::string_view(enc).substr(0, 10),
                                 &consumed)
                   .ok());
  EXPECT_FALSE(
      LogRecord::Decode(std::string_view(enc).substr(0, enc.size() - 1),
                        &consumed)
          .ok());
}

// The LLSN-bounded merge shared by crash recovery and the standby: records
// above the lowest horizon stay pending until every stream has passed them,
// and a torn last record stays undecoded until its bytes arrive.
TEST(LogStreamTest, BoundedMergeHoldsRecordsAboveBound) {
  LogStore store(ZeroLatencyProfile());
  ASSERT_TRUE(store.CreateLog(1).ok());
  ASSERT_TRUE(store.CreateLog(2).ok());
  std::string log1;
  for (Llsn llsn = 1; llsn <= 10; ++llsn) {
    MakeWriteRow(1, llsn, PageId{1, static_cast<PageNo>(llsn)}, "r")
        .AppendTo(&log1);
  }
  ASSERT_TRUE(store.Append(1, log1).ok());
  std::string log2;
  MakeTrxCommit(2, 99, 100).AppendTo(&log2);
  MakeWriteRow(2, 5, PageId{1, 50}, "r").AppendTo(&log2);
  ASSERT_TRUE(store.Append(2, log2).ok());

  LogStreams streams;
  for (NodeId node : {1, 2}) {
    LogStream& s = streams[node];
    s.node = node;
    ASSERT_EQ(s.ReadChunk(store).value(), store.DurableLsn(node).value());
  }
  EXPECT_EQ(streams[1].horizon, 10u);
  EXPECT_EQ(streams[2].horizon, 5u);

  auto llsns = [](const std::vector<LogRecord>& batch) {
    std::vector<std::pair<Llsn, NodeId>> out;
    for (const LogRecord& rec : batch) out.emplace_back(rec.llsn, rec.node);
    return out;
  };
  // LLSN_bound = 5: the commit record (LLSN 0) and 1..5 from both streams,
  // sorted by LLSN; stream 1's own order breaks the tie at 5.
  using Rows = std::vector<std::pair<Llsn, NodeId>>;
  EXPECT_EQ(llsns(TakeBelowBound(&streams)),
            (Rows{{0, 2}, {1, 1}, {2, 1}, {3, 1}, {4, 1}, {5, 1}, {5, 2}}));
  ASSERT_EQ(streams[1].pending.size(), 5u);
  EXPECT_EQ(streams[1].pending.front().llsn, 6u);
  EXPECT_TRUE(streams[2].pending.empty());

  // A torn record: only its first half is durable.
  const std::string torn =
      MakeWriteRow(1, 11, PageId{1, 11}, "r").Encode();
  const size_t half = torn.size() / 2;
  ASSERT_TRUE(store.Append(1, torn.substr(0, half)).ok());
  ASSERT_EQ(streams[1].ReadChunk(store).value(), half);
  EXPECT_EQ(streams[1].tail.size(), half);
  EXPECT_EQ(streams[1].pending.size(), 5u);
  EXPECT_EQ(streams[1].horizon, 10u);
  EXPECT_TRUE(TakeBelowBound(&streams).empty());  // stream 2 holds it at 5

  // A heartbeat mark moves stream 2 past 10; 6..10 follow, 11 is unread.
  ASSERT_TRUE(store.Append(2, MakeLlsnMark(2, 20).Encode()).ok());
  ASSERT_GT(streams[2].ReadChunk(store).value(), 0u);
  EXPECT_EQ(llsns(TakeBelowBound(&streams)),
            (Rows{{6, 1}, {7, 1}, {8, 1}, {9, 1}, {10, 1}}));
  EXPECT_EQ(streams[2].pending.size(), 1u);  // the mark itself, at 20

  // The rest of the torn record completes it.
  ASSERT_TRUE(store.Append(1, torn.substr(half)).ok());
  ASSERT_TRUE(streams[1].ReadChunk(store).ok());
  EXPECT_TRUE(streams[1].tail.empty());
  EXPECT_EQ(llsns(TakeBelowBound(&streams)), (Rows{{11, 1}}));
  // A done stream no longer holds the bound back.
  streams[1].done = true;
  EXPECT_EQ(llsns(TakeBelowBound(&streams)), (Rows{{20, 2}}));
}

TEST(LogWriterTest, BufferAndForce) {
  LogStore store(ZeroLatencyProfile());
  LogWriter writer(1, &store);
  const Lsn end = writer.Add({MakeTrxCommit(1, 5, 6)});
  EXPECT_GT(end, 0u);
  EXPECT_EQ(writer.durable_lsn(), 0u);
  EXPECT_EQ(writer.buffered_lsn(), end);
  ASSERT_TRUE(writer.ForceAsync(end).Wait().ok());
  EXPECT_EQ(writer.durable_lsn(), end);
  EXPECT_EQ(store.DurableLsn(1).value(), end);
}

TEST(LogWriterTest, GroupCommitManyThreads) {
  LogStore store(ZeroLatencyProfile());
  LogWriter writer(2, &store);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&writer, t] {
      for (int i = 0; i < 50; ++i) {
        const Lsn end = writer.Add(
            {MakeTrxCommit(2, static_cast<GTrxId>(t * 1000 + i), 1)});
        ASSERT_TRUE(writer.ForceAsync(end).Wait().ok());
        ASSERT_GE(writer.durable_lsn(), end);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(writer.durable_lsn(), writer.buffered_lsn());
  // The stream decodes cleanly end to end.
  std::string all;
  ASSERT_TRUE(store.ReadAt(2, 0, 1 << 20, &all).ok());
  size_t pos = 0;
  int count = 0;
  while (pos < all.size()) {
    size_t consumed;
    auto rec = LogRecord::Decode(std::string_view(all).substr(pos), &consumed);
    ASSERT_TRUE(rec.ok());
    pos += consumed;
    ++count;
  }
  EXPECT_EQ(count, 400);
}

TEST(LogWriterTest, ResumesFromExistingStream) {
  LogStore store(ZeroLatencyProfile());
  ASSERT_TRUE(store.CreateLog(4).ok());
  ASSERT_TRUE(store.Append(4, "prefix").ok());
  LogWriter writer(4, &store);
  EXPECT_EQ(writer.durable_lsn(), 6u);
  const Lsn end = writer.Add({MakeTrxCommit(4, 1, 2)});
  ASSERT_TRUE(writer.ForceAsync(end).Wait().ok());
  EXPECT_EQ(store.DurableLsn(4).value(), end);
}

}  // namespace
}  // namespace polarmp
