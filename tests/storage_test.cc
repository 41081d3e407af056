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
