#include <gtest/gtest.h>

#include <memory>

#include "engine/page.h"
#include "wal/log_record.h"

namespace polarmp {
namespace {

constexpr uint32_t kPageSize = 1024;

class PageTest : public ::testing::Test {
 protected:
  PageTest() : buf_(new char[kPageSize]), page_(buf_.get(), kPageSize) {
    page_.Init(PageId{1, 2}, 0, kInvalidPageNo, kInvalidPageNo);
  }

  std::string Row(int64_t key, const std::string& value,
                  GTrxId trx = kInvalidGTrxId) {
    return EncodeRow(key, trx, kCsnInit, kNullUndoPtr, 0, value);
  }

  std::unique_ptr<char[]> buf_;
  Page page_;
};

TEST_F(PageTest, InitSetsHeader) {
  EXPECT_EQ(page_.id(), (PageId{1, 2}));
  EXPECT_EQ(page_.llsn(), 0u);
  EXPECT_TRUE(page_.is_leaf());
  EXPECT_EQ(page_.nslots(), 0);
  EXPECT_EQ(page_.prev(), kInvalidPageNo);
  EXPECT_EQ(page_.next(), kInvalidPageNo);
}

TEST_F(PageTest, InsertKeepsSortedOrder) {
  ASSERT_TRUE(page_.WriteRow(Row(30, "c")).ok());
  ASSERT_TRUE(page_.WriteRow(Row(10, "a")).ok());
  ASSERT_TRUE(page_.WriteRow(Row(20, "b")).ok());
  ASSERT_EQ(page_.nslots(), 3);
  EXPECT_EQ(page_.KeyAt(0), 10);
  EXPECT_EQ(page_.KeyAt(1), 20);
  EXPECT_EQ(page_.KeyAt(2), 30);
  EXPECT_EQ(page_.RowAt(1).value().value.ToString(), "b");
}

TEST_F(PageTest, FindSlotAndLowerBound) {
  for (int64_t k = 0; k < 10; ++k) {
    ASSERT_TRUE(page_.WriteRow(Row(k * 10, "v")).ok());
  }
  EXPECT_EQ(page_.FindSlot(50), 5);
  EXPECT_EQ(page_.FindSlot(55), -1);
  EXPECT_EQ(page_.LowerBound(55), 6);
  EXPECT_EQ(page_.LowerBound(-1), 0);
  EXPECT_EQ(page_.LowerBound(1000), 10);
}

TEST_F(PageTest, UpsertReplacesInPlace) {
  ASSERT_TRUE(page_.WriteRow(Row(5, "first")).ok());
  ASSERT_TRUE(page_.WriteRow(Row(5, "2nd")).ok());  // shrink
  EXPECT_EQ(page_.nslots(), 1);
  EXPECT_EQ(page_.RowAt(0).value().value.ToString(), "2nd");
  ASSERT_TRUE(page_.WriteRow(Row(5, "a-much-longer-value")).ok());  // grow
  EXPECT_EQ(page_.RowAt(0).value().value.ToString(), "a-much-longer-value");
  EXPECT_EQ(page_.nslots(), 1);
}

TEST_F(PageTest, RemoveRow) {
  ASSERT_TRUE(page_.WriteRow(Row(1, "a")).ok());
  ASSERT_TRUE(page_.WriteRow(Row(2, "b")).ok());
  ASSERT_TRUE(page_.WriteRow(Row(3, "c")).ok());
  ASSERT_TRUE(page_.RemoveRow(2).ok());
  EXPECT_EQ(page_.nslots(), 2);
  EXPECT_EQ(page_.KeyAt(0), 1);
  EXPECT_EQ(page_.KeyAt(1), 3);
  EXPECT_TRUE(page_.RemoveRow(2).IsNotFound());
}

TEST_F(PageTest, MetaSettersInPlace) {
  ASSERT_TRUE(page_.WriteRow(Row(1, "abc")).ok());
  page_.SetRowTrx(0, MakeGTrxId(1, 2, 3));
  page_.SetRowCts(0, 77);
  page_.SetRowUndoPtr(0, MakeUndoPtr(1, 123));
  page_.SetRowFlags(0, kRowTombstone);
  const RowView row = page_.RowAt(0).value();
  EXPECT_EQ(row.g_trx_id, MakeGTrxId(1, 2, 3));
  EXPECT_EQ(row.cts, 77u);
  EXPECT_EQ(row.undo_ptr, MakeUndoPtr(1, 123));
  EXPECT_TRUE(row.tombstone());
  EXPECT_EQ(row.value.ToString(), "abc");  // value untouched
}

TEST_F(PageTest, FillsUntilFullThenCompacts) {
  int inserted = 0;
  while (page_.WriteRow(Row(inserted, std::string(20, 'x'))).ok()) {
    ++inserted;
  }
  EXPECT_GT(inserted, 10);
  // Deleting makes room again (garbage reclaimed by compaction).
  ASSERT_TRUE(page_.RemoveRow(0).ok());
  ASSERT_TRUE(page_.RemoveRow(1).ok());
  EXPECT_TRUE(page_.WriteRow(Row(1000, std::string(20, 'y'))).ok());
}

TEST_F(PageTest, GarbageReclaimedOnShrinkGrow) {
  ASSERT_TRUE(page_.WriteRow(Row(1, std::string(100, 'a'))).ok());
  const size_t before = page_.FreeSpace();
  ASSERT_TRUE(page_.WriteRow(Row(1, std::string(10, 'b'))).ok());
  EXPECT_EQ(page_.FreeSpace(), before + 90);  // garbage counted as free
}

TEST_F(PageTest, CopyAndTruncate) {
  for (int64_t k = 0; k < 8; ++k) {
    ASSERT_TRUE(page_.WriteRow(Row(k, "v" + std::to_string(k))).ok());
  }
  const std::string upper = page_.CopyRowsInRange(4, 8);
  page_.TruncateFromKey(4);
  EXPECT_EQ(page_.nslots(), 4);
  EXPECT_EQ(page_.KeyAt(3), 3);

  // Load the copied rows into a sibling.
  auto buf2 = std::make_unique<char[]>(kPageSize);
  Page right(buf2.get(), kPageSize);
  right.Init(PageId{1, 3}, 0, 2, kInvalidPageNo);
  ASSERT_TRUE(right.LoadRows(upper).ok());
  EXPECT_EQ(right.nslots(), 4);
  EXPECT_EQ(right.KeyAt(0), 4);
  EXPECT_EQ(right.RowAt(3).value().value.ToString(), "v7");
}

TEST_F(PageTest, MoveUpperHalf) {
  for (int64_t k = 0; k < 10; ++k) {
    ASSERT_TRUE(page_.WriteRow(Row(k, "val")).ok());
  }
  auto buf2 = std::make_unique<char[]>(kPageSize);
  Page right(buf2.get(), kPageSize);
  right.Init(PageId{1, 3}, 0, kInvalidPageNo, kInvalidPageNo);
  const int64_t sep = page_.MoveUpperHalfTo(&right);
  EXPECT_EQ(sep, 5);
  EXPECT_EQ(page_.nslots(), 5);
  EXPECT_EQ(right.nslots(), 5);
  EXPECT_EQ(right.KeyAt(0), 5);
}

TEST_F(PageTest, NegativeKeysSortCorrectly) {
  ASSERT_TRUE(page_.WriteRow(Row(5, "p")).ok());
  ASSERT_TRUE(page_.WriteRow(Row(-5, "n")).ok());
  ASSERT_TRUE(page_.WriteRow(Row(0, "z")).ok());
  EXPECT_EQ(page_.KeyAt(0), -5);
  EXPECT_EQ(page_.KeyAt(1), 0);
  EXPECT_EQ(page_.KeyAt(2), 5);
}

TEST_F(PageTest, LlsnStamp) {
  page_.set_llsn(12345);
  EXPECT_EQ(page_.llsn(), 12345u);
  EXPECT_EQ(Page::PeekLlsn(buf_.get()), 12345u);
}

TEST(RowTest, EncodeDecodeRoundTrip) {
  const std::string image = EncodeRow(-42, MakeGTrxId(2, 3, 4), 99,
                                      MakeUndoPtr(2, 1000), kRowTombstone,
                                      "payload");
  auto row = DecodeRow(image.data(), image.size());
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->key, -42);
  EXPECT_EQ(row->g_trx_id, MakeGTrxId(2, 3, 4));
  EXPECT_EQ(row->cts, 99u);
  EXPECT_EQ(row->undo_ptr, MakeUndoPtr(2, 1000));
  EXPECT_TRUE(row->tombstone());
  EXPECT_EQ(row->value.ToString(), "payload");
  EXPECT_EQ(RowSizeAt(image.data()), image.size());
}

TEST(RowTest, DecodeRejectsShortBuffers) {
  const std::string image = EncodeRow(1, 0, 0, 0, 0, "abc");
  EXPECT_FALSE(DecodeRow(image.data(), 10).ok());
  EXPECT_FALSE(DecodeRow(image.data(), image.size() - 1).ok());
}

TEST(RowTest, UndoPtrPacking) {
  const UndoPtr p = MakeUndoPtr(1000, (uint64_t{1} << 54) - 1);
  EXPECT_EQ(UndoPtrNode(p), 1000);
  EXPECT_EQ(UndoPtrOffset(p), (uint64_t{1} << 54) - 1);
}

// Page redo (recovery and standby share ApplyPageRecord): a body too short
// for its record type is Corruption, and the page keeps its old LLSN.
TEST_F(PageTest, RedoRejectsTruncatedBodies) {
  page_.set_llsn(5);
  const PageId id{1, 2};
  LogRecord init = MakeInitPage(1, 10, id, 0, 3, 4);
  LogRecord remove = MakeRemoveRow(1, 11, id, 7);
  LogRecord links = MakeSetPageLinks(1, 12, id, 3, 4);
  for (LogRecord* rec : {&init, &remove, &links}) {
    rec->body.resize(rec->body.size() - 1);
    const Status s = ApplyPageRecord(*rec, &page_);
    EXPECT_TRUE(s.IsCorruption()) << static_cast<int>(rec->type) << ": "
                                  << s.ToString();
    EXPECT_EQ(page_.llsn(), 5u);
  }
  // The well-formed record applies and stamps the page.
  ASSERT_TRUE(ApplyPageRecord(MakeSetPageLinks(1, 12, id, 3, 4), &page_).ok());
  EXPECT_EQ(page_.llsn(), 12u);
  EXPECT_EQ(page_.next(), 4u);
}

}  // namespace
}  // namespace polarmp
