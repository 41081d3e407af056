#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "cluster/cluster.h"
#include "engine/undo.h"
#include "wal/recovery.h"

namespace polarmp {
namespace {

// ---------------------------------------------------------------------------
// UndoStore
// ---------------------------------------------------------------------------
class UndoStoreTest : public ::testing::Test {
 protected:
  UndoStoreTest()
      : fabric_(ZeroLatencyProfile()),
        dsm_(&fabric_, 1, 1 << 20),
        undo_(&dsm_, 4096) {
    EXPECT_TRUE(undo_.AddNode(1).ok());
  }

  UndoRecord MakeRecord(int64_t key, const std::string& value) {
    UndoRecord rec;
    rec.type = UndoType::kUpdate;
    rec.space = 9;
    rec.key = key;
    rec.trx = MakeGTrxId(1, 1, 1);
    rec.prev_value = value;
    return rec;
  }

  Fabric fabric_;
  Dsm dsm_;
  UndoStore undo_;
};

TEST_F(UndoStoreTest, AppendAndReadBack) {
  auto res = undo_.Append(1, MakeRecord(7, "old-value"));
  ASSERT_TRUE(res.ok());
  auto rec = undo_.Read(1, res->ptr);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->key, 7);
  EXPECT_EQ(rec->prev_value, "old-value");
  // Remote read (from another node's endpoint) returns the same data.
  auto remote = undo_.Read(2, res->ptr);
  ASSERT_TRUE(remote.ok());
  EXPECT_EQ(remote->prev_value, "old-value");
}

TEST_F(UndoStoreTest, PurgedRecordsUnreadable) {
  auto r1 = undo_.Append(1, MakeRecord(1, "a"));
  auto r2 = undo_.Append(1, MakeRecord(2, "b"));
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  ASSERT_TRUE(undo_.FreeUpTo(1, r2->offset).ok());
  EXPECT_TRUE(undo_.Read(1, r1->ptr).status().IsNotFound());
  EXPECT_TRUE(undo_.Read(1, r2->ptr).ok());
}

TEST_F(UndoStoreTest, RingWrapsWithPurge) {
  // Fill, purge, refill several times: logical offsets keep growing while
  // the physical ring is reused; records never tear across the wrap.
  uint64_t last_offset = 0;
  for (int round = 0; round < 10; ++round) {
    std::vector<std::pair<UndoPtr, std::string>> live;
    for (int i = 0; i < 8; ++i) {
      const std::string value(200, static_cast<char>('a' + round));
      auto res = undo_.Append(1, MakeRecord(i, value));
      ASSERT_TRUE(res.ok()) << res.status().ToString();
      EXPECT_GE(res->offset, last_offset);
      last_offset = res->offset;
      live.emplace_back(res->ptr, value);
    }
    for (auto& [ptr, value] : live) {
      auto rec = undo_.Read(1, ptr);
      ASSERT_TRUE(rec.ok());
      EXPECT_EQ(rec->prev_value, value);
    }
    ASSERT_TRUE(undo_.FreeUpTo(1, undo_.head(1)).ok());
  }
}

TEST_F(UndoStoreTest, FullWithoutPurgeFailsCleanly) {
  Status st = Status::OK();
  for (int i = 0; i < 100 && st.ok(); ++i) {
    st = undo_.Append(1, MakeRecord(i, std::string(200, 'x'))).status();
  }
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInternal);
}

// ---------------------------------------------------------------------------
// BufferPool / PLockManager through a live node (hooks wired by DbNode).
// ---------------------------------------------------------------------------
class NodeEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ClusterOptions opts;
    opts.page_size = 1024;
    opts.node.lbp.frames = 8;  // tiny LBP to force eviction
    auto cluster = Cluster::Create(opts);
    ASSERT_TRUE(cluster.ok());
    cluster_ = std::move(cluster).value();
    node_ = cluster_->AddNode().value();
    ASSERT_TRUE(cluster_->CreateTable("t").ok());
    table_ = node_->OpenTable("t").value();
  }

  std::unique_ptr<Cluster> cluster_;
  DbNode* node_ = nullptr;
  TableHandle table_;
};

TEST_F(NodeEngineTest, TinyBufferPoolEvictsAndReloads) {
  // Far more pages than the 8-frame LBP can hold.
  Session s(node_, IsolationLevel::kReadCommitted);
  ASSERT_TRUE(s.Begin().ok());
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(s.Insert(table_, i, std::string(100, 'x')).ok());
  }
  ASSERT_TRUE(s.Commit().ok());
  // Every row readable (reload through DBP/storage after eviction).
  Session r(node_, IsolationLevel::kReadCommitted);
  ASSERT_TRUE(r.Begin().ok());
  for (int i = 0; i < 400; i += 37) {
    EXPECT_TRUE(r.Get(table_, i).ok()) << i;
  }
  ASSERT_TRUE(r.Commit().ok());
  EXPECT_GT(node_->buffer_pool()->dbp_fetches() +
                node_->buffer_pool()->storage_loads(),
            0u);
}

TEST_F(NodeEngineTest, LazyPlockStatsAccumulate) {
  Session s(node_, IsolationLevel::kReadCommitted);
  ASSERT_TRUE(s.Begin().ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(s.Put(table_, 1, "v" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(s.Commit().ok());
  // Repeat access to one page: local grants dominate fusion acquires.
  EXPECT_GT(node_->plock_manager()->local_grants(),
            node_->plock_manager()->fusion_acquires());
}

// ---------------------------------------------------------------------------
// Log stream invariant: per-node LLSNs are monotone in the stream (§4.4),
// even under concurrent committers.
// ---------------------------------------------------------------------------
TEST(LogStreamInvariant, LlsnMonotonePerStreamUnderConcurrency) {
  ClusterOptions opts;
  auto cluster = Cluster::Create(opts).value();
  DbNode* node = cluster->AddNode().value();
  ASSERT_TRUE(cluster->CreateTable("t").ok());
  TableHandle table = node->OpenTable("t").value();
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < 100; ++i) {
        Session s(node, IsolationLevel::kReadCommitted);
        ASSERT_TRUE(s.Begin().ok());
        ASSERT_TRUE(s.Put(table, w * 1000 + i, "x").ok());
        ASSERT_TRUE(s.Commit().ok());
      }
    });
  }
  for (auto& t : writers) t.join();
  ASSERT_TRUE(node->log_writer()->ForceAllAsync().Wait().ok());

  std::string stream;
  ASSERT_TRUE(
      cluster->log_store()->ReadAt(node->id(), 0, 64 << 20, &stream).ok());
  size_t pos = 0;
  Llsn last = 0;
  int records = 0;
  while (pos < stream.size()) {
    size_t consumed = 0;
    auto rec = LogRecord::Decode(std::string_view(stream).substr(pos),
                                 &consumed);
    ASSERT_TRUE(rec.ok());
    pos += consumed;
    ++records;
    if (rec->llsn > 0) {
      EXPECT_GE(rec->llsn, last) << "at record " << records;
      last = rec->llsn;
    }
  }
  EXPECT_GT(records, 400);
}

// ---------------------------------------------------------------------------
// Recovery idempotence: running redo replay twice over the same logs yields
// the same page images (records gated by page LLSN).
// ---------------------------------------------------------------------------
TEST(RecoveryIdempotence, ReplayTwiceSameResult) {
  ClusterOptions opts;
  opts.page_size = 1024;
  auto cluster = Cluster::Create(opts).value();
  DbNode* n1 = cluster->AddNode().value();
  DbNode* n2 = cluster->AddNode().value();
  ASSERT_TRUE(cluster->CreateTable("t").ok());
  for (int i = 0; i < 60; ++i) {
    DbNode* node = i % 2 == 0 ? n1 : n2;
    TableHandle table = node->OpenTable("t").value();
    Session s(node, IsolationLevel::kReadCommitted);
    ASSERT_TRUE(s.Begin().ok());
    ASSERT_TRUE(s.Put(table, i % 10, "i" + std::to_string(i)).ok());
    ASSERT_TRUE(s.Commit().ok());
  }
  const std::vector<NodeId> nodes = cluster->log_store()->AllLogs();
  UndoStore scratch_undo(cluster->dsm(), 1 << 20);
  Recovery first(cluster->log_store(), cluster->page_store(), &scratch_undo,
                 nullptr, 1024);
  ASSERT_TRUE(first.RedoReplay(nodes).ok());
  ASSERT_TRUE(first.FlushPages().ok());
  const auto stats1 = first.stats();

  Recovery second(cluster->log_store(), cluster->page_store(), &scratch_undo,
                  nullptr, 1024);
  ASSERT_TRUE(second.RedoReplay(nodes).ok());
  // Second replay applies nothing new: every record is at or below the
  // page LLSNs the first replay left in storage.
  EXPECT_EQ(second.stats().page_records_applied, 0u);
  EXPECT_EQ(second.stats().records_scanned, stats1.records_scanned);
}

// ---------------------------------------------------------------------------
// LogWriter edge: forcing beyond the buffered end is an error, not a hang.
// ---------------------------------------------------------------------------
TEST(LogWriterEdge, ForceBeyondBufferFails) {
  LogStore store(ZeroLatencyProfile());
  LogWriter writer(1, &store);
  const Lsn end = writer.Add({MakeTrxCommit(1, 1, 2)});
  EXPECT_FALSE(writer.ForceAsync(end + 1000).Wait().ok());
  EXPECT_TRUE(writer.ForceAsync(end).Wait().ok());
}

}  // namespace
}  // namespace polarmp
