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
// LBP misses through Mtr::Acquire on two nodes with an 8-frame LBP. The
// background loops are parked so fabric counter deltas are exact. Pages
// are raw pages of one table's space; each page's `next` link names its
// content version.
// ---------------------------------------------------------------------------
class LbpMissTest : public ::testing::Test {
 protected:
  static constexpr int kPages = 16;

  void SetUp() override {
    ClusterOptions opts;
    opts.page_size = 1024;
    opts.node.lbp.frames = 8;
    opts.node.cache.slots = 0;
    opts.node.background_interval_ms = 3'600'000;
    auto cluster = Cluster::Create(opts);
    ASSERT_TRUE(cluster.ok());
    cluster_ = std::move(cluster).value();
    a_ = cluster_->AddNode().value();
    b_ = cluster_->AddNode().value();
    const SpaceId space = cluster_->CreateTable("t").value().primary_space;
    for (int i = 0; i < kPages; ++i) {
      pages_.push_back(
          PageId{space, cluster_->page_store()->AllocPageNo(space).value()});
    }
    // A creates all 16 pages; the first 8 are pushed by their (dirty)
    // eviction. Reading them back pushes the other 8 the same way, so every
    // page is in the DBP, A caches pages 0..7 clean in LRU order, and A
    // keeps an X PLock on all 16.
    for (int i = 0; i < kPages; ++i) {
      Mtr mtr(a_->engine());
      const size_t g = mtr.CreatePage(pages_[i]).value();
      ASSERT_TRUE(mtr.LogInitPage(g, 0, kInvalidPageNo, 1000 + i).ok());
      mtr.Commit();
    }
    for (int i = 0; i < kPages / 2; ++i) {
      ASSERT_EQ(ReadNext(a_, i), 1000u + i);
    }
  }

  // Reads page i's `next` link on `node` under an S guard.
  PageNo ReadNext(DbNode* node, int i) {
    Mtr mtr(node->engine());
    auto g = mtr.GetPage(pages_[i], LockMode::kShared);
    EXPECT_TRUE(g.ok()) << g.status().ToString();
    if (!g.ok()) return kInvalidPageNo;
    const PageNo next = mtr.PageAt(g.value()).next();
    mtr.Commit();
    return next;
  }

  // Writes page i's `next` link on `node`, then pushes the page to the DBP
  // (which invalidates every other registered copy).
  void WriteAndPush(DbNode* node, int i, PageNo next) {
    {
      Mtr mtr(node->engine());
      auto g = mtr.GetPage(pages_[i], LockMode::kExclusive);
      ASSERT_TRUE(g.ok()) << g.status().ToString();
      ASSERT_TRUE(mtr.LogSetLinks(g.value(), kInvalidPageNo, next).ok());
      mtr.Commit();
    }
    ASSERT_TRUE(node->buffer_pool()->FlushPageForRelease(pages_[i]).ok());
  }

  // The LBP frame caching page i on `node`, or UINT32_MAX. Touches the
  // frame's LRU position.
  uint32_t FrameOf(DbNode* node, int i) {
    const BufferPool::Handle h = node->buffer_pool()->TryGetCached(pages_[i]);
    if (!h.valid()) return UINT32_MAX;
    node->buffer_pool()->Unpin(h);
    return h.frame;
  }

  // Reads frame `frame`'s invalid flag on A's LBP (local, so uncharged).
  uint64_t InvalidFlag(uint32_t frame) {
    return cluster_->fabric()
        ->Load64(a_->id(), a_->id(), kLbpFlagsRegion, frame * sizeof(uint64_t))
        .value();
  }

  std::unique_ptr<Cluster> cluster_;
  DbNode* a_ = nullptr;
  DbNode* b_ = nullptr;
  std::vector<PageId> pages_;
};

// A miss that evicts a clean frame is one PMFS round trip (the victim's
// unregister and the new page's register share a doorbell) plus the
// one-sided page read, under a retained PLock (no Lock Fusion call).
TEST_F(LbpMissTest, CleanEvictionMissIsOneRpcPlusOneRead) {
  Fabric* fabric = cluster_->fabric();
  BufferPool* lbp = a_->buffer_pool();
  for (int i = kPages / 2; i < kPages; ++i) {
    const uint64_t rpcs = fabric->rpcs();
    const uint64_t coalesced = fabric->rpcs_coalesced();
    const uint64_t reads = fabric->remote_reads();
    const uint64_t fetches = lbp->dbp_fetches();
    const uint64_t fusion = a_->plock_manager()->fusion_acquires();
    ASSERT_EQ(ReadNext(a_, i), 1000u + i);
    EXPECT_EQ(fabric->rpcs() - rpcs, 1u) << "page " << i;
    EXPECT_EQ(fabric->rpcs_coalesced() - coalesced, 1u) << "page " << i;
    EXPECT_EQ(fabric->remote_reads() - reads, 1u) << "page " << i;
    EXPECT_EQ(lbp->dbp_fetches() - fetches, 1u) << "page " << i;
    EXPECT_EQ(a_->plock_manager()->fusion_acquires(), fusion);
  }
}

// A stale registration can only cause a spurious refetch, never a missed
// invalidation: once frame f is reused for page Q, a push of the evicted
// page P leaves f alone, and a push of Q flags f for exactly one refetch.
TEST_F(LbpMissTest, ReusedFrameIgnoresOldPagePushButNotNewPagePush) {
  constexpr int kP = 0;          // LRU victim of the next miss
  constexpr int kQ = kPages / 2;  // evicted during set-up, not cached
  BufferPool* lbp = a_->buffer_pool();
  BufferFusion* fusion = cluster_->buffer_fusion();
  const uint32_t f = FrameOf(a_, kP);
  ASSERT_NE(f, UINT32_MAX);
  for (int i = 1; i < kPages / 2; ++i) FrameOf(a_, i);  // keep LRU order
  ASSERT_EQ(ReadNext(a_, kQ), 1000u + kQ);
  ASSERT_EQ(FrameOf(a_, kQ), f);
  ASSERT_EQ(FrameOf(a_, kP), UINT32_MAX);

  // B writes and pushes P (negotiating A's retained X away).
  const uint64_t invalidations = fusion->invalidations();
  const uint64_t refetches = lbp->invalid_refetches();
  ASSERT_NO_FATAL_FAILURE(WriteAndPush(b_, kP, 2000));
  EXPECT_EQ(fusion->invalidations(), invalidations);
  EXPECT_EQ(InvalidFlag(f), 0u);
  EXPECT_EQ(ReadNext(a_, kQ), 1000u + kQ);
  EXPECT_EQ(lbp->invalid_refetches(), refetches);
  EXPECT_EQ(ReadNext(a_, kP), 2000u);

  // B writes and pushes Q: A's frame f is flagged, and A's next read of Q
  // refetches it exactly once.
  ASSERT_NO_FATAL_FAILURE(WriteAndPush(b_, kQ, 3000));
  EXPECT_EQ(fusion->invalidations(), invalidations + 1);
  EXPECT_NE(InvalidFlag(f), 0u);
  EXPECT_EQ(ReadNext(a_, kQ), 3000u);
  EXPECT_EQ(lbp->invalid_refetches(), refetches + 1);
  EXPECT_EQ(InvalidFlag(f), 0u);
  EXPECT_EQ(ReadNext(a_, kQ), 3000u);
  EXPECT_EQ(lbp->invalid_refetches(), refetches + 1);
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
