#include <gtest/gtest.h>

#include <map>
#include <optional>

#include "cluster/cluster.h"
#include "common/random.h"
#include "engine/undo.h"

namespace polarmp {
namespace {

// ---------------------------------------------------------------------------
// Page model check: a random op sequence against a Page must match a
// std::map model, across page sizes (TEST_P sweep).
// ---------------------------------------------------------------------------
class PagePropertyTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(PagePropertyTest, RandomOpsMatchModel) {
  const uint32_t page_size = GetParam();
  auto buf = std::make_unique<char[]>(page_size);
  Page page(buf.get(), page_size);
  page.Init(PageId{1, 1}, 0, kInvalidPageNo, kInvalidPageNo);
  std::map<int64_t, std::string> model;
  Random rng(page_size);

  for (int op = 0; op < 3000; ++op) {
    const int64_t key = static_cast<int64_t>(rng.Uniform(64));
    const uint64_t dice = rng.Uniform(10);
    if (dice < 6) {  // upsert with random-size value
      const std::string value(rng.Uniform(page_size / 16) + 1,
                              static_cast<char>('a' + key % 26));
      const std::string image =
          EncodeRow(key, kInvalidGTrxId, kCsnMin, kNullUndoPtr, 0, value);
      const Status s = page.WriteRow(image);
      if (s.ok()) {
        model[key] = value;
      } else {
        // Full page is acceptable; the model must not change.
        EXPECT_TRUE(s.code() == StatusCode::kInternal) << s.ToString();
      }
    } else if (dice < 8) {  // remove
      const Status s = page.RemoveRow(key);
      EXPECT_EQ(s.ok(), model.erase(key) > 0);
    } else {  // point lookup
      const int slot = page.FindSlot(key);
      auto it = model.find(key);
      ASSERT_EQ(slot >= 0, it != model.end()) << "key " << key;
      if (slot >= 0) {
        EXPECT_EQ(page.RowAt(slot).value().value.ToString(), it->second);
      }
    }
    // Structural invariants after every op.
    ASSERT_EQ(page.nslots(), static_cast<int>(model.size()));
  }
  // Final: full ordered equality.
  auto it = model.begin();
  for (int slot = 0; slot < page.nslots(); ++slot, ++it) {
    ASSERT_NE(it, model.end());
    EXPECT_EQ(page.KeyAt(slot), it->first);
    EXPECT_EQ(page.RowAt(slot).value().value.ToString(), it->second);
  }
}

INSTANTIATE_TEST_SUITE_P(PageSizes, PagePropertyTest,
                         ::testing::Values(512u, 1024u, 4096u, 8192u));

// ---------------------------------------------------------------------------
// Log record property: encode/decode round trip over randomized records,
// including records embedded mid-stream.
// ---------------------------------------------------------------------------
TEST(LogRecordProperty, RandomRoundTripThroughStream) {
  Random rng(7);
  std::vector<LogRecord> originals;
  std::string stream;
  for (int i = 0; i < 500; ++i) {
    LogRecord rec;
    rec.type = static_cast<LogRecordType>(1 + rng.Uniform(10));
    rec.node = static_cast<NodeId>(rng.Uniform(1024));
    rec.llsn = rng.Next();
    rec.page_id = PageId{static_cast<SpaceId>(rng.Next() & 0xFFFFFFFF),
                         static_cast<PageNo>(rng.Next() & 0xFFFFFFFF)};
    rec.trx = rng.Next();
    rec.aux = rng.Next();
    rec.body = std::string(rng.Uniform(300), static_cast<char>(rng.Uniform(256)));
    originals.push_back(rec);
    rec.AppendTo(&stream);
  }
  size_t pos = 0;
  for (const LogRecord& expected : originals) {
    size_t consumed = 0;
    auto rec = LogRecord::Decode(std::string_view(stream).substr(pos),
                                 &consumed);
    ASSERT_TRUE(rec.ok());
    pos += consumed;
    EXPECT_EQ(rec->type, expected.type);
    EXPECT_EQ(rec->node, expected.node);
    EXPECT_EQ(rec->llsn, expected.llsn);
    EXPECT_EQ(rec->page_id, expected.page_id);
    EXPECT_EQ(rec->trx, expected.trx);
    EXPECT_EQ(rec->aux, expected.aux);
    EXPECT_EQ(rec->body, expected.body);
  }
  EXPECT_EQ(pos, stream.size());
}

// ---------------------------------------------------------------------------
// Undo record property: round trip with random contents.
// ---------------------------------------------------------------------------
TEST(UndoRecordProperty, RandomRoundTrip) {
  Random rng(11);
  for (int i = 0; i < 300; ++i) {
    UndoRecord rec;
    rec.type = static_cast<UndoType>(1 + rng.Uniform(3));
    rec.space = static_cast<SpaceId>(rng.Next());
    rec.key = static_cast<int64_t>(rng.Next());
    rec.trx = rng.Next();
    rec.trx_prev = rng.Next();
    rec.prev_trx = rng.Next();
    rec.prev_cts = rng.Next();
    rec.prev_undo = rng.Next();
    rec.prev_flags = static_cast<uint8_t>(rng.Uniform(256));
    rec.prev_value = std::string(rng.Uniform(200), 'u');
    auto decoded = UndoRecord::Decode(rec.Encode());
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->type, rec.type);
    EXPECT_EQ(decoded->space, rec.space);
    EXPECT_EQ(decoded->key, rec.key);
    EXPECT_EQ(decoded->trx, rec.trx);
    EXPECT_EQ(decoded->trx_prev, rec.trx_prev);
    EXPECT_EQ(decoded->prev_trx, rec.prev_trx);
    EXPECT_EQ(decoded->prev_cts, rec.prev_cts);
    EXPECT_EQ(decoded->prev_undo, rec.prev_undo);
    EXPECT_EQ(decoded->prev_flags, rec.prev_flags);
    EXPECT_EQ(decoded->prev_value, rec.prev_value);
  }
}

// ---------------------------------------------------------------------------
// Whole-engine property: a random single-session workload against a model,
// swept across page sizes (forces different split behaviour).
// ---------------------------------------------------------------------------
class EnginePropertyTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(EnginePropertyTest, RandomCrudMatchesModelAcrossRestart) {
  ClusterOptions opts;
  opts.page_size = GetParam();
  auto cluster = Cluster::Create(opts).value();
  DbNode* node = cluster->AddNode().value();
  ASSERT_TRUE(cluster->CreateTable("prop").ok());
  TableHandle table = node->OpenTable("prop").value();

  std::map<int64_t, std::string> model;
  Random rng(GetParam() * 31);
  for (int txn = 0; txn < 120; ++txn) {
    Session s(node, IsolationLevel::kReadCommitted);
    ASSERT_TRUE(s.Begin().ok());
    std::map<int64_t, std::optional<std::string>> txn_writes;
    const int ops = 1 + static_cast<int>(rng.Uniform(8));
    for (int i = 0; i < ops; ++i) {
      const int64_t key = static_cast<int64_t>(rng.Uniform(150));
      if (rng.Percent(70)) {
        const std::string value(rng.Uniform(GetParam() / 16) + 1,
                                static_cast<char>('a' + key % 26));
        ASSERT_TRUE(s.Put(table, key, value).ok());
        txn_writes[key] = value;
      } else {
        const Status st = s.Delete(table, key);
        const bool exists = txn_writes.count(key)
                                ? txn_writes[key].has_value()
                                : model.count(key) > 0;
        ASSERT_EQ(st.ok(), exists) << st.ToString();
        if (st.ok()) txn_writes[key] = std::nullopt;
      }
    }
    if (rng.Percent(80)) {
      ASSERT_TRUE(s.Commit().ok());
      for (auto& [key, value] : txn_writes) {
        if (value.has_value()) {
          model[key] = *value;
        } else {
          model.erase(key);
        }
      }
    } else {
      ASSERT_TRUE(s.Rollback().ok());  // model unchanged
    }
  }

  auto verify = [&](DbNode* n) {
    TableHandle t = n->OpenTable("prop").value();
    Session s(n, IsolationLevel::kReadCommitted);
    ASSERT_TRUE(s.Begin().ok());
    std::map<int64_t, std::string> found;
    ASSERT_TRUE(s.Scan(t, 0, 1'000, [&](int64_t k, const std::string& v) {
                   found[k] = v;
                   return true;
                 })
                    .ok());
    ASSERT_TRUE(s.Commit().ok());
    EXPECT_EQ(found, model);
  };
  verify(node);

  // The same model must survive a crash + recovery.
  const NodeId id = node->id();
  ASSERT_TRUE(cluster->CrashNode(id).ok());
  auto restarted = cluster->RestartNode(id);
  ASSERT_TRUE(restarted.ok());
  verify(restarted.value());
}

INSTANTIATE_TEST_SUITE_P(PageSizes, EnginePropertyTest,
                         ::testing::Values(1024u, 4096u, 8192u));

// ---------------------------------------------------------------------------
// Snapshot-isolation invariant: concurrent increments from all nodes with
// SI + retry never lose an update (first-committer-wins makes read-modify-
// write linearizable).
// ---------------------------------------------------------------------------
TEST(SnapshotIsolationProperty, NoLostUpdatesAcrossNodes) {
  auto cluster = Cluster::Create(ClusterOptions()).value();
  std::vector<DbNode*> nodes;
  for (int i = 0; i < 3; ++i) nodes.push_back(cluster->AddNode().value());
  ASSERT_TRUE(cluster->CreateTable("counters").ok());
  {
    TableHandle t = nodes[0]->OpenTable("counters").value();
    Session s(nodes[0], IsolationLevel::kReadCommitted);
    ASSERT_TRUE(s.Begin().ok());
    for (int64_t c = 0; c < 4; ++c) ASSERT_TRUE(s.Insert(t, c, "0").ok());
    ASSERT_TRUE(s.Commit().ok());
  }
  constexpr int kIncrementsPerWorker = 40;
  std::vector<std::thread> workers;
  for (size_t n = 0; n < nodes.size(); ++n) {
    workers.emplace_back([&, n] {
      DbNode* node = nodes[n];
      TableHandle t = node->OpenTable("counters").value();
      Random rng(n + 1);
      for (int i = 0; i < kIncrementsPerWorker; ++i) {
        const int64_t counter = static_cast<int64_t>(rng.Uniform(4));
        for (;;) {  // retry SI conflicts
          Session s(node, IsolationLevel::kSnapshotIsolation);
          ASSERT_TRUE(s.Begin().ok());
          auto v = s.Get(t, counter);
          if (!v.ok()) continue;
          const Status st =
              s.Update(t, counter, std::to_string(std::stoll(*v) + 1));
          if (!st.ok()) continue;  // aborted: retry
          if (s.Commit().ok()) break;
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  TableHandle t = nodes[0]->OpenTable("counters").value();
  Session s(nodes[0], IsolationLevel::kReadCommitted);
  ASSERT_TRUE(s.Begin().ok());
  int64_t total = 0;
  for (int64_t c = 0; c < 4; ++c) total += std::stoll(s.Get(t, c).value());
  ASSERT_TRUE(s.Commit().ok());
  EXPECT_EQ(total,
            static_cast<int64_t>(nodes.size()) * kIncrementsPerWorker);
}

}  // namespace
}  // namespace polarmp
