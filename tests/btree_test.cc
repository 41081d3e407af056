#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "common/random.h"

namespace polarmp {
namespace {

// Engine-level B-tree tests on a single-node cluster with a small page size
// to force deep trees and frequent splits.
class BTreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ClusterOptions opts;
    opts.page_size = 512;
    opts.node.lbp.frames = 256;
    auto cluster = Cluster::Create(opts);
    ASSERT_TRUE(cluster.ok());
    cluster_ = std::move(cluster).value();
    auto node = cluster_->AddNode();
    ASSERT_TRUE(node.ok());
    node_ = node.value();
    auto table = cluster_->CreateTable("t");
    ASSERT_TRUE(table.ok());
    tree_ = node_->TreeForSpace(table->primary_space);
  }

  std::string Image(int64_t key, const std::string& value) {
    return EncodeRow(key, kInvalidGTrxId, kCsnMin, kNullUndoPtr, 0, value);
  }

  Status RawInsert(int64_t key, const std::string& value) {
    Mtr mtr(node_->engine());
    const std::string image = Image(key, value);
    auto pos = tree_->SearchLeafForWrite(&mtr, key, image.size());
    POLARMP_RETURN_IF_ERROR(pos.status());
    POLARMP_RETURN_IF_ERROR(mtr.LogWriteRow(pos->guard, image));
    mtr.Commit();
    return Status::OK();
  }

  StatusOr<std::string> RawGet(int64_t key) {
    Mtr mtr(node_->engine());
    auto pos = tree_->SearchLeaf(&mtr, key, LockMode::kShared);
    POLARMP_RETURN_IF_ERROR(pos.status());
    if (!pos->found) return Status::NotFound("absent");
    auto row = mtr.PageAt(pos->guard).RowAt(pos->slot);
    POLARMP_RETURN_IF_ERROR(row.status());
    std::string out = row->value.ToString();
    mtr.Commit();
    return out;
  }

  std::unique_ptr<Cluster> cluster_;
  DbNode* node_ = nullptr;
  BTree* tree_ = nullptr;
};

TEST_F(BTreeTest, InsertAndGetFewKeys) {
  ASSERT_TRUE(RawInsert(1, "one").ok());
  ASSERT_TRUE(RawInsert(2, "two").ok());
  EXPECT_EQ(RawGet(1).value(), "one");
  EXPECT_EQ(RawGet(2).value(), "two");
  EXPECT_TRUE(RawGet(3).status().IsNotFound());
}

TEST_F(BTreeTest, ManyInsertsForceMultiLevelSplits) {
  constexpr int kN = 2000;
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(RawInsert(i * 7 % kN, "v" + std::to_string(i * 7 % kN)).ok())
        << "at " << i;
  }
  for (int i = 0; i < kN; ++i) {
    auto v = RawGet(i * 7 % kN);
    ASSERT_TRUE(v.ok()) << "key " << i * 7 % kN;
    EXPECT_EQ(v.value(), "v" + std::to_string(i * 7 % kN));
  }
}

TEST_F(BTreeTest, DescendingInsertOrder) {
  for (int i = 500; i > 0; --i) {
    ASSERT_TRUE(RawInsert(i, std::to_string(i)).ok());
  }
  for (int i = 1; i <= 500; ++i) {
    EXPECT_EQ(RawGet(i).value(), std::to_string(i));
  }
}

TEST_F(BTreeTest, ScanRangeInOrder) {
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(RawInsert(i * 2, "e" + std::to_string(i * 2)).ok());
  }
  std::vector<int64_t> keys;
  ASSERT_TRUE(tree_->ScanRange(100, 200, [&](const RowView& row) {
                     keys.push_back(row.key);
                     return true;
                   })
                  .ok());
  ASSERT_EQ(keys.size(), 51u);  // 100,102,...,200
  EXPECT_EQ(keys.front(), 100);
  EXPECT_EQ(keys.back(), 200);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
}

TEST_F(BTreeTest, ScanEarlyStop) {
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(RawInsert(i, "x").ok());
  int seen = 0;
  ASSERT_TRUE(tree_->ScanRange(0, 99, [&](const RowView&) {
                     return ++seen < 10;
                   })
                  .ok());
  EXPECT_EQ(seen, 10);
}

TEST_F(BTreeTest, ScanAcrossLeafChainAfterSplits) {
  for (int i = 0; i < 1000; ++i) ASSERT_TRUE(RawInsert(i, "abcdefgh").ok());
  int64_t expect = 0;
  ASSERT_TRUE(tree_->ScanRange(0, 999, [&](const RowView& row) {
                     EXPECT_EQ(row.key, expect++);
                     return true;
                   })
                  .ok());
  EXPECT_EQ(expect, 1000);
}

TEST_F(BTreeTest, UpdatesAfterSplitsLandOnRightLeaf) {
  for (int i = 0; i < 800; ++i) ASSERT_TRUE(RawInsert(i, "initial##").ok());
  for (int i = 0; i < 800; i += 3) {
    ASSERT_TRUE(RawInsert(i, "updated!!" + std::to_string(i)).ok());
  }
  for (int i = 0; i < 800; ++i) {
    const std::string expected =
        (i % 3 == 0) ? "updated!!" + std::to_string(i) : "initial##";
    EXPECT_EQ(RawGet(i).value(), expected) << i;
  }
}

TEST_F(BTreeTest, VariableSizedValues) {
  polarmp::Random rng(42);
  std::map<int64_t, std::string> model;
  for (int i = 0; i < 500; ++i) {
    const int64_t key = static_cast<int64_t>(rng.Uniform(200));
    const std::string value(rng.Uniform(60) + 1,
                            static_cast<char>('a' + key % 26));
    model[key] = value;
    ASSERT_TRUE(RawInsert(key, value).ok());
  }
  for (const auto& [key, value] : model) {
    EXPECT_EQ(RawGet(key).value(), value);
  }
}

TEST_F(BTreeTest, InternalEntryHelpers) {
  const std::string entry = BTree::EncodeInternalEntry(42, 7);
  auto row = DecodeRow(entry.data(), entry.size());
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->key, 42);
  EXPECT_EQ(row->value.size(), 4u);
}

// Threads on one node share the node's PLocks, so two of them can split at
// once under the same virtual index lock. Two nodes with two writers each
// on interleaved keys and small pages make such overlapping splits common;
// every insert must still land and stay reachable from both nodes.
TEST(BTreeConcurrentSplitTest, OverlappingSplitsOnTwoNodesConverge) {
  ClusterOptions opts;
  opts.page_size = 512;
  opts.node.lbp.frames = 256;
  auto cluster = Cluster::Create(opts).value();
  DbNode* nodes[2] = {cluster->AddNode().value(), cluster->AddNode().value()};
  const SpaceId space = cluster->CreateTable("t").value().primary_space;

  constexpr int kWriters = 4;
  constexpr int kKeysPerWriter = 400;
  auto insert = [&](DbNode* node, int64_t key) -> Status {
    Mtr mtr(node->engine());
    const std::string image = EncodeRow(key, kInvalidGTrxId, kCsnMin,
                                        kNullUndoPtr, 0, std::to_string(key));
    POLARMP_ASSIGN_OR_RETURN(
        BTree::LeafPos pos,
        node->TreeForSpace(space)->SearchLeafForWrite(&mtr, key,
                                                      image.size()));
    POLARMP_RETURN_IF_ERROR(mtr.LogWriteRow(pos.guard, image));
    mtr.Commit();
    return Status::OK();
  };
  std::atomic<int> failed{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kKeysPerWriter; ++i) {
        const int64_t key = int64_t{i} * kWriters + w;
        const Status s = insert(nodes[w % 2], key);
        if (!s.ok() && failed.fetch_add(1) == 0) {
          ADD_FAILURE() << "insert " << key << ": " << s.ToString();
        }
      }
    });
  }
  for (auto& t : writers) t.join();
  EXPECT_EQ(failed.load(), 0);

  for (DbNode* node : nodes) {
    BTree* tree = node->TreeForSpace(space);
    for (int64_t key = 0; key < kWriters * kKeysPerWriter; ++key) {
      Mtr mtr(node->engine());
      auto pos = tree->SearchLeaf(&mtr, key, LockMode::kShared);
      ASSERT_TRUE(pos.ok()) << pos.status().ToString();
      EXPECT_TRUE(pos->found) << "node " << node->id() << " key " << key;
      mtr.Commit();
    }
  }
}

}  // namespace
}  // namespace polarmp
