#include "engine/btree.h"

#include "cache/index_cache.h"
#include "common/coding.h"
#include "obs/trace.h"

namespace polarmp {

namespace {
// Internal entries never grow, so a parent "has room" for a split if it can
// take one more separator entry.
constexpr size_t kInternalEntrySize = kRowHeaderSize + 4;
}  // namespace

std::string BTree::EncodeInternalEntry(int64_t key, PageNo child) {
  char buf[4];
  EncodeFixed32(buf, child);
  return EncodeRow(key, kInvalidGTrxId, kCsnInit, kNullUndoPtr, 0,
                   Slice(buf, 4));
}

PageNo BTree::RouteChild(const Page& page, int64_t key) {
  int idx = page.LowerBound(key);
  if (idx >= page.nslots() || page.KeyAt(idx) != key) --idx;
  POLARMP_CHECK_GE(idx, 0) << "internal page missing sentinel entry";
  const auto row = page.RowAt(idx);
  POLARMP_CHECK(row.ok());
  POLARMP_CHECK_EQ(row.value().value.size(), 4u);
  return DecodeFixed32(row.value().value.data());
}

Status BTree::Create() {
  POLARMP_ASSIGN_OR_RETURN(PageNo root_no, page_store_->AllocPageNo(space_));
  POLARMP_CHECK_EQ(root_no, 0u) << "tree root must be the space's first page";
  Mtr mtr(ctx_);
  POLARMP_ASSIGN_OR_RETURN(size_t g, mtr.CreatePage(RootId()));
  POLARMP_RETURN_IF_ERROR(
      mtr.LogInitPage(g, /*level=*/0, kInvalidPageNo, kInvalidPageNo));
  mtr.Commit();
  return Status::OK();
}

StatusOr<BTree::LeafPos> BTree::SearchLeaf(Mtr* mtr, int64_t key,
                                           LockMode mode) {
  POLARMP_CHECK_GT(key, INT64_MIN);
  leaf_searches_.Inc();
  IndexCache* cache =
      ctx_->cache != nullptr && ctx_->cache->enabled() ? ctx_->cache : nullptr;
  // Cleared the first time a cached route proves unconfirmable; the retry
  // then descends from the (authoritative) root.
  bool use_route = cache != nullptr;
  for (int attempt = 0; attempt < 64; ++attempt) {
    size_t g;
    bool routed = false;
    if (use_route) {
      // Fast path: route through cached internal-page images and start the
      // guarded descent at the deepest routed page. A stale image can only
      // land the descent at or LEFT of the key's home leaf (splits move
      // keys right; there are no merges), and the leaf-chain walk below
      // heals that — or rejects the route when it cannot prove the landing.
      const IndexCache::RouteResult route = cache->Route(space_, key);
      if (route.page_no != 0) {
        routed = true;
        // A level-1 image's children are leaves, and non-root pages never
        // change level, so a leaf route can take the final mode directly.
        const LockMode start_mode = route.leaf ? mode : LockMode::kShared;
        POLARMP_ASSIGN_OR_RETURN(
            g, mtr->GetPage(PageId{space_, route.page_no}, start_mode));
      }
    }
    if (!routed) {
      // Root level is unknown before reading it; start shared and upgrade by
      // re-acquiring if the root itself turns out to be the target leaf.
      POLARMP_ASSIGN_OR_RETURN(g, mtr->GetPage(RootId(), LockMode::kShared));
      Page root = mtr->PageAt(g);
      if (root.is_leaf() && mode == LockMode::kExclusive) {
        mtr->ReleasePage(g);
        POLARMP_ASSIGN_OR_RETURN(g, mtr->GetPage(RootId(), mode));
        Page reread = mtr->PageAt(g);
        if (!reread.is_leaf()) {
          // Root split under us; restart the descent.
          mtr->ReleasePage(g);
          continue;
        }
      }
    }
    size_t cur = g;
    bool restart = false;
    while (!restart) {
      Page page = mtr->PageAt(cur);
      if (page.is_leaf()) {
        // A routed landing additionally probes past EMPTY leaves (a stale
        // route can land on a purged-empty leaf whose contents say nothing
        // about its key range; an unrouted descent arrived through the
        // page's current parent, so an empty leaf IS the key's home).
        const bool beyond =
            page.nslots() > 0 ? key > page.KeyAt(page.nslots() - 1) : routed;
        if (beyond && page.next() != kInvalidPageNo) {
          // The key is beyond this leaf but the leaf has a right sibling:
          // the parent image this node routed through may be stale against
          // a concurrent remote split that moved the upper half right. Page
          // coherence is per page, so a two-page (parent, child) read is
          // never atomic cluster-wide; the leaf chain is the B-link-style
          // escape hatch. Walk right only if the sibling's low key admits
          // the key — otherwise the key's home is this leaf and walking
          // would desynchronize from SplitOnce's structure-ordered descent
          // (writers would probe the sibling while splits land here).
          // Left-to-right matches the split's own acquisition order, so
          // the peek cannot deadlock.
          POLARMP_ASSIGN_OR_RETURN(
              size_t sib, mtr->GetPage(PageId{space_, page.next()}, mode));
          Page right = mtr->PageAt(sib);
          if (right.nslots() > 0 && key >= right.KeyAt(0)) {
            mtr->ReleasePage(cur);
            cur = sib;
            continue;
          }
          mtr->ReleasePage(sib);
          if (routed && page.nslots() == 0) {
            // Empty leaf, and the sibling cannot prove the key's home is
            // here (it is empty too, or its low key exceeds the key). Only
            // the real parent can arbitrate; drop the route and re-descend.
            mtr->ReleasePage(cur);
            use_route = false;
            restart = true;
            continue;
          }
        }
        if (routed && page.nslots() > 0 && key > page.KeyAt(page.nslots() - 1) &&
            page.next() != kInvalidPageNo) {
          // key > every row here and the right sibling's low key exceeds
          // the key. On an unrouted descent the parent proved this leaf
          // owns the key (the key is simply absent); a routed landing has
          // no such proof — the home could be a sibling whose smallest
          // PRESENT row exceeds the key. A write must land in the true
          // home, so re-descend from the root.
          mtr->ReleasePage(cur);
          use_route = false;
          restart = true;
          continue;
        }
        LeafPos pos;
        pos.guard = cur;
        pos.slot = page.LowerBound(key);
        pos.found = pos.slot < page.nslots() && page.KeyAt(pos.slot) == key;
        return pos;
      }
      const PageNo child_no = RouteChild(page, key);
      const LockMode child_mode =
          page.level() == 1 ? mode : LockMode::kShared;
      if (cache != nullptr) {
        // Guarded-descent install: we hold the page's PLock + shared frame
        // latch, so no remote push (and hence no missed invalidation) can
        // race the registration.
        (void)cache->Install(mtr->PageIdAt(cur), page.raw(), page.level());
      }
      POLARMP_ASSIGN_OR_RETURN(
          size_t child, mtr->GetPage(PageId{space_, child_no}, child_mode));
      mtr->ReleasePage(cur);
      cur = child;
    }
  }
  return Status::Internal("btree descent did not converge");
}

StatusOr<BTree::LeafPos> BTree::SearchLeafForWrite(Mtr* mtr, int64_t key,
                                                   size_t need_bytes) {
  POLARMP_CHECK_LE(need_bytes, static_cast<size_t>(ctx_->lbp->page_size()) / 4)
      << "row too large for page";
  for (int attempt = 0; attempt < 64; ++attempt) {
    POLARMP_ASSIGN_OR_RETURN(LeafPos pos,
                             SearchLeaf(mtr, key, LockMode::kExclusive));
    Page leaf = mtr->PageAt(pos.guard);
    bool fits;
    if (pos.found) {
      // Replacement: in-place if not growing, else needs free room.
      const auto row = leaf.RowAt(pos.slot);
      POLARMP_RETURN_IF_ERROR(row.status());
      const size_t old_size = kRowHeaderSize + row.value().value.size();
      fits = old_size >= need_bytes || leaf.HasRoomFor(need_bytes);
    } else {
      fits = leaf.HasRoomFor(need_bytes);
    }
    if (fits) return pos;
    mtr->ReleasePage(pos.guard);
    POLARMP_RETURN_IF_ERROR(SplitOnce(key, need_bytes));
  }
  return Status::Internal("btree split loop did not converge");
}

Status BTree::SplitOnce(int64_t key, size_t need_bytes) {
  splits_.Inc();
  obs::TraceSpan span(&smo_ns_);
  Mtr smo(ctx_);
  // The index-wide virtual X lock serializes structure modifications
  // across nodes (§4.3.1), so a cheap SHARED discovery descent is safe
  // against remote SMOs. PLocks are per node, though: another thread on
  // this node may split concurrently under the same lock, changing
  // fullness or moving the node to a new parent. The X phase re-verifies
  // both.
  POLARMP_RETURN_IF_ERROR(smo.LockVirtual(IndexLockId()).status());

  // Phase 1 — discovery: record each level's page number and fullness.
  struct PathEntry {
    PageNo page_no;
    bool has_room;
  };
  std::vector<PathEntry> path;
  {
    POLARMP_ASSIGN_OR_RETURN(size_t g,
                             smo.GetPage(RootId(), LockMode::kShared));
    for (;;) {
      Page page = smo.PageAt(g);
      const bool leaf_level = page.is_leaf();
      path.push_back(PathEntry{
          page.id().page_no,
          leaf_level ? page.HasRoomFor(need_bytes)
                     : page.HasRoomFor(kInternalEntrySize)});
      if (leaf_level) {
        smo.ReleasePage(g);
        break;
      }
      const PageNo child_no = RouteChild(page, key);
      POLARMP_ASSIGN_OR_RETURN(
          size_t child, smo.GetPage(PageId{space_, child_no}, LockMode::kShared));
      smo.ReleasePage(g);
      g = child;
    }
  }
  if (path.back().has_room) {
    smo.Commit();  // someone already made room
    return Status::OK();
  }
  // Deepest node that must split this round: the leaf, unless an ancestor
  // cannot take one more separator entry.
  size_t split_idx = path.size() - 1;
  while (split_idx > 0 && !path[split_idx - 1].has_room) --split_idx;

  // Phase 2 — exclusive guards only where the modification lands (real
  // engines never root-fence a leaf split: X on the whole path would
  // invalidate every node's cached upper levels on every split).
  Status st;
  std::vector<PageId> smo_pages;
  if (split_idx == 0) {
    POLARMP_ASSIGN_OR_RETURN(size_t root_guard,
                             smo.GetPage(RootId(), LockMode::kExclusive));
    if (smo.PageAt(root_guard).HasRoomFor(
            path.size() == 1 ? need_bytes : kInternalEntrySize)) {
      smo.Commit();  // raced with a concurrent writer freeing space
      return Status::OK();
    }
    st = SplitRoot(&smo, root_guard);
    smo_pages.push_back(RootId());
  } else {
    POLARMP_ASSIGN_OR_RETURN(
        size_t parent_guard,
        smo.GetPage(PageId{space_, path[split_idx - 1].page_no},
                    LockMode::kExclusive));
    POLARMP_ASSIGN_OR_RETURN(
        size_t node_guard,
        smo.GetPage(PageId{space_, path[split_idx].page_no},
                    LockMode::kExclusive));
    Page parent = smo.PageAt(parent_guard);
    Page node = smo.PageAt(node_guard);
    const bool node_full =
        split_idx == path.size() - 1
            ? !node.HasRoomFor(need_bytes)
            : !node.HasRoomFor(kInternalEntrySize);
    // A local split of the parent (or of the root above it) may have moved
    // the node under a new parent; a separator inserted here would then be
    // out of this parent's range.
    const bool still_parent =
        RouteChild(parent, key) == path[split_idx].page_no;
    if (!node_full || !parent.HasRoomFor(kInternalEntrySize) ||
        !still_parent) {
      smo.Commit();  // changed under us; the caller re-descends
      return Status::OK();
    }
    st = SplitNonRoot(&smo, node_guard, parent_guard);
    smo_pages.push_back(PageId{space_, path[split_idx - 1].page_no});
    smo_pages.push_back(PageId{space_, path[split_idx].page_no});
  }
  if (!st.ok()) return st;
  smo.Commit();
  if (ctx_->cache != nullptr) {
    // The split rewrote these pages in our LBP; our own cached images (if
    // any) are behind until the dirty push lands in the DBP. Flag them so
    // routes stop trusting the images (purely local, no fabric op).
    for (PageId p : smo_pages) ctx_->cache->InvalidateLocal(p);
  }
  return Status::OK();
}

Status BTree::SplitNonRoot(Mtr* smo, size_t node_guard, size_t parent_guard) {
  Page node = smo->PageAt(node_guard);
  const int n = node.nslots();
  POLARMP_CHECK_GE(n, 2);
  const int split_slot = n / 2;
  const int64_t separator = node.KeyAt(split_slot);
  std::string upper = node.CopyRowsInRange(split_slot, n);
  const uint8_t level = node.level();
  const PageNo old_next = node.next();
  const PageNo node_no = node.id().page_no;
  const PageNo node_prev = node.prev();

  POLARMP_ASSIGN_OR_RETURN(PageNo right_no, page_store_->AllocPageNo(space_));

  // Acquire everything before the first logged mutation.
  POLARMP_ASSIGN_OR_RETURN(size_t right_guard,
                           smo->CreatePage(PageId{space_, right_no}));
  int next_guard = -1;
  if (level == 0 && old_next != kInvalidPageNo) {
    // Left-to-right acquisition matches the scan order (deadlock-free).
    POLARMP_ASSIGN_OR_RETURN(
        size_t ng, smo->GetPage(PageId{space_, old_next}, LockMode::kExclusive));
    next_guard = static_cast<int>(ng);
  }

  const PageNo right_prev = level == 0 ? node_no : kInvalidPageNo;
  const PageNo right_next = level == 0 ? old_next : kInvalidPageNo;
  POLARMP_RETURN_IF_ERROR(
      smo->LogInitPage(right_guard, level, right_prev, right_next));
  POLARMP_RETURN_IF_ERROR(smo->LogLoadRows(right_guard, std::move(upper)));
  POLARMP_RETURN_IF_ERROR(smo->LogTruncateRows(node_guard, separator));
  if (level == 0) {
    POLARMP_RETURN_IF_ERROR(smo->LogSetLinks(node_guard, node_prev, right_no));
    if (next_guard >= 0) {
      Page next_page = smo->PageAt(next_guard);
      POLARMP_RETURN_IF_ERROR(smo->LogSetLinks(
          static_cast<size_t>(next_guard), right_no, next_page.next()));
    }
  }
  return smo->LogWriteRow(parent_guard,
                          EncodeInternalEntry(separator, right_no));
}

Status BTree::SplitRoot(Mtr* smo, size_t root_guard) {
  Page root = smo->PageAt(root_guard);
  const int n = root.nslots();
  POLARMP_CHECK_GE(n, 2);
  const int split_slot = n / 2;
  const int64_t separator = root.KeyAt(split_slot);
  std::string lower = root.CopyRowsInRange(0, split_slot);
  std::string upper = root.CopyRowsInRange(split_slot, n);
  const uint8_t level = root.level();

  POLARMP_ASSIGN_OR_RETURN(PageNo left_no, page_store_->AllocPageNo(space_));
  POLARMP_ASSIGN_OR_RETURN(PageNo right_no, page_store_->AllocPageNo(space_));
  POLARMP_ASSIGN_OR_RETURN(size_t left_guard,
                           smo->CreatePage(PageId{space_, left_no}));
  POLARMP_ASSIGN_OR_RETURN(size_t right_guard,
                           smo->CreatePage(PageId{space_, right_no}));

  const bool leaf_level = level == 0;
  POLARMP_RETURN_IF_ERROR(smo->LogInitPage(
      left_guard, level, kInvalidPageNo, leaf_level ? right_no : kInvalidPageNo));
  POLARMP_RETURN_IF_ERROR(smo->LogLoadRows(left_guard, std::move(lower)));
  POLARMP_RETURN_IF_ERROR(smo->LogInitPage(
      right_guard, level, leaf_level ? left_no : kInvalidPageNo, kInvalidPageNo));
  POLARMP_RETURN_IF_ERROR(smo->LogLoadRows(right_guard, std::move(upper)));

  POLARMP_RETURN_IF_ERROR(smo->LogInitPage(
      root_guard, static_cast<uint8_t>(level + 1), kInvalidPageNo,
      kInvalidPageNo));
  POLARMP_RETURN_IF_ERROR(smo->LogWriteRow(
      root_guard, EncodeInternalEntry(INT64_MIN, left_no)));
  return smo->LogWriteRow(root_guard,
                          EncodeInternalEntry(separator, right_no));
}

Status BTree::ScanRange(int64_t lo, int64_t hi,
                        const std::function<bool(const RowView&)>& fn) {
  POLARMP_CHECK_GT(lo, INT64_MIN);
  // The callback must never run under a leaf latch: point reads from inside
  // a scan callback are common (Session::Scan resolves visibility that way)
  // and would re-latch the leaf the scan is parked on — a second shared
  // acquisition of the same latch, which deadlocks the moment a writer
  // queues between the two (and which the lock-rank checker rejects as a
  // recursive acquisition). So the scan copies out one batch of rows per
  // latch hold, releases everything, invokes the callback, then re-descends
  // from the next key.
  struct RowCopy {
    int64_t key;
    GTrxId g_trx_id;
    Csn cts;
    UndoPtr undo_ptr;
    uint8_t flags;
    std::string value;
  };
  constexpr size_t kBatchRows = 128;

  int64_t cursor = lo;
  for (;;) {
    std::vector<RowCopy> batch;
    bool range_done = false;
    {
      Mtr mtr(ctx_);
      POLARMP_ASSIGN_OR_RETURN(LeafPos pos,
                               SearchLeaf(&mtr, cursor, LockMode::kShared));
      size_t cur = pos.guard;
      int slot = pos.slot;
      while (batch.size() < kBatchRows) {
        Page page = mtr.PageAt(cur);
        for (; slot < page.nslots() && batch.size() < kBatchRows; ++slot) {
          if (page.KeyAt(slot) > hi) {
            range_done = true;
            break;
          }
          POLARMP_ASSIGN_OR_RETURN(RowView row, page.RowAt(slot));
          batch.push_back(RowCopy{row.key, row.g_trx_id, row.cts,
                                  row.undo_ptr, row.flags,
                                  row.value.ToString()});
        }
        if (range_done || slot < page.nslots()) break;
        const PageNo next = page.next();
        if (next == kInvalidPageNo) {
          range_done = true;
          break;
        }
        POLARMP_ASSIGN_OR_RETURN(
            size_t next_guard,
            mtr.GetPage(PageId{space_, next}, LockMode::kShared));
        mtr.ReleasePage(cur);
        cur = next_guard;
        slot = 0;
      }
      mtr.Commit();
    }

    for (const RowCopy& c : batch) {
      RowView row;
      row.key = c.key;
      row.g_trx_id = c.g_trx_id;
      row.cts = c.cts;
      row.undo_ptr = c.undo_ptr;
      row.flags = c.flags;
      row.value = Slice(c.value);
      if (!fn(row)) return Status::OK();
    }
    if (range_done) return Status::OK();
    const int64_t last = batch.back().key;
    if (last >= hi || last == INT64_MAX) return Status::OK();
    cursor = last + 1;
  }
}

void BTree::ResetCounters() {
  leaf_searches_.Reset();
  splits_.Reset();
  smo_ns_.Reset();
}

}  // namespace polarmp
