#include "cluster/standby.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <vector>

#include "common/coding.h"
#include "engine/btree.h"
#include "engine/page.h"

namespace polarmp {

StandbyReplicator::StandbyReplicator(LogStore* primary_log,
                                     const Options& options)
    : primary_log_(primary_log), options_(options) {}

StandbyReplicator::~StandbyReplicator() { Stop(); }

void StandbyReplicator::Start() {
  MutexLock lock(stop_mu_);
  if (started_) return;
  started_ = true;
  stop_ = false;
  replicator_ = std::thread([this] { ReplicationLoop(); });
}

void StandbyReplicator::Stop() {
  {
    MutexLock lock(stop_mu_);
    if (!started_) return;
    stop_ = true;
    stop_cv_.notify_all();
  }
  replicator_.join();
  MutexLock lock(stop_mu_);
  started_ = false;
}

void StandbyReplicator::ReplicationLoop() {
  for (;;) {
    {
      UniqueLock lock(stop_mu_);
      stop_cv_.wait_for(lock,
                        std::chrono::milliseconds(options_.poll_interval_ms),
                        [&] { return stop_; });
      if (stop_) return;
    }
    const Status applied = ApplyAvailable();
    if (!applied.ok()) {
      POLARMP_LOG(Warn) << "standby apply failed: " << applied.ToString();
    }
  }
}

char* StandbyReplicator::PageFor(PageId page_id) {
  auto it = cache_.find(page_id.Pack());
  if (it == cache_.end()) {
    auto buf = std::make_unique<char[]>(options_.page_size);
    std::memset(buf.get(), 0, options_.page_size);
    it = cache_.emplace(page_id.Pack(), std::move(buf)).first;
  }
  return it->second.get();
}

Status StandbyReplicator::ApplyRecord(const LogRecord& rec) {
  if (!rec.IsPageRecord()) return Status::OK();  // txn/undo/heartbeat
  Page page(PageFor(rec.page_id), options_.page_size);
  if (page.llsn() >= rec.llsn) return Status::OK();
  POLARMP_RETURN_IF_ERROR(ApplyPageRecord(rec, &page));
  ++records_applied_;
  return Status::OK();
}

Status StandbyReplicator::ApplyAvailable() {
  MutexLock lock(mu_);
  for (NodeId node : primary_log_->AllLogs()) streams_[node].node = node;
  // Pull everything durable beyond the cursors; a torn tail waits for the
  // next poll. Heartbeat marks keep idle streams' horizons moving.
  for (auto& [node, s] : streams_) {
    for (;;) {
      POLARMP_ASSIGN_OR_RETURN(uint64_t read, s.ReadChunk(*primary_log_));
      if (read == 0) break;
    }
  }
  // LLSN_bound merge, exactly as in crash recovery; records above the bound
  // stay pending until the lagging stream catches up.
  for (const LogRecord& rec : TakeBelowBound(&streams_)) {
    POLARMP_RETURN_IF_ERROR(ApplyRecord(rec));
  }
  cv_.notify_all();
  return Status::OK();
}

uint64_t StandbyReplicator::UnappliedBytes(NodeId node, Lsn end) const {
  auto it = streams_.find(node);
  if (it == streams_.end()) return end;
  const LogStream& s = it->second;
  // Decoded records held above LLSN_bound count at their encoded size.
  uint64_t bytes = std::max(end, s.next_read) - s.next_read + s.tail.size();
  for (const LogRecord& rec : s.pending) bytes += rec.EncodedSize();
  return bytes;
}

bool StandbyReplicator::WaitForCatchUp(uint64_t timeout_ms) {
  std::map<NodeId, Lsn> targets;
  for (NodeId node : primary_log_->AllLogs()) {
    auto end = primary_log_->DurableLsn(node);
    if (end.ok()) targets[node] = end.value();
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  UniqueLock lock(mu_);
  return cv_.wait_until(lock, deadline, [&] {
    for (const auto& [node, target] : targets) {
      if (UnappliedBytes(node, target) > 0) return false;
    }
    return true;
  });
}

uint64_t StandbyReplicator::LagBytes() const {
  MutexLock lock(mu_);
  uint64_t lag = 0;
  for (NodeId node : primary_log_->AllLogs()) {
    auto end = primary_log_->DurableLsn(node);
    if (end.ok()) lag += UnappliedBytes(node, end.value());
  }
  return lag;
}

uint64_t StandbyReplicator::records_applied() const {
  MutexLock lock(mu_);
  return records_applied_;
}

Status StandbyReplicator::ScanTable(
    SpaceId space, const std::function<bool(const RowView&)>& fn) const {
  MutexLock lock(mu_);
  auto root_it = cache_.find(PageId{space, 0}.Pack());
  if (root_it == cache_.end()) {
    return Status::NotFound("space not replicated: " + std::to_string(space));
  }
  // Descend the leftmost path, then walk the leaf chain.
  const char* buf = root_it->second.get();
  for (int depth = 0; depth < 64; ++depth) {
    Page page(const_cast<char*>(buf), options_.page_size);
    if (page.is_leaf()) break;
    POLARMP_CHECK_GT(page.nslots(), 0);
    auto row = page.RowAt(0);
    POLARMP_RETURN_IF_ERROR(row.status());
    const PageNo child = DecodeFixed32(row.value().value.data());
    auto it = cache_.find(PageId{space, child}.Pack());
    if (it == cache_.end()) return Status::Corruption("missing child page");
    buf = it->second.get();
  }
  for (;;) {
    Page page(const_cast<char*>(buf), options_.page_size);
    for (int slot = 0; slot < page.nslots(); ++slot) {
      auto row = page.RowAt(slot);
      POLARMP_RETURN_IF_ERROR(row.status());
      if (!fn(row.value())) return Status::OK();
    }
    const PageNo next = page.next();
    if (next == kInvalidPageNo) break;
    auto it = cache_.find(PageId{space, next}.Pack());
    if (it == cache_.end()) return Status::Corruption("missing leaf page");
    buf = it->second.get();
  }
  return Status::OK();
}

}  // namespace polarmp
