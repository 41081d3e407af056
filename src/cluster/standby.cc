#include "cluster/standby.h"

#include <algorithm>
#include <cstring>
#include <deque>
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
    const auto applied = ApplyAvailable();
    if (!applied.ok()) {
      POLARMP_LOG(Warn) << "standby apply failed: "
                        << applied.status().ToString();
    }
  }
}

StatusOr<char*> StandbyReplicator::PageFor(PageId page_id) {
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
  POLARMP_ASSIGN_OR_RETURN(char* buf, PageFor(rec.page_id));
  Page page(buf, options_.page_size);
  if (page.llsn() >= rec.llsn) return Status::OK();
  POLARMP_RETURN_IF_ERROR(ApplyPageRecord(rec, &page));
  ++records_applied_;
  return Status::OK();
}

StatusOr<uint64_t> StandbyReplicator::ApplyAvailable() {
  MutexLock lock(mu_);
  struct Stream {
    NodeId node;
    std::deque<LogRecord> pending;
    Llsn last_llsn = 0;
  };
  std::vector<Stream> streams;
  // Pull everything durable beyond our cursors.
  for (NodeId node : primary_log_->AllLogs()) {
    Stream s;
    s.node = node;
    Lsn& cursor = cursors_[node];
    std::string& partial = partial_[node];
    for (;;) {
      std::string chunk;
      POLARMP_RETURN_IF_ERROR(primary_log_->ReadAt(
          node, cursor, options_.chunk_bytes, &chunk));
      if (chunk.empty()) break;
      cursor += chunk.size();
      partial += chunk;
    }
    size_t pos = 0;
    while (pos < partial.size()) {
      size_t consumed = 0;
      auto rec =
          LogRecord::Decode(std::string_view(partial).substr(pos), &consumed);
      if (!rec.ok()) break;  // torn tail; completed by the next poll
      if (rec.value().llsn > 0) {
        s.last_llsn = std::max(s.last_llsn, rec.value().llsn);
      }
      s.pending.push_back(std::move(rec).value());
      pos += consumed;
    }
    partial.erase(0, pos);
    // Remember the horizon across polls (heartbeats advance it even when a
    // stream is otherwise idle).
    Llsn& seen = high_llsn_[node];
    seen = std::max(seen, s.last_llsn);
    s.last_llsn = seen;
    streams.push_back(std::move(s));
  }
  if (streams.empty()) return uint64_t{0};

  // LLSN_bound merge, exactly as in crash recovery: only records at or
  // below every stream's decoded horizon may apply this round; later
  // records wait for the lagging stream (heartbeat marks keep idle streams'
  // horizons moving).
  Llsn bound = UINT64_MAX;
  for (const Stream& s : streams) bound = std::min(bound, s.last_llsn);

  std::vector<LogRecord> batch;
  for (Stream& s : streams) {
    while (!s.pending.empty()) {
      const LogRecord& front = s.pending.front();
      if (front.llsn != 0 && front.llsn > bound) break;
      batch.push_back(std::move(s.pending.front()));
      s.pending.pop_front();
    }
    // Records above the bound return to the stream's carry-over buffer.
    std::string carry;
    for (const LogRecord& rec : s.pending) rec.AppendTo(&carry);
    partial_[s.node] = carry + partial_[s.node];
  }
  std::stable_sort(batch.begin(), batch.end(),
                   [](const LogRecord& a, const LogRecord& b) {
                     return a.llsn < b.llsn;
                   });
  for (const LogRecord& rec : batch) {
    POLARMP_RETURN_IF_ERROR(ApplyRecord(rec));
  }
  cv_.notify_all();
  return static_cast<uint64_t>(batch.size());
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
      auto it = cursors_.find(node);
      if (it == cursors_.end() || it->second < target) return false;
      auto partial = partial_.find(node);
      if (partial != partial_.end() && !partial->second.empty()) return false;
    }
    return true;
  });
}

uint64_t StandbyReplicator::LagBytes() const {
  MutexLock lock(mu_);
  uint64_t lag = 0;
  for (NodeId node : primary_log_->AllLogs()) {
    auto end = primary_log_->DurableLsn(node);
    if (!end.ok()) continue;
    auto it = cursors_.find(node);
    const Lsn applied = it == cursors_.end() ? 0 : it->second;
    lag += end.value() - applied;
    auto partial = partial_.find(node);
    if (partial != partial_.end()) lag += partial->second.size();
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
