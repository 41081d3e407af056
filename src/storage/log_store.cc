#include "storage/log_store.h"

#include <algorithm>

namespace polarmp {

Status LogStore::CreateLog(NodeId node) {
  MutexLock lock(mu_);
  if (streams_.count(node) != 0) {
    return Status::AlreadyExists("log exists: node " + std::to_string(node));
  }
  streams_[node] = Stream{};
  return Status::OK();
}

bool LogStore::LogExists(NodeId node) const {
  MutexLock lock(mu_);
  return streams_.count(node) != 0;
}

std::vector<NodeId> LogStore::AllLogs() const {
  MutexLock lock(mu_);
  std::vector<NodeId> out;
  out.reserve(streams_.size());
  for (const auto& [node, stream] : streams_) out.push_back(node);
  return out;
}

StatusOr<Lsn> LogStore::Reserve(NodeId node, const std::string& data) {
  MutexLock lock(mu_);
  auto it = streams_.find(node);
  if (it == streams_.end()) {
    return Status::NotFound("log missing: node " + std::to_string(node));
  }
  const Lsn lsn = it->second.start + it->second.data.size();
  it->second.data += data;
  return lsn;
}

StatusOr<Lsn> LogStore::Complete(NodeId node, Lsn lsn, uint64_t len) {
  bool fail = false;
  bool hold = false;
  {
    // Injected faults bind to Completes in the order they start.
    MutexLock lock(mu_);
    fail = fail_appends_ > 0;
    if (fail) --fail_appends_;
    hold = hold_appends_ > 0;
    if (hold) --hold_appends_;
  }
  SimDelay(profile_.log_append_ns);
  UniqueLock lock(mu_);
  if (hold) {
    const uint64_t gen = hold_release_gen_;
    ++held_appends_;
    hold_cv_.notify_all();
    hold_cv_.wait(lock,
                  [&]() REQUIRES(mu_) { return hold_release_gen_ != gen; });
    --held_appends_;
  }
  if (fail) return Status::IOError("injected log append failure");
  auto it = streams_.find(node);
  if (it == streams_.end()) {
    return Status::NotFound("log missing: node " + std::to_string(node));
  }
  Stream& s = it->second;
  const Lsn end = lsn + len;
  if (lsn < s.landed || end > s.start + s.data.size()) {
    return Status::InvalidArgument("append range outside the reserved tail");
  }
  s.landed_above.emplace(lsn, end);
  // Advance the durable prefix over every range that now touches it.
  for (auto r = s.landed_above.begin();
       r != s.landed_above.end() && r->first <= s.landed;
       r = s.landed_above.erase(r)) {
    s.landed = std::max(s.landed, r->second);
  }
  return s.landed;
}

StatusOr<Lsn> LogStore::Append(NodeId node, const std::string& data) {
  POLARMP_ASSIGN_OR_RETURN(const Lsn lsn, Reserve(node, data));
  POLARMP_RETURN_IF_ERROR(Complete(node, lsn, data.size()).status());
  return lsn;
}

void LogStore::FailNextAppends(int n) {
  MutexLock lock(mu_);
  fail_appends_ = n;
}

void LogStore::HoldNextAppends(int n) {
  MutexLock lock(mu_);
  hold_appends_ = n;
}

void LogStore::ReleaseHeldAppends() {
  MutexLock lock(mu_);
  ++hold_release_gen_;
  hold_cv_.notify_all();
}

int LogStore::held_appends() const {
  MutexLock lock(mu_);
  return held_appends_;
}

StatusOr<Lsn> LogStore::DurableLsn(NodeId node) const {
  MutexLock lock(mu_);
  auto it = streams_.find(node);
  if (it == streams_.end()) {
    return Status::NotFound("log missing: node " + std::to_string(node));
  }
  return it->second.landed;
}

Status LogStore::DropUnlandedTail(NodeId node) {
  MutexLock lock(mu_);
  auto it = streams_.find(node);
  if (it == streams_.end()) {
    return Status::NotFound("log missing: node " + std::to_string(node));
  }
  Stream& s = it->second;
  s.data.resize(s.landed - s.start);
  s.landed_above.clear();
  return Status::OK();
}

Status LogStore::ReadAt(NodeId node, Lsn offset, uint64_t max_len,
                        std::string* out) const {
  SimDelay(profile_.storage_read_ns);
  MutexLock lock(mu_);
  auto it = streams_.find(node);
  if (it == streams_.end()) {
    return Status::NotFound("log missing: node " + std::to_string(node));
  }
  const Stream& s = it->second;
  if (offset < s.start) {
    return Status::Corruption("read below log truncation point");
  }
  if (offset >= s.landed) {
    out->clear();
    return Status::OK();
  }
  const uint64_t rel = offset - s.start;
  const uint64_t n = std::min<uint64_t>(max_len, s.landed - offset);
  out->assign(s.data.data() + rel, n);
  return Status::OK();
}

Status LogStore::Truncate(NodeId node, Lsn new_start) {
  MutexLock lock(mu_);
  auto it = streams_.find(node);
  if (it == streams_.end()) {
    return Status::NotFound("log missing: node " + std::to_string(node));
  }
  Stream& s = it->second;
  if (new_start < s.start) return Status::OK();  // already truncated past it
  if (new_start > s.landed) {
    return Status::InvalidArgument("truncate beyond end of log");
  }
  s.data.erase(0, new_start - s.start);
  s.start = new_start;
  return Status::OK();
}

Status LogStore::SetCheckpoint(NodeId node, Lsn lsn) {
  MutexLock lock(mu_);
  auto it = streams_.find(node);
  if (it == streams_.end()) {
    return Status::NotFound("log missing: node " + std::to_string(node));
  }
  it->second.checkpoint = std::max(it->second.checkpoint, lsn);
  return Status::OK();
}

uint64_t LogStore::BumpNodeEpoch(NodeId node) {
  MutexLock lock(mu_);
  return ++streams_[node].epoch;
}

uint64_t LogStore::GetNodeEpoch(NodeId node) const {
  MutexLock lock(mu_);
  auto it = streams_.find(node);
  return it == streams_.end() ? 0 : it->second.epoch;
}

StatusOr<Lsn> LogStore::GetCheckpoint(NodeId node) const {
  MutexLock lock(mu_);
  auto it = streams_.find(node);
  if (it == streams_.end()) {
    return Status::NotFound("log missing: node " + std::to_string(node));
  }
  return it->second.checkpoint;
}

}  // namespace polarmp
