#include "dsm/dsm.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

#include "rdma/retry_policy.h"

namespace polarmp {

Dsm::Dsm(Fabric* fabric, uint32_t num_servers, uint64_t bytes_per_server)
    : fabric_(fabric),
      num_servers_(num_servers),
      bytes_per_server_(bytes_per_server),
      next_free_(num_servers, 0) {
  POLARMP_CHECK_GT(num_servers, 0u);
  memory_.reserve(num_servers);
  for (uint32_t i = 0; i < num_servers; ++i) {
    memory_.push_back(std::make_unique<char[]>(bytes_per_server));
    std::memset(memory_.back().get(), 0, bytes_per_server);
    const Status s = fabric_->RegisterRegion(ServerEndpoint(i), /*region=*/0,
                                             memory_.back().get(),
                                             bytes_per_server);
    POLARMP_CHECK(s.ok()) << s.ToString();
  }
}

Dsm::~Dsm() {
  for (uint32_t i = 0; i < num_servers_; ++i) {
    fabric_->DeregisterEndpoint(ServerEndpoint(i));
  }
}

StatusOr<DsmPtr> Dsm::Allocate(uint64_t size) {
  const uint64_t aligned = (size + 7) & ~uint64_t{7};
  MutexLock lock(alloc_mu_);
  // Least-loaded server keeps the pool balanced like a real allocator would.
  uint32_t best = 0;
  for (uint32_t i = 1; i < num_servers_; ++i) {
    if (next_free_[i] < next_free_[best]) best = i;
  }
  if (next_free_[best] + aligned > bytes_per_server_) {
    return Status::Internal("DSM out of memory");
  }
  DsmPtr ptr{best, next_free_[best]};
  next_free_[best] += aligned;
  return ptr;
}

// Every DSM access is idempotent at this layer (reads, full-image writes,
// and atomics whose faults are injected before execution), so each verb
// retries injected transients with capped backoff. Genuine errors — the
// memory server really deregistered — pass straight through.

Status Dsm::Read(EndpointId from, DsmPtr ptr, void* dst, uint64_t len) const {
  return RetryTransient(fabric_, [&] {
    return fabric_->Read(from, ServerEndpoint(ptr.server), 0, ptr.offset, dst,
                         len);
  });
}

Status Dsm::Write(EndpointId from, DsmPtr ptr, const void* src,
                  uint64_t len) const {
  return RetryTransient(fabric_, [&] {
    return fabric_->Write(from, ServerEndpoint(ptr.server), 0, ptr.offset, src,
                          len);
  });
}

StatusOr<uint64_t> Dsm::FetchAdd64(EndpointId from, DsmPtr ptr,
                                   uint64_t delta) const {
  return RetryTransientOr(fabric_, [&] {
    return fabric_->FetchAdd64(from, ServerEndpoint(ptr.server), 0, ptr.offset,
                               delta);
  });
}

StatusOr<uint64_t> Dsm::Load64(EndpointId from, DsmPtr ptr) const {
  return RetryTransientOr(fabric_, [&] {
    return fabric_->Load64(from, ServerEndpoint(ptr.server), 0, ptr.offset);
  });
}

Status Dsm::Store64(EndpointId from, DsmPtr ptr, uint64_t value) const {
  return RetryTransient(fabric_, [&] {
    return fabric_->Write(from, ServerEndpoint(ptr.server), 0, ptr.offset,
                          &value, sizeof(value));
  });
}

Status Dsm::WriteSeqlocked(EndpointId from, DsmPtr frame, const void* src,
                           uint64_t len) const {
  const EndpointId server = ServerEndpoint(frame.server);
  if (!fabric_->EndpointAlive(server)) {
    return Status::Unavailable("memory server down");
  }
  if (from != server) {
    const FaultDecision fault =
        fabric_->fault_injector()->Decide(FaultOp::kSeqlockedWrite);
    if (fault.kind == FaultKind::kTorn) {
      // Torn delivery: the guard word goes odd, the leading cachelines
      // land, and the tail trails in after a window. The seqlock is what
      // makes this survivable — a concurrent ReadSeqlocked sees an odd (or
      // changed) guard and retries until the tail lands; no reader can
      // observe the half-written image as stable.
      fabric_->CountFaultInjected();
      fabric_->ChargeOneSidedWrite(from, server);
      auto* seq = reinterpret_cast<std::atomic<uint64_t>*>(HostPtr(frame));
      char* data = HostPtr(DsmPtr{frame.server, frame.offset + 8});
      seq->fetch_add(1, std::memory_order_acq_rel);  // odd: write in flight
      const uint64_t head = len / 2;
      std::memcpy(data, src, head);
      SimDelay(fault.delay_ns);  // the torn window readers must survive
      std::memcpy(data + head, static_cast<const char*>(src) + head,
                  len - head);
      seq->fetch_add(1, std::memory_order_acq_rel);  // even: stable
      return Status::OK();
    }
  }
  fabric_->ChargeOneSidedWrite(from, server);
  HostWriteSeqlocked(frame, src, len);
  return Status::OK();
}

Status Dsm::ReadSeqlocked(EndpointId from, DsmPtr frame, void* dst,
                          uint64_t len) const {
  return ReadSeqlocked(from, frame, dst, len, /*version_out=*/nullptr);
}

Status Dsm::ReadSeqlocked(EndpointId from, DsmPtr frame, void* dst,
                          uint64_t len, uint64_t* version_out) const {
  return RetryTransient(fabric_, [&] {
    return ReadSeqlockedOnce(from, frame, dst, len, version_out);
  });
}

Status Dsm::ReadSeqlockedOnce(EndpointId from, DsmPtr frame, void* dst,
                              uint64_t len, uint64_t* version_out) const {
  const EndpointId server = ServerEndpoint(frame.server);
  if (!fabric_->EndpointAlive(server)) {
    return Status::Unavailable("memory server down");
  }
  if (from != server) {
    const FaultDecision fault =
        fabric_->fault_injector()->Decide(FaultOp::kRead);
    if (fault.kind == FaultKind::kUnavailable) {
      fabric_->CountFaultInjected();
      return InjectedUnavailable("seqlocked read");
    }
    if (fault.kind == FaultKind::kDelay) {
      fabric_->CountFaultInjected();
      SimDelay(fault.delay_ns);
    }
  }
  fabric_->ChargeOneSidedRead(from, server);
  auto* seq = reinterpret_cast<std::atomic<uint64_t>*>(HostPtr(frame));
  const char* data = HostPtr(DsmPtr{frame.server, frame.offset + 8});
  // The spin is bounded by elapsed time, not by a count: a yield budget is
  // spent faster by a fast process than by a loaded one, and a reader must
  // outwait any writer that is still in its window. 5 s is 2500x the
  // longest torn window the tests inject (2 ms; chaos plans use 50 us) and
  // leaves room for a writer descheduled on a loaded sanitizer host, while
  // a guard word left odd by a bug still fails the read within seconds.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    const uint64_t s1 = seq->load(std::memory_order_acquire);
    if (s1 % 2 == 1) {
      std::this_thread::yield();
      continue;
    }
    std::memcpy(dst, data, len);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (seq->load(std::memory_order_acquire) == s1) {
      if (version_out != nullptr) *version_out = s1;
      return Status::OK();
    }
  }
  return Status::Internal("seqlocked read livelock");
}

char* Dsm::HostPtr(DsmPtr ptr) const {
  POLARMP_CHECK_LT(ptr.server, num_servers_);
  POLARMP_CHECK_LT(ptr.offset, bytes_per_server_);
  return memory_[ptr.server].get() + ptr.offset;
}

void Dsm::HostWrite(DsmPtr ptr, const void* src, uint64_t len) const {
  POLARMP_CHECK_LE(ptr.offset + len, bytes_per_server_);
  std::memcpy(HostPtr(ptr), src, len);
}

void Dsm::HostWriteSeqlocked(DsmPtr frame, const void* src,
                             uint64_t len) const {
  auto* seq = reinterpret_cast<std::atomic<uint64_t>*>(HostPtr(frame));
  seq->fetch_add(1, std::memory_order_acq_rel);  // odd: write in progress
  std::memcpy(HostPtr(DsmPtr{frame.server, frame.offset + 8}), src, len);
  seq->fetch_add(1, std::memory_order_acq_rel);  // even: stable
}

void Dsm::Reset() {
  MutexLock lock(alloc_mu_);
  for (uint32_t i = 0; i < num_servers_; ++i) {
    std::memset(memory_[i].get(), 0, bytes_per_server_);
    next_free_[i] = 0;
  }
}

uint64_t Dsm::allocated_bytes() const {
  MutexLock lock(alloc_mu_);
  uint64_t total = 0;
  for (uint64_t v : next_free_) total += v;
  return total;
}

}  // namespace polarmp
