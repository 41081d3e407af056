#include "rdma/fabric.h"

#include "obs/trace.h"

#include <cstring>
#include <vector>

namespace polarmp {

namespace {

// One open doorbell batch: while it is on the stack, further RPCs from
// `from` to `to` on this Fabric ride the first RPC's doorbell.
struct RpcBatchFrame {
  const Fabric* fabric;
  EndpointId from;
  EndpointId to;
  bool charged;  // the batch's first (paying) RPC has happened
};

// Batches are a property of the issuing thread (a real doorbell is rung by
// one CPU posting a WR chain), so a plain thread_local stack needs no lock.
thread_local std::vector<RpcBatchFrame> g_rpc_batches;

// The outermost open batch for the pair owns the doorbell: nested scopes
// for the same pair join it (see Fabric::BeginRpcBatch).
RpcBatchFrame* FindBatch(const Fabric* fabric, EndpointId from,
                         EndpointId to) {
  for (auto it = g_rpc_batches.begin(); it != g_rpc_batches.end(); ++it) {
    if (it->fabric == fabric && it->from == from && it->to == to) return &*it;
  }
  return nullptr;
}

}  // namespace

Status Fabric::RegisterRegion(EndpointId endpoint, uint32_t region, void* base,
                              size_t size) {
  WriterLock lock(mu_);
  const uint64_t key = Key(endpoint, region);
  if (regions_.count(key) != 0) {
    return Status::AlreadyExists("region already registered: " +
                                 std::to_string(endpoint) + "/" +
                                 std::to_string(region));
  }
  regions_[key] = Region{static_cast<char*>(base), size};
  endpoint_alive_[endpoint] = true;
  return Status::OK();
}

Status Fabric::DeregisterRegion(EndpointId endpoint, uint32_t region) {
  WriterLock lock(mu_);
  if (regions_.erase(Key(endpoint, region)) == 0) {
    return Status::NotFound("region not registered");
  }
  return Status::OK();
}

void Fabric::DeregisterEndpoint(EndpointId endpoint) {
  WriterLock lock(mu_);
  for (auto it = regions_.begin(); it != regions_.end();) {
    if (static_cast<EndpointId>(it->first >> 32) == endpoint) {
      it = regions_.erase(it);
    } else {
      ++it;
    }
  }
  endpoint_alive_[endpoint] = false;
}

bool Fabric::EndpointAlive(EndpointId endpoint) const {
  ReaderLock lock(mu_);
  auto it = endpoint_alive_.find(endpoint);
  return it != endpoint_alive_.end() && it->second;
}

StatusOr<char*> Fabric::Resolve(EndpointId to, uint32_t region,
                                uint64_t offset, size_t len) const {
  ReaderLock lock(mu_);
  auto alive = endpoint_alive_.find(to);
  if (alive == endpoint_alive_.end() || !alive->second) {
    return Status::Unavailable("endpoint down: " + std::to_string(to));
  }
  auto it = regions_.find(Key(to, region));
  if (it == regions_.end()) {
    return Status::NotFound("region not registered: " + std::to_string(to) +
                            "/" + std::to_string(region));
  }
  if (offset + len > it->second.size) {
    return Status::InvalidArgument("remote access out of bounds");
  }
  return it->second.base + offset;
}

void Fabric::CountService(EndpointId to) const {
  if (to == kPmfsEndpoint) {
    ops_pmfs_.Inc();
  } else if (to == kStorageEndpoint) {
    ops_storage_.Inc();
  } else if (to >= kDsmEndpointBase) {
    ops_dsm_.Inc();
  } else {
    ops_node_.Inc();
  }
}

Status Fabric::InjectVerbFault(EndpointId from, EndpointId to, FaultOp op,
                               bool* duplicate) const {
  if (from == to) return Status::OK();  // loopback: the NIC is not involved
  const FaultDecision fault = injector_.Decide(op);
  switch (fault.kind) {
    case FaultKind::kNone:
      return Status::OK();
    case FaultKind::kUnavailable:
      faults_injected_.Inc();
      return InjectedUnavailable("verb to endpoint " + std::to_string(to));
    case FaultKind::kDelay:
      faults_injected_.Inc();
      SimDelay(fault.delay_ns);
      return Status::OK();
    case FaultKind::kDuplicate:
      faults_injected_.Inc();
      if (duplicate != nullptr) *duplicate = true;
      return Status::OK();
    default:
      // kTimeout / kTorn are RPC- and seqlock-specific; a plan that asks
      // for them on a plain verb degrades to a transparent delivery.
      return Status::OK();
  }
}

Status Fabric::InjectRpcFault(EndpointId from, EndpointId to,
                              FaultOp stage) const {
  if (from == to) return Status::OK();
  const FaultDecision fault = injector_.Decide(stage);
  switch (fault.kind) {
    case FaultKind::kNone:
      return Status::OK();
    case FaultKind::kUnavailable:
      faults_injected_.Inc();
      return InjectedUnavailable(
          (stage == FaultOp::kRpcRequest ? "rpc request to endpoint "
                                         : "rpc reply from endpoint ") +
          std::to_string(to));
    case FaultKind::kTimeout:
      // The caller waited a full round trip for nothing.
      faults_injected_.Inc();
      SimDelay(profile_.rpc_ns);
      return InjectedTimeout("rpc to endpoint " + std::to_string(to));
    case FaultKind::kDelay:
      faults_injected_.Inc();
      SimDelay(fault.delay_ns);
      return Status::OK();
    default:
      return Status::OK();
  }
}

Status Fabric::Read(EndpointId from, EndpointId to, uint32_t region,
                    uint64_t offset, void* dst, size_t len) const {
  POLARMP_RETURN_IF_ERROR(InjectVerbFault(from, to, FaultOp::kRead));
  POLARMP_ASSIGN_OR_RETURN(char* src, Resolve(to, region, offset, len));
  if (from != to) {
    remote_reads_.Inc();
    CountService(to);
    obs::TraceSpan span(&read_ns_);
    SimDelay(profile_.rdma_read_ns);
  }
  std::memcpy(dst, src, len);
  return Status::OK();
}

Status Fabric::Write(EndpointId from, EndpointId to, uint32_t region,
                     uint64_t offset, const void* src, size_t len) const {
  bool duplicate = false;
  POLARMP_RETURN_IF_ERROR(
      InjectVerbFault(from, to, FaultOp::kWrite, &duplicate));
  POLARMP_ASSIGN_OR_RETURN(char* dst, Resolve(to, region, offset, len));
  if (from != to) {
    remote_writes_.Inc();
    CountService(to);
    obs::TraceSpan span(&write_ns_);
    SimDelay(profile_.rdma_write_ns);
  }
  std::memcpy(dst, src, len);
  if (duplicate) {
    // Duplicated delivery: the same payload lands twice. Idempotent for
    // plain writes by construction; the fault exists to prove callers never
    // layer non-idempotent semantics onto raw write verbs.
    std::memcpy(dst, src, len);
  }
  return Status::OK();
}

StatusOr<uint64_t> Fabric::FetchAdd64(EndpointId from, EndpointId to,
                                      uint32_t region, uint64_t offset,
                                      uint64_t delta) const {
  // Inject BEFORE executing: a failed atomic must not have mutated the
  // target, so the caller's retry re-runs exactly one effective op.
  POLARMP_RETURN_IF_ERROR(InjectVerbFault(from, to, FaultOp::kAtomic));
  POLARMP_ASSIGN_OR_RETURN(char* p, Resolve(to, region, offset, 8));
  if (from != to) {
    remote_atomics_.Inc();
    CountService(to);
    obs::TraceSpan span(&atomic_ns_);
    SimDelay(profile_.rdma_cas_ns);
  }
  auto* a = reinterpret_cast<std::atomic<uint64_t>*>(p);
  return a->fetch_add(delta, std::memory_order_acq_rel);
}

StatusOr<uint64_t> Fabric::CompareSwap64(EndpointId from, EndpointId to,
                                         uint32_t region, uint64_t offset,
                                         uint64_t expected,
                                         uint64_t desired) const {
  POLARMP_RETURN_IF_ERROR(InjectVerbFault(from, to, FaultOp::kAtomic));
  POLARMP_ASSIGN_OR_RETURN(char* p, Resolve(to, region, offset, 8));
  if (from != to) {
    remote_atomics_.Inc();
    CountService(to);
    obs::TraceSpan span(&atomic_ns_);
    SimDelay(profile_.rdma_cas_ns);
  }
  auto* a = reinterpret_cast<std::atomic<uint64_t>*>(p);
  uint64_t exp = expected;
  a->compare_exchange_strong(exp, desired, std::memory_order_acq_rel);
  return exp;  // value observed before the swap, as RDMA CAS returns
}

StatusOr<uint64_t> Fabric::Load64(EndpointId from, EndpointId to,
                                  uint32_t region, uint64_t offset) const {
  POLARMP_RETURN_IF_ERROR(InjectVerbFault(from, to, FaultOp::kRead));
  POLARMP_ASSIGN_OR_RETURN(char* p, Resolve(to, region, offset, 8));
  if (from != to) {
    remote_reads_.Inc();
    CountService(to);
    obs::TraceSpan span(&read_ns_);
    SimDelay(profile_.rdma_read_ns);
  }
  auto* a = reinterpret_cast<std::atomic<uint64_t>*>(p);
  return a->load(std::memory_order_acquire);
}

Status Fabric::Store64(EndpointId from, EndpointId to, uint32_t region,
                       uint64_t offset, uint64_t value) const {
  POLARMP_RETURN_IF_ERROR(InjectVerbFault(from, to, FaultOp::kAtomic));
  POLARMP_ASSIGN_OR_RETURN(char* p, Resolve(to, region, offset, 8));
  if (from != to) {
    remote_writes_.Inc();
    CountService(to);
    obs::TraceSpan span(&write_ns_);
    SimDelay(profile_.rdma_write_ns);
  }
  auto* a = reinterpret_cast<std::atomic<uint64_t>*>(p);
  a->store(value, std::memory_order_release);
  return Status::OK();
}

void Fabric::ChargeRpc(EndpointId from, EndpointId to) const {
  if (from == to) return;
  if (RpcBatchFrame* batch = FindBatch(this, from, to)) {
    if (batch->charged) {
      // Rides the batch's already-rung doorbell: no extra round trip, no
      // extra latency. Counted separately so benches can report how many
      // control messages the batching absorbed.
      rpcs_coalesced_.Inc();
      return;
    }
    batch->charged = true;
  }
  rpcs_.Inc();
  CountService(to);
  obs::TraceSpan span(&rpc_ns_);
  SimDelay(profile_.rpc_ns);
}

void Fabric::ChargeOneSidedRead(EndpointId from, EndpointId to) const {
  if (from == to) return;
  remote_reads_.Inc();
  CountService(to);
  obs::TraceSpan span(&read_ns_);
  SimDelay(profile_.rdma_read_ns);
}

void Fabric::ChargeOneSidedWrite(EndpointId from, EndpointId to) const {
  if (from == to) return;
  remote_writes_.Inc();
  CountService(to);
  obs::TraceSpan span(&write_ns_);
  SimDelay(profile_.rdma_write_ns);
}

void Fabric::BeginRpcBatch(EndpointId from, EndpointId to) const {
  g_rpc_batches.push_back(RpcBatchFrame{this, from, to, /*charged=*/false});
}

void Fabric::EndRpcBatch(EndpointId from, EndpointId to) const {
  POLARMP_CHECK(!g_rpc_batches.empty());
  const RpcBatchFrame& top = g_rpc_batches.back();
  POLARMP_CHECK(top.fabric == this && top.from == from && top.to == to)
      << "mismatched EndRpcBatch";
  g_rpc_batches.pop_back();
}

void Fabric::ResetCounters() {
  remote_reads_.Reset();
  remote_writes_.Reset();
  remote_atomics_.Reset();
  rpcs_.Reset();
  rpcs_coalesced_.Reset();
  ops_pmfs_.Reset();
  ops_storage_.Reset();
  ops_dsm_.Reset();
  ops_node_.Reset();
  faults_injected_.Reset();
  retries_.Reset();
  rpc_dedup_hits_.Reset();
  read_ns_.Reset();
  write_ns_.Reset();
  atomic_ns_.Reset();
  rpc_ns_.Reset();
}

}  // namespace polarmp
