#ifndef POLARMP_RDMA_FABRIC_H_
#define POLARMP_RDMA_FABRIC_H_

#include <atomic>
#include <cstdint>
#include <unordered_map>

#include "common/lock_rank.h"
#include "common/sim_latency.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "rdma/fault_injector.h"

namespace polarmp {

// Endpoint ids on the fabric. Compute nodes use their NodeId directly;
// infrastructure services live at fixed well-known endpoints.
using EndpointId = uint32_t;

inline constexpr EndpointId kPmfsEndpoint = 60'000;     // fusion server
inline constexpr EndpointId kStorageEndpoint = 60'001;  // shared storage
inline constexpr EndpointId kDsmEndpointBase = 61'000;  // memory servers

// Simulated RDMA fabric.
//
// Real deployment: every PolarDB-MP node registers memory regions with the
// NIC and peers access them with one-sided verbs (§4.1: remote TIT reads,
// §4.2: DBP page push/fetch). Here a region is host memory registered under
// an (endpoint, region) key; one-sided READ/WRITE are memcpys and atomic
// ops are real atomics, each charging the configured latency when the
// initiator is a different endpoint than the target.
//
// One-sided semantics are preserved: the target endpoint's "CPU" is never
// involved, so data structures reachable via the fabric must be designed
// for concurrent raw access (the TIT uses per-field atomics, DBP frames use
// a seqlock) exactly as they would be on real RDMA hardware.
//
// Crash simulation: DeregisterEndpoint() makes all subsequent accesses to
// that endpoint fail with Unavailable until it re-registers, modelling a
// node crash taking its registered memory with it.
class Fabric {
 public:
  explicit Fabric(const LatencyProfile& profile) : profile_(profile) {}

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  const LatencyProfile& profile() const { return profile_; }

  Status RegisterRegion(EndpointId endpoint, uint32_t region, void* base,
                        size_t size);
  Status DeregisterRegion(EndpointId endpoint, uint32_t region);
  // Removes every region owned by `endpoint` (crash simulation).
  void DeregisterEndpoint(EndpointId endpoint);
  bool EndpointAlive(EndpointId endpoint) const;

  // One-sided verbs. `from == to-endpoint` skips the latency charge (local
  // access through the NIC loopback is effectively a memcpy).
  Status Read(EndpointId from, EndpointId to, uint32_t region, uint64_t offset,
              void* dst, size_t len) const;
  Status Write(EndpointId from, EndpointId to, uint32_t region,
               uint64_t offset, const void* src, size_t len) const;

  // 64-bit remote atomics. The target location must be a std::atomic<uint64_t>
  // (or have equivalent alignment/lifetime) inside the registered region.
  StatusOr<uint64_t> FetchAdd64(EndpointId from, EndpointId to, uint32_t region,
                                uint64_t offset, uint64_t delta) const;
  StatusOr<uint64_t> CompareSwap64(EndpointId from, EndpointId to,
                                   uint32_t region, uint64_t offset,
                                   uint64_t expected, uint64_t desired) const;
  StatusOr<uint64_t> Load64(EndpointId from, EndpointId to, uint32_t region,
                            uint64_t offset) const;
  // Atomic 8-byte remote store (release ordering); same target requirements
  // as the other 64-bit atomics.
  Status Store64(EndpointId from, EndpointId to, uint32_t region,
                 uint64_t offset, uint64_t value) const;

  // Charge one RPC round-trip worth of latency (used by service stubs whose
  // control messages ride RDMA-based RPC).
  void ChargeRpc(EndpointId from, EndpointId to) const;

  // Fault injection (rdma/fault_injector.h). The injector is consulted by
  // every verb; service stubs additionally call InjectRpcFault on the
  // request and reply legs of their RPCs. Disarmed injection costs one
  // atomic load per verb.
  FaultInjector* fault_injector() const { return &injector_; }

  // Consults the injector for an RPC leg (`stage` is kRpcRequest or
  // kRpcReply). Returns OK, a tagged transient Unavailable (leg lost), or a
  // tagged Busy after charging a full round trip (timeout). No-op when
  // from == to (local loopback cannot lose messages).
  Status InjectRpcFault(EndpointId from, EndpointId to, FaultOp stage) const;

  // Bookkeeping hooks for the retry layer (rdma/retry_policy.h) and the
  // dedup-capable service stubs: all robustness events land in the fabric's
  // books so one sidecar carries the whole chaos story.
  void CountRetry() const { retries_.Inc(); }
  void CountRpcDedupHit() const { rpc_dedup_hits_.Inc(); }
  void CountFaultInjected() const { faults_injected_.Inc(); }

  // Accounting entry points for seqlock-framed page transfers. The payload
  // memcpy and the guard-word discipline live in src/dsm (the frame layout
  // is Dsm's business), but the latency and the round-trip count belong to
  // the fabric so every cross-endpoint op lands in one set of books.
  // No-ops when from == to.
  void ChargeOneSidedRead(EndpointId from, EndpointId to) const;
  void ChargeOneSidedWrite(EndpointId from, EndpointId to) const;

  // Doorbell batching (§4.1-style WR chaining): between BeginRpcBatch and
  // the matching EndRpcBatch on the SAME thread, the first ChargeRpc to
  // (from, to) pays latency and counts as a round trip; every further
  // ChargeRpc to the same pair rides the same doorbell — it counts only in
  // fabric.rpcs_coalesced and is free.
  //
  // One doorbell per (fabric, from, to) per thread: the outermost open
  // scope's. A nested scope for the same pair joins it (it pays only if
  // the outer scope has not paid yet, and the outer scope stays paid after
  // it ends); a nested scope for a different pair (a handler that runs
  // inside an RPC and calls out on its own behalf) rings its own. Scopes
  // still end in LIFO order. The modelling argument: the RPCs inside one
  // outermost scope are RPCs a client can post as one WR chain once the
  // local work they depend on is done. On an LBP miss, Unregister(victim)
  // and Register(new page) are independent of each other; on a dirty
  // eviction the client forces the log and does the one-sided push first,
  // then posts [NotifyPush, Unregister, Register] as one chain. A PLock
  // upgrade's release of an idle weak hold and its reacquire form the same
  // kind of chain. Prefer the RpcBatch RAII wrapper in rdma/rpc.h.
  void BeginRpcBatch(EndpointId from, EndpointId to) const;
  void EndRpcBatch(EndpointId from, EndpointId to) const;

  // Telemetry: number of remote (cross-endpoint) operations by kind. Thin
  // shims over this instance's registry handles ("fabric.*" families); the
  // per-verb latency distributions live in "fabric.{read,write,atomic,
  // rpc}_ns". Per-destination-service totals (every remote verb + rpc,
  // classified by target endpoint) are in "fabric.ops_{pmfs,storage,dsm,
  // node}".
  uint64_t remote_reads() const { return remote_reads_.Value(); }
  uint64_t remote_writes() const { return remote_writes_.Value(); }
  uint64_t remote_atomics() const { return remote_atomics_.Value(); }
  uint64_t rpcs() const { return rpcs_.Value(); }
  uint64_t rpcs_coalesced() const { return rpcs_coalesced_.Value(); }
  uint64_t faults_injected() const { return faults_injected_.Value(); }
  uint64_t retries() const { return retries_.Value(); }
  uint64_t rpc_dedup_hits() const { return rpc_dedup_hits_.Value(); }
  void ResetCounters();

 private:
  struct Region {
    char* base = nullptr;
    size_t size = 0;
  };

  // Resolves (endpoint, region, offset, len) to a host pointer or fails.
  StatusOr<char*> Resolve(EndpointId to, uint32_t region, uint64_t offset,
                          size_t len) const;

  // Bumps the per-destination-service op counter for a remote op to `to`.
  void CountService(EndpointId to) const;

  // Consults the injector for a one-sided verb. Returns a tagged transient
  // error, or OK after applying any kDelay in place; a kDuplicate decision
  // (write path) is reported through *duplicate for the caller to apply.
  Status InjectVerbFault(EndpointId from, EndpointId to, FaultOp op,
                         bool* duplicate = nullptr) const;

  static uint64_t Key(EndpointId endpoint, uint32_t region) {
    return (static_cast<uint64_t>(endpoint) << 32) | region;
  }

  const LatencyProfile profile_;
  // polarlint: unguarded(internally synchronized: own RankedMutex + armed flag)
  mutable FaultInjector injector_;
  mutable RankedSharedMutex mu_{LockRank::kFabric, "fabric.regions"};
  std::unordered_map<uint64_t, Region> regions_ GUARDED_BY(mu_);
  std::unordered_map<EndpointId, bool> endpoint_alive_ GUARDED_BY(mu_);

  mutable obs::Counter remote_reads_{"fabric.remote_reads"};
  mutable obs::Counter remote_writes_{"fabric.remote_writes"};
  mutable obs::Counter remote_atomics_{"fabric.remote_atomics"};
  mutable obs::Counter rpcs_{"fabric.rpcs"};
  mutable obs::Counter rpcs_coalesced_{"fabric.rpcs_coalesced"};
  mutable obs::Counter ops_pmfs_{"fabric.ops_pmfs"};
  mutable obs::Counter ops_storage_{"fabric.ops_storage"};
  mutable obs::Counter ops_dsm_{"fabric.ops_dsm"};
  mutable obs::Counter ops_node_{"fabric.ops_node"};
  mutable obs::Counter faults_injected_{"fabric.faults_injected"};
  mutable obs::Counter retries_{"fabric.retries"};
  mutable obs::Counter rpc_dedup_hits_{"fabric.rpc_dedup_hits"};
  mutable obs::LatencyHistogram read_ns_{"fabric.read_ns"};
  mutable obs::LatencyHistogram write_ns_{"fabric.write_ns"};
  mutable obs::LatencyHistogram atomic_ns_{"fabric.atomic_ns"};
  mutable obs::LatencyHistogram rpc_ns_{"fabric.rpc_ns"};
};

}  // namespace polarmp

#endif  // POLARMP_RDMA_FABRIC_H_
