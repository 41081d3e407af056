#ifndef POLARMP_RDMA_RPC_H_
#define POLARMP_RDMA_RPC_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>

#include "common/lock_rank.h"
#include "rdma/fabric.h"

namespace polarmp {

// RDMA-based RPC (paper §3: "all communications between the primary nodes
// and PMFS leverage one-sided RDMA or RDMA-based RPC").
//
// Handlers are registered per (endpoint, method) and execute synchronously
// in the caller's thread after the fabric charges one RPC round trip — the
// same cost model as a polling RPC server on the real fabric. Handlers may
// block (e.g., a PLock grant that must wait for another node to release),
// which models the server parking the request and replying later.
class Rpc {
 public:
  using Handler =
      std::function<Status(const std::string& request, std::string* response)>;

  explicit Rpc(Fabric* fabric) : fabric_(fabric) {}

  Rpc(const Rpc&) = delete;
  Rpc& operator=(const Rpc&) = delete;

  Status RegisterHandler(EndpointId endpoint, uint32_t method, Handler handler);
  Status UnregisterEndpoint(EndpointId endpoint);

  Status Call(EndpointId from, EndpointId to, uint32_t method,
              const std::string& request, std::string* response) const;

 private:
  static uint64_t Key(EndpointId endpoint, uint32_t method) {
    return (static_cast<uint64_t>(endpoint) << 32) | method;
  }

  Fabric* const fabric_;
  mutable RankedSharedMutex mu_{LockRank::kRpc, "rpc.handlers"};
  std::unordered_map<uint64_t, Handler> handlers_ GUARDED_BY(mu_);
};

// Doorbell batch scope: while alive, every RPC this thread issues from
// `from` to `to` after the first one rides the first one's doorbell — one
// fabric round trip carries all of them (a WR chain posted with a single
// doorbell ring). Used by multi-RPC sequences that a real client would
// batch: Mtr::Acquire's PLock-pin + page-fetch pair, an LBP miss's victim
// unregister + register (after a dirty victim's push notify), Pin's
// release + reacquire of an idle weak hold, the PLock release's
// flush-notify + unlock pair. A nested scope for the same pair joins the
// outermost one (see Fabric::BeginRpcBatch); destruction order must mirror
// construction order on the thread.
class RpcBatch {
 public:
  RpcBatch(Fabric* fabric, EndpointId from, EndpointId to)
      : fabric_(fabric), from_(from), to_(to) {
    fabric_->BeginRpcBatch(from_, to_);
  }
  ~RpcBatch() { fabric_->EndRpcBatch(from_, to_); }

  RpcBatch(const RpcBatch&) = delete;
  RpcBatch& operator=(const RpcBatch&) = delete;

 private:
  Fabric* const fabric_;
  const EndpointId from_;
  const EndpointId to_;
};

}  // namespace polarmp

#endif  // POLARMP_RDMA_RPC_H_
