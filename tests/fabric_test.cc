#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "dsm/dsm.h"
#include "obs/metrics.h"
#include "rdma/fabric.h"
#include "rdma/rpc.h"

namespace polarmp {
namespace {

class FabricTest : public ::testing::Test {
 protected:
  FabricTest() : fabric_(ZeroLatencyProfile()) {}
  Fabric fabric_;
};

TEST_F(FabricTest, RegisterReadWrite) {
  uint64_t buf[4] = {1, 2, 3, 4};
  ASSERT_TRUE(fabric_.RegisterRegion(5, 0, buf, sizeof(buf)).ok());
  uint64_t out = 0;
  ASSERT_TRUE(fabric_.Read(6, 5, 0, 8, &out, 8).ok());
  EXPECT_EQ(out, 2u);
  const uint64_t in = 99;
  ASSERT_TRUE(fabric_.Write(6, 5, 0, 24, &in, 8).ok());
  EXPECT_EQ(buf[3], 99u);
  EXPECT_EQ(fabric_.remote_reads(), 1u);
  EXPECT_EQ(fabric_.remote_writes(), 1u);
}

// The fabric's counters are registry handles: the process-wide
// "fabric.*" families see every instance's traffic (delta-based — other
// tests' fabrics contribute to the same families).
TEST_F(FabricTest, CountersVisibleThroughRegistry) {
  auto& reg = obs::MetricsRegistry::Global();
  const uint64_t reads0 = reg.CounterTotal("fabric.remote_reads");
  const uint64_t writes0 = reg.CounterTotal("fabric.remote_writes");
  const uint64_t read_samples0 = reg.HistogramTotal("fabric.read_ns").count();

  uint64_t buf[2] = {11, 22};
  ASSERT_TRUE(fabric_.RegisterRegion(5, 0, buf, sizeof(buf)).ok());
  uint64_t out = 0;
  ASSERT_TRUE(fabric_.Read(6, 5, 0, 0, &out, 8).ok());
  ASSERT_TRUE(fabric_.Write(6, 5, 0, 8, &out, 8).ok());
  // Local access stays invisible to the remote families.
  ASSERT_TRUE(fabric_.Read(5, 5, 0, 0, &out, 8).ok());

  EXPECT_EQ(reg.CounterTotal("fabric.remote_reads"), reads0 + 1);
  EXPECT_EQ(reg.CounterTotal("fabric.remote_writes"), writes0 + 1);
  // Each remote read lands one latency sample in fabric.read_ns.
  EXPECT_EQ(reg.HistogramTotal("fabric.read_ns").count(), read_samples0 + 1);
}

TEST_F(FabricTest, LocalAccessNotCountedRemote) {
  uint64_t buf = 7;
  ASSERT_TRUE(fabric_.RegisterRegion(5, 0, &buf, 8).ok());
  uint64_t out = 0;
  ASSERT_TRUE(fabric_.Read(5, 5, 0, 0, &out, 8).ok());
  EXPECT_EQ(fabric_.remote_reads(), 0u);
}

TEST_F(FabricTest, OutOfBoundsRejected) {
  uint64_t buf = 0;
  ASSERT_TRUE(fabric_.RegisterRegion(5, 0, &buf, 8).ok());
  uint64_t out;
  EXPECT_FALSE(fabric_.Read(6, 5, 0, 4, &out, 8).ok());
}

TEST_F(FabricTest, UnknownRegionAndEndpoint) {
  uint64_t out;
  EXPECT_TRUE(fabric_.Read(6, 5, 0, 0, &out, 8).IsUnavailable());
  uint64_t buf = 0;
  ASSERT_TRUE(fabric_.RegisterRegion(5, 0, &buf, 8).ok());
  EXPECT_TRUE(fabric_.Read(6, 5, 9, 0, &out, 8).IsNotFound());
}

TEST_F(FabricTest, AtomicsWork) {
  std::atomic<uint64_t> counter{10};
  ASSERT_TRUE(fabric_.RegisterRegion(5, 0, &counter, 8).ok());
  auto prev = fabric_.FetchAdd64(6, 5, 0, 0, 5);
  ASSERT_TRUE(prev.ok());
  EXPECT_EQ(prev.value(), 10u);
  EXPECT_EQ(counter.load(), 15u);

  auto cas = fabric_.CompareSwap64(6, 5, 0, 0, 15, 100);
  ASSERT_TRUE(cas.ok());
  EXPECT_EQ(cas.value(), 15u);  // observed pre-swap value
  EXPECT_EQ(counter.load(), 100u);

  auto cas_fail = fabric_.CompareSwap64(6, 5, 0, 0, 15, 200);
  ASSERT_TRUE(cas_fail.ok());
  EXPECT_EQ(cas_fail.value(), 100u);
  EXPECT_EQ(counter.load(), 100u);

  ASSERT_TRUE(fabric_.Store64(6, 5, 0, 0, 7).ok());
  auto load = fabric_.Load64(6, 5, 0, 0);
  ASSERT_TRUE(load.ok());
  EXPECT_EQ(load.value(), 7u);
}

TEST_F(FabricTest, DeregisterEndpointKillsAccess) {
  uint64_t buf = 0;
  ASSERT_TRUE(fabric_.RegisterRegion(5, 0, &buf, 8).ok());
  EXPECT_TRUE(fabric_.EndpointAlive(5));
  fabric_.DeregisterEndpoint(5);
  EXPECT_FALSE(fabric_.EndpointAlive(5));
  uint64_t out;
  EXPECT_TRUE(fabric_.Read(6, 5, 0, 0, &out, 8).IsUnavailable());
  // Re-register revives it.
  ASSERT_TRUE(fabric_.RegisterRegion(5, 0, &buf, 8).ok());
  EXPECT_TRUE(fabric_.Read(6, 5, 0, 0, &out, 8).ok());
}

TEST_F(FabricTest, ConcurrentFetchAddIsAtomic) {
  std::atomic<uint64_t> counter{0};
  ASSERT_TRUE(fabric_.RegisterRegion(5, 0, &counter, 8).ok());
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) {
        ASSERT_TRUE(fabric_.FetchAdd64(6, 5, 0, 0, 1).ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.load(), 4000u);
}

TEST(RpcTest, CallDispatchesToHandler) {
  Fabric fabric(ZeroLatencyProfile());
  uint64_t dummy = 0;
  ASSERT_TRUE(fabric.RegisterRegion(9, 0, &dummy, 8).ok());
  Rpc rpc(&fabric);
  ASSERT_TRUE(rpc.RegisterHandler(9, 1,
                                  [](const std::string& req, std::string* resp) {
                                    *resp = "echo:" + req;
                                    return Status::OK();
                                  })
                  .ok());
  std::string resp;
  ASSERT_TRUE(rpc.Call(2, 9, 1, "hi", &resp).ok());
  EXPECT_EQ(resp, "echo:hi");
  EXPECT_EQ(fabric.rpcs(), 1u);
  EXPECT_TRUE(rpc.Call(2, 9, 2, "hi", &resp).IsNotFound());
  fabric.DeregisterEndpoint(9);
  EXPECT_TRUE(rpc.Call(2, 9, 1, "hi", &resp).IsUnavailable());
}

// One doorbell per (from, to) per thread: the outermost open scope's.
TEST(RpcTest, NestedBatchOnSamePairJoinsOuterDoorbell) {
  Fabric fabric(ZeroLatencyProfile());
  {
    RpcBatch outer(&fabric, 2, 9);
    {
      // Outer not yet charged: the nested scope's first RPC pays for both.
      RpcBatch inner(&fabric, 2, 9);
      fabric.ChargeRpc(2, 9);
      fabric.ChargeRpc(2, 9);
      EXPECT_EQ(fabric.rpcs(), 1u);
      EXPECT_EQ(fabric.rpcs_coalesced(), 1u);
    }
    // The outer scope stays charged after the nested one ends.
    fabric.ChargeRpc(2, 9);
    EXPECT_EQ(fabric.rpcs(), 1u);
    EXPECT_EQ(fabric.rpcs_coalesced(), 2u);
    {
      // Outer already charged: a fresh nested scope's RPCs are free.
      RpcBatch inner(&fabric, 2, 9);
      fabric.ChargeRpc(2, 9);
      EXPECT_EQ(fabric.rpcs(), 1u);
      EXPECT_EQ(fabric.rpcs_coalesced(), 3u);
    }
    {
      // A different pair rings its own doorbell, once; the outer pair
      // still rides the outer one from inside it.
      RpcBatch other(&fabric, 3, 9);
      fabric.ChargeRpc(3, 9);
      fabric.ChargeRpc(3, 9);
      fabric.ChargeRpc(2, 9);
      EXPECT_EQ(fabric.rpcs(), 2u);
      EXPECT_EQ(fabric.rpcs_coalesced(), 5u);
    }
  }
  // No scope open: every RPC pays.
  fabric.ChargeRpc(2, 9);
  fabric.ChargeRpc(2, 9);
  EXPECT_EQ(fabric.rpcs(), 4u);
  EXPECT_EQ(fabric.rpcs_coalesced(), 5u);
}

TEST(DsmTest, AllocateReadWrite) {
  Fabric fabric(ZeroLatencyProfile());
  Dsm dsm(&fabric, 2, 1 << 20);
  auto p1 = dsm.Allocate(100);
  ASSERT_TRUE(p1.ok());
  auto p2 = dsm.Allocate(100);
  ASSERT_TRUE(p2.ok());
  // Least-loaded placement spreads across servers.
  EXPECT_NE(p1->server, p2->server);

  const char data[] = "hello dsm";
  ASSERT_TRUE(dsm.Write(1, *p1, data, sizeof(data)).ok());
  char out[16] = {0};
  ASSERT_TRUE(dsm.Read(2, *p1, out, sizeof(data)).ok());
  EXPECT_STREQ(out, "hello dsm");
  EXPECT_EQ(dsm.allocated_bytes(), 208u);  // 8-byte aligned
}

TEST(DsmTest, Atomics) {
  Fabric fabric(ZeroLatencyProfile());
  Dsm dsm(&fabric, 1, 1 << 16);
  auto p = dsm.Allocate(8);
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(dsm.Store64(1, *p, 41).ok());
  auto prev = dsm.FetchAdd64(1, *p, 1);
  ASSERT_TRUE(prev.ok());
  EXPECT_EQ(prev.value(), 41u);
  EXPECT_EQ(dsm.Load64(1, *p).value(), 42u);
}

TEST(DsmTest, OutOfMemory) {
  Fabric fabric(ZeroLatencyProfile());
  Dsm dsm(&fabric, 1, 128);
  ASSERT_TRUE(dsm.Allocate(100).ok());
  EXPECT_FALSE(dsm.Allocate(100).ok());
}

TEST(DsmTest, ResetClears) {
  Fabric fabric(ZeroLatencyProfile());
  Dsm dsm(&fabric, 1, 1 << 16);
  auto p = dsm.Allocate(8);
  ASSERT_TRUE(dsm.Store64(1, *p, 42).ok());
  dsm.Reset();
  EXPECT_EQ(dsm.allocated_bytes(), 0u);
  auto p2 = dsm.Allocate(8);
  EXPECT_EQ(dsm.Load64(1, *p2).value(), 0u);
}

}  // namespace
}  // namespace polarmp
