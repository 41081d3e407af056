#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <thread>

#include "dsm/dsm.h"
#include "pmfs/lock_fusion.h"
#include "rdma/fabric.h"
#include "rdma/fault_injector.h"
#include "rdma/retry_policy.h"

namespace polarmp {
namespace {

// Fault-injection semantics: scripted faults fire deterministically, retry
// wrappers absorb transients and degrade to Busy on exhaustion, duplicated
// RPCs dedup on request ids, torn seqlocked writes never surface a mixed
// image.
class FaultInjectionTest : public ::testing::Test {
 protected:
  FaultInjectionTest() : fabric_(ZeroLatencyProfile()), dsm_(&fabric_, 1, 1 << 20) {}
  ~FaultInjectionTest() override { fabric_.fault_injector()->Disarm(); }

  Fabric fabric_;
  Dsm dsm_;
};

TEST_F(FaultInjectionTest, TransientFaultRetriedTransparently) {
  auto frame = dsm_.Allocate(64);
  ASSERT_TRUE(frame.ok());
  fabric_.ResetCounters();
  fabric_.fault_injector()->ScriptFault(FaultOp::kRead, FaultKind::kUnavailable,
                                        /*count=*/2);
  uint64_t out = 0;
  EXPECT_TRUE(dsm_.Read(/*from=*/1, frame.value(), &out, 8).ok());
  EXPECT_EQ(fabric_.retries(), 2u);
  EXPECT_EQ(fabric_.faults_injected(), 2u);
}

TEST_F(FaultInjectionTest, RetryExhaustionDegradesToBusy) {
  auto frame = dsm_.Allocate(64);
  ASSERT_TRUE(frame.ok());
  fabric_.ResetCounters();
  // More scripted faults than the retry budget (4 attempts): the wrapper
  // must give up with backpressure, NOT a hard failure and NOT an abort.
  fabric_.fault_injector()->ScriptFault(FaultOp::kRead, FaultKind::kUnavailable,
                                        /*count=*/100);
  uint64_t out = 0;
  const Status s = dsm_.Read(/*from=*/1, frame.value(), &out, 8);
  EXPECT_TRUE(s.IsBusy()) << s.ToString();
  EXPECT_NE(s.message().find("retry budget exhausted"), std::string::npos);
  // The exhausted status must NOT look retryable to an upstream wrapper.
  EXPECT_FALSE(IsInjectedTransient(s));
  EXPECT_EQ(fabric_.retries(), 3u);  // attempts 2..4 of the default budget
  EXPECT_EQ(fabric_.faults_injected(), 4u);
  // Once the remaining scripted faults are cleared, reads work again.
  fabric_.fault_injector()->Disarm();
  EXPECT_TRUE(dsm_.Read(/*from=*/1, frame.value(), &out, 8).ok());
}

TEST_F(FaultInjectionTest, GenuineUnavailableNotRetried) {
  auto frame = dsm_.Allocate(64);
  ASSERT_TRUE(frame.ok());
  fabric_.ResetCounters();
  // Kill the memory server: a REAL endpoint-down Unavailable must pass
  // through without burning retry budget — takeover, not retry, handles it.
  fabric_.DeregisterEndpoint(Dsm::ServerEndpoint(0));
  uint64_t out = 0;
  const Status s = dsm_.Read(/*from=*/1, frame.value(), &out, 8);
  EXPECT_TRUE(s.IsUnavailable()) << s.ToString();
  EXPECT_FALSE(IsInjectedTransient(s));
  EXPECT_EQ(fabric_.retries(), 0u);
}

TEST_F(FaultInjectionTest, AtomicFaultInjectedBeforeExecution) {
  auto ptr = dsm_.Allocate(8);
  ASSERT_TRUE(ptr.ok());
  dsm_.HostWrite(ptr.value(), "\0\0\0\0\0\0\0\0", 8);
  fabric_.ResetCounters();
  fabric_.fault_injector()->ScriptFault(FaultOp::kAtomic,
                                        FaultKind::kUnavailable, /*count=*/1);
  // The failed attempt must not have mutated the word: after the retry the
  // counter reads exactly one increment.
  auto prev = dsm_.FetchAdd64(/*from=*/1, ptr.value(), 1);
  ASSERT_TRUE(prev.ok());
  EXPECT_EQ(prev.value(), 0u);
  EXPECT_EQ(dsm_.Load64(/*from=*/1, ptr.value()).value(), 1u);
  EXPECT_EQ(fabric_.retries(), 1u);
}

TEST_F(FaultInjectionTest, DuplicatedWriteIsIdempotent) {
  auto ptr = dsm_.Allocate(16);
  ASSERT_TRUE(ptr.ok());
  fabric_.fault_injector()->ScriptFault(FaultOp::kWrite, FaultKind::kDuplicate,
                                        /*count=*/1);
  const uint64_t v = 0xABCDABCD;
  ASSERT_TRUE(dsm_.Write(/*from=*/1, ptr.value(), &v, 8).ok());
  uint64_t out = 0;
  ASSERT_TRUE(dsm_.Read(/*from=*/1, ptr.value(), &out, 8).ok());
  EXPECT_EQ(out, v);  // applied twice = applied once for one-sided writes
}

TEST_F(FaultInjectionTest, TornSeqlockedWriteNeverSurfacesMixedImage) {
  constexpr uint64_t kLen = 256;
  auto frame = dsm_.Allocate(8 + kLen);
  ASSERT_TRUE(frame.ok());
  std::string a(kLen, 'A');
  dsm_.HostWriteSeqlocked(frame.value(), a.data(), kLen);

  // The writer's torn window: first half lands, the seqlock stays odd for
  // delay_ns, then the rest lands. Readers must spin past the window and
  // only ever observe all-'A' or all-'B'.
  fabric_.fault_injector()->ScriptFault(FaultOp::kSeqlockedWrite,
                                        FaultKind::kTorn, /*count=*/1,
                                        /*delay_ns=*/2'000'000);
  std::string b(kLen, 'B');
  std::thread writer([&] {
    ASSERT_TRUE(dsm_.WriteSeqlocked(/*from=*/1, frame.value(), b.data(), kLen)
                    .ok());
  });
  std::string got(kLen, '?');
  for (int i = 0; i < 100000; ++i) {
    ASSERT_TRUE(
        dsm_.ReadSeqlocked(/*from=*/2, frame.value(), got.data(), kLen).ok());
    const bool all_a = got == a;
    const bool all_b = got == b;
    ASSERT_TRUE(all_a || all_b) << "torn image surfaced at iteration " << i;
    if (all_b) break;
  }
  writer.join();
  ASSERT_TRUE(
      dsm_.ReadSeqlocked(/*from=*/2, frame.value(), got.data(), kLen).ok());
  EXPECT_EQ(got, b);
}

// ---- RPC request-id dedup on Lock Fusion ----------------------------------

TEST_F(FaultInjectionTest, LostRpcReplyDedupedNotReExecuted) {
  LockFusion lf(&fabric_);
  lf.AddNode(1, [](PageId) {});
  fabric_.ResetCounters();
  // Lose the REPLY: the service executed, the client retransmits the same
  // request id, and the dedup window answers from the recorded outcome
  // instead of double-acquiring.
  fabric_.fault_injector()->ScriptFault(FaultOp::kRpcReply,
                                        FaultKind::kUnavailable, /*count=*/1);
  const PageId page{1, 7};
  ASSERT_TRUE(
      lf.AcquirePLock(1, page, LockMode::kExclusive, /*timeout_ms=*/100).ok());
  EXPECT_EQ(fabric_.rpc_dedup_hits(), 1u);
  EXPECT_EQ(fabric_.retries(), 1u);
  // Exactly one hold was created: one release succeeds, a second finds none.
  EXPECT_TRUE(lf.ReleasePLock(1, page, LockMode::kExclusive).ok());
  EXPECT_TRUE(lf.ReleasePLock(1, page, LockMode::kExclusive).IsNotFound());
}

TEST_F(FaultInjectionTest, LostRpcRequestRetransmittedAndExecutedOnce) {
  LockFusion lf(&fabric_);
  lf.AddNode(1, [](PageId) {});
  fabric_.ResetCounters();
  // Lose the REQUEST: the service never ran, so the retransmit executes it
  // for the first time — no dedup hit.
  fabric_.fault_injector()->ScriptFault(FaultOp::kRpcRequest,
                                        FaultKind::kUnavailable, /*count=*/1);
  const PageId page{1, 9};
  ASSERT_TRUE(
      lf.AcquirePLock(1, page, LockMode::kExclusive, /*timeout_ms=*/100).ok());
  EXPECT_EQ(fabric_.rpc_dedup_hits(), 0u);
  EXPECT_EQ(fabric_.retries(), 1u);
  EXPECT_TRUE(lf.ReleasePLock(1, page, LockMode::kExclusive).ok());
}

TEST_F(FaultInjectionTest, RpcTimeoutDegradesToBusyAfterBudget) {
  LockFusion lf(&fabric_);
  lf.AddNode(1, [](PageId) {});
  fabric_.fault_injector()->ScriptFault(FaultOp::kRpcRequest,
                                        FaultKind::kTimeout, /*count=*/100);
  const Status s =
      lf.AcquirePLock(1, PageId{1, 3}, LockMode::kShared, /*timeout_ms=*/100);
  EXPECT_TRUE(s.IsBusy()) << s.ToString();
  EXPECT_FALSE(IsInjectedTransient(s));
}

// Seeded plans draw identical fault streams: chaos runs replay.
TEST_F(FaultInjectionTest, SeededPlanIsDeterministic) {
  FaultInjector a, b;
  a.Arm(DefaultChaosPlan(42));
  b.Arm(DefaultChaosPlan(42));
  for (int i = 0; i < 5000; ++i) {
    const FaultDecision da = a.Decide(FaultOp::kWrite);
    const FaultDecision db = b.Decide(FaultOp::kWrite);
    EXPECT_EQ(static_cast<int>(da.kind), static_cast<int>(db.kind));
  }
  FaultInjector c;
  c.Arm(DefaultChaosPlan(43));
  int diverged = 0;
  for (int i = 0; i < 5000; ++i) {
    if (a.Decide(FaultOp::kRead).kind != c.Decide(FaultOp::kRead).kind) {
      ++diverged;
    }
  }
  EXPECT_GT(diverged, 0);  // different seeds, different streams
}

}  // namespace
}  // namespace polarmp
