#include <gtest/gtest.h>

#include "common/coding.h"
#include "common/histogram.h"
#include "common/random.h"
#include "common/sim_latency.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/types.h"

namespace polarmp {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.ToString(), "NotFound: missing thing");
}

TEST(StatusTest, AllCodesStringify) {
  for (int c = 0; c <= 10; ++c) {
    EXPECT_STRNE(StatusCodeToString(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v(42);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v(Status::Aborted("boom"));
  ASSERT_FALSE(v.ok());
  EXPECT_TRUE(v.status().IsAborted());
}

TEST(StatusOrTest, MoveOutValue) {
  StatusOr<std::string> v(std::string("hello"));
  std::string s = std::move(v).value();
  EXPECT_EQ(s, "hello");
}

Status Fails() { return Status::IOError("io"); }
Status Propagates() {
  POLARMP_RETURN_IF_ERROR(Fails());
  return Status::OK();
}
StatusOr<int> Gives(int x) { return x; }
Status UsesAssign(int* out) {
  POLARMP_ASSIGN_OR_RETURN(*out, Gives(7));
  return Status::OK();
}

TEST(StatusMacrosTest, ReturnIfError) { EXPECT_FALSE(Propagates().ok()); }

TEST(StatusMacrosTest, AssignOrReturn) {
  int out = 0;
  ASSERT_TRUE(UsesAssign(&out).ok());
  EXPECT_EQ(out, 7);
}

TEST(SliceTest, CompareAndEquality) {
  Slice a("abc"), b("abd"), c("abc"), d("ab");
  EXPECT_LT(a.compare(b), 0);
  EXPECT_GT(b.compare(a), 0);
  EXPECT_EQ(a, c);
  EXPECT_NE(a, d);
  EXPECT_GT(a.compare(d), 0);
}

TEST(CodingTest, FixedRoundTrip) {
  std::string buf;
  PutFixed16(&buf, 0xBEEF);
  PutFixed32(&buf, 0xDEADBEEFu);
  PutFixed64(&buf, 0x0123456789ABCDEFull);
  EXPECT_EQ(DecodeFixed16(buf.data()), 0xBEEF);
  EXPECT_EQ(DecodeFixed32(buf.data() + 2), 0xDEADBEEFu);
  EXPECT_EQ(DecodeFixed64(buf.data() + 6), 0x0123456789ABCDEFull);
}

TEST(TypesTest, PageIdPackUnpack) {
  PageId id{0xABCD1234u, 0x5678u};
  EXPECT_EQ(PageId::Unpack(id.Pack()), id);
}

TEST(TypesTest, GTrxIdPacking) {
  const GTrxId g = MakeGTrxId(1023, 0x3FFFFF, 0xFFFFFFFFu);
  EXPECT_EQ(GTrxNode(g), 1023);
  EXPECT_EQ(GTrxSlot(g), 0x3FFFFFu);
  EXPECT_EQ(GTrxVersion(g), 0xFFFFFFFFu);
  const GTrxId g2 = MakeGTrxId(3, 17, 42);
  EXPECT_EQ(GTrxNode(g2), 3);
  EXPECT_EQ(GTrxSlot(g2), 17u);
  EXPECT_EQ(GTrxVersion(g2), 42u);
  EXPECT_NE(g2, kInvalidGTrxId);
}

TEST(TypesTest, LockModeConflicts) {
  EXPECT_FALSE(LockModesConflict(LockMode::kShared, LockMode::kShared));
  EXPECT_TRUE(LockModesConflict(LockMode::kShared, LockMode::kExclusive));
  EXPECT_TRUE(LockModesConflict(LockMode::kExclusive, LockMode::kExclusive));
}

TEST(HistogramTest, PercentilesAndMerge) {
  Histogram h;
  for (uint64_t i = 1; i <= 1000; ++i) h.Add(i * 1000);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.min(), 1000u);
  EXPECT_EQ(h.max(), 1000000u);
  EXPECT_NEAR(static_cast<double>(h.Percentile(50)), 500000.0, 70000.0);
  EXPECT_NEAR(static_cast<double>(h.Percentile(95)), 950000.0, 80000.0);
  Histogram h2;
  h2.Add(5);
  h2.Merge(h);
  EXPECT_EQ(h2.count(), 1001u);
  EXPECT_EQ(h2.min(), 5u);
}

TEST(HistogramTest, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.Percentile(99), 0u);
  EXPECT_EQ(h.Mean(), 0.0);
}

TEST(RandomTest, UniformBounds) {
  Random rng(123);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(100), 100u);
    const int64_t v = rng.UniformRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RandomTest, SeedsDiverge) {
  Random a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(ZipfTest, SkewsTowardHead) {
  ZipfGenerator zipf(10000, 0.99, 7);
  uint64_t head = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const uint64_t v = zipf.Next();
    EXPECT_LT(v, 10000u);
    if (v < 100) ++head;
  }
  // With theta=0.99 the top 1% of keys draw a large share of accesses.
  EXPECT_GT(head, static_cast<uint64_t>(n) / 4);
}

TEST(SimLatencyTest, ZeroProfileIsFree) {
  ResetSimDelayCounters();
  SimDelay(0);
  EXPECT_EQ(TotalSimDelayCount(), 0u);
}

TEST(SimLatencyTest, CountsAndScales) {
  ResetSimDelayCounters();
  SetSimTimeScale(1.0);
  SimDelay(1000);
  EXPECT_EQ(TotalSimDelayCount(), 1u);
  EXPECT_EQ(TotalSimDelayNanos(), 1000u);
  SetSimTimeScale(0.5);
  SimDelay(1000);
  EXPECT_EQ(TotalSimDelayNanos(), 1500u);
  SetSimTimeScale(1.0);
  ResetSimDelayCounters();
}

TEST(SimLatencyTest, DeferralHoldsBatchedDebtUntilTheScopeEnds) {
  SetSimTimeScale(1.0);
  // Top the account up to one batch so it is slept and starts empty.
  SimDelay(kSimBatchNanos - PendingSimDelayNanos());
  ASSERT_EQ(PendingSimDelayNanos(), 0u);
  ResetSimDelayCounters();

  constexpr uint64_t kSub = kSimBatchNanos / 3 + 1;
  static_assert(3 * kSub > kSimBatchNanos && kSub < kSimBatchNanos);
  BeginSimSleepDeferral();
  for (int i = 0; i < 3; ++i) SimDelay(kSub);
  EXPECT_EQ(PendingSimDelayNanos(), 3 * kSub);  // accrued, not slept
  SimDelay(kSimBatchNanos);  // the role's own latency sleeps at once
  EXPECT_EQ(PendingSimDelayNanos(), 3 * kSub);
  SetSimTimeScale(0.0);
  SimDelay(kSub);  // time scale 0 stays free inside the scope too
  SetSimTimeScale(1.0);
  EXPECT_EQ(PendingSimDelayNanos(), 3 * kSub);
  const uint64_t total = TotalSimDelayNanos();
  EXPECT_EQ(total, 3 * kSub + kSimBatchNanos);
  EndSimSleepDeferral();
  EXPECT_EQ(PendingSimDelayNanos(), 0u);  // settled
  EXPECT_EQ(TotalSimDelayNanos(), total);

  // Debt under one batch stays pending past the scope, as outside it.
  BeginSimSleepDeferral();
  SimDelay(kSub);
  EndSimSleepDeferral();
  EXPECT_EQ(PendingSimDelayNanos(), kSub);
  // And outside the scope the account is slept once it passes a batch.
  SimDelay(kSimBatchNanos);
  EXPECT_EQ(PendingSimDelayNanos(), 0u);
  EXPECT_EQ(TotalSimDelayNanos(), total + kSub + kSimBatchNanos);
  ResetSimDelayCounters();
}

}  // namespace
}  // namespace polarmp
