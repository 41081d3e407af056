#ifndef POLARMP_COMMON_LOCK_RANK_H_
#define POLARMP_COMMON_LOCK_RANK_H_

#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#include "common/thread_annotations.h"

#if !defined(POLARMP_LOCK_RANK_CHECKS)
// CMake normally supplies this (option POLARMP_LOCK_RANK_CHECKS, default ON);
// standalone inclusion gets checks unless NDEBUG says otherwise.
#ifdef NDEBUG
#define POLARMP_LOCK_RANK_CHECKS 0
#else
#define POLARMP_LOCK_RANK_CHECKS 1
#endif
#endif

#if POLARMP_LOCK_RANK_CHECKS
#include <cstdio>
#include <cstdlib>
#if defined(__GLIBC__) || defined(__linux__)
#include <execinfo.h>
#define POLARMP_LOCK_RANK_HAS_BACKTRACE 1
#else
#define POLARMP_LOCK_RANK_HAS_BACKTRACE 0
#endif
#endif

namespace polarmp {

// Global latch order. Every mutex in the tree is a RankedMutex (or
// RankedSharedMutex) carrying one of these ranks; a thread may acquire a
// mutex only if its rank is STRICTLY LOWER than the rank of every mutex the
// thread already holds (equal ranks are allowed only for ranks explicitly
// marked same-rank reentrant, e.g. page latches during B-tree crabbing).
// Acquisition therefore always descends: outermost structures carry the
// highest numbers, the fabric and the observability registry the lowest.
//
// The derivation of this order from the code's real acquisition DAG — and
// why the log writer sits BELOW the page latches even though the issue that
// introduced ranking sketched it above them — is documented in DESIGN.md
// ("Static analysis & lock ranking"). Do not renumber casually: polarlint
// enforces that every mutex declares a rank, and the runtime checker aborts
// on the first inversion it sees.
enum class LockRank : unsigned {
  // ---- innermost: observability (recordable while holding anything) ----
  kObsHistogram = 10,  // obs::LatencyHistogram shard
  kObsRegistry = 20,   // obs::MetricsRegistry family map (merges shards)

  // ---- fabric / DSM / storage tiers ----
  kFabric = 30,      // Fabric region table
  kRpc = 35,         // Rpc handler registry (resolves liveness via kFabric)
  kDsm = 40,         // Dsm bump allocator
  kStorage = 50,     // PageStore / LogStore maps
  kUndoSegment = 60, // UndoStore per-segment append lock
  kUndoTable = 65,   // UndoStore segment map

  // ---- PMFS services ----
  kPmfsService = 70, // LockFusion / TransactionFusion / BufferFusion / TSO
  kPmfsFlusher = 75, // BufferFusion flusher lifecycle
  kTit = 80,         // TIT table map

  // ---- node engine ----
  kCacheSlot = 82,    // IndexCache per-slot latch (taken under kIndexCache;
                      // shields slot bytes during routes and refreshes)
  kIndexCache = 85,   // IndexCache indirection table (may call into
                      // BufferFusion (kPmfsService) while held, hence above
                      // it; taken under page latches during installs, hence
                      // below kPageLatch)
  kPlock = 90,        // PLockManager entry table
  kBufferPool = 100,  // LBP frame table
  kFutureState = 105, // StatusFuture shared state (completed/awaited with
                      // no other locks held; below kLogWriter so a force
                      // completion can never invert against the buffer)
  kLogWriter = 110,   // redo log buffer
  kLogFlusher = 115,  // group-commit flusher queue (held while claiming the
                      // kLogWriter buffer, hence strictly above it)
  kLlsnOrder = 120,   // LLSN-assignment/append atomicity
  kCommitGate = 130,  // mtr-commit vs checkpoint-snapshot gate
  kPageLatch = 140,   // per-frame page latch (same-rank: crabbing holds
                      // several at once; see DESIGN.md on why this is safe)
  kTrxManager = 150,  // active-transaction table

  // ---- node/cluster control plane ----
  kCatalog = 160,
  kNodeTrees = 165,
  kNodeBackground = 170,
  kStandby = 175,
  kStandbyStop = 178,

  // ---- baseline cost models (disjoint subsystem) ----
  kSimLockTable = 183,
  kSimLogDevice = 184,  // baseline group-commit log device queue
  kSimStore = 185,
  kBaselineNode = 190,  // per-node caches / metadata in the MM baselines

  // ---- test-only ranks (outermost; free for harness scaffolding) ----
  kTestLow = 200,
  kTestMid = 210,
  kTestHigh = 220,
};

// Ranks whose mutexes may be held several at a time by one thread (page
// latches during descent/crabbing). Deadlock freedom among same-rank holds
// comes from a structural discipline the rank checker cannot model (the
// B-tree's top-down, left-right descent), which is also why TSan runs with
// detect_deadlocks=0 — see scripts/check.sh.
enum class SameRank : bool { kForbid = false, kAllow = true };

namespace lock_rank_internal {

struct Held {
  const void* mu;
  LockRank rank;
  const char* name;
  bool allow_same;
};

inline constexpr int kMaxHeld = 32;

struct HeldStack {
  Held entries[kMaxHeld];
  int depth = 0;
};

inline HeldStack& TlsStack() {
  thread_local HeldStack stack;
  return stack;
}

#if POLARMP_LOCK_RANK_CHECKS
[[noreturn]] inline void Die(const HeldStack& held, LockRank rank,
                             const char* name, const char* why) {
  std::fprintf(stderr,
               "\n==== polarmp lock-rank violation ====\n"
               "%s while acquiring '%s' (rank %u)\n"
               "locks held by this thread (outermost first):\n",
               why, name, static_cast<unsigned>(rank));
  for (int i = 0; i < held.depth; ++i) {
    std::fprintf(stderr, "  #%d  '%s' (rank %u)\n", i, held.entries[i].name,
                 static_cast<unsigned>(held.entries[i].rank));
  }
#if POLARMP_LOCK_RANK_HAS_BACKTRACE
  std::fprintf(stderr, "acquisition stack:\n");
  void* frames[32];
  const int n = backtrace(frames, 32);
  backtrace_symbols_fd(frames, n, /*stderr*/ 2);
#endif
  std::fprintf(stderr, "=====================================\n");
  std::fflush(stderr);
  std::abort();
}
#endif

inline void NoteAcquire(const void* mu, LockRank rank, const char* name,
                        bool allow_same) {
#if POLARMP_LOCK_RANK_CHECKS
  HeldStack& s = TlsStack();
  for (int i = 0; i < s.depth; ++i) {
    const Held& h = s.entries[i];
    if (h.mu == mu) {
      Die(s, rank, name, "recursive acquisition of the same mutex");
    }
    if (rank > h.rank) {
      Die(s, rank, name, "rank inversion (acquiring a higher rank)");
    }
    if (rank == h.rank && !(allow_same && h.allow_same)) {
      Die(s, rank, name, "same-rank acquisition without a same-rank policy");
    }
  }
  if (s.depth >= kMaxHeld) {
    Die(s, rank, name, "lock-rank stack overflow");
  }
  s.entries[s.depth++] = Held{mu, rank, name, allow_same};
#else
  (void)mu;
  (void)rank;
  (void)name;
  (void)allow_same;
#endif
}

inline bool IsHeld(const void* mu) {
#if POLARMP_LOCK_RANK_CHECKS
  const HeldStack& s = TlsStack();
  for (int i = 0; i < s.depth; ++i) {
    if (s.entries[i].mu == mu) return true;
  }
  return false;
#else
  (void)mu;
  return true;  // checks compiled out: AssertHeld() degrades to a no-op
#endif
}

#if POLARMP_LOCK_RANK_CHECKS
[[noreturn]] inline void DieNotHeld(const char* name) {
  std::fprintf(stderr,
               "==== polarmp lock-rank violation ====\n"
               "AssertHeld: '%s' is not held by this thread\n",
               name);
  std::fflush(stderr);
  std::abort();
}
#endif

inline void NoteRelease(const void* mu) {
#if POLARMP_LOCK_RANK_CHECKS
  HeldStack& s = TlsStack();
  // Releases are not always LIFO (scoped locks interleave); drop the most
  // recent entry for this mutex.
  for (int i = s.depth - 1; i >= 0; --i) {
    if (s.entries[i].mu == mu) {
      for (int j = i; j + 1 < s.depth; ++j) s.entries[j] = s.entries[j + 1];
      --s.depth;
      return;
    }
  }
  std::fprintf(stderr,
               "==== polarmp lock-rank violation ====\n"
               "release of a mutex this thread does not hold\n");
  std::fflush(stderr);
  std::abort();
#else
  (void)mu;
#endif
}

}  // namespace lock_rank_internal

// std::mutex with a declared place in the global latch order. A Clang
// `capability` for the static thread-safety analysis, and still a
// BasicLockable, so CondVar (condition_variable_any) can wait on it
// directly — waits release and re-acquire through the wrapper, keeping the
// held-rank stack exact across blocks.
class CAPABILITY("mutex") RankedMutex {
 public:
  explicit RankedMutex(LockRank rank, const char* name,
                       SameRank same = SameRank::kForbid)
      : rank_(rank), name_(name), allow_same_(same == SameRank::kAllow) {}

  RankedMutex(const RankedMutex&) = delete;
  RankedMutex& operator=(const RankedMutex&) = delete;

  void lock() ACQUIRE() {
    lock_rank_internal::NoteAcquire(this, rank_, name_, allow_same_);
    mu_.lock();
  }
  bool try_lock() TRY_ACQUIRE(true) {
    lock_rank_internal::NoteAcquire(this, rank_, name_, allow_same_);
    if (mu_.try_lock()) return true;
    lock_rank_internal::NoteRelease(this);
    return false;
  }
  void unlock() RELEASE() {
    mu_.unlock();
    lock_rank_internal::NoteRelease(this);
  }

  // Runtime check (via the thread-local held stack) plus a static assertion
  // teaching the analysis that this mutex is held — the primitive for latch
  // handoffs the analysis cannot follow lexically (crabbing, frame caches).
  void AssertHeld() const ASSERT_CAPABILITY(this) {
#if POLARMP_LOCK_RANK_CHECKS
    if (!lock_rank_internal::IsHeld(this)) {
      lock_rank_internal::DieNotHeld(name_);
    }
#endif
  }

  LockRank rank() const { return rank_; }
  const char* name() const { return name_; }

 private:
  std::mutex mu_;
  const LockRank rank_;
  const char* const name_;
  const bool allow_same_;
};

// std::shared_mutex with a declared rank. Shared and exclusive acquisitions
// count identically against the order (a shared hold still forbids
// acquiring higher-ranked mutexes).
class CAPABILITY("shared_mutex") RankedSharedMutex {
 public:
  explicit RankedSharedMutex(LockRank rank, const char* name,
                             SameRank same = SameRank::kForbid)
      : rank_(rank), name_(name), allow_same_(same == SameRank::kAllow) {}

  RankedSharedMutex(const RankedSharedMutex&) = delete;
  RankedSharedMutex& operator=(const RankedSharedMutex&) = delete;

  void lock() ACQUIRE() {
    lock_rank_internal::NoteAcquire(this, rank_, name_, allow_same_);
    mu_.lock();
  }
  bool try_lock() TRY_ACQUIRE(true) {
    lock_rank_internal::NoteAcquire(this, rank_, name_, allow_same_);
    if (mu_.try_lock()) return true;
    lock_rank_internal::NoteRelease(this);
    return false;
  }
  void unlock() RELEASE() {
    mu_.unlock();
    lock_rank_internal::NoteRelease(this);
  }

  void lock_shared() ACQUIRE_SHARED() {
    lock_rank_internal::NoteAcquire(this, rank_, name_, allow_same_);
    mu_.lock_shared();
  }
  bool try_lock_shared() TRY_ACQUIRE_SHARED(true) {
    lock_rank_internal::NoteAcquire(this, rank_, name_, allow_same_);
    if (mu_.try_lock_shared()) return true;
    lock_rank_internal::NoteRelease(this);
    return false;
  }
  void unlock_shared() RELEASE_SHARED() {
    mu_.unlock_shared();
    lock_rank_internal::NoteRelease(this);
  }

  // Exclusive-hold assertion. The rank stack does not distinguish shared
  // from exclusive holds, so the runtime side checks "held at all"; the
  // static side asserts the exclusive capability.
  void AssertHeld() const ASSERT_CAPABILITY(this) {
#if POLARMP_LOCK_RANK_CHECKS
    if (!lock_rank_internal::IsHeld(this)) {
      lock_rank_internal::DieNotHeld(name_);
    }
#endif
  }

  // Any-mode assertion: the crabbing handoff primitive for readers.
  void AssertAnyHeld() const ASSERT_SHARED_CAPABILITY(this) {
#if POLARMP_LOCK_RANK_CHECKS
    if (!lock_rank_internal::IsHeld(this)) {
      lock_rank_internal::DieNotHeld(name_);
    }
#endif
  }

  LockRank rank() const { return rank_; }
  const char* name() const { return name_; }

 private:
  std::shared_mutex mu_;
  const LockRank rank_;
  const char* const name_;
  const bool allow_same_;
};

// Condition variable usable with RankedMutex (waits release and re-acquire
// through the wrapper, so the held-rank stack stays exact across blocks).
// Inside a REQUIRES(mu) helper, wait on the mutex itself — `cv.wait(mu)` —
// so the analysis's view (mutex held on entry and exit) matches the code;
// at top level, wait on the UniqueLock guard.
using CondVar = std::condition_variable_any;

// RAII guards over the ranked mutexes. These replace std::lock_guard /
// std::unique_lock / std::shared_lock in annotated code: the libstdc++
// guards carry no capability attributes, so locks taken through them are
// invisible to the analysis. SCOPED_CAPABILITY makes acquisition and
// release lexical facts the analysis can discharge.

// lock_guard-style: exclusive, held for the full scope.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(RankedMutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;
  ~MutexLock() RELEASE() { mu_.unlock(); }

 private:
  RankedMutex& mu_;
};

// unique_lock-style: exclusive, relockable (CondVar waits, and top-level
// code that opens an unlocked window mid-scope). `*Locked()` helpers that
// drop and retake the lock internally operate on the RankedMutex directly
// under a REQUIRES contract instead of taking one of these by reference —
// scoped objects passed by reference are opaque to the analysis.
class SCOPED_CAPABILITY UniqueLock {
 public:
  explicit UniqueLock(RankedMutex& mu) ACQUIRE(mu) : mu_(mu), owned_(true) {
    mu_.lock();
  }
  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;
  ~UniqueLock() RELEASE() {
    if (owned_) mu_.unlock();
  }

  void lock() ACQUIRE() {
    mu_.lock();
    owned_ = true;
  }
  void unlock() RELEASE() {
    owned_ = false;
    mu_.unlock();
  }
  bool owns_lock() const { return owned_; }

 private:
  RankedMutex& mu_;
  bool owned_;
};

// shared_lock-style: shared mode, held for the full scope.
class SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(RankedSharedMutex& mu) ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.lock_shared();
  }
  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;
  ~ReaderLock() RELEASE() { mu_.unlock_shared(); }

 private:
  RankedSharedMutex& mu_;
};

// lock_guard-style over a RankedSharedMutex: exclusive mode.
class SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(RankedSharedMutex& mu) ACQUIRE(mu) : mu_(mu) {
    mu_.lock();
  }
  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;
  ~WriterLock() RELEASE() { mu_.unlock(); }

 private:
  RankedSharedMutex& mu_;
};

}  // namespace polarmp

#endif  // POLARMP_COMMON_LOCK_RANK_H_
