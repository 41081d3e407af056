#ifndef POLARMP_COMMON_TYPES_H_
#define POLARMP_COMMON_TYPES_H_

#include <cstdint>
#include <functional>
#include <string>

namespace polarmp {

// ---------------------------------------------------------------------------
// Cluster-wide identifier vocabulary.
// ---------------------------------------------------------------------------

using NodeId = uint16_t;   // primary node id, < kMaxNodes
using SpaceId = uint32_t;  // tablespace: one per table / index tree
using PageNo = uint32_t;   // page number within a space
using TableId = uint32_t;
using Lsn = uint64_t;      // node-local log sequence number (byte offset)
using Llsn = uint64_t;     // logical LSN: cluster-wide partial order (§4.4)
using Csn = uint64_t;      // commit sequence number / commit timestamp (CTS)
using TrxId = uint64_t;    // node-local transaction id

inline constexpr int kMaxNodes = 1024;

// CTS sentinel values (paper §4.1 / Algorithm 1).
inline constexpr Csn kCsnInit = 0;   // transaction not yet committed
inline constexpr Csn kCsnMin = 1;    // visible to every transaction
inline constexpr Csn kCsnMax = UINT64_MAX;  // visible to no one (active trx)

// First CTS the TSO hands out (must be > kCsnMin).
inline constexpr Csn kCsnFirst = 2;

// Provisional-CTS flag (bit 63), stored only in TIT slots. A committer
// publishes `cts | kCsnProvisionalBit` BEFORE its log force and finalizes
// the slot with a CTS fetched AFTER the force. A reader that observes the
// provisional bit therefore knows its view CTS predates the committer's
// final CTS, and resolves the transaction as active (kCsnMax) without
// waiting — closing the SI commit-publication lost-update window (DESIGN.md
// §6). The bit can never collide with a real timestamp: the TSO counts up
// from kCsnFirst and would need 2^63 commits to reach it, and neither
// kCsnInit nor row CTSes ever carry it.
inline constexpr Csn kCsnProvisionalBit = 1ull << 63;

inline constexpr bool CsnIsProvisional(Csn slot_cts) {
  return slot_cts != kCsnMax && (slot_cts & kCsnProvisionalBit) != 0;
}
inline constexpr Csn MakeProvisionalCsn(Csn cts) {
  return cts | kCsnProvisionalBit;
}

// ---------------------------------------------------------------------------
// PageId: (space, page_no) packed into 64 bits so the lock/buffer fusion
// tables key on a single integer.
// ---------------------------------------------------------------------------
struct PageId {
  SpaceId space = 0;
  PageNo page_no = 0;

  uint64_t Pack() const {
    return (static_cast<uint64_t>(space) << 32) | page_no;
  }
  static PageId Unpack(uint64_t v) {
    return PageId{static_cast<SpaceId>(v >> 32),
                  static_cast<PageNo>(v & 0xFFFFFFFFu)};
  }
  bool operator==(const PageId& o) const {
    return space == o.space && page_no == o.page_no;
  }
  std::string ToString() const {
    return std::to_string(space) + ":" + std::to_string(page_no);
  }
};

struct PageIdHash {
  size_t operator()(const PageId& id) const {
    return std::hash<uint64_t>()(id.Pack() * 0x9E3779B97F4A7C15ull);
  }
};

// ---------------------------------------------------------------------------
// Global transaction id (§4.1): identifies the owning node, the TIT slot and
// the slot's reuse version in one u64 that is stored in every row's metadata
// (and doubles as the embedded row-lock field, §4.3.2).
//
// Layout: node_id(10 bits) | tit_slot(22 bits) | version(32 bits).
// The node-local trx_id lives in the TIT slot itself; rows only need enough
// to address + validate the slot remotely.
// ---------------------------------------------------------------------------
using GTrxId = uint64_t;

inline constexpr GTrxId kInvalidGTrxId = 0;

inline constexpr GTrxId MakeGTrxId(NodeId node, uint32_t slot,
                                   uint32_t version) {
  return (static_cast<uint64_t>(node) << 54) |
         (static_cast<uint64_t>(slot & 0x3FFFFFu) << 32) |
         static_cast<uint64_t>(version);
}
inline constexpr NodeId GTrxNode(GTrxId id) {
  return static_cast<NodeId>(id >> 54);
}
inline constexpr uint32_t GTrxSlot(GTrxId id) {
  return static_cast<uint32_t>((id >> 32) & 0x3FFFFFu);
}
inline constexpr uint32_t GTrxVersion(GTrxId id) {
  return static_cast<uint32_t>(id & 0xFFFFFFFFu);
}

// ---------------------------------------------------------------------------
// Isolation levels supported by the transaction layer (§2.4, §5.1: the
// evaluation runs read committed; snapshot isolation is also implemented).
// ---------------------------------------------------------------------------
enum class IsolationLevel : uint8_t {
  kReadCommitted = 0,
  kSnapshotIsolation = 1,
};

// Lock modes shared by PLock and row-lock paths.
enum class LockMode : uint8_t { kShared = 0, kExclusive = 1 };

inline bool LockModesConflict(LockMode a, LockMode b) {
  return a == LockMode::kExclusive || b == LockMode::kExclusive;
}

}  // namespace polarmp

#endif  // POLARMP_COMMON_TYPES_H_
