#ifndef POLARMP_WAL_LOG_RECORD_H_
#define POLARMP_WAL_LOG_RECORD_H_

#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "storage/log_store.h"

namespace polarmp {

class Page;

// Redo record catalogue. Records are page-scoped and physiological
// (ARIES-style, §4.4): replay applies a record to its page iff the page's
// LLSN stamp is older than the record's, which makes replay idempotent and
// lets logs from different nodes interleave freely except per page.
enum class LogRecordType : uint8_t {
  kInitPage = 1,      // format page: body = {level u8, prev u32, next u32}
  kWriteRow = 2,      // upsert serialized row: body = row image
  kRemoveRow = 3,     // physically remove row: body = key i64
  kSetPageLinks = 4,  // body = {prev u32, next u32}
  kUndoAppend = 5,    // rebuild undo store: aux = store offset, body = bytes
  kTrxCommit = 6,     // trx = g_trx_id, aux = CTS
  kTrxRollbackEnd = 7,  // trx = g_trx_id: rollback fully logged
  kLoadRows = 8,      // upsert a batch of row images (splits): body = images
  kTruncateRows = 9,  // drop rows with key >= aux-as-key (splits)
  kLlsnMark = 10,     // heartbeat carrying the node's current LLSN, so
                      // log consumers (standby, recovery) can advance the
                      // LLSN_bound past idle streams
};

struct LogRecord {
  LogRecordType type = LogRecordType::kInitPage;
  NodeId node = 0;       // generating node (undo-store owner for kUndoAppend)
  Llsn llsn = 0;         // 0 for pure-transaction records
  PageId page_id;        // page records only
  GTrxId trx = kInvalidGTrxId;  // transaction records only
  uint64_t aux = 0;      // CTS (kTrxCommit) or undo offset (kUndoAppend)
  std::string body;

  bool IsPageRecord() const {
    return type == LogRecordType::kInitPage ||
           type == LogRecordType::kWriteRow ||
           type == LogRecordType::kRemoveRow ||
           type == LogRecordType::kSetPageLinks ||
           type == LogRecordType::kLoadRows ||
           type == LogRecordType::kTruncateRows;
  }

  void AppendTo(std::string* dst) const;
  std::string Encode() const;

  // Parses one record from the front of `data`; sets *consumed to the bytes
  // used. Returns InvalidArgument if `data` holds less than one full record
  // (the caller then fetches a larger chunk).
  static StatusOr<LogRecord> Decode(std::string_view data, size_t* consumed);

  // Size this record will occupy in the stream.
  size_t EncodedSize() const;
};

// Convenience constructors for the common shapes.
LogRecord MakeInitPage(NodeId node, Llsn llsn, PageId page, uint8_t level,
                       PageNo prev, PageNo next);
LogRecord MakeWriteRow(NodeId node, Llsn llsn, PageId page,
                       std::string row_image);
LogRecord MakeRemoveRow(NodeId node, Llsn llsn, PageId page, int64_t key);
LogRecord MakeSetPageLinks(NodeId node, Llsn llsn, PageId page, PageNo prev,
                           PageNo next);
LogRecord MakeUndoAppend(NodeId node, Llsn llsn, uint64_t offset,
                         std::string bytes);
LogRecord MakeTrxCommit(NodeId node, GTrxId trx, Csn cts);
LogRecord MakeTrxRollbackEnd(NodeId node, GTrxId trx);
LogRecord MakeLoadRows(NodeId node, Llsn llsn, PageId page,
                       std::string images);
LogRecord MakeLlsnMark(NodeId node, Llsn llsn);
LogRecord MakeTruncateRows(NodeId node, Llsn llsn, PageId page,
                           int64_t from_key);

// Page redo, shared by crash recovery and the standby: applies page record
// `rec` to `page` and stamps the page with rec.llsn. A body too short for
// its type returns Corruption and leaves the page's LLSN unchanged. The
// caller decides whether the record is newer than the page.
Status ApplyPageRecord(const LogRecord& rec, Page* page);

// One node's redo stream as seen by the LLSN-bounded merge (§4.4). Crash
// recovery and the standby both read through it: recovery until every
// stream is done, the standby forever (it is a perpetually-recovering
// cluster).
struct LogStream {
  NodeId node = 0;
  Lsn next_read = 0;              // read cursor: next byte to fetch
  std::string tail;               // undecoded bytes after the last whole record
  std::deque<LogRecord> pending;  // decoded, not yet taken
  Llsn horizon = 0;               // max LLSN decoded so far
  // Nothing more will be read, so the stream no longer holds LLSN_bound
  // back. Recovery sets it at the log's end; the standby never does.
  bool done = false;

  // Reads one 1 MiB chunk at next_read (the paper's "only reads a chunk of
  // data from each file" batching) and decodes every whole record in tail +
  // chunk; a torn last record stays in `tail`. Returns the bytes read (0 at
  // the end of the stream).
  StatusOr<uint64_t> ReadChunk(const LogStore& store);
};
using LogStreams = std::map<NodeId, LogStream>;  // keyed by node

// LLSN_bound is the lowest horizon among streams not done: no unread record
// of those streams can undershoot it, since each stream is LLSN-monotone.
// Takes every record at or below the bound from the front of each stream
// (LLSN-0 transaction records always pass) and returns them stably sorted
// by LLSN, so same-page records from different nodes apply in generation
// order. Records above the bound stay pending.
std::vector<LogRecord> TakeBelowBound(LogStreams* streams);

}  // namespace polarmp

#endif  // POLARMP_WAL_LOG_RECORD_H_
