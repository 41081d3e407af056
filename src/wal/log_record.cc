#include "wal/log_record.h"

#include <algorithm>

#include "common/coding.h"
#include "engine/page.h"

namespace polarmp {

namespace {
// type(1) + node(2) + llsn(8) + page(8) + trx(8) + aux(8) + body_len(4)
constexpr size_t kHeaderSize = 39;
constexpr uint64_t kLogChunkBytes = 1 << 20;  // LogStream::ReadChunk
}  // namespace

size_t LogRecord::EncodedSize() const { return kHeaderSize + body.size(); }

void LogRecord::AppendTo(std::string* dst) const {
  dst->push_back(static_cast<char>(type));
  PutFixed16(dst, node);
  PutFixed64(dst, llsn);
  PutFixed64(dst, page_id.Pack());
  PutFixed64(dst, trx);
  PutFixed64(dst, aux);
  PutFixed32(dst, static_cast<uint32_t>(body.size()));
  dst->append(body);
}

std::string LogRecord::Encode() const {
  std::string out;
  out.reserve(EncodedSize());
  AppendTo(&out);
  return out;
}

StatusOr<LogRecord> LogRecord::Decode(std::string_view data,
                                      size_t* consumed) {
  if (data.size() < kHeaderSize) {
    return Status::InvalidArgument("short log header");
  }
  LogRecord rec;
  const char* p = data.data();
  rec.type = static_cast<LogRecordType>(static_cast<uint8_t>(p[0]));
  rec.node = DecodeFixed16(p + 1);
  rec.llsn = DecodeFixed64(p + 3);
  rec.page_id = PageId::Unpack(DecodeFixed64(p + 11));
  rec.trx = DecodeFixed64(p + 19);
  rec.aux = DecodeFixed64(p + 27);
  const uint32_t body_len = DecodeFixed32(p + 35);
  if (data.size() < kHeaderSize + body_len) {
    return Status::InvalidArgument("short log body");
  }
  rec.body.assign(p + kHeaderSize, body_len);
  *consumed = kHeaderSize + body_len;
  return rec;
}

LogRecord MakeInitPage(NodeId node, Llsn llsn, PageId page, uint8_t level,
                       PageNo prev, PageNo next) {
  LogRecord rec;
  rec.type = LogRecordType::kInitPage;
  rec.node = node;
  rec.llsn = llsn;
  rec.page_id = page;
  rec.body.push_back(static_cast<char>(level));
  PutFixed32(&rec.body, prev);
  PutFixed32(&rec.body, next);
  return rec;
}

LogRecord MakeWriteRow(NodeId node, Llsn llsn, PageId page,
                       std::string row_image) {
  LogRecord rec;
  rec.type = LogRecordType::kWriteRow;
  rec.node = node;
  rec.llsn = llsn;
  rec.page_id = page;
  rec.body = std::move(row_image);
  return rec;
}

LogRecord MakeRemoveRow(NodeId node, Llsn llsn, PageId page, int64_t key) {
  LogRecord rec;
  rec.type = LogRecordType::kRemoveRow;
  rec.node = node;
  rec.llsn = llsn;
  rec.page_id = page;
  PutFixed64(&rec.body, static_cast<uint64_t>(key));
  return rec;
}

LogRecord MakeSetPageLinks(NodeId node, Llsn llsn, PageId page, PageNo prev,
                           PageNo next) {
  LogRecord rec;
  rec.type = LogRecordType::kSetPageLinks;
  rec.node = node;
  rec.llsn = llsn;
  rec.page_id = page;
  PutFixed32(&rec.body, prev);
  PutFixed32(&rec.body, next);
  return rec;
}

LogRecord MakeUndoAppend(NodeId node, Llsn llsn, uint64_t offset,
                         std::string bytes) {
  LogRecord rec;
  rec.type = LogRecordType::kUndoAppend;
  rec.node = node;
  rec.llsn = llsn;
  rec.aux = offset;
  rec.body = std::move(bytes);
  return rec;
}

LogRecord MakeTrxCommit(NodeId node, GTrxId trx, Csn cts) {
  LogRecord rec;
  rec.type = LogRecordType::kTrxCommit;
  rec.node = node;
  rec.trx = trx;
  rec.aux = cts;
  return rec;
}

LogRecord MakeTrxRollbackEnd(NodeId node, GTrxId trx) {
  LogRecord rec;
  rec.type = LogRecordType::kTrxRollbackEnd;
  rec.node = node;
  rec.trx = trx;
  return rec;
}

LogRecord MakeLoadRows(NodeId node, Llsn llsn, PageId page,
                       std::string images) {
  LogRecord rec;
  rec.type = LogRecordType::kLoadRows;
  rec.node = node;
  rec.llsn = llsn;
  rec.page_id = page;
  rec.body = std::move(images);
  return rec;
}

LogRecord MakeLlsnMark(NodeId node, Llsn llsn) {
  LogRecord rec;
  rec.type = LogRecordType::kLlsnMark;
  rec.node = node;
  rec.llsn = llsn;
  return rec;
}

LogRecord MakeTruncateRows(NodeId node, Llsn llsn, PageId page,
                           int64_t from_key) {
  LogRecord rec;
  rec.type = LogRecordType::kTruncateRows;
  rec.node = node;
  rec.llsn = llsn;
  rec.page_id = page;
  rec.aux = static_cast<uint64_t>(from_key);
  return rec;
}

Status ApplyPageRecord(const LogRecord& rec, Page* page) {
  switch (rec.type) {
    case LogRecordType::kInitPage:
      if (rec.body.size() < 9) return Status::Corruption("bad kInitPage");
      page->Init(rec.page_id, static_cast<uint8_t>(rec.body[0]),
                 DecodeFixed32(rec.body.data() + 1),
                 DecodeFixed32(rec.body.data() + 5));
      break;
    case LogRecordType::kWriteRow:
      POLARMP_RETURN_IF_ERROR(page->WriteRow(rec.body));
      break;
    case LogRecordType::kRemoveRow: {
      if (rec.body.size() < 8) return Status::Corruption("bad kRemoveRow");
      const Status s =
          page->RemoveRow(static_cast<int64_t>(DecodeFixed64(rec.body.data())));
      if (!s.ok() && !s.IsNotFound()) return s;
      break;
    }
    case LogRecordType::kSetPageLinks:
      if (rec.body.size() < 8) return Status::Corruption("bad kSetPageLinks");
      page->set_links(DecodeFixed32(rec.body.data()),
                      DecodeFixed32(rec.body.data() + 4));
      break;
    case LogRecordType::kLoadRows:
      POLARMP_RETURN_IF_ERROR(page->LoadRows(rec.body));
      break;
    case LogRecordType::kTruncateRows:
      page->TruncateFromKey(static_cast<int64_t>(rec.aux));
      break;
    default:
      return Status::Corruption("not a page record");
  }
  page->set_llsn(rec.llsn);
  return Status::OK();
}

StatusOr<uint64_t> LogStream::ReadChunk(const LogStore& store) {
  std::string chunk;
  POLARMP_RETURN_IF_ERROR(
      store.ReadAt(node, next_read, kLogChunkBytes, &chunk));
  next_read += chunk.size();
  tail += chunk;
  size_t pos = 0;
  while (pos < tail.size()) {
    size_t consumed = 0;
    auto rec = LogRecord::Decode(std::string_view(tail).substr(pos), &consumed);
    if (!rec.ok()) break;  // torn last record; a later chunk completes it
    horizon = std::max(horizon, rec.value().llsn);
    pending.push_back(std::move(rec).value());
    pos += consumed;
  }
  tail.erase(0, pos);
  return static_cast<uint64_t>(chunk.size());
}

std::vector<LogRecord> TakeBelowBound(LogStreams* streams) {
  Llsn bound = UINT64_MAX;
  for (const auto& [node, s] : *streams) {
    if (!s.done) bound = std::min(bound, s.horizon);
  }
  std::vector<LogRecord> batch;
  for (auto& [node, s] : *streams) {
    // An LLSN-0 (transaction) record is below any bound.
    while (!s.pending.empty() && s.pending.front().llsn <= bound) {
      batch.push_back(std::move(s.pending.front()));
      s.pending.pop_front();
    }
  }
  std::stable_sort(batch.begin(), batch.end(),
                   [](const LogRecord& a, const LogRecord& b) {
                     return a.llsn < b.llsn;
                   });
  return batch;
}

}  // namespace polarmp
