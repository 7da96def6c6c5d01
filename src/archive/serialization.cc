#include "archive/serialization.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <optional>
#include <thread>

#include <unistd.h>

#include "archive/compress.h"
#include "common/crc32.h"
#include "common/fault_injection.h"
#include "common/strings.h"
#include "io/file_util.h"

namespace exstream {

namespace {

constexpr uint32_t kMagicV1 = 0x45585331;  // "EXS1"
constexpr uint32_t kMagicV2 = 0x45585332;  // "EXS2"
constexpr uint32_t kMagicV3 = 0x45585333;  // "EXS3"
constexpr uint32_t kMagicV4 = 0x45585334;  // "EXS4"

// Smallest possible event record: i64 ts + u32 type + u16 value count.
constexpr size_t kMinEventBytes = sizeof(int64_t) + sizeof(uint32_t) + sizeof(uint16_t);

void PutU8(std::string* out, uint8_t v) { out->push_back(static_cast<char>(v)); }

template <typename T>
void PutPod(std::string* out, T v) {
  char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  out->append(buf, sizeof(T));
}

template <typename T>
void PutPodVector(std::string* out, const std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  out->append(reinterpret_cast<const char*>(v.data()), v.size() * sizeof(T));
}

class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  template <typename T>
  Result<T> Get() {
    if (pos_ + sizeof(T) > data_.size()) {
      return Status::Truncated(
          StrFormat("event buffer ends at offset %zu (need %zu more bytes, %zu left)",
                    pos_, sizeof(T), data_.size() - pos_));
    }
    T v;
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  Result<std::string> GetBytes(size_t n) {
    if (pos_ + n > data_.size()) {
      return Status::Truncated(
          StrFormat("string payload at offset %zu needs %zu bytes, %zu left", pos_,
                    n, data_.size() - pos_));
    }
    std::string s(data_.substr(pos_, n));
    pos_ += n;
    return s;
  }

  Result<std::string_view> GetView(size_t n) {
    if (pos_ + n > data_.size()) {
      return Status::Truncated(
          StrFormat("block at offset %zu needs %zu bytes, %zu left", pos_, n,
                    data_.size() - pos_));
    }
    std::string_view v = data_.substr(pos_, n);
    pos_ += n;
    return v;
  }

  /// Bulk-reads `n` trivially copyable elements into `out`.
  template <typename T>
  Status GetPodVector(size_t n, std::vector<T>* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    EXSTREAM_ASSIGN_OR_RETURN(const std::string_view bytes, GetView(n * sizeof(T)));
    out->resize(n);
    // An empty vector's data() may be null, which memcpy must not receive.
    if (n != 0) std::memcpy(out->data(), bytes.data(), bytes.size());
    return Status::OK();
  }

  size_t pos() const { return pos_; }
  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

// Parses the per-event row payload shared by v1 and v2. `r` is positioned at
// the first event record.
Result<std::vector<Event>> ParseEventPayload(Reader* r, uint32_t count) {
  // A corrupt count must not drive a multi-GB reserve: every event occupies
  // at least kMinEventBytes, so a count the remaining bytes cannot hold is
  // corruption, detected before any allocation.
  if (static_cast<uint64_t>(count) * kMinEventBytes > r->remaining()) {
    return Status::Corruption(
        StrFormat("header count %u needs at least %llu bytes but %zu remain at offset %zu",
                  count, static_cast<unsigned long long>(count) * kMinEventBytes,
                  r->remaining(), r->pos()));
  }
  std::vector<Event> events;
  events.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    Event e;
    EXSTREAM_ASSIGN_OR_RETURN(e.ts, r->Get<int64_t>());
    EXSTREAM_ASSIGN_OR_RETURN(e.type, r->Get<uint32_t>());
    EXSTREAM_ASSIGN_OR_RETURN(const uint16_t nvals, r->Get<uint16_t>());
    e.values.reserve(nvals);
    for (uint16_t j = 0; j < nvals; ++j) {
      EXSTREAM_ASSIGN_OR_RETURN(const uint8_t tag, r->Get<uint8_t>());
      switch (static_cast<ValueType>(tag)) {
        case ValueType::kInt64: {
          EXSTREAM_ASSIGN_OR_RETURN(const int64_t v, r->Get<int64_t>());
          e.values.emplace_back(v);
          break;
        }
        case ValueType::kDouble: {
          EXSTREAM_ASSIGN_OR_RETURN(const double v, r->Get<double>());
          e.values.emplace_back(v);
          break;
        }
        case ValueType::kString: {
          EXSTREAM_ASSIGN_OR_RETURN(const uint32_t len, r->Get<uint32_t>());
          EXSTREAM_ASSIGN_OR_RETURN(std::string s, r->GetBytes(len));
          e.values.emplace_back(std::move(s));
          break;
        }
        default:
          return Status::Corruption(
              StrFormat("bad value tag %u at offset %zu", tag, r->pos() - 1));
      }
    }
    events.push_back(std::move(e));
  }
  if (!r->AtEnd()) {
    return Status::Corruption(
        StrFormat("%zu trailing bytes after %u events at offset %zu", r->remaining(),
                  count, r->pos()));
  }
  return events;
}

template <typename T>
inline void StorePod(char** p, T v) {
  std::memcpy(*p, &v, sizeof(T));
  *p += sizeof(T);
}

std::string SerializeRowPayload(const std::vector<Event>& events, SpillFormat format) {
  // Row serialization is on the WAL's per-batch hot path, so the exact size
  // is computed up front and the payload written with raw stores into one
  // allocation — the incremental-append version spent most of its time in
  // per-value append bookkeeping. The byte layout is unchanged.
  const bool v2 = format == SpillFormat::kV2;
  size_t size = 2 * sizeof(uint32_t) + (v2 ? sizeof(uint32_t) : 0);
  for (const Event& e : events) {
    size += sizeof(int64_t) + sizeof(uint32_t) + sizeof(uint16_t);
    for (const Value& v : e.values) {
      size += 1;
      switch (v.type()) {
        case ValueType::kInt64:
        case ValueType::kDouble:
          size += 8;
          break;
        case ValueType::kString:
          size += sizeof(uint32_t) + v.AsString().size();
          break;
      }
    }
  }
  std::string out;
  out.resize(size);
  char* p = out.data();
  StorePod<uint32_t>(&p, v2 ? kMagicV2 : kMagicV1);
  StorePod<uint32_t>(&p, static_cast<uint32_t>(events.size()));
  char* crc_pos = p;
  if (v2) StorePod<uint32_t>(&p, 0);  // checksum placeholder, patched below
  const char* payload_pos = p;
  for (const Event& e : events) {
    StorePod<int64_t>(&p, e.ts);
    StorePod<uint32_t>(&p, e.type);
    StorePod<uint16_t>(&p, static_cast<uint16_t>(e.values.size()));
    for (const Value& v : e.values) {
      *p++ = static_cast<char>(v.type());
      switch (v.type()) {
        case ValueType::kInt64:
          StorePod<int64_t>(&p, v.AsInt64());
          break;
        case ValueType::kDouble:
          StorePod<double>(&p, v.AsDouble());
          break;
        case ValueType::kString: {
          const std::string& s = v.AsString();
          StorePod<uint32_t>(&p, static_cast<uint32_t>(s.size()));
          std::memcpy(p, s.data(), s.size());
          p += s.size();
          break;
        }
      }
    }
  }
  if (v2) {
    const uint32_t crc =
        Crc32(payload_pos, static_cast<size_t>(p - payload_pos));
    std::memcpy(crc_pos, &crc, sizeof(crc));
  }
  return out;
}

// Appends one length-prefixed, CRC-protected block: u32 len, u32 crc, bytes.
void PutBlock(std::string* out, const std::string& payload) {
  PutPod<uint32_t>(out, static_cast<uint32_t>(payload.size()));
  PutPod<uint32_t>(out, Crc32(payload.data(), payload.size()));
  out->append(payload);
}

// Reads one block, verifying its CRC. `what` names the block in errors.
Result<std::string_view> GetBlock(Reader* r, const char* what) {
  EXSTREAM_ASSIGN_OR_RETURN(const uint32_t len, r->Get<uint32_t>());
  if (len > r->remaining()) {
    return Status::Truncated(
        StrFormat("%s block at offset %zu declares %u bytes, %zu left", what,
                  r->pos(), len, r->remaining() >= 4 ? r->remaining() - 4 : 0));
  }
  EXSTREAM_ASSIGN_OR_RETURN(const uint32_t stored_crc, r->Get<uint32_t>());
  EXSTREAM_ASSIGN_OR_RETURN(const std::string_view payload, r->GetView(len));
  const uint32_t computed = Crc32(payload.data(), payload.size());
  if (computed != stored_crc) {
    return Status::Corruption(
        StrFormat("%s column checksum mismatch: stored 0x%08x, computed 0x%08x "
                  "over %u bytes",
                  what, stored_crc, computed, len));
  }
  return payload;
}

std::string SerializeColumnarPayload(const ChunkColumns& columns) {
  std::string out;
  PutPod<uint32_t>(&out, kMagicV3);
  PutPod<uint32_t>(&out, static_cast<uint32_t>(columns.rows()));
  PutPod<uint32_t>(&out, columns.type());
  PutPod<uint16_t>(&out, static_cast<uint16_t>(columns.num_columns()));

  std::string block;
  PutPodVector(&block, columns.ts());
  PutBlock(&out, block);

  for (const AttributeColumn& col : columns.attrs()) {
    block.clear();
    PutU8(&block, static_cast<uint8_t>(col.declared));
    PutPodVector(&block, col.tags);
    PutPod<uint32_t>(&block, static_cast<uint32_t>(col.ints.size()));
    PutPodVector(&block, col.ints);
    // Dense doubles: the double-tagged rows' numeric view, in row order.
    std::vector<double> dbls;
    for (size_t i = 0; i < col.tags.size(); ++i) {
      if (col.tags[i] == static_cast<uint8_t>(ValueType::kDouble)) {
        dbls.push_back(col.nums[i]);
      }
    }
    PutPod<uint32_t>(&block, static_cast<uint32_t>(dbls.size()));
    PutPodVector(&block, dbls);
    PutPod<uint32_t>(&block, static_cast<uint32_t>(col.str_ids.size()));
    PutPodVector(&block, col.str_ids);
    PutPod<uint32_t>(&block, static_cast<uint32_t>(col.dict.size()));
    for (const std::string& s : col.dict) {
      PutPod<uint32_t>(&block, static_cast<uint32_t>(s.size()));
      block.append(s);
    }
    PutBlock(&out, block);
  }
  return out;
}

// Rebuilds the per-row numeric view from the dense vectors and cross-checks
// the tag census — shared by the v3 and v4 column decoders, so both formats
// reject blocks whose dense vectors disagree with their tags.
Status FinalizeAttributeColumn(AttributeColumn* col, const std::vector<double>& dbls,
                               size_t rows, size_t col_index) {
  col->nums.reserve(rows);
  size_t int_cursor = 0;
  size_t dbl_cursor = 0;
  size_t str_cursor = 0;
  for (size_t i = 0; i < rows; ++i) {
    switch (col->tags[i]) {
      case static_cast<uint8_t>(ValueType::kInt64):
        if (int_cursor >= col->ints.size()) {
          return Status::Corruption(
              StrFormat("column %zu: tag census exceeds %zu stored ints",
                        col_index, col->ints.size()));
        }
        col->nums.push_back(static_cast<double>(col->ints[int_cursor++]));
        break;
      case static_cast<uint8_t>(ValueType::kDouble):
        if (dbl_cursor >= dbls.size()) {
          return Status::Corruption(
              StrFormat("column %zu: tag census exceeds %zu stored doubles",
                        col_index, dbls.size()));
        }
        col->nums.push_back(dbls[dbl_cursor++]);
        break;
      case static_cast<uint8_t>(ValueType::kString):
        if (str_cursor >= col->str_ids.size()) {
          return Status::Corruption(
              StrFormat("column %zu: tag census exceeds %zu stored strings",
                        col_index, col->str_ids.size()));
        }
        if (col->str_ids[str_cursor] >= col->dict.size()) {
          return Status::Corruption(
              StrFormat("column %zu: string id %u outside dictionary of %zu",
                        col_index, col->str_ids[str_cursor], col->dict.size()));
        }
        ++str_cursor;
        col->nums.push_back(std::numeric_limits<double>::quiet_NaN());
        break;
      case kMissingValueTag:
        col->nums.push_back(std::numeric_limits<double>::quiet_NaN());
        break;
      default:
        return Status::Corruption(StrFormat("column %zu: bad value tag %u at row %zu",
                                            col_index, col->tags[i], i));
    }
  }
  if (int_cursor != col->ints.size() || dbl_cursor != dbls.size() ||
      str_cursor != col->str_ids.size()) {
    return Status::Corruption(
        StrFormat("column %zu: dense vectors longer than their tag census",
                  col_index));
  }
  return Status::OK();
}

Result<AttributeColumn> ParseColumnBlock(std::string_view payload, size_t rows,
                                         size_t col_index) {
  Reader r(payload);
  AttributeColumn col;
  EXSTREAM_ASSIGN_OR_RETURN(const uint8_t declared, r.Get<uint8_t>());
  if (declared > static_cast<uint8_t>(ValueType::kString)) {
    return Status::Corruption(
        StrFormat("column %zu: bad declared type %u", col_index, declared));
  }
  col.declared = static_cast<ValueType>(declared);
  EXSTREAM_RETURN_NOT_OK(r.GetPodVector(rows, &col.tags));

  EXSTREAM_ASSIGN_OR_RETURN(const uint32_t n_ints, r.Get<uint32_t>());
  if (n_ints > rows) {
    return Status::Corruption(
        StrFormat("column %zu: %u int rows exceed row count %zu", col_index,
                  n_ints, rows));
  }
  EXSTREAM_RETURN_NOT_OK(r.GetPodVector(n_ints, &col.ints));

  EXSTREAM_ASSIGN_OR_RETURN(const uint32_t n_dbls, r.Get<uint32_t>());
  if (n_dbls > rows) {
    return Status::Corruption(
        StrFormat("column %zu: %u double rows exceed row count %zu", col_index,
                  n_dbls, rows));
  }
  std::vector<double> dbls;
  EXSTREAM_RETURN_NOT_OK(r.GetPodVector(n_dbls, &dbls));

  EXSTREAM_ASSIGN_OR_RETURN(const uint32_t n_strs, r.Get<uint32_t>());
  if (n_strs > rows) {
    return Status::Corruption(
        StrFormat("column %zu: %u string rows exceed row count %zu", col_index,
                  n_strs, rows));
  }
  EXSTREAM_RETURN_NOT_OK(r.GetPodVector(n_strs, &col.str_ids));

  EXSTREAM_ASSIGN_OR_RETURN(const uint32_t dict_n, r.Get<uint32_t>());
  // Every dictionary entry costs at least its u32 length prefix.
  if (static_cast<uint64_t>(dict_n) * sizeof(uint32_t) > r.remaining()) {
    return Status::Corruption(
        StrFormat("column %zu: dictionary count %u cannot fit in %zu bytes",
                  col_index, dict_n, r.remaining()));
  }
  col.dict.reserve(dict_n);
  for (uint32_t d = 0; d < dict_n; ++d) {
    EXSTREAM_ASSIGN_OR_RETURN(const uint32_t len, r.Get<uint32_t>());
    EXSTREAM_ASSIGN_OR_RETURN(std::string s, r.GetBytes(len));
    col.dict.push_back(std::move(s));
  }
  if (!r.AtEnd()) {
    return Status::Corruption(StrFormat("column %zu: %zu trailing bytes",
                                        col_index, r.remaining()));
  }
  EXSTREAM_RETURN_NOT_OK(FinalizeAttributeColumn(&col, dbls, rows, col_index));
  return col;
}

// --- v4: compressed columnar layout (same block framing as v3) ---

std::string SerializeCompressedPayload(const ChunkColumns& columns) {
  std::string out;
  PutPod<uint32_t>(&out, kMagicV4);
  PutPod<uint32_t>(&out, static_cast<uint32_t>(columns.rows()));
  PutPod<uint32_t>(&out, columns.type());
  PutPod<uint16_t>(&out, static_cast<uint16_t>(columns.num_columns()));

  std::string block;
  EncodeTimestampsDoD(columns.ts(), &block);
  PutBlock(&out, block);

  for (const AttributeColumn& col : columns.attrs()) {
    block.clear();
    PutU8(&block, static_cast<uint8_t>(col.declared));
    EncodeTagsRle(col.tags, &block);
    PutVarint(&block, col.ints.size());
    EncodeInts(col.ints.data(), col.ints.size(), &block);
    // Dense doubles: the double-tagged rows' numeric view, in row order.
    std::vector<double> dbls;
    for (size_t i = 0; i < col.tags.size(); ++i) {
      if (col.tags[i] == static_cast<uint8_t>(ValueType::kDouble)) {
        dbls.push_back(col.nums[i]);
      }
    }
    PutVarint(&block, dbls.size());
    EncodeDoubles(dbls.data(), dbls.size(), &block);
    PutVarint(&block, col.str_ids.size());
    EncodeU32s(col.str_ids.data(), col.str_ids.size(), &block);
    PutVarint(&block, col.dict.size());
    for (const std::string& s : col.dict) {
      PutVarint(&block, s.size());
      block.append(s);
    }
    PutBlock(&out, block);
  }
  return out;
}

Result<AttributeColumn> ParseColumnBlockV4(std::string_view payload, size_t rows,
                                           size_t col_index) {
  ByteReader r(payload);
  AttributeColumn col;
  EXSTREAM_ASSIGN_OR_RETURN(const uint8_t declared, r.GetU8());
  if (declared > static_cast<uint8_t>(ValueType::kString)) {
    return Status::Corruption(
        StrFormat("column %zu: bad declared type %u", col_index, declared));
  }
  col.declared = static_cast<ValueType>(declared);
  EXSTREAM_RETURN_NOT_OK(DecodeTagsRle(&r, rows, &col.tags));

  EXSTREAM_ASSIGN_OR_RETURN(const uint64_t n_ints, r.GetVarint());
  if (n_ints > rows) {
    return Status::Corruption(
        StrFormat("column %zu: %llu int rows exceed row count %zu", col_index,
                  static_cast<unsigned long long>(n_ints), rows));
  }
  EXSTREAM_RETURN_NOT_OK(DecodeInts(&r, static_cast<size_t>(n_ints), &col.ints));

  EXSTREAM_ASSIGN_OR_RETURN(const uint64_t n_dbls, r.GetVarint());
  if (n_dbls > rows) {
    return Status::Corruption(
        StrFormat("column %zu: %llu double rows exceed row count %zu", col_index,
                  static_cast<unsigned long long>(n_dbls), rows));
  }
  std::vector<double> dbls;
  EXSTREAM_RETURN_NOT_OK(DecodeDoubles(&r, static_cast<size_t>(n_dbls), &dbls));

  EXSTREAM_ASSIGN_OR_RETURN(const uint64_t n_strs, r.GetVarint());
  if (n_strs > rows) {
    return Status::Corruption(
        StrFormat("column %zu: %llu string rows exceed row count %zu", col_index,
                  static_cast<unsigned long long>(n_strs), rows));
  }
  EXSTREAM_RETURN_NOT_OK(DecodeU32s(&r, static_cast<size_t>(n_strs), &col.str_ids));

  EXSTREAM_ASSIGN_OR_RETURN(const uint64_t dict_n, r.GetVarint());
  // Every dictionary entry costs at least its 1-byte length varint.
  if (dict_n > r.remaining()) {
    return Status::Corruption(
        StrFormat("column %zu: dictionary count %llu cannot fit in %zu bytes",
                  col_index, static_cast<unsigned long long>(dict_n), r.remaining()));
  }
  col.dict.reserve(static_cast<size_t>(dict_n));
  for (uint64_t d = 0; d < dict_n; ++d) {
    EXSTREAM_ASSIGN_OR_RETURN(const uint64_t len, r.GetVarint());
    EXSTREAM_ASSIGN_OR_RETURN(const std::string_view s,
                              r.GetBytes(static_cast<size_t>(len)));
    col.dict.emplace_back(s);
  }
  if (!r.AtEnd()) {
    return Status::Corruption(StrFormat("column %zu: %zu trailing bytes",
                                        col_index, r.remaining()));
  }
  EXSTREAM_RETURN_NOT_OK(FinalizeAttributeColumn(&col, dbls, rows, col_index));
  return col;
}

Result<ChunkColumns> ParseColumnarBuffer(std::string_view data) {
  Reader r(data);
  EXSTREAM_ASSIGN_OR_RETURN(const uint32_t magic, r.Get<uint32_t>());
  if (magic != kMagicV3 && magic != kMagicV4) {
    return Status::Corruption(
        StrFormat("bad columnar buffer magic 0x%08x at offset 0", magic));
  }
  const bool v4 = magic == kMagicV4;
  EXSTREAM_ASSIGN_OR_RETURN(const uint32_t rows, r.Get<uint32_t>());
  EXSTREAM_ASSIGN_OR_RETURN(const uint32_t type, r.Get<uint32_t>());
  EXSTREAM_ASSIGN_OR_RETURN(const uint16_t ncols, r.Get<uint16_t>());
  // The ts column alone needs rows * 8 bytes uncompressed, or at least one
  // delta-of-delta varint byte per row compressed; reject an impossible row
  // count before any allocation.
  const uint64_t min_ts_bytes =
      static_cast<uint64_t>(rows) * (v4 ? 1 : sizeof(int64_t));
  if (min_ts_bytes > r.remaining()) {
    return Status::Corruption(
        StrFormat("row count %u needs at least %llu bytes but %zu remain", rows,
                  static_cast<unsigned long long>(min_ts_bytes), r.remaining()));
  }

  ChunkColumns columns;
  columns.set_type(type);
  EXSTREAM_ASSIGN_OR_RETURN(const std::string_view ts_block, GetBlock(&r, "ts"));
  if (v4) {
    const Status st = DecodeTimestampsDoD(ts_block, rows, columns.mutable_ts());
    if (!st.ok()) return Status(st.code(), "ts column: " + st.message());
  } else {
    if (ts_block.size() != static_cast<size_t>(rows) * sizeof(int64_t)) {
      return Status::Corruption(
          StrFormat("ts column holds %zu bytes, %u rows need %zu", ts_block.size(),
                    rows, static_cast<size_t>(rows) * sizeof(int64_t)));
    }
    columns.mutable_ts()->resize(rows);
    if (rows != 0) {
      std::memcpy(columns.mutable_ts()->data(), ts_block.data(), ts_block.size());
    }
  }

  columns.mutable_attrs()->reserve(ncols);
  for (uint16_t c = 0; c < ncols; ++c) {
    char what[32];
    snprintf(what, sizeof(what), "attr%u", c);
    EXSTREAM_ASSIGN_OR_RETURN(const std::string_view block, GetBlock(&r, what));
    EXSTREAM_ASSIGN_OR_RETURN(AttributeColumn col,
                              v4 ? ParseColumnBlockV4(block, rows, c)
                                 : ParseColumnBlock(block, rows, c));
    columns.mutable_attrs()->push_back(std::move(col));
  }
  if (!r.AtEnd()) {
    return Status::Corruption(StrFormat("%zu trailing bytes after %u columns",
                                        r.remaining(), ncols));
  }
  return columns;
}

// Prefixes a (non-OK) status message with the file path, keeping the code.
Status AnnotateWithPath(const Status& st, const std::string& path) {
  return Status(st.code(), path + ": " + st.message());
}

void ApplyInjectedDelay(const FaultPlan& plan) {
  std::this_thread::sleep_for(std::chrono::milliseconds(plan.delay_ms));
}

// Writes `data` to `path` atomically (temp file + fsync + rename), honoring
// injected write faults. Shared by the row and columnar file writers.
Status WriteBufferFileAtomic(const std::string& path, std::string data) {
  size_t write_bytes = data.size();

  if (auto fault =
          FaultInjector::Global().Intercept(FaultOp::kWrite, "spill-write", path)) {
    switch (fault->mode) {
      case FaultMode::kFailOpen:
      case FaultMode::kReset:
        return Status::IOError("injected open failure writing " + path);
      case FaultMode::kNoSpace:
        return Status::IOError("injected ENOSPC writing " + path);
      case FaultMode::kTruncate:
        // Simulates a torn write that still reached the final name (e.g.
        // post-rename media failure): only a prefix lands on disk.
        write_bytes = std::min(write_bytes, fault->truncate_to);
        break;
      case FaultMode::kCorruptBytes: {
        const size_t off = fault->corrupt_offset == SIZE_MAX
                               ? data.size() / 2
                               : std::min(fault->corrupt_offset, data.size() - 1);
        if (!data.empty()) data[off] = static_cast<char>(data[off] ^ 0x5A);
        break;
      }
      case FaultMode::kDelay:
        ApplyInjectedDelay(*fault);
        break;
    }
  }

  const std::string tmp = path + ".tmp";
  FILE* f = fopen(tmp.c_str(), "wb");
  if (f == nullptr) return Status::IOError("cannot open " + tmp);
  const size_t written = fwrite(data.data(), 1, write_bytes, f);
  if (written != write_bytes) {
    fclose(f);
    remove(tmp.c_str());
    return Status::IOError(StrFormat("short write to %s (%zu of %zu bytes)",
                                     tmp.c_str(), written, write_bytes));
  }
  // Flush user-space buffers and force the data to the device before the
  // rename publishes the file: a crash can lose the spill, never expose a
  // half-written one under its final name.
  if (fflush(f) != 0 || fsync(fileno(f)) != 0) {
    fclose(f);
    remove(tmp.c_str());
    return Status::IOError("cannot fsync " + tmp);
  }
  fclose(f);
  if (rename(tmp.c_str(), path.c_str()) != 0) {
    remove(tmp.c_str());
    return Status::IOError("cannot rename " + tmp + " to " + path);
  }
  return Status::OK();
}

// Reads the raw bytes of `path`, honoring injected read faults.
Result<std::string> ReadBufferFile(const std::string& path) {
  std::optional<FaultPlan> fault =
      FaultInjector::Global().Intercept(FaultOp::kRead, "spill-read", path);
  if (fault.has_value()) {
    if (fault->mode == FaultMode::kFailOpen || fault->mode == FaultMode::kReset) {
      return Status::IOError("injected open failure reading " + path);
    }
    if (fault->mode == FaultMode::kDelay) ApplyInjectedDelay(*fault);
  }

  FILE* f = fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IOError("cannot open " + path);
  std::string data;
  char buf[1 << 16];
  size_t n;
  while ((n = fread(buf, 1, sizeof(buf), f)) > 0) data.append(buf, n);
  fclose(f);

  if (fault.has_value()) {
    if (fault->mode == FaultMode::kTruncate) {
      data.resize(std::min(data.size(), fault->truncate_to));
    } else if (fault->mode == FaultMode::kCorruptBytes && !data.empty()) {
      const size_t off = fault->corrupt_offset == SIZE_MAX
                             ? data.size() / 2
                             : std::min(fault->corrupt_offset, data.size() - 1);
      data[off] = static_cast<char>(data[off] ^ 0x5A);
    }
  }
  return data;
}

}  // namespace

std::string SerializeEvents(const std::vector<Event>& events, SpillFormat format) {
  if (format == SpillFormat::kV3 || format == SpillFormat::kV4) {
    auto columns = ChunkColumns::FromRows(events);
    if (columns.ok()) {
      return format == SpillFormat::kV4 ? SerializeCompressedPayload(*columns)
                                        : SerializeColumnarPayload(*columns);
    }
    // Mixed-type rows cannot form a chunk; fall back to the self-describing
    // v2 row layout (readable by every DeserializeEvents).
    return SerializeRowPayload(events, SpillFormat::kV2);
  }
  return SerializeRowPayload(events, format);
}

Result<std::vector<Event>> DeserializeEvents(std::string_view data) {
  Reader r(data);
  EXSTREAM_ASSIGN_OR_RETURN(const uint32_t magic, r.Get<uint32_t>());
  if (magic == kMagicV3 || magic == kMagicV4) {
    EXSTREAM_ASSIGN_OR_RETURN(const ChunkColumns columns, ParseColumnarBuffer(data));
    std::vector<Event> events;
    columns.MaterializeRows(0, columns.rows(), &events);
    return events;
  }
  if (magic != kMagicV1 && magic != kMagicV2) {
    return Status::Corruption(
        StrFormat("bad event buffer magic 0x%08x at offset 0", magic));
  }
  EXSTREAM_ASSIGN_OR_RETURN(const uint32_t count, r.Get<uint32_t>());
  if (magic == kMagicV2) {
    EXSTREAM_ASSIGN_OR_RETURN(const uint32_t stored_crc, r.Get<uint32_t>());
    const uint32_t computed =
        Crc32(data.data() + r.pos(), data.size() - r.pos());
    if (computed != stored_crc) {
      return Status::Corruption(
          StrFormat("payload checksum mismatch: stored 0x%08x, computed 0x%08x "
                    "over %zu bytes at offset %zu",
                    stored_crc, computed, data.size() - r.pos(), r.pos()));
    }
  }
  return ParseEventPayload(&r, count);
}

std::string SerializeColumns(const ChunkColumns& columns, SpillFormat format) {
  if (format == SpillFormat::kV4) return SerializeCompressedPayload(columns);
  if (format == SpillFormat::kV3) return SerializeColumnarPayload(columns);
  std::vector<Event> rows;
  columns.MaterializeRows(0, columns.rows(), &rows);
  return SerializeRowPayload(rows, format);
}

Result<ChunkColumns> DeserializeColumns(std::string_view data) {
  Reader r(data);
  EXSTREAM_ASSIGN_OR_RETURN(const uint32_t magic, r.Get<uint32_t>());
  if (magic == kMagicV3 || magic == kMagicV4) return ParseColumnarBuffer(data);
  // v1/v2: parse the row layout, then fold into columns.
  EXSTREAM_ASSIGN_OR_RETURN(const std::vector<Event> events, DeserializeEvents(data));
  return ChunkColumns::FromRows(events);
}

Status WriteEventsFile(const std::string& path, const std::vector<Event>& events,
                       SpillFormat format) {
  return WriteBufferFileAtomic(path, SerializeEvents(events, format));
}

Result<std::vector<Event>> ReadEventsFile(const std::string& path) {
  EXSTREAM_ASSIGN_OR_RETURN(const std::string data, ReadBufferFile(path));
  auto events = DeserializeEvents(data);
  if (!events.ok()) return AnnotateWithPath(events.status(), path);
  return events;
}

Status WriteColumnsFile(const std::string& path, const ChunkColumns& columns,
                        SpillFormat format) {
  return WriteBufferFileAtomic(path, SerializeColumns(columns, format));
}

Result<ChunkColumns> ReadColumnsFile(const std::string& path) {
  // Cold reads go through mmap: the decoder parses straight from the kernel
  // page cache instead of a heap copy of the whole file. The mapping lives
  // only for the decode — the decoded columns own their memory and are what
  // ScanView pins. MmapFile carries its own fault-injection site
  // ("mmap-read"), so this path makes exactly one Intercept call per read,
  // like the buffered path it replaces.
  EXSTREAM_ASSIGN_OR_RETURN(const MmapFile file, MmapFile::Open(path));
  auto columns = DeserializeColumns(file.view());
  if (!columns.ok()) return AnnotateWithPath(columns.status(), path);
  return columns;
}

}  // namespace exstream
