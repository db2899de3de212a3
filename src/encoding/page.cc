#include "encoding/page.h"

#include "encoding/crc32c.h"
#include "encoding/gorilla.h"
#include "encoding/plain.h"
#include "encoding/rle.h"
#include "encoding/ts2diff.h"
#include "encoding/varint.h"

namespace tsviz {

Status EncodePage(const Point* points, size_t count, TsCodec ts_codec,
                  ValueCodec value_codec, std::string* dst, PageInfo* info) {
  if (count == 0) return Status::InvalidArgument("empty page");
  const size_t start = dst->size();

  std::vector<Timestamp> timestamps(count);
  std::vector<Value> values(count);
  for (size_t i = 0; i < count; ++i) {
    timestamps[i] = points[i].t;
    values[i] = points[i].v;
  }

  std::string body;
  PutVarint64(&body, count);
  body.push_back(static_cast<char>(ts_codec));
  body.push_back(static_cast<char>(value_codec));
  PutFixed64(&body, static_cast<uint64_t>(timestamps.front()));
  PutFixed64(&body, static_cast<uint64_t>(timestamps.back()));

  std::string ts_block;
  switch (ts_codec) {
    case TsCodec::kPlain:
      TSVIZ_RETURN_IF_ERROR(EncodePlainTimestamps(timestamps, &ts_block));
      break;
    case TsCodec::kTs2Diff:
      TSVIZ_RETURN_IF_ERROR(EncodeTs2Diff(timestamps, &ts_block));
      break;
  }
  PutLengthPrefixed(&body, ts_block);

  std::string value_block;
  switch (value_codec) {
    case ValueCodec::kPlain:
      TSVIZ_RETURN_IF_ERROR(EncodePlainValues(values, &value_block));
      break;
    case ValueCodec::kGorilla:
      TSVIZ_RETURN_IF_ERROR(EncodeGorilla(values, &value_block));
      break;
    case ValueCodec::kRle:
      TSVIZ_RETURN_IF_ERROR(EncodeRle(values, &value_block));
      break;
  }
  PutLengthPrefixed(&body, value_block);

  PutFixed64(&body, Crc32c(body));
  dst->append(body);

  if (info != nullptr) {
    info->count = static_cast<uint32_t>(count);
    info->min_t = timestamps.front();
    info->max_t = timestamps.back();
    info->offset = static_cast<uint32_t>(start);
    info->length = static_cast<uint32_t>(dst->size() - start);
  }
  return Status::OK();
}

namespace {

// The most points a timestamp block of `bytes` bytes can hold. Both
// timestamp codecs spend at least a byte per point, so this bounds the
// allocation by the page's own size.
size_t MaxTimestampCount(TsCodec codec, size_t bytes) {
  return codec == TsCodec::kPlain ? MaxPlainCount(bytes)
                                  : MaxTs2DiffCount(bytes);
}

Status DecodeValues(ValueCodec codec, std::string_view block, size_t count,
                    Point* out) {
  switch (codec) {
    case ValueCodec::kPlain:
      return DecodePlainValues(block, count, out);
    case ValueCodec::kGorilla:
      return DecodeGorilla(block, count, out);
    case ValueCodec::kRle:
      return DecodeRle(block, count, out);
  }
  return Status::Corruption("unknown value codec");
}

}  // namespace

Status DecodePage(std::string_view src, std::vector<Point>* out,
                  PageChecksum checksum) {
  if (src.size() < 8) return Status::Corruption("page too small");
  std::string_view body = src.substr(0, src.size() - 8);
  const uint64_t expected = checksum == PageChecksum::kCrc32c
                                ? uint64_t{Crc32c(body)}
                                : Fnv1a64(body);
  if (expected != DecodeFixed64(src.data() + body.size())) {
    return Status::Corruption("page checksum mismatch");
  }

  TSVIZ_ASSIGN_OR_RETURN(uint64_t count, GetVarint64(&body));
  if (body.size() < 2) return Status::Corruption("truncated page header");
  auto ts_codec = static_cast<TsCodec>(body[0]);
  auto value_codec = static_cast<ValueCodec>(body[1]);
  body.remove_prefix(2);
  // min/max timestamps: validated against decoded data below.
  TSVIZ_ASSIGN_OR_RETURN(uint64_t min_raw, GetFixed64(&body));
  TSVIZ_ASSIGN_OR_RETURN(uint64_t max_raw, GetFixed64(&body));

  TSVIZ_ASSIGN_OR_RETURN(std::string_view ts_block, GetLengthPrefixed(&body));
  TSVIZ_ASSIGN_OR_RETURN(std::string_view value_block,
                         GetLengthPrefixed(&body));

  if (ts_codec != TsCodec::kPlain && ts_codec != TsCodec::kTs2Diff) {
    return Status::Corruption("unknown timestamp codec");
  }
  if (count == 0) return Status::Corruption("page block size mismatch");
  // Bound the count before allocating: a re-stamped checksum can make any
  // count varint look valid.
  if (count > MaxTimestampCount(ts_codec, ts_block.size())) {
    return Status::Corruption("page count exceeds its timestamp block");
  }

  // Decode straight into the caller's vector; on failure it is restored.
  const size_t base = out->size();
  out->resize(base + count);
  Point* points = out->data() + base;
  std::string_view cursor = ts_block;
  Status status = ts_codec == TsCodec::kPlain
                      ? DecodePlainTimestamps(&cursor, count, points)
                      : DecodeTs2Diff(&cursor, count, points);
  if (status.ok()) {
    status = DecodeValues(value_codec, value_block, count, points);
  }
  if (status.ok() && (points[0].t != static_cast<Timestamp>(min_raw) ||
                      points[count - 1].t != static_cast<Timestamp>(max_raw))) {
    status = Status::Corruption("page time bounds mismatch");
  }
  if (!status.ok()) out->resize(base);
  return status;
}

}  // namespace tsviz
