#ifndef TSVIZ_TESTS_REFERENCE_CODEC_H_
#define TSVIZ_TESTS_REFERENCE_CODEC_H_

// Reference implementations of the bit stream, the page checksum and page
// decoding, written the plain way: one loop iteration per bit and per
// varint byte, a Status check on every field, and output grown one element
// at a time. They define the format's behaviour, so the word-at-a-time
// production code can be compared with them value for value and verdict for
// verdict. They allocate nothing up front, so an absurd count fails when
// its stream runs out.

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "encoding/page.h"
#include "encoding/varint.h"

namespace tsviz::reference {

// MSB-first bit writer, one bit at a time.
class BitWriter {
 public:
  void WriteBits(uint64_t value, int bits) {
    if (bits <= 0) return;
    if (bits < 64) value &= (uint64_t{1} << bits) - 1;
    for (int i = bits - 1; i >= 0; --i) {
      if (bits_in_last_ == 0) bytes_.push_back('\0');
      const auto bit = static_cast<uint8_t>((value >> i) & 1);
      bytes_.back() = static_cast<char>(
          static_cast<uint8_t>(bytes_.back()) |
          static_cast<uint8_t>(bit << (7 - bits_in_last_)));
      bits_in_last_ = (bits_in_last_ + 1) % 8;
    }
    bit_count_ += static_cast<size_t>(bits);
  }

  std::string Finish() {
    bits_in_last_ = 0;
    return std::move(bytes_);
  }

  size_t bit_count() const { return bit_count_; }

 private:
  std::string bytes_;
  int bits_in_last_ = 0;
  size_t bit_count_ = 0;
};

// MSB-first bit reader, one bit at a time.
class BitReader {
 public:
  explicit BitReader(std::string_view data) : data_(data) {}

  Result<uint64_t> ReadBits(int bits) {
    if (bits < 0 || bits > 64) {
      return Status::InvalidArgument("bit count out of range");
    }
    if (static_cast<size_t>(bits) > data_.size() * 8 - pos_) {
      return Status::Corruption("bit stream exhausted");
    }
    uint64_t out = 0;
    for (int i = 0; i < bits; ++i) {
      const uint8_t byte = static_cast<uint8_t>(data_[pos_ / 8]);
      out = (out << 1) | ((byte >> (7 - pos_ % 8)) & 1);
      ++pos_;
    }
    return out;
  }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

inline Result<uint64_t> ReadFixed64(std::string_view* src) {
  if (src->size() < 8) return Status::Corruption("truncated fixed64");
  uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<uint64_t>(static_cast<uint8_t>((*src)[i])) << (8 * i);
  }
  src->remove_prefix(8);
  return value;
}

inline Result<uint64_t> ReadVarint(std::string_view* src) {
  uint64_t value = 0;
  for (int shift = 0; shift <= 63; shift += 7) {
    if (src->empty()) return Status::Corruption("truncated varint");
    const auto byte = static_cast<uint8_t>(src->front());
    src->remove_prefix(1);
    value |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return value;
  }
  return Status::Corruption("varint too long");
}

inline Result<std::string_view> ReadBlock(std::string_view* src) {
  TSVIZ_ASSIGN_OR_RETURN(uint64_t len, ReadVarint(src));
  if (src->size() < len) return Status::Corruption("truncated block");
  std::string_view out = src->substr(0, len);
  src->remove_prefix(len);
  return out;
}

inline double BitsToDouble(uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

inline Status DecodeTs2Diff(std::string_view src, uint64_t count,
                            std::vector<Timestamp>* out) {
  if (count == 0) return Status::OK();
  TSVIZ_ASSIGN_OR_RETURN(uint64_t prev, ReadFixed64(&src));
  out->push_back(static_cast<Timestamp>(prev));
  uint64_t prev_delta = 0;
  for (uint64_t i = 1; i < count; ++i) {
    TSVIZ_ASSIGN_OR_RETURN(uint64_t raw, ReadVarint(&src));
    const uint64_t delta = prev_delta + static_cast<uint64_t>(
                                            ZigZagDecode(raw));
    if (static_cast<int64_t>(delta) <= 0) {
      return Status::Corruption("non-increasing timestamp");
    }
    prev += delta;
    prev_delta = delta;
    out->push_back(static_cast<Timestamp>(prev));
  }
  return Status::OK();
}

inline Status DecodeGorilla(std::string_view src, uint64_t count,
                            std::vector<Value>* out) {
  if (count == 0) return Status::OK();
  BitReader reader(src);
  TSVIZ_ASSIGN_OR_RETURN(uint64_t prev, reader.ReadBits(64));
  out->push_back(BitsToDouble(prev));
  int prev_leading = -1;
  int prev_trailing = -1;
  for (uint64_t i = 1; i < count; ++i) {
    TSVIZ_ASSIGN_OR_RETURN(uint64_t changed, reader.ReadBits(1));
    if (changed == 0) {
      out->push_back(BitsToDouble(prev));
      continue;
    }
    TSVIZ_ASSIGN_OR_RETURN(uint64_t new_window, reader.ReadBits(1));
    int meaningful;
    if (new_window != 0) {
      TSVIZ_ASSIGN_OR_RETURN(uint64_t lead_bits, reader.ReadBits(5));
      TSVIZ_ASSIGN_OR_RETURN(uint64_t len_bits, reader.ReadBits(6));
      prev_leading = static_cast<int>(lead_bits);
      meaningful = len_bits == 0 ? 64 : static_cast<int>(len_bits);
      prev_trailing = 64 - prev_leading - meaningful;
      if (prev_trailing < 0) return Status::Corruption("bad gorilla window");
    } else {
      if (prev_leading < 0) {
        return Status::Corruption("gorilla reuse before any window");
      }
      meaningful = 64 - prev_leading - prev_trailing;
    }
    TSVIZ_ASSIGN_OR_RETURN(uint64_t payload, reader.ReadBits(meaningful));
    prev ^= payload << prev_trailing;
    out->push_back(BitsToDouble(prev));
  }
  return Status::OK();
}

inline Status DecodeRle(std::string_view src, uint64_t count,
                        std::vector<Value>* out) {
  while (out->size() < count) {
    TSVIZ_ASSIGN_OR_RETURN(uint64_t run, ReadVarint(&src));
    if (run == 0 || run > count - out->size()) {
      return Status::Corruption("rle run overflows value count");
    }
    TSVIZ_ASSIGN_OR_RETURN(uint64_t bits, ReadFixed64(&src));
    out->insert(out->end(), run, BitsToDouble(bits));
  }
  return Status::OK();
}

// CRC-32C one bit at a time, straight from the reflected polynomial.
inline uint32_t Crc32c(std::string_view data) {
  uint32_t crc = 0xFFFFFFFFu;
  for (char c : data) {
    crc ^= static_cast<uint8_t>(c);
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) != 0 ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
    }
  }
  return ~crc;
}

// Decodes one page the plain way: separate timestamp and value vectors,
// zipped into points at the end.
inline Status DecodePage(std::string_view src, std::vector<Point>* out) {
  if (src.size() < 8) return Status::Corruption("page too small");
  std::string_view body = src.substr(0, src.size() - 8);
  std::string_view checksum = src.substr(src.size() - 8);
  TSVIZ_ASSIGN_OR_RETURN(uint64_t stored, ReadFixed64(&checksum));
  if (uint64_t{Crc32c(body)} != stored) {
    return Status::Corruption("bad checksum");
  }

  TSVIZ_ASSIGN_OR_RETURN(uint64_t count, ReadVarint(&body));
  if (body.size() < 2) return Status::Corruption("truncated page header");
  const auto ts_codec = static_cast<TsCodec>(body[0]);
  const auto value_codec = static_cast<ValueCodec>(body[1]);
  body.remove_prefix(2);
  TSVIZ_ASSIGN_OR_RETURN(uint64_t min_raw, ReadFixed64(&body));
  TSVIZ_ASSIGN_OR_RETURN(uint64_t max_raw, ReadFixed64(&body));
  TSVIZ_ASSIGN_OR_RETURN(std::string_view ts_block, ReadBlock(&body));
  TSVIZ_ASSIGN_OR_RETURN(std::string_view value_block, ReadBlock(&body));

  std::vector<Timestamp> timestamps;
  if (ts_codec == TsCodec::kPlain) {
    for (uint64_t i = 0; i < count; ++i) {
      TSVIZ_ASSIGN_OR_RETURN(uint64_t raw, ReadFixed64(&ts_block));
      timestamps.push_back(static_cast<Timestamp>(raw));
    }
  } else if (ts_codec == TsCodec::kTs2Diff) {
    TSVIZ_RETURN_IF_ERROR(DecodeTs2Diff(ts_block, count, &timestamps));
  } else {
    return Status::Corruption("unknown timestamp codec");
  }

  std::vector<Value> values;
  if (value_codec == ValueCodec::kPlain) {
    for (uint64_t i = 0; i < count; ++i) {
      TSVIZ_ASSIGN_OR_RETURN(uint64_t raw, ReadFixed64(&value_block));
      values.push_back(BitsToDouble(raw));
    }
  } else if (value_codec == ValueCodec::kGorilla) {
    TSVIZ_RETURN_IF_ERROR(DecodeGorilla(value_block, count, &values));
  } else if (value_codec == ValueCodec::kRle) {
    TSVIZ_RETURN_IF_ERROR(DecodeRle(value_block, count, &values));
  } else {
    return Status::Corruption("unknown value codec");
  }

  if (count == 0 || timestamps.size() != count || values.size() != count) {
    return Status::Corruption("page block size mismatch");
  }
  if (timestamps.front() != static_cast<Timestamp>(min_raw) ||
      timestamps.back() != static_cast<Timestamp>(max_raw)) {
    return Status::Corruption("page time bounds mismatch");
  }
  for (size_t i = 0; i < count; ++i) {
    out->push_back(Point{timestamps[i], values[i]});
  }
  return Status::OK();
}

}  // namespace tsviz::reference

#endif  // TSVIZ_TESTS_REFERENCE_CODEC_H_
