#include "encoding/varint.h"

namespace tsviz {

void PutVarint64(std::string* dst, uint64_t value) {
  while (value >= 0x80) {
    dst->push_back(static_cast<char>((value & 0x7f) | 0x80));
    value >>= 7;
  }
  dst->push_back(static_cast<char>(value));
}

void PutVarint32(std::string* dst, uint32_t value) {
  PutVarint64(dst, value);
}

const char* DecodeVarint64Slow(const char* p, const char* limit,
                               uint64_t* value) {
  uint64_t result = 0;
  for (int shift = 0; shift <= 63; shift += 7) {
    if (p >= limit) return nullptr;
    const uint8_t byte = static_cast<uint8_t>(*p++);
    result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *value = result;
      return p;
    }
  }
  return nullptr;
}

Result<uint64_t> GetVarint64(std::string_view* src) {
  uint64_t value = 0;
  const char* end = src->data() + src->size();
  const char* next = DecodeVarint64(src->data(), end, &value);
  if (next == nullptr) {
    // Ten bytes all carrying a continuation bit is over-long; anything
    // shorter ran out of input.
    return Status::Corruption(src->size() >= 10 ? "varint too long"
                                                : "truncated varint");
  }
  src->remove_prefix(static_cast<size_t>(next - src->data()));
  return value;
}

Result<uint32_t> GetVarint32(std::string_view* src) {
  TSVIZ_ASSIGN_OR_RETURN(uint64_t value, GetVarint64(src));
  if (value > 0xffffffffull) return Status::Corruption("varint32 overflow");
  return static_cast<uint32_t>(value);
}

void PutFixed32(std::string* dst, uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    dst->push_back(static_cast<char>((value >> (8 * i)) & 0xff));
  }
}

void PutFixed64(std::string* dst, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    dst->push_back(static_cast<char>((value >> (8 * i)) & 0xff));
  }
}

Result<uint32_t> GetFixed32(std::string_view* src) {
  if (src->size() < 4) return Status::Corruption("truncated fixed32");
  uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<uint32_t>(static_cast<uint8_t>((*src)[i])) << (8 * i);
  }
  src->remove_prefix(4);
  return value;
}

Result<uint64_t> GetFixed64(std::string_view* src) {
  if (src->size() < 8) return Status::Corruption("truncated fixed64");
  const uint64_t value = DecodeFixed64(src->data());
  src->remove_prefix(8);
  return value;
}

void PutLengthPrefixed(std::string* dst, std::string_view value) {
  PutVarint64(dst, value.size());
  dst->append(value.data(), value.size());
}

Result<std::string_view> GetLengthPrefixed(std::string_view* src) {
  TSVIZ_ASSIGN_OR_RETURN(uint64_t len, GetVarint64(src));
  if (src->size() < len) {
    return Status::Corruption("truncated length-prefixed string");
  }
  std::string_view out = src->substr(0, len);
  src->remove_prefix(len);
  return out;
}

uint64_t Fnv1a64(std::string_view data) {
  uint64_t hash = 14695981039346656037ull;
  for (char c : data) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

}  // namespace tsviz
