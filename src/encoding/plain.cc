#include "encoding/plain.h"

#include <bit>
#include <cstring>

#include "encoding/varint.h"

namespace tsviz {

Status EncodePlainTimestamps(const std::vector<Timestamp>& timestamps,
                             std::string* dst) {
  for (Timestamp t : timestamps) {
    PutFixed64(dst, static_cast<uint64_t>(t));
  }
  return Status::OK();
}

Status DecodePlainTimestamps(std::string_view* src, size_t count,
                             Point* out) {
  if (count > MaxPlainCount(src->size())) {
    return Status::Corruption("plain block too short for its count");
  }
  for (size_t i = 0; i < count; ++i) {
    out[i].t = static_cast<Timestamp>(DecodeFixed64(src->data() + 8 * i));
  }
  src->remove_prefix(8 * count);
  return Status::OK();
}

Status EncodePlainValues(const std::vector<Value>& values, std::string* dst) {
  for (Value v : values) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    PutFixed64(dst, bits);
  }
  return Status::OK();
}

Status DecodePlainValues(std::string_view src, size_t count,
                         std::vector<Value>* out) {
  out->clear();
  if (count > MaxPlainCount(src.size())) {
    return Status::Corruption("plain block too short for its count");
  }
  out->resize(count);
  for (size_t i = 0; i < count; ++i) {
    (*out)[i] = std::bit_cast<Value>(DecodeFixed64(src.data() + 8 * i));
  }
  return Status::OK();
}

Status DecodePlainValues(std::string_view src, size_t count, Point* out) {
  if (count > MaxPlainCount(src.size())) {
    return Status::Corruption("plain block too short for its count");
  }
  for (size_t i = 0; i < count; ++i) {
    out[i].v = std::bit_cast<Value>(DecodeFixed64(src.data() + 8 * i));
  }
  return Status::OK();
}

}  // namespace tsviz
