#include "encoding/gorilla.h"

#include <bit>
#include <cstring>

#include "encoding/bit_stream.h"

namespace tsviz {

namespace {

uint64_t DoubleToBits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double BitsToDouble(uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

// The one Gorilla decode loop; store(i, bits) receives the i-th value's bit
// pattern. Each value peeks one 64-bit word for its control code and window
// header, and takes its payload from the same word when it fits. `pos`
// counts bits. Whole fields are checked against `end` before they are
// used, so a truncated block fails where the stream runs out, never by
// decoding the zero fill past it.
template <typename Store>
Status DecodeGorillaInto(std::string_view src, size_t count, Store store) {
  if (count == 0) return Status::OK();
  if (count > MaxGorillaCount(src.size())) {
    return Status::Corruption("gorilla block too short for its count");
  }
  const auto* data = reinterpret_cast<const uint8_t*>(src.data());
  const size_t size = src.size();
  const size_t end = size * 8;
  uint64_t prev = PeekBits64(data, size, 0);
  size_t pos = 64;
  store(0, prev);
  int prev_trailing = -1;  // -1 until the first window arrives
  int meaningful = 0;
  for (size_t i = 1; i < count; ++i) {
    if (pos >= end) return Status::Corruption("bit stream exhausted");
    const uint64_t word = PeekBits64(data, size, pos);
    if ((word >> 63) == 0) {  // control '0': same value
      ++pos;
      store(i, prev);
      continue;
    }
    int header;
    if (((word >> 62) & 1) == 0) {  // control '10': reuse the window
      if (prev_trailing < 0) {
        return Status::Corruption("gorilla reuse before any window");
      }
      header = 2;
    } else {  // control '11': 5-bit leading count + 6-bit length
      header = 13;
      const int leading = static_cast<int>((word >> 57) & 31);
      const int length = static_cast<int>((word >> 51) & 63);
      meaningful = length == 0 ? 64 : length;
      prev_trailing = 64 - leading - meaningful;
      if (prev_trailing < 0) return Status::Corruption("bad gorilla window");
    }
    const size_t field_end =
        pos + static_cast<size_t>(header) + static_cast<size_t>(meaningful);
    if (field_end > end) return Status::Corruption("bit stream exhausted");
    const uint64_t payload =
        header + meaningful <= 64
            ? word << header
            : PeekBits64(data, size, pos + static_cast<size_t>(header));
    pos = field_end;
    prev ^= (payload >> (64 - meaningful)) << prev_trailing;
    store(i, prev);
  }
  return Status::OK();
}

}  // namespace

Status EncodeGorilla(const std::vector<Value>& values, std::string* dst) {
  if (values.empty()) return Status::OK();
  BitWriter writer;
  uint64_t prev = DoubleToBits(values[0]);
  writer.WriteBits(prev, 64);
  int prev_leading = -1;   // leading zeros of the previous XOR window
  int prev_trailing = -1;  // trailing zeros of the previous XOR window
  for (size_t i = 1; i < values.size(); ++i) {
    uint64_t bits = DoubleToBits(values[i]);
    uint64_t x = bits ^ prev;
    prev = bits;
    if (x == 0) {
      writer.WriteBit(false);  // control '0': same value
      continue;
    }
    int leading = std::countl_zero(x);
    int trailing = std::countr_zero(x);
    if (leading > 31) leading = 31;  // 5-bit field
    if (prev_leading >= 0 && leading >= prev_leading &&
        trailing >= prev_trailing) {
      // Control '10': meaningful bits fit inside the previous window.
      writer.WriteBits(0b10, 2);
      int meaningful = 64 - prev_leading - prev_trailing;
      writer.WriteBits(x >> prev_trailing, meaningful);
    } else {
      // Control '11': new window = 5-bit leading count + 6-bit length, one
      // 13-bit field. meaningful is in [1, 64]; 64 is stored as 0.
      int meaningful = 64 - leading - trailing;
      writer.WriteBits((uint64_t{0b11} << 11) |
                           (static_cast<uint64_t>(leading) << 6) |
                           static_cast<uint64_t>(meaningful & 63),
                       13);
      writer.WriteBits(x >> trailing, meaningful);
      prev_leading = leading;
      prev_trailing = trailing;
    }
  }
  dst->append(writer.Finish());
  return Status::OK();
}

Status DecodeGorilla(std::string_view src, size_t count,
                     std::vector<Value>* out) {
  out->clear();
  if (count > MaxGorillaCount(src.size())) {
    return Status::Corruption("gorilla block too short for its count");
  }
  out->resize(count);
  Value* dst = out->data();
  Status status = DecodeGorillaInto(src, count, [dst](size_t i, uint64_t bits) {
    dst[i] = BitsToDouble(bits);
  });
  if (!status.ok()) out->clear();
  return status;
}

Status DecodeGorilla(std::string_view src, size_t count, Point* out) {
  return DecodeGorillaInto(src, count, [out](size_t i, uint64_t bits) {
    out[i].v = BitsToDouble(bits);
  });
}

}  // namespace tsviz
