#include "encoding/rle.h"

#include <algorithm>
#include <cstring>

#include "encoding/varint.h"

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

// The one RLE decode loop; store(begin, run, bits) receives each run.
// Runs are validated against the values still owed before they are stored.
template <typename Store>
Status DecodeRleInto(std::string_view src, size_t count, Store store) {
  size_t filled = 0;
  while (filled < count) {
    TSVIZ_ASSIGN_OR_RETURN(uint64_t run, GetVarint64(&src));
    if (run == 0 || run > count - filled) {
      return Status::Corruption("rle run overflows value count");
    }
    TSVIZ_ASSIGN_OR_RETURN(uint64_t bits, GetFixed64(&src));
    store(filled, static_cast<size_t>(run), bits);
    filled += static_cast<size_t>(run);
  }
  return Status::OK();
}

}  // namespace

Status EncodeRle(const std::vector<Value>& values, std::string* dst) {
  size_t i = 0;
  while (i < values.size()) {
    uint64_t bits = DoubleToBits(values[i]);
    size_t run = 1;
    while (i + run < values.size() &&
           DoubleToBits(values[i + run]) == bits) {
      ++run;
    }
    PutVarint64(dst, run);
    PutFixed64(dst, bits);
    i += run;
  }
  return Status::OK();
}

Status DecodeRle(std::string_view src, size_t count,
                 std::vector<Value>* out) {
  out->clear();
  // First pass: only validate the runs, so a huge count costs nothing.
  TSVIZ_RETURN_IF_ERROR(
      DecodeRleInto(src, count, [](size_t, size_t, uint64_t) {}));
  out->resize(count);
  Value* dst = out->data();
  return DecodeRleInto(src, count,
                       [dst](size_t begin, size_t run, uint64_t bits) {
                         std::fill_n(dst + begin, run, BitsToDouble(bits));
                       });
}

Status DecodeRle(std::string_view src, size_t count, Point* out) {
  return DecodeRleInto(src, count,
                       [out](size_t begin, size_t run, uint64_t bits) {
                         const Value v = BitsToDouble(bits);
                         for (size_t i = begin; i < begin + run; ++i) {
                           out[i].v = v;
                         }
                       });
}

}  // namespace tsviz
