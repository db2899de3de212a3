#ifndef TSVIZ_ENCODING_GORILLA_H_
#define TSVIZ_ENCODING_GORILLA_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace tsviz {

// Gorilla XOR compression for doubles (Pelkonen et al., VLDB 2015), the
// scheme IoTDB and most TSDBs use for float values: each value is XORed with
// its predecessor; identical values cost 1 bit, values with a shared
// leading/trailing-zero window cost a few bits plus the meaningful payload.

// Appends the encoding of `values` to dst.
Status EncodeGorilla(const std::vector<Value>& values, std::string* dst);

// The most values a block of `bytes` bytes can hold: the first takes 64
// bits and every later one at least one. Decoders reject a larger count
// before they allocate or write anything.
inline size_t MaxGorillaCount(size_t bytes) {
  return bytes < 8 ? 0 : bytes * 8 - 63;
}

// Decodes exactly `count` values from `src` (the whole buffer belongs to this
// block; bit padding at the tail is ignored).
Status DecodeGorilla(std::string_view src, size_t count,
                     std::vector<Value>* out);

// Same, but writes out[i].v for i < count; `out` must hold count points.
Status DecodeGorilla(std::string_view src, size_t count, Point* out);

}  // namespace tsviz

#endif  // TSVIZ_ENCODING_GORILLA_H_
