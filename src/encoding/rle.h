#ifndef TSVIZ_ENCODING_RLE_H_
#define TSVIZ_ENCODING_RLE_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace tsviz {

// Run-length value codec: runs of bit-identical doubles become one
// (varint length, fixed64 bits) pair. Ideal for status-like IoT channels
// that hold a value for long stretches (the RcvTime shape); degrades to
// 9 bytes/point on noisy data, so Gorilla remains the default.

Status EncodeRle(const std::vector<Value>& values, std::string* dst);

// Decodes exactly `count` values. A run holds any number of points, so the
// block's own run lengths bound `count`: they are checked before the output
// is allocated.
Status DecodeRle(std::string_view src, size_t count,
                 std::vector<Value>* out);

// Same, but writes out[i].v for i < count; `out` must hold count points.
Status DecodeRle(std::string_view src, size_t count, Point* out);

}  // namespace tsviz

#endif  // TSVIZ_ENCODING_RLE_H_
