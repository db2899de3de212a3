#ifndef TSVIZ_ENCODING_TS2DIFF_H_
#define TSVIZ_ENCODING_TS2DIFF_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace tsviz {

// Delta-of-delta timestamp codec (IoTDB's TS_2DIFF spirit): the first
// timestamp is stored raw, the first delta as a zigzag varint, and every
// subsequent value as the zigzag varint of (delta - previous delta). Regular
// sensor timestamps compress to ~1 byte/point, so decoding a chunk has a real
// CPU cost while storage stays compact — the asymmetry the paper's
// merge-free design exploits.

// Appends the encoding of `timestamps` (must be strictly increasing) to dst.
Status EncodeTs2Diff(const std::vector<Timestamp>& timestamps,
                     std::string* dst);

// The most timestamps a block of `bytes` bytes can hold: the first takes 8
// bytes and every later one at least one. Decoders reject a larger count
// before they allocate or write anything.
inline size_t MaxTs2DiffCount(size_t bytes) {
  return bytes < 8 ? 0 : bytes - 7;
}

// Decodes exactly `count` timestamps from the front of *src, advancing it.
Status DecodeTs2Diff(std::string_view* src, size_t count,
                     std::vector<Timestamp>* out);

// Same, but writes out[i].t for i < count; `out` must hold count points.
Status DecodeTs2Diff(std::string_view* src, size_t count, Point* out);

}  // namespace tsviz

#endif  // TSVIZ_ENCODING_TS2DIFF_H_
