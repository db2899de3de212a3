#include "encoding/ts2diff.h"

#include "encoding/varint.h"

namespace tsviz {

namespace {

// The one ts2diff decode loop; store(i, t) receives the i-th timestamp.
// Deltas add in unsigned arithmetic so a corrupt stream wraps instead of
// overflowing, and the sign check below rejects it.
template <typename Store>
Status DecodeTs2DiffInto(std::string_view* src, size_t count, Store store) {
  if (count == 0) return Status::OK();
  if (count > MaxTs2DiffCount(src->size())) {
    return Status::Corruption("ts2diff block too short for its count");
  }
  const char* p = src->data();
  const char* const end = p + src->size();
  uint64_t prev = DecodeFixed64(p);
  p += 8;
  store(0, static_cast<Timestamp>(prev));
  uint64_t prev_delta = 0;
  for (size_t i = 1; i < count; ++i) {
    uint64_t raw;
    p = DecodeVarint64(p, end, &raw);
    if (p == nullptr) return Status::Corruption("malformed ts2diff varint");
    const uint64_t delta =
        prev_delta + static_cast<uint64_t>(ZigZagDecode(raw));
    if (static_cast<int64_t>(delta) <= 0) {
      return Status::Corruption("non-increasing timestamp");
    }
    prev += delta;
    prev_delta = delta;
    store(i, static_cast<Timestamp>(prev));
  }
  src->remove_prefix(static_cast<size_t>(p - src->data()));
  return Status::OK();
}

}  // namespace

Status EncodeTs2Diff(const std::vector<Timestamp>& timestamps,
                     std::string* dst) {
  if (timestamps.empty()) return Status::OK();
  PutFixed64(dst, static_cast<uint64_t>(timestamps[0]));
  int64_t prev_delta = 0;
  for (size_t i = 1; i < timestamps.size(); ++i) {
    if (timestamps[i] <= timestamps[i - 1]) {
      return Status::InvalidArgument(
          "timestamps must be strictly increasing within a chunk");
    }
    int64_t delta = timestamps[i] - timestamps[i - 1];
    PutSignedVarint64(dst, delta - prev_delta);
    prev_delta = delta;
  }
  return Status::OK();
}

Status DecodeTs2Diff(std::string_view* src, size_t count,
                     std::vector<Timestamp>* out) {
  out->clear();
  if (count > MaxTs2DiffCount(src->size())) {
    return Status::Corruption("ts2diff block too short for its count");
  }
  out->resize(count);
  Timestamp* dst = out->data();
  Status status = DecodeTs2DiffInto(
      src, count, [dst](size_t i, Timestamp t) { dst[i] = t; });
  if (!status.ok()) out->clear();
  return status;
}

Status DecodeTs2Diff(std::string_view* src, size_t count, Point* out) {
  return DecodeTs2DiffInto(src, count,
                           [out](size_t i, Timestamp t) { out[i].t = t; });
}

}  // namespace tsviz
