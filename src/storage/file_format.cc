#include "storage/file_format.h"

#include "encoding/varint.h"

namespace tsviz {

Result<PageChecksum> PageChecksumForMagic(std::string_view magic) {
  if (magic == kFileMagic) return PageChecksum::kCrc32c;
  if (magic == kFileMagicV1) return PageChecksum::kFnv1a64;
  return Status::Corruption("bad data file magic");
}

std::string SerializeFileTail(const std::vector<ChunkMetadata>& chunks) {
  std::string footer;
  PutVarint64(&footer, chunks.size());
  for (const ChunkMetadata& meta : chunks) {
    meta.SerializeTo(&footer);
  }
  std::string tail = footer;
  PutFixed64(&tail, footer.size());
  PutFixed64(&tail, Fnv1a64(footer));
  tail.append(kFileMagic);
  return tail;
}

Result<std::vector<ChunkMetadata>> ParseFileTail(std::string_view tail,
                                                 uint64_t file_size) {
  if (tail.size() < kFileTrailerSize) {
    return Status::Corruption("file tail too small");
  }
  std::string_view trailer = tail.substr(tail.size() - kFileTrailerSize);
  TSVIZ_ASSIGN_OR_RETURN(uint64_t footer_len, GetFixed64(&trailer));
  TSVIZ_ASSIGN_OR_RETURN(uint64_t checksum, GetFixed64(&trailer));
  if (!PageChecksumForMagic(trailer).ok()) {
    return Status::Corruption("bad trailing magic");
  }
  if (footer_len + kFileTrailerSize > tail.size()) {
    return Status::Corruption("footer length exceeds provided tail");
  }
  std::string_view footer =
      tail.substr(tail.size() - kFileTrailerSize - footer_len, footer_len);
  if (Fnv1a64(footer) != checksum) {
    return Status::Corruption("footer checksum mismatch");
  }

  TSVIZ_ASSIGN_OR_RETURN(uint64_t n_chunks, GetVarint64(&footer));
  if (n_chunks > (1u << 26)) return Status::Corruption("absurd chunk count");
  std::vector<ChunkMetadata> chunks;
  chunks.reserve(n_chunks);
  for (uint64_t i = 0; i < n_chunks; ++i) {
    TSVIZ_ASSIGN_OR_RETURN(ChunkMetadata meta,
                           ChunkMetadata::Deserialize(&footer));
    if (meta.data_offset + meta.data_length > file_size) {
      return Status::Corruption("chunk blob extends past end of file");
    }
    chunks.push_back(std::move(meta));
  }
  return chunks;
}

void SerializeDeleteRecord(const DeleteRecord& del, std::string* dst) {
  PutFixed64(dst, static_cast<uint64_t>(del.range.start));
  PutFixed64(dst, static_cast<uint64_t>(del.range.end));
  PutFixed64(dst, del.version);
}

Result<DeleteRecord> ParseDeleteRecord(std::string_view* src) {
  DeleteRecord del;
  TSVIZ_ASSIGN_OR_RETURN(uint64_t start, GetFixed64(src));
  TSVIZ_ASSIGN_OR_RETURN(uint64_t end, GetFixed64(src));
  TSVIZ_ASSIGN_OR_RETURN(del.version, GetFixed64(src));
  del.range.start = static_cast<Timestamp>(start);
  del.range.end = static_cast<Timestamp>(end);
  return del;
}

}  // namespace tsviz
