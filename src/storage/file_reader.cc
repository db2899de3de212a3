#include "storage/file_reader.h"

#include <algorithm>
#include <atomic>

#include "storage/file_format.h"
#include "storage/page_cache.h"
#include "storage/quarantine.h"

namespace tsviz {

namespace {

uint64_t NextCacheId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

FileReader::FileReader(std::unique_ptr<RandomAccessFile> file,
                       std::string path)
    : file_(std::move(file)),
      path_(std::move(path)),
      file_size_(file_->size()),
      cache_id_(NextCacheId()) {}

FileReader::~FileReader() {
  // The file is going away (compaction, series drop, store close): its
  // decoded pages must not outlive it in the shared cache, and quarantine
  // entries for it have nothing left to shadow.
  SharedPageCache::Instance().EvictFile(cache_id_);
  ChunkQuarantine::Instance().ForgetFile(cache_id_);
}

Result<std::shared_ptr<FileReader>> FileReader::Open(const std::string& path) {
  TSVIZ_ASSIGN_OR_RETURN(std::unique_ptr<RandomAccessFile> file,
                         GetEnv()->NewRandomAccessFile(path));
  auto reader =
      std::shared_ptr<FileReader>(new FileReader(std::move(file), path));

  if (reader->file_size_ <
      kFileMagic.size() + kFileTrailerSize) {
    return Status::Corruption(path + ": file too small");
  }
  // Read the fixed trailer to learn the footer length, then the footer.
  TSVIZ_ASSIGN_OR_RETURN(
      std::string trailer,
      reader->ReadRange(reader->file_size_ - kFileTrailerSize,
                        kFileTrailerSize));
  std::string_view trailer_view = trailer;
  // Footer length is the first fixed64 of the trailer.
  uint64_t footer_len = 0;
  for (int i = 7; i >= 0; --i) {
    footer_len = (footer_len << 8) | static_cast<uint8_t>(trailer_view[i]);
  }
  uint64_t tail_size = footer_len + kFileTrailerSize;
  if (tail_size > reader->file_size_ - kFileMagic.size()) {
    return Status::Corruption(path + ": footer larger than file");
  }
  TSVIZ_ASSIGN_OR_RETURN(
      std::string tail,
      reader->ReadRange(reader->file_size_ - tail_size, tail_size));
  TSVIZ_ASSIGN_OR_RETURN(reader->chunks_,
                         ParseFileTail(tail, reader->file_size_));
  // The trailing magic is valid now; the leading one must be the same.
  TSVIZ_ASSIGN_OR_RETURN(std::string head,
                         reader->ReadRange(0, kFileMagic.size()));
  const std::string_view tail_magic =
      std::string_view(tail).substr(tail.size() - kFileMagic.size());
  if (head != tail_magic) {
    return Status::Corruption(path + ": leading magic does not match trailer");
  }
  TSVIZ_ASSIGN_OR_RETURN(reader->page_checksum_,
                         PageChecksumForMagic(tail_magic));
  for (const ChunkMetadata& meta : reader->chunks_) {
    if (reader->total_points_ == 0) {
      reader->interval_ = meta.Interval();
    } else {
      reader->interval_.start =
          std::min(reader->interval_.start, meta.stats.first.t);
      reader->interval_.end =
          std::max(reader->interval_.end, meta.stats.last.t);
    }
    reader->total_points_ += meta.count;
  }
  return reader;
}

Result<std::string> FileReader::ReadRange(uint64_t offset,
                                          uint64_t length) const {
  if (offset + length > file_size_) {
    return Status::OutOfRange(path_ + ": read past end of file");
  }
  std::string buffer;
  TSVIZ_RETURN_IF_ERROR(file_->Read(offset, length, &buffer));
  return buffer;
}

}  // namespace tsviz
