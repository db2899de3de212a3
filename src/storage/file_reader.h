#ifndef TSVIZ_STORAGE_FILE_READER_H_
#define TSVIZ_STORAGE_FILE_READER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/status.h"
#include "common/time_range.h"
#include "storage/chunk_metadata.h"

namespace tsviz {

// Random-access reader over one data file. Opening a file reads only the
// footer; chunk data is fetched with positional reads on demand, which is
// what makes lazy/partial chunk loading a genuine I/O saving.
class FileReader {
 public:
  static Result<std::shared_ptr<FileReader>> Open(const std::string& path);

  ~FileReader();
  FileReader(const FileReader&) = delete;
  FileReader& operator=(const FileReader&) = delete;

  const std::vector<ChunkMetadata>& chunks() const { return chunks_; }
  const std::string& path() const { return path_; }
  uint64_t file_size() const { return file_size_; }

  // How this file's pages are sealed, named by its magic; pass it to
  // DecodePage for every page read from this file.
  PageChecksum page_checksum() const { return page_checksum_; }

  // Process-unique id minted per reader instance; the shared page cache
  // keys on it, so a reopened file can never alias a stale cached page.
  // The destructor evicts every cache entry carrying this id.
  uint64_t cache_id() const { return cache_id_; }

  // File-level summary (the TimeseriesMetadata analog of Figure 15):
  // aggregated over all chunks at open time, so readers can prune a whole
  // file with one comparison instead of touching per-chunk metadata.
  const TimeRange& interval() const { return interval_; }
  uint64_t total_points() const { return total_points_; }

  // Reads `length` bytes starting at absolute file offset `offset`.
  Result<std::string> ReadRange(uint64_t offset, uint64_t length) const;

 private:
  FileReader(std::unique_ptr<RandomAccessFile> file, std::string path);

  std::unique_ptr<RandomAccessFile> file_;
  std::string path_;
  uint64_t file_size_;
  uint64_t cache_id_;
  PageChecksum page_checksum_ = PageChecksum::kCrc32c;
  std::vector<ChunkMetadata> chunks_;
  TimeRange interval_{1, 0};  // empty until chunks are loaded
  uint64_t total_points_ = 0;
};

}  // namespace tsviz

#endif  // TSVIZ_STORAGE_FILE_READER_H_
