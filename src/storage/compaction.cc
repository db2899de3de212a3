// Compaction for TsStore: rewrites file groups as disjoint, latest-only
// chunks. Compaction applies the merge function of Definition 2.7 once,
// eagerly, which is exactly the work M4-LSM exists to avoid doing per
// query. With time partitioning the merge is scoped to one partition's
// file group — partitions never overlap in time, so merging across a
// boundary could never deduplicate anything and would only rewrite cold
// bytes.
//
// Concurrency protocol: the merge runs on a snapshot taken under the lock,
// with the output file ids and a version range reserved at snapshot time.
// One version per base chunk is reserved — output chunks are sliced at
// points_per_chunk just like flushed chunks, so there are never more of
// them than base chunks — and each output chunk gets its own version from
// that range, preserving the invariant that a version uniquely identifies
// a chunk (DataReader keys its per-query cache on it). Anything that lands
// after the snapshot (tombstones; flushes are excluded by the maintenance
// mutex) gets a version strictly larger than the whole reserved range and
// therefore still applies to the merged data. The full Compact() swap
// keeps the post-snapshot suffix of the delete vector untouched and
// rewrites the mods file to exactly the surviving tombstones;
// CompactPartition() leaves the mods file alone because its tombstones may
// still cover other partitions' chunks.
//
// Crash ordering: publish, then unlink the base files, then rewrite the
// mods file — strictly in that order. A crash after the publish leaves old
// and new files coexisting (versions resolve the duplicates); a crash
// after the unlink leaves tombstones that are stale but harmless (every
// merged chunk's version exceeds every covered tombstone's). Rewriting the
// mods file any earlier would open a window where a crash resurrects
// deleted points: old files still on disk, their tombstones already gone.

#include <algorithm>
#include <map>

#include "common/env.h"
#include "common/logging.h"
#include "common/stats.h"
#include "obs/metrics.h"
#include "storage/file_format.h"
#include "storage/store.h"

namespace tsviz {

namespace {

// Merges one partition's chunks in ascending version (later writes
// overwrite earlier ones at the same timestamp), applies the tombstones,
// and returns the surviving latest-only points in time order.
Result<std::vector<Point>> MergePartitionChunks(
    const std::vector<ChunkHandle>& chunks,
    const std::vector<DeleteRecord>& deletes, uint64_t* bytes_rewritten) {
  std::vector<ChunkHandle> ordered = chunks;
  std::sort(ordered.begin(), ordered.end(),
            [](const ChunkHandle& a, const ChunkHandle& b) {
              return a.meta->version < b.meta->version;
            });
  std::map<Timestamp, std::pair<Version, Value>> latest;
  std::vector<Point> points;
  for (const ChunkHandle& handle : ordered) {
    // One read per chunk blob; the pages are slices of it. Pages of v01
    // files decode with their FNV-1a checksum and are rewritten as v02.
    const ChunkMetadata& meta = *handle.meta;
    TSVIZ_ASSIGN_OR_RETURN(
        std::string blob,
        handle.file->ReadRange(meta.data_offset, meta.data_length));
    for (const PageInfo& page : meta.pages) {
      if (uint64_t{page.offset} + page.length > blob.size()) {
        return Status::Corruption("page extends past its chunk blob");
      }
      points.clear();
      TSVIZ_RETURN_IF_ERROR(
          DecodePage(std::string_view(blob).substr(page.offset, page.length),
                     &points, handle.file->page_checksum()));
      *bytes_rewritten += page.length;
      for (const Point& p : points) {
        latest[p.t] = {meta.version, p.v};
      }
    }
  }
  std::vector<Point> merged;
  merged.reserve(latest.size());
  for (const auto& [t, entry] : latest) {
    const auto& [version, value] = entry;
    bool deleted = false;
    for (const DeleteRecord& del : deletes) {
      if (del.Deletes(t, version)) {
        deleted = true;
        break;
      }
    }
    if (!deleted) merged.push_back(Point{t, value});
  }
  return merged;
}

}  // namespace

Status TsStore::Compact() {
  Timer timer;
  uint64_t bytes_rewritten = 0;
  std::lock_guard<std::mutex> maintenance(maintenance_mutex_);
  TSVIZ_RETURN_IF_ERROR(FlushHoldingMaintenance());

  // Snapshot the state to merge and reserve one output identity per
  // non-empty partition.
  struct PartitionJob {
    size_t slot = 0;  // index into base->partitions
    uint64_t file_id = 0;
    Version first_version = 0;
    std::shared_ptr<FileReader> reader;  // merged output; null when empty
  };
  std::shared_ptr<const StoreState> base;
  std::vector<PartitionJob> jobs;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    base = state_;
    if (base->chunks.empty() && base->deletes.empty()) return Status::OK();
    for (size_t i = 0; i < base->partitions.size(); ++i) {
      if (base->partitions[i].chunks.empty()) continue;
      PartitionJob job;
      job.slot = i;
      job.file_id = next_file_id_++;
      job.first_version = next_version_;
      next_version_ +=
          std::max<Version>(1, base->partitions[i].chunks.size());
      jobs.push_back(job);
    }
  }

  // Merge and write each partition's output before touching the published
  // state. Each output chunk gets its own version from the partition's
  // reserved range (see the protocol note above).
  for (PartitionJob& job : jobs) {
    const StorePartition& part = base->partitions[job.slot];
    TSVIZ_ASSIGN_OR_RETURN(
        std::vector<Point> merged,
        MergePartitionChunks(part.chunks, base->deletes, &bytes_rewritten));
    if (merged.empty()) continue;
    const std::string path = FilePath(job.file_id, part.index);
    TSVIZ_ASSIGN_OR_RETURN(std::unique_ptr<FileWriter> writer,
                           FileWriter::Create(path, durable_fsync()));
    Version chunk_version = job.first_version;
    for (size_t begin = 0; begin < merged.size();
         begin += config_.points_per_chunk) {
      size_t count =
          std::min(config_.points_per_chunk, merged.size() - begin);
      std::vector<Point> slice(merged.begin() + begin,
                               merged.begin() + begin + count);
      TSVIZ_RETURN_IF_ERROR(writer->AppendChunk(slice, chunk_version++,
                                                config_.encoding, nullptr));
    }
    TSVIZ_RETURN_IF_ERROR(writer->Finish());
    TSVIZ_ASSIGN_OR_RETURN(job.reader, FileReader::Open(path));
  }
  // Outputs complete and named; old files, tombstones and state untouched.
  TSVIZ_CRASHPOINT("compact.after_data");

  // Swap: the merged files replace the base partitions; whatever was
  // appended after the snapshot (only tombstones — flushes hold the
  // maintenance mutex) is carried over verbatim. The mods file is NOT
  // rewritten yet — see the crash-ordering note at the top of this file.
  std::vector<std::string> old_paths;
  old_paths.reserve(base->files.size());
  for (const auto& file : base->files) old_paths.push_back(file->path());
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto next = std::make_shared<StoreState>();
    for (const PartitionJob& job : jobs) {
      if (job.reader == nullptr) continue;
      const StorePartition& src = base->partitions[job.slot];
      StorePartition part;
      part.index = src.index;
      part.interval = src.interval;
      for (const ChunkMetadata& meta : job.reader->chunks()) {
        part.chunks.push_back(ChunkHandle{job.reader, &meta});
      }
      part.files.push_back(job.reader);
      next->partitions.push_back(std::move(part));
    }
    next->deletes.assign(state_->deletes.begin() + base->deletes.size(),
                         state_->deletes.end());
    PublishLocked(std::move(next));
  }
  TSVIZ_CRASHPOINT("compact.after_swap");

  // The base files are no longer referenced by the published state; queries
  // that pinned them via a snapshot keep their open descriptors. Partition
  // directories whose group merged to nothing are removed too (RemoveDir
  // refuses non-empty directories, which is exactly what we want).
  for (const std::string& old_path : old_paths) {
    if (Status s = GetEnv()->RemoveFile(old_path); !s.ok()) {
      TSVIZ_WARN << "could not remove file" << Field("path", old_path);
    }
  }
  for (const StorePartition& part : base->partitions) {
    if (part.legacy()) continue;
    (void)GetEnv()->RemoveDir(PartitionDirPath(part.index));
  }
  TSVIZ_CRASHPOINT("compact.after_unlink");

  // Only now that the covered chunks are gone is it safe to drop their
  // tombstones. A concurrent DeleteRange since the publish is already in
  // state_->deletes (and appended to the old mods file), so the rewrite
  // from the live vector cannot lose it.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    TSVIZ_RETURN_IF_ERROR(RewriteModsLocked(state_->deletes));
  }

  static obs::Counter& compactions_total =
      obs::GetCounter("storage_compactions_total", "Full compaction runs");
  static obs::Counter& compaction_bytes = obs::GetCounter(
      "storage_compaction_bytes_rewritten_total",
      "Chunk data bytes read and rewritten by compaction");
  static obs::Histogram& compaction_millis = obs::GetHistogram(
      "storage_compaction_millis", "Compaction latency (ms)");
  compactions_total.Inc();
  compaction_bytes.Inc(bytes_rewritten);
  compaction_millis.Observe(timer.ElapsedMillis());
  return Status::OK();
}

Status TsStore::CompactPartition(int64_t index) {
  Timer timer;
  uint64_t bytes_rewritten = 0;
  std::lock_guard<std::mutex> maintenance(maintenance_mutex_);

  // Snapshot and reserve. Unlike Compact() there is no flush first: this
  // entry point only reorganizes files already on disk, so the background
  // policy can compact a cold partition without forcing a memtable flush
  // of unrelated hot data.
  std::shared_ptr<const StoreState> base;
  const StorePartition* src = nullptr;
  uint64_t file_id = 0;
  Version first_version = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    base = state_;
    for (const StorePartition& part : base->partitions) {
      if (part.index == index) {
        src = &part;
        break;
      }
    }
    if (src == nullptr || src->chunks.empty()) return Status::OK();
    file_id = next_file_id_++;
    first_version = next_version_;
    next_version_ += std::max<Version>(1, src->chunks.size());
  }

  TSVIZ_ASSIGN_OR_RETURN(
      std::vector<Point> merged,
      MergePartitionChunks(src->chunks, base->deletes, &bytes_rewritten));

  std::shared_ptr<FileReader> reader;
  if (!merged.empty()) {
    const std::string path = FilePath(file_id, index);
    TSVIZ_ASSIGN_OR_RETURN(std::unique_ptr<FileWriter> writer,
                           FileWriter::Create(path, durable_fsync()));
    Version chunk_version = first_version;
    for (size_t begin = 0; begin < merged.size();
         begin += config_.points_per_chunk) {
      size_t count =
          std::min(config_.points_per_chunk, merged.size() - begin);
      std::vector<Point> slice(merged.begin() + begin,
                               merged.begin() + begin + count);
      TSVIZ_RETURN_IF_ERROR(writer->AppendChunk(slice, chunk_version++,
                                                config_.encoding, nullptr));
    }
    TSVIZ_RETURN_IF_ERROR(writer->Finish());
    TSVIZ_ASSIGN_OR_RETURN(reader, FileReader::Open(path));
  }

  // Swap just this partition; every other partition's files — and the mods
  // file — stay untouched. The maintenance mutex excludes flushes, so the
  // partition's file set is exactly the snapshot's.
  std::vector<std::string> old_paths;
  old_paths.reserve(src->files.size());
  for (const auto& file : src->files) old_paths.push_back(file->path());
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto next = std::make_shared<StoreState>(*state_);
    auto it = std::find_if(
        next->partitions.begin(), next->partitions.end(),
        [index](const StorePartition& p) { return p.index == index; });
    if (it != next->partitions.end()) {
      if (reader == nullptr) {
        next->partitions.erase(it);
      } else {
        it->files.assign(1, reader);
        it->chunks.clear();
        for (const ChunkMetadata& meta : reader->chunks()) {
          it->chunks.push_back(ChunkHandle{reader, &meta});
        }
      }
    }
    PublishLocked(std::move(next));
  }

  for (const std::string& old_path : old_paths) {
    if (Status s = GetEnv()->RemoveFile(old_path); !s.ok()) {
      TSVIZ_WARN << "could not remove file" << Field("path", old_path);
    }
  }
  if (reader == nullptr && index != kLegacyPartitionIndex) {
    (void)GetEnv()->RemoveDir(PartitionDirPath(index));
  }

  static obs::Counter& partition_compactions = obs::GetCounter(
      "partition_compactions_total", "Single-partition compaction runs");
  static obs::Counter& compaction_bytes = obs::GetCounter(
      "storage_compaction_bytes_rewritten_total",
      "Chunk data bytes read and rewritten by compaction");
  static obs::Histogram& compaction_millis = obs::GetHistogram(
      "storage_compaction_millis", "Compaction latency (ms)");
  partition_compactions.Inc();
  compaction_bytes.Inc(bytes_rewritten);
  compaction_millis.Observe(timer.ElapsedMillis());
  return Status::OK();
}

}  // namespace tsviz
