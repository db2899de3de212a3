#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <vector>

#include "storage/file_format.h"
#include "storage/file_reader.h"
#include "storage/file_writer.h"
#include "test_util.h"

namespace tsviz {
namespace {

ChunkEncodingOptions TestOptions() {
  ChunkEncodingOptions options;
  options.page_size_points = 50;
  return options;
}

class FileTest : public ::testing::Test {
 protected:
  std::string FilePath(const std::string& name) {
    return dir_.path() + "/" + name;
  }

  TempDir dir_;
};

TEST_F(FileTest, WriteThenReadBack) {
  std::string path = FilePath("a.tsdat");
  std::vector<Point> c1 = MakeLinearSeries(120, 0, 10);
  std::vector<Point> c2 = MakeLinearSeries(80, 5000, 10);
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<FileWriter> writer,
                         FileWriter::Create(path));
    ASSERT_OK(writer->AppendChunk(c1, 1, TestOptions(), nullptr));
    ASSERT_OK(writer->AppendChunk(c2, 2, TestOptions(), nullptr));
    EXPECT_EQ(writer->num_chunks(), 2u);
    ASSERT_OK(writer->Finish());
  }

  ASSERT_OK_AND_ASSIGN(std::shared_ptr<FileReader> reader,
                       FileReader::Open(path));
  ASSERT_EQ(reader->chunks().size(), 2u);
  EXPECT_EQ(reader->chunks()[0].version, 1u);
  EXPECT_EQ(reader->chunks()[1].version, 2u);
  EXPECT_EQ(reader->chunks()[0].count, 120u);
  EXPECT_EQ(reader->chunks()[1].count, 80u);

  // Chunk blobs decode back to the original points via the directory.
  for (size_t ci = 0; ci < 2; ++ci) {
    const ChunkMetadata& meta = reader->chunks()[ci];
    std::vector<Point> decoded;
    for (const PageInfo& page : meta.pages) {
      ASSERT_OK_AND_ASSIGN(
          std::string raw,
          reader->ReadRange(meta.data_offset + page.offset, page.length));
      ASSERT_OK(DecodePage(raw, &decoded));
    }
    EXPECT_EQ(decoded, ci == 0 ? c1 : c2);
  }
}

TEST_F(FileTest, FinishTwiceRejected) {
  std::string path = FilePath("b.tsdat");
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<FileWriter> writer,
                       FileWriter::Create(path));
  ASSERT_OK(writer->AppendChunk(MakeLinearSeries(10), 1, TestOptions(),
                                nullptr));
  ASSERT_OK(writer->Finish());
  EXPECT_EQ(writer->Finish().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(writer
                ->AppendChunk(MakeLinearSeries(10), 2, TestOptions(),
                              nullptr)
                .code(),
            StatusCode::kInvalidArgument);
}

TEST_F(FileTest, EmptyFileIsValidWithZeroChunks) {
  std::string path = FilePath("empty.tsdat");
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<FileWriter> writer,
                         FileWriter::Create(path));
    ASSERT_OK(writer->Finish());
  }
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<FileReader> reader,
                       FileReader::Open(path));
  EXPECT_TRUE(reader->chunks().empty());
}

TEST_F(FileTest, MissingFileIsIoError) {
  EXPECT_EQ(FileReader::Open(FilePath("nonexistent")).status().code(),
            StatusCode::kIoError);
}

TEST_F(FileTest, TruncatedFileIsCorruption) {
  std::string path = FilePath("trunc.tsdat");
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<FileWriter> writer,
                         FileWriter::Create(path));
    ASSERT_OK(writer->AppendChunk(MakeLinearSeries(200), 1, TestOptions(),
                                  nullptr));
    ASSERT_OK(writer->Finish());
  }
  auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 5);
  EXPECT_FALSE(FileReader::Open(path).ok());
}

TEST_F(FileTest, CorruptedFooterDetected) {
  std::string path = FilePath("corrupt.tsdat");
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<FileWriter> writer,
                         FileWriter::Create(path));
    ASSERT_OK(writer->AppendChunk(MakeLinearSeries(200), 1, TestOptions(),
                                  nullptr));
    ASSERT_OK(writer->Finish());
  }
  // Flip a byte in the footer region (just before the trailer).
  auto size = std::filesystem::file_size(path);
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(static_cast<std::streamoff>(size - kFileTrailerSize - 3));
  char c;
  f.read(&c, 1);
  f.seekp(static_cast<std::streamoff>(size - kFileTrailerSize - 3));
  c = static_cast<char>(c ^ 0x7f);
  f.write(&c, 1);
  f.close();
  EXPECT_EQ(FileReader::Open(path).status().code(), StatusCode::kCorruption);
}

TEST_F(FileTest, GarbageFileRejected) {
  std::string path = FilePath("garbage.tsdat");
  {
    std::ofstream out(path, std::ios::binary);
    std::string junk(500, 'z');
    out.write(junk.data(), static_cast<std::streamsize>(junk.size()));
  }
  EXPECT_FALSE(FileReader::Open(path).ok());
}

// Overwrites the first bytes of the file at `path` with `head`.
void OverwriteHead(const std::string& path, std::string_view head) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.write(head.data(), static_cast<std::streamsize>(head.size()));
  ASSERT_TRUE(f.good());
}

TEST_F(FileTest, NewFilesCarryV02MagicAndCrcPages) {
  std::string path = FilePath("v02.tsdat");
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<FileWriter> writer,
                         FileWriter::Create(path));
    ASSERT_OK(writer->AppendChunk(MakeLinearSeries(120), 1, TestOptions(),
                                  nullptr));
    ASSERT_OK(writer->Finish());
  }
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<FileReader> reader,
                       FileReader::Open(path));
  EXPECT_EQ(reader->page_checksum(), PageChecksum::kCrc32c);
  EXPECT_EQ(reader->ReadRange(0, 8).value(), "TSVZFL02");
  EXPECT_EQ(reader->ReadRange(reader->file_size() - 8, 8).value(),
            "TSVZFL02");
}

TEST_F(FileTest, LeadingMagicMustMatchTrailingMagic) {
  for (std::string_view head : {std::string_view("JUNKJUNK"), kFileMagicV1,
                                kModsMagic}) {
    std::string path = FilePath("head.tsdat");
    {
      ASSERT_OK_AND_ASSIGN(std::unique_ptr<FileWriter> writer,
                           FileWriter::Create(path));
      ASSERT_OK(writer->AppendChunk(MakeLinearSeries(50), 1, TestOptions(),
                                    nullptr));
      ASSERT_OK(writer->Finish());
    }
    OverwriteHead(path, head);
    EXPECT_EQ(FileReader::Open(path).status().code(), StatusCode::kCorruption)
        << head;
  }
}

TEST_F(FileTest, V01FileReadsWithFnvPages) {
  std::string path = FilePath("v01.tsdat");
  std::vector<Point> points = MakeLinearSeries(120, 0, 10);
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<FileWriter> writer,
                         FileWriter::Create(path));
    ASSERT_OK(writer->AppendChunk(points, 1, TestOptions(), nullptr));
    ASSERT_OK(writer->Finish());
  }
  RewriteAsV01(path);
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<FileReader> reader,
                       FileReader::Open(path));
  EXPECT_EQ(reader->page_checksum(), PageChecksum::kFnv1a64);
  const ChunkMetadata& meta = reader->chunks()[0];
  std::vector<Point> decoded;
  for (const PageInfo& page : meta.pages) {
    ASSERT_OK_AND_ASSIGN(
        std::string raw,
        reader->ReadRange(meta.data_offset + page.offset, page.length));
    EXPECT_EQ(DecodePage(raw, &decoded).code(), StatusCode::kCorruption);
    ASSERT_OK(DecodePage(raw, &decoded, reader->page_checksum()));
  }
  EXPECT_EQ(decoded, points);

  // A v02 head on a v01 tail is as corrupt as the other way round.
  OverwriteHead(path, kFileMagic);
  EXPECT_EQ(FileReader::Open(path).status().code(), StatusCode::kCorruption);
}

TEST_F(FileTest, ReadRangePastEofIsOutOfRange) {
  std::string path = FilePath("c.tsdat");
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<FileWriter> writer,
                         FileWriter::Create(path));
    ASSERT_OK(writer->Finish());
  }
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<FileReader> reader,
                       FileReader::Open(path));
  EXPECT_EQ(reader->ReadRange(reader->file_size(), 1).status().code(),
            StatusCode::kOutOfRange);
}

TEST(FileTailTest, RoundTrip) {
  std::vector<ChunkMetadata> chunks(3);
  chunks[0].version = 1;
  chunks[0].count = 10;
  chunks[1].version = 2;
  chunks[1].count = 20;
  chunks[2].version = 3;
  chunks[2].count = 30;
  std::string tail = SerializeFileTail(chunks);
  ASSERT_OK_AND_ASSIGN(std::vector<ChunkMetadata> decoded,
                       ParseFileTail(tail, /*file_size=*/1 << 20));
  ASSERT_EQ(decoded.size(), 3u);
  EXPECT_EQ(decoded[1].count, 20u);
}

TEST(FileTailTest, RejectsChunkPastEof) {
  std::vector<ChunkMetadata> chunks(1);
  chunks[0].data_offset = 100;
  chunks[0].data_length = 100;
  std::string tail = SerializeFileTail(chunks);
  EXPECT_EQ(ParseFileTail(tail, /*file_size=*/150).status().code(),
            StatusCode::kCorruption);
}

TEST(ModsRecordTest, RoundTrip) {
  DeleteRecord del{TimeRange(-100, 500), 42};
  std::string buf;
  SerializeDeleteRecord(del, &buf);
  EXPECT_EQ(buf.size(), kModsRecordSize);
  std::string_view view = buf;
  ASSERT_OK_AND_ASSIGN(DeleteRecord decoded, ParseDeleteRecord(&view));
  EXPECT_EQ(decoded, del);
}

}  // namespace
}  // namespace tsviz
