#include "encoding/bit_stream.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/random.h"
#include "reference_codec.h"
#include "test_util.h"

namespace tsviz {
namespace {

TEST(BitStreamTest, SingleBits) {
  BitWriter writer;
  writer.WriteBit(true);
  writer.WriteBit(false);
  writer.WriteBit(true);
  std::string bytes = writer.Finish();
  ASSERT_EQ(bytes.size(), 1u);
  EXPECT_EQ(static_cast<uint8_t>(bytes[0]), 0b10100000);

  BitReader reader(bytes);
  ASSERT_OK_AND_ASSIGN(bool b1, reader.ReadBit());
  ASSERT_OK_AND_ASSIGN(bool b2, reader.ReadBit());
  ASSERT_OK_AND_ASSIGN(bool b3, reader.ReadBit());
  EXPECT_TRUE(b1);
  EXPECT_FALSE(b2);
  EXPECT_TRUE(b3);
}

TEST(BitStreamTest, MultiBitValuesCrossByteBoundaries) {
  BitWriter writer;
  writer.WriteBits(0b101, 3);
  writer.WriteBits(0xdead, 16);
  writer.WriteBits(0x1ffffffffull, 33);
  std::string bytes = writer.Finish();

  BitReader reader(bytes);
  ASSERT_OK_AND_ASSIGN(uint64_t a, reader.ReadBits(3));
  ASSERT_OK_AND_ASSIGN(uint64_t b, reader.ReadBits(16));
  ASSERT_OK_AND_ASSIGN(uint64_t c, reader.ReadBits(33));
  EXPECT_EQ(a, 0b101u);
  EXPECT_EQ(b, 0xdeadu);
  EXPECT_EQ(c, 0x1ffffffffull);
}

TEST(BitStreamTest, Full64BitValue) {
  BitWriter writer;
  writer.WriteBits(0xfedcba9876543210ull, 64);
  std::string bytes = writer.Finish();
  BitReader reader(bytes);
  ASSERT_OK_AND_ASSIGN(uint64_t v, reader.ReadBits(64));
  EXPECT_EQ(v, 0xfedcba9876543210ull);
}

TEST(BitStreamTest, WriterMasksHighBits) {
  BitWriter writer;
  writer.WriteBits(0xff, 4);  // only the low 4 bits count
  std::string bytes = writer.Finish();
  BitReader reader(bytes);
  ASSERT_OK_AND_ASSIGN(uint64_t v, reader.ReadBits(4));
  EXPECT_EQ(v, 0xfu);
}

TEST(BitStreamTest, ZeroBitWriteAndRead) {
  BitWriter writer;
  writer.WriteBits(123, 0);
  EXPECT_EQ(writer.bit_count(), 0u);
  std::string bytes = writer.Finish();
  EXPECT_TRUE(bytes.empty());
  BitReader reader(bytes);
  ASSERT_OK_AND_ASSIGN(uint64_t v, reader.ReadBits(0));
  EXPECT_EQ(v, 0u);
}

TEST(BitStreamTest, ReadPastEndIsCorruption) {
  BitWriter writer;
  writer.WriteBits(0b1010, 4);
  std::string bytes = writer.Finish();  // padded to 8 bits
  BitReader reader(bytes);
  ASSERT_OK(reader.ReadBits(8).status());
  EXPECT_EQ(reader.ReadBits(1).status().code(), StatusCode::kCorruption);
}

TEST(BitStreamTest, InvalidBitCountRejected) {
  BitReader reader("somedata");
  EXPECT_EQ(reader.ReadBits(65).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(reader.ReadBits(-1).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(BitStreamTest, RandomRoundTrip) {
  Rng rng(99);
  std::vector<std::pair<uint64_t, int>> items;
  BitWriter writer;
  for (int i = 0; i < 2000; ++i) {
    int bits = static_cast<int>(rng.Uniform(1, 64));
    uint64_t value = static_cast<uint64_t>(rng.Uniform(0, 1 << 30)) *
                     static_cast<uint64_t>(rng.Uniform(0, 1 << 30));
    if (bits < 64) value &= (uint64_t{1} << bits) - 1;
    items.emplace_back(value, bits);
    writer.WriteBits(value, bits);
  }
  std::string bytes = writer.Finish();
  BitReader reader(bytes);
  for (const auto& [value, bits] : items) {
    ASSERT_OK_AND_ASSIGN(uint64_t decoded, reader.ReadBits(bits));
    ASSERT_EQ(decoded, value);
  }
}

uint64_t RandomWord(Rng& rng) {
  return rng.engine()();
}

// Writes `prefix` bits, then a value of every width 0..64, then a few
// trailing bits, through both writers: the bytes and bit counts must agree
// at every bit offset the value can start at.
TEST(BitStreamTest, WriterMatchesReferenceAtEveryWidthAndOffset) {
  Rng rng(7);
  for (int prefix = 0; prefix < 8; ++prefix) {
    for (int width = 0; width <= 64; ++width) {
      for (int suffix : {0, 1, 7, 13, 64}) {
        const uint64_t head = RandomWord(rng);
        const uint64_t value = RandomWord(rng);  // high bits must be masked
        const uint64_t tail = RandomWord(rng);
        BitWriter writer;
        reference::BitWriter expected;
        writer.WriteBits(head, prefix);
        expected.WriteBits(head, prefix);
        writer.WriteBits(value, width);
        expected.WriteBits(value, width);
        writer.WriteBits(tail, suffix);
        expected.WriteBits(tail, suffix);
        ASSERT_EQ(writer.bit_count(), expected.bit_count());
        ASSERT_EQ(writer.Finish(), expected.Finish())
            << "prefix " << prefix << " width " << width << " suffix "
            << suffix;
      }
    }
  }
}

TEST(BitStreamTest, WriterMatchesReferenceOnRandomSequences) {
  Rng rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    BitWriter writer;
    reference::BitWriter expected;
    const int writes = static_cast<int>(rng.Uniform(0, 400));
    for (int i = 0; i < writes; ++i) {
      const int bits = static_cast<int>(rng.Uniform(0, 64));
      const uint64_t value = RandomWord(rng);
      writer.WriteBits(value, bits);
      expected.WriteBits(value, bits);
    }
    ASSERT_EQ(writer.bit_count(), expected.bit_count());
    ASSERT_EQ(writer.Finish(), expected.Finish()) << "trial " << trial;
  }
}

// Reads every width 0..64 from every bit position of buffers of 0..20
// bytes, so each start offset 0..7 meets the fast nine-byte path, the
// short tail, a read that ends exactly at the buffer end and reads that
// run one or more bits past it. Value and verdict must match the
// reference, and a failed read must leave the cursor where it was.
TEST(BitStreamTest, ReaderMatchesReferenceAtEveryWidthAndOffset) {
  Rng rng(13);
  for (size_t size = 0; size <= 20; ++size) {
    std::string bytes;
    for (size_t i = 0; i < size; ++i) {
      bytes.push_back(static_cast<char>(rng.Uniform(0, 255)));
    }
    for (size_t pos = 0; pos <= size * 8; ++pos) {
      BitReader at(bytes);
      reference::BitReader expected_at(bytes);
      for (size_t skipped = 0; skipped < pos;) {
        const int step = static_cast<int>(std::min<size_t>(64, pos - skipped));
        ASSERT_OK_AND_ASSIGN(uint64_t got, at.ReadBits(step));
        ASSERT_OK_AND_ASSIGN(uint64_t want, expected_at.ReadBits(step));
        ASSERT_EQ(got, want);
        skipped += static_cast<size_t>(step);
      }
      for (int width = 0; width <= 64; ++width) {
        BitReader reader = at;
        reference::BitReader expected = expected_at;
        Result<uint64_t> got = reader.ReadBits(width);
        Result<uint64_t> want = expected.ReadBits(width);
        ASSERT_EQ(got.ok(), want.ok())
            << "size " << size << " pos " << pos << " width " << width;
        if (!want.ok()) {
          EXPECT_EQ(got.status().code(), StatusCode::kCorruption);
          EXPECT_EQ(reader.bits_consumed(), pos);
          continue;
        }
        ASSERT_EQ(*got, *want)
            << "size " << size << " pos " << pos << " width " << width;
        EXPECT_EQ(reader.bits_consumed(), pos + static_cast<size_t>(width));
      }
    }
  }
}

TEST(BitStreamTest, ReadEndingExactlyAtBufferEndThenOnePast) {
  for (int offset = 0; offset < 8; ++offset) {
    for (int width = 1; width <= 64; ++width) {
      // A buffer whose last bit is the last bit of the read.
      const size_t bits = static_cast<size_t>(offset + width);
      if (bits % 8 != 0) continue;
      std::string bytes(bits / 8, static_cast<char>(0xa5));
      BitReader reader(bytes);
      ASSERT_OK(reader.ReadBits(offset).status());
      BitReader past = reader;
      ASSERT_OK(reader.ReadBits(width).status());
      EXPECT_EQ(reader.bits_remaining(), 0u);
      EXPECT_EQ(reader.ReadBits(1).status().code(), StatusCode::kCorruption);
      if (width < 64) {
        EXPECT_EQ(past.ReadBits(width + 1).status().code(),
                  StatusCode::kCorruption);
      }
    }
  }
}

}  // namespace
}  // namespace tsviz
