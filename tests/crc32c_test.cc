#include "encoding/crc32c.h"

#include <gtest/gtest.h>

#include <string>

#include "common/random.h"
#include "reference_codec.h"

namespace tsviz {
namespace {

uint32_t Table(std::string_view data) { return Crc32cPortable(data); }

TEST(Crc32cTest, KnownVectors) {
  for (auto* crc : {&Crc32c, &Table, &reference::Crc32c}) {
    EXPECT_EQ(crc("123456789"), 0xE3069283u);
    EXPECT_EQ(crc(""), 0u);
    // RFC 3720, appendix B.4.
    EXPECT_EQ(crc(std::string(32, '\0')), 0x8A9136AAu);
    EXPECT_EQ(crc(std::string(32, '\xff')), 0x62A8AB43u);
    std::string ascending;
    for (int i = 0; i < 32; ++i) ascending.push_back(static_cast<char>(i));
    EXPECT_EQ(crc(ascending), 0x46DD794Eu);
  }
}

// Every length 0-4096 at every alignment 0-7: the word loop, the byte tail
// and unaligned loads all agree with the table path. On a CPU without
// SSE4.2 both sides are the table path, so this only checks itself.
TEST(Crc32cTest, HardwarePathMatchesTable) {
  RecordProperty("hardware", Crc32cUsesHardware() ? "sse4.2" : "none");
  Rng rng(32);
  std::string buffer(4096 + 8, '\0');
  for (char& c : buffer) c = static_cast<char>(rng.Uniform(0, 255));
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t length = 0; length <= 4096; ++length) {
      const std::string_view data(buffer.data() + offset, length);
      ASSERT_EQ(Crc32c(data), Crc32cPortable(data))
          << "offset " << offset << " length " << length;
    }
  }
}

TEST(Crc32cTest, TableMatchesBitwiseReference) {
  Rng rng(33);
  for (size_t length = 0; length <= 300; ++length) {
    std::string data;
    for (size_t i = 0; i < length; ++i) {
      data.push_back(static_cast<char>(rng.Uniform(0, 255)));
    }
    ASSERT_EQ(Crc32cPortable(data), reference::Crc32c(data)) << length;
  }
}

}  // namespace
}  // namespace tsviz
