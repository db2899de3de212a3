#include "encoding/bit_stream.h"

namespace tsviz {

std::string BitWriter::Finish() {
  // Emit the whole bytes the register holds, the last one zero-padded.
  const uint64_t aligned =
      pending_bits_ == 0 ? 0 : pending_ << (64 - pending_bits_);
  char word[8];
  StoreBigEndian64(aligned, word);
  bytes_.append(word, static_cast<size_t>((pending_bits_ + 7) / 8));
  pending_ = 0;
  pending_bits_ = 0;
  return std::move(bytes_);
}

Result<uint64_t> BitReader::ReadBits(int bits) {
  if (bits < 0 || bits > 64) {
    return Status::InvalidArgument("bit count out of range");
  }
  if (static_cast<size_t>(bits) > bits_remaining()) {
    return Status::Corruption("bit stream exhausted");
  }
  if (bits == 0) return uint64_t{0};
  const uint64_t word =
      PeekBits64(reinterpret_cast<const uint8_t*>(data_.data()),
                 data_.size(), pos_);
  pos_ += static_cast<size_t>(bits);
  return word >> (64 - bits);
}

Result<bool> BitReader::ReadBit() {
  TSVIZ_ASSIGN_OR_RETURN(uint64_t bit, ReadBits(1));
  return bit != 0;
}

}  // namespace tsviz
