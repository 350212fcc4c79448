#include "codec/bitstream.h"

namespace classminer::codec {

void BitWriter::PutBit(int bit) {
  current_ = static_cast<uint8_t>((current_ << 1) | (bit & 1));
  if (++bit_pos_ == 8) {
    bytes_.push_back(current_);
    current_ = 0;
    bit_pos_ = 0;
  }
}

void BitWriter::PutBits(uint32_t value, int count) {
  for (int i = count - 1; i >= 0; --i) PutBit(static_cast<int>((value >> i) & 1));
}

void BitWriter::PutUE(uint32_t v) {
  // Code number v+1 with leading-zero prefix.
  const uint32_t code = v + 1;
  int len = 0;
  for (uint32_t t = code; t > 1; t >>= 1) ++len;
  for (int i = 0; i < len; ++i) PutBit(0);
  PutBits(code, len + 1);
}

void BitWriter::PutSE(int32_t v) {
  // Unsigned arithmetic: 2 * v overflows int32 for |v| >= 2^30.
  const uint32_t mag =
      v > 0 ? static_cast<uint32_t>(v) : 0u - static_cast<uint32_t>(v);
  PutUE(v > 0 ? 2 * mag - 1 : 2 * mag);
}

std::vector<uint8_t> BitWriter::Finish() {
  while (bit_pos_ != 0) PutBit(0);
  return std::move(bytes_);
}

util::Status BitReader::status() const {
  switch (failure_) {
    case Failure::kNone:
      return util::Status::Ok();
    case Failure::kExhausted:
      return util::Status::DataLoss("bitstream exhausted");
    case Failure::kMalformed:
      return util::Status::DataLoss("malformed exp-Golomb code");
  }
  return util::Status::Ok();
}

bool BitReader::Exhaust() {
  byte_pos_ = size_;
  cache_ = 0;
  cache_bits_ = 0;
  failure_ = Failure::kExhausted;
  return false;
}

// Codes longer than the cached bits, a prefix running off the end of the
// data and over-long prefixes: one bit at a time, so every failure consumes
// exactly the bits a bit-serial reader would.
bool BitReader::ReadUESlow(uint32_t* value) {
  int zeros = 0;
  while (true) {
    uint32_t bit = 0;
    if (!ReadBit(&bit)) return false;
    if (bit == 1) break;
    if (++zeros > 31) {
      failure_ = Failure::kMalformed;
      return false;
    }
  }
  uint32_t rest = 0;
  if (!ReadBits(zeros, &rest)) return false;
  *value = ((1u << zeros) | rest) - 1;
  return true;
}

}  // namespace classminer::codec
