#ifndef CLASSMINER_CODEC_BITSTREAM_H_
#define CLASSMINER_CODEC_BITSTREAM_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include "util/status.h"

namespace classminer::codec {

// MSB-first bit writer used by the entropy coder.
class BitWriter {
 public:
  void PutBit(int bit);
  void PutBits(uint32_t value, int count);  // writes `count` low bits, MSB first

  // Unsigned exp-Golomb code (H.264-style): v >= 0.
  void PutUE(uint32_t v);
  // Signed exp-Golomb: 0, 1, -1, 2, -2, ...
  void PutSE(int32_t v);

  // Pads with zero bits to a byte boundary and returns the buffer.
  std::vector<uint8_t> Finish();

  size_t bit_count() const { return bytes_.size() * 8 + bit_pos_; }

 private:
  std::vector<uint8_t> bytes_;
  uint8_t current_ = 0;
  int bit_pos_ = 0;  // bits already used in `current_`
};

// MSB-first bit reader over a cached 64-bit word. Reads are status-free:
// each returns false on failure and the reader keeps the failure, which
// status() turns into a DATA_LOSS Status only when a caller asks. Two
// failures exist, with the semantics of a bit-at-a-time reader:
//  - running out of data consumes every remaining bit ("bitstream
//    exhausted");
//  - an exp-Golomb prefix of more than 31 zeros fails once the 32nd zero is
//    consumed ("malformed exp-Golomb code").
// bits_consumed() after a failure is therefore the same as that reader's.
class BitReader {
 public:
  BitReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit BitReader(const std::vector<uint8_t>& bytes)
      : BitReader(bytes.data(), bytes.size()) {}

  bool ReadBit(uint32_t* bit) { return ReadBits(1, bit); }
  // `count` in [0, 32].
  bool ReadBits(int count, uint32_t* value) {
    if (cache_bits_ < count) Refill();
    if (cache_bits_ < count) return Exhaust();
    *value = count == 0 ? 0u : static_cast<uint32_t>(cache_ >> (64 - count));
    Consume(count);
    return true;
  }
  bool ReadUE(uint32_t* value) {
    if (cache_bits_ < 32) Refill();
    // Bits below cache_bits_ are either further stream bits or zero, so a
    // leading one found inside the valid bits is the code's marker bit.
    const int zeros = std::countl_zero(cache_);
    const int len = 2 * zeros + 1;
    if (len <= cache_bits_) {  // also implies zeros <= 31
      *value = static_cast<uint32_t>((cache_ >> (64 - len)) - 1);
      Consume(len);
      return true;
    }
    return ReadUESlow(value);
  }
  bool ReadSE(int32_t* value) {
    uint32_t v = 0;
    if (!ReadUE(&v)) return false;
    *value = (v % 2 == 1) ? static_cast<int32_t>((v + 1) / 2)
                          : -static_cast<int32_t>(v / 2);
    return true;
  }

  // OK, or the DATA_LOSS of the latest failed read.
  util::Status status() const;

  size_t bits_consumed() const { return byte_pos_ * 8 - cache_bits_; }

 private:
  enum class Failure : uint8_t { kNone, kExhausted, kMalformed };

  // Tops the cache up to at least 57 valid bits while data remains.
  void Refill() {
    if (size_ - byte_pos_ >= 8) {
      uint64_t word;
      std::memcpy(&word, data_ + byte_pos_, sizeof(word));
      if constexpr (std::endian::native == std::endian::little) {
        word = __builtin_bswap64(word);
      }
      // Whole bytes only; the bits of a partly taken byte land exactly
      // where the next refill ORs that byte in again.
      cache_ |= word >> cache_bits_;
      const int bytes = (64 - cache_bits_) / 8;
      byte_pos_ += static_cast<size_t>(bytes);
      cache_bits_ += 8 * bytes;
      return;
    }
    while (cache_bits_ <= 56 && byte_pos_ < size_) {
      cache_ |= static_cast<uint64_t>(data_[byte_pos_++]) << (56 - cache_bits_);
      cache_bits_ += 8;
    }
  }
  void Consume(int count) {
    // count <= 63 on every path (exp-Golomb codes are at most 63 bits).
    cache_ <<= count;
    cache_bits_ -= count;
  }
  bool Exhaust();
  bool ReadUESlow(uint32_t* value);

  const uint8_t* data_;
  size_t size_;
  size_t byte_pos_ = 0;  // next byte to load into the cache
  uint64_t cache_ = 0;   // next bits, MSB first
  int cache_bits_ = 0;   // valid bits in cache_
  Failure failure_ = Failure::kNone;
};

}  // namespace classminer::codec

#endif  // CLASSMINER_CODEC_BITSTREAM_H_
