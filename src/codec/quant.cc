#include "codec/quant.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace classminer::codec {
namespace {

// JPEG Annex K luminance matrix.
constexpr int kBaseMatrix[kBlockPixels] = {
    16, 11, 10, 16, 24,  40,  51,  61,   //
    12, 12, 14, 19, 26,  58,  60,  55,   //
    14, 13, 16, 24, 40,  57,  69,  56,   //
    14, 17, 22, 29, 51,  87,  80,  62,   //
    18, 22, 37, 56, 68,  109, 103, 77,   //
    24, 35, 55, 64, 81,  104, 113, 92,   //
    49, 64, 78, 87, 103, 121, 120, 101,  //
    72, 92, 95, 98, 112, 100, 103, 99};

std::array<int, kBlockPixels> BuildZigzag() {
  std::array<int, kBlockPixels> order{};
  int idx = 0;
  for (int s = 0; s < 2 * kBlockSize - 1; ++s) {
    if (s % 2 == 0) {
      // Walk up-right.
      for (int y = std::min(s, kBlockSize - 1); y >= 0 && s - y < kBlockSize;
           --y) {
        order[static_cast<size_t>(idx++)] = y * kBlockSize + (s - y);
      }
    } else {
      for (int x = std::min(s, kBlockSize - 1); x >= 0 && s - x < kBlockSize;
           --x) {
        order[static_cast<size_t>(idx++)] = (s - x) * kBlockSize + x;
      }
    }
  }
  return order;
}

}  // namespace

const std::array<int, kBlockPixels>& ZigzagOrder() {
  static const std::array<int, kBlockPixels> order = BuildZigzag();
  return order;
}

QuantSteps MakeQuantSteps(int quality, bool chroma) {
  const double scale = std::max(1, quality) / 8.0;
  const double chroma_boost = chroma ? 1.4 : 1.0;
  QuantSteps steps;
  for (int i = 0; i < kBlockPixels; ++i) {
    steps.step[static_cast<size_t>(i)] =
        std::max(1.0, kBaseMatrix[i] * scale * chroma_boost);
  }
  return steps;
}

QuantizedBlock Quantize(const Block& freq, const QuantSteps& steps) {
  QuantizedBlock q{};
  for (size_t i = 0; i < kBlockPixels; ++i) {
    q[i] = static_cast<int32_t>(std::lround(freq[i] / steps.step[i]));
  }
  return q;
}

Block Dequantize(const QuantizedBlock& q, const QuantSteps& steps) {
  Block freq;
  for (size_t i = 0; i < kBlockPixels; ++i) freq[i] = q[i] * steps.step[i];
  return freq;
}

int32_t EncodeBlock(BitWriter* writer, const QuantizedBlock& q,
                    int32_t dc_predictor) {
  const auto& zz = ZigzagOrder();
  const int32_t dc = q[0];
  writer->PutSE(dc - dc_predictor);

  int run = 0;
  for (int i = 1; i < kBlockPixels; ++i) {
    const int32_t level = q[static_cast<size_t>(zz[static_cast<size_t>(i)])];
    if (level == 0) {
      ++run;
      continue;
    }
    writer->PutBit(1);  // coefficient flag
    writer->PutUE(static_cast<uint32_t>(run));
    writer->PutSE(level);
    run = 0;
  }
  writer->PutBit(0);  // EOB
  return dc;
}

util::StatusOr<int32_t> DecodeBlock(BitReader* reader, QuantizedBlock* q,
                                    int32_t dc_predictor) {
  q->fill(0);
  const auto& zz = ZigzagOrder();

  int32_t dc_delta = 0;
  if (!reader->ReadSE(&dc_delta)) return reader->status();
  const int64_t dc = int64_t{dc_predictor} + dc_delta;
  if (dc < std::numeric_limits<int32_t>::min() ||
      dc > std::numeric_limits<int32_t>::max()) {
    return util::Status::DataLoss("DC value out of range");
  }
  (*q)[0] = static_cast<int32_t>(dc);

  int pos = 1;
  while (true) {
    uint32_t flag = 0;
    if (!reader->ReadBit(&flag)) return reader->status();
    if (flag == 0) break;  // EOB
    uint32_t run = 0;
    int32_t level = 0;
    if (!reader->ReadUE(&run) || !reader->ReadSE(&level)) {
      return reader->status();
    }
    // Unsigned: a run of 2^31 or more must not wrap `pos` negative.
    if (run >= static_cast<uint32_t>(kBlockPixels - pos)) {
      return util::Status::DataLoss("AC run exceeds block size");
    }
    pos += static_cast<int>(run);
    (*q)[static_cast<size_t>(zz[static_cast<size_t>(pos)])] = level;
    ++pos;
  }
  return static_cast<int32_t>(dc);
}

}  // namespace classminer::codec
