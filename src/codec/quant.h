#ifndef CLASSMINER_CODEC_QUANT_H_
#define CLASSMINER_CODEC_QUANT_H_

#include <array>
#include <cstdint>

#include "codec/bitstream.h"
#include "codec/dct.h"

namespace classminer::codec {

using QuantizedBlock = std::array<int32_t, kBlockPixels>;

// Per-coefficient quantiser step sizes: the JPEG-style luminance base
// matrix scaled by `quality` (1 = near-lossless ... 31 = very coarse,
// MPEG-1 quantiser-scale range); chroma uses the same matrix with a 1.4x
// factor. Built once per plane or frame, not per block.
struct QuantSteps {
  std::array<double, kBlockPixels> step;
};
QuantSteps MakeQuantSteps(int quality, bool chroma);

QuantizedBlock Quantize(const Block& freq, const QuantSteps& steps);
Block Dequantize(const QuantizedBlock& q, const QuantSteps& steps);

// Zig-zag scan order (index in raster order -> scan position).
const std::array<int, kBlockPixels>& ZigzagOrder();

// Entropy-codes a quantised block: DC as a signed exp-Golomb delta against
// `dc_predictor`, AC as (run, level) pairs in zig-zag order with an EOB
// marker. Returns the block's DC value for predictor chaining.
int32_t EncodeBlock(BitWriter* writer, const QuantizedBlock& q,
                    int32_t dc_predictor);

// Inverse of EncodeBlock. On success stores the block and returns its DC
// value (new predictor). A block whose AC runs pass the end of the block,
// or whose DC value leaves the int32 range, is DATA_LOSS.
util::StatusOr<int32_t> DecodeBlock(BitReader* reader, QuantizedBlock* q,
                                    int32_t dc_predictor);

}  // namespace classminer::codec

#endif  // CLASSMINER_CODEC_QUANT_H_
