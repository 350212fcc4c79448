#ifndef CLASSMINER_CODEC_DCT_H_
#define CLASSMINER_CODEC_DCT_H_

#include <array>
#include <cstdint>
#include <memory_resource>
#include <vector>

#include "media/image.h"

namespace classminer::codec {

inline constexpr int kBlockSize = 8;
inline constexpr int kBlockPixels = kBlockSize * kBlockSize;

using Block = std::array<double, kBlockPixels>;

// Type-II 2-D DCT of an 8x8 block (orthonormal scaling). Dispatches to an
// AVX2 kernel when util::ActiveDispatchLevel() allows; the vector path
// parallelises across *output* lanes so each coefficient's accumulation
// order is unchanged and results are bit-identical to the scalar kernel.
Block ForwardDct(const Block& spatial);

// Inverse (type-III) 2-D DCT. Same dispatch and bit-identity contract.
//
// Both kernels are sparse, and exactly equal to the dense loops: pass 1
// skips coefficient rows that are all zero, pass 2 skips zero entries of
// the intermediate block. Every output is an accumulator that starts at +0
// and adds products in a fixed order. A skipped term is a product with a
// zero factor, i.e. +0 or -0, and adding a signed zero to a value other
// than -0 leaves it unchanged. The accumulator is never -0: it starts at
// +0, +0 plus -0 is +0, and an exact cancellation x + (-x) rounds to +0
// (round-to-nearest). So dropping the term changes no bit. A DC-only block
// costs one row in pass 1 and one column in pass 2.
Block InverseDct(const Block& freq);

namespace internal {

// Shared cosine basis: basis[u][x] = c(u) cos((2x+1) u pi / 16), plus its
// transpose (basis_t[x][u]) for lane-parallel kernels. One definition so
// scalar and vector paths fold the exact same coefficients.
struct DctTables {
  double basis[kBlockSize][kBlockSize];
  double basis_t[kBlockSize][kBlockSize];
};
const DctTables& Tables();

// Reference kernels (portable C++); the dispatch targets below must match
// them bit-for-bit on every input.
Block ForwardDctScalar(const Block& spatial);
Block InverseDctScalar(const Block& freq);

// AVX2 kernels (x86-64 only). Callable only when DctAccelAvailable().
bool DctAccelAvailable();
Block ForwardDctAccel(const Block& spatial);
Block InverseDctAccel(const Block& freq);

// YCbCr -> RGB of `count` pixels (a multiple of 8) of one row: luma
// `y[0..count)`, chroma `cb`/`cr[0..count/2)` shared by pixel pairs. The
// AVX2 kernel evaluates ToImage's expressions with the same IEEE
// operations in the same order, lane by lane, so it is bit-identical to
// the scalar conversion for every int16 input. Callable only when
// DctAccelAvailable().
void YccRowToRgbAccel(const int16_t* y, const int16_t* cb, const int16_t* cr,
                      int count, media::Rgb* out);

// Writes one 8x8 block lying wholly inside its plane:
// dst[y][x] = RoundToSample(block[y][x] + base), where base is the int16
// sample at `pred` (PutResidualBlock) or, when `pred` is null, `offset`
// (PutBlock). Strides are in samples; `pred` may equal `dst`. Bit-identical
// to the scalar loops. Callable only when DctAccelAvailable().
void PutBlockAccel(const Block& block, const int16_t* pred, size_t pred_stride,
                   double offset, int16_t* dst, size_t dst_stride);

}  // namespace internal

// A planar 8-bit single-channel image with row-major storage, padded as the
// caller wishes. Thin alias over GrayImage-like storage but with int16
// headroom for residuals.
//
// Storage is pmr so per-frame planes can live in a bump arena (util::Arena)
// during decode. The usual pmr rules apply: a copy always lands on the
// default heap resource (safe to keep past the arena), while a *move*
// carries the arena resource with it — only move-construct arena-backed
// planes into objects scoped inside the arena's lifetime, and never
// move-assign across resources (the element-wise fallback silently
// reallocates from the destination's resource).
struct Plane {
  int width = 0;
  int height = 0;
  // Typically in [0, 255] or residual range.
  std::pmr::vector<int16_t> samples;

  int16_t at(int x, int y) const {
    return samples[static_cast<size_t>(y) * width + x];
  }
  void set(int x, int y, int16_t v) {
    samples[static_cast<size_t>(y) * width + x] = v;
  }
  // Null `mr` means the default (heap) resource. The vector is *constructed*
  // on `mr` (assignment would fall back to the member's default resource).
  static Plane Make(int w, int h, int16_t fill = 0,
                    std::pmr::memory_resource* mr = nullptr) {
    return Plane{w, h,
                 std::pmr::vector<int16_t>(
                     static_cast<size_t>(w) * h, fill,
                     mr != nullptr ? mr : std::pmr::get_default_resource())};
  }
};

// YCbCr 4:2:0 picture: full-resolution luma, half-resolution chroma.
struct Picture {
  Plane y;
  Plane cb;
  Plane cr;
};

// BT.601 RGB <-> YCbCr 4:2:0 conversion. Dimensions are rounded up to even
// for chroma subsampling; ToImage crops back to (width, height), repeating
// the picture's edge where (width, height) exceeds it. ToImage takes R and
// B from [Y][Cr] and [Y][Cb] tables and G from per-chroma tables, each
// entry evaluated by the conversion's own expression, so it is
// bit-identical to evaluating the expressions per pixel; the AVX2 row
// kernel evaluates them directly, eight pixels at a time.
Picture FromImage(const media::Image& image);
media::Image ToImage(const Picture& picture, int width, int height);

// Extracts an 8x8 block at (bx*8, by*8) from `plane`, replicating edge
// samples beyond bounds; returns samples centred by -128 for luma-style
// planes when `center` is true.
Block GetBlock(const Plane& plane, int bx, int by, bool center);

// Writes the block back, clamping to [0, 255] (after +128 when `center`).
void PutBlock(Plane* plane, int bx, int by, const Block& block, bool center);

// Writes pred + residual, clamped to [0, 255], over the block footprint at
// (bx, by): the P-frame reconstruction shared by encoder and decoder.
void PutResidualBlock(Plane* plane, int bx, int by, const Plane& pred,
                      const Block& residual);

// std::lround(std::clamp(v, 0.0, 255.0)) without the libm call: rounds half
// away from zero, like lround. After the clamp v lies in [0, 255] and
// t = (int)v is floor(v), so v - t is exact (Sterbenz for t >= 1, and v
// itself for t = 0) and the comparison with 0.5 decides exactly. `v` must
// not be NaN. Every reconstruction path (decoder, encoder, colour
// conversion) rounds through this one helper.
inline int RoundToSample(double v) {
  // Branch-free (maxsd/minsd, setcc): the rounding direction of decoded
  // samples is a coin toss, which a branch would mispredict.
  v = v < 0.0 ? 0.0 : v;
  v = v > 255.0 ? 255.0 : v;
  const int t = static_cast<int>(v);
  return t + static_cast<int>(v - t >= 0.5);
}

}  // namespace classminer::codec

#endif  // CLASSMINER_CODEC_DCT_H_
