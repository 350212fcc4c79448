#include "media/morphology.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

namespace classminer::media {
namespace {

enum class Op { kErode, kDilate };

// dst[i] = dst[i] & src[i] (erode) or | src[i] (dilate) for i in [0, n),
// eight bytes per 64-bit word.
void Combine(Op op, uint8_t* dst, const uint8_t* src, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t a, b;
    std::memcpy(&a, dst + i, 8);
    std::memcpy(&b, src + i, 8);
    a = op == Op::kErode ? a & b : a | b;
    std::memcpy(dst + i, &a, 8);
  }
  for (; i < n; ++i) {
    dst[i] = op == Op::kErode ? dst[i] & src[i] : dst[i] | src[i];
  }
}

// A square structuring element splits exactly into a row pass and a column
// pass: the window at (x, y) is the AND (erode) or OR (dilate) over its
// 2r+1 rows of each row's AND/OR over 2r+1 columns. Pixels outside the
// image are background in both passes, which is the same as background in
// the square window: an out-of-range row or column contributes only
// background to every tap it covers.
//
// Masks are normalised to 0x00/0xFF bytes so the taps are bitwise AND/OR
// over contiguous rows, a word at a time. Each row is padded with r
// background bytes on both sides, and the column pass treats out-of-range
// rows as background, so neither pass clamps or calls Contains.
GrayImage Apply(const GrayImage& mask, int radius, Op op) {
  const int w = mask.width();
  const int h = mask.height();
  GrayImage out(w, h);
  if (out.empty()) return out;
  // An empty window (negative radius) is all-foreground for erode and
  // all-background for dilate.
  if (radius < 0) {
    if (op == Op::kErode) {
      std::fill(out.pixels().begin(), out.pixels().end(), 255);
    }
    return out;
  }
  const size_t uw = static_cast<size_t>(w);
  const size_t r = static_cast<size_t>(radius);

  // Row pass into `rows`, through one padded scratch row.
  std::vector<uint8_t> padded(uw + 2 * r, 0);
  std::vector<uint8_t> rows(mask.pixel_count());
  for (int y = 0; y < h; ++y) {
    const size_t off = static_cast<size_t>(y) * uw;
    const uint8_t* in = mask.pixels().data() + off;
    for (size_t x = 0; x < uw; ++x) padded[r + x] = in[x] != 0 ? 0xFF : 0x00;
    uint8_t* dst = rows.data() + off;
    std::memcpy(dst, padded.data(), uw);
    for (size_t d = 1; d <= 2 * r; ++d) Combine(op, dst, padded.data() + d, uw);
  }

  // Column pass over whole rows. Eroding a row whose window leaves the
  // image yields background: the row stays zero.
  for (int y = 0; y < h; ++y) {
    const int y0 = y - radius;
    const int y1 = y + radius;
    if (op == Op::kErode && (y0 < 0 || y1 >= h)) continue;
    const int lo = std::max(y0, 0);
    const int hi = std::min(y1, h - 1);
    uint8_t* dst = out.pixels().data() + static_cast<size_t>(y) * uw;
    std::memcpy(dst, rows.data() + static_cast<size_t>(lo) * uw, uw);
    for (int yy = lo + 1; yy <= hi; ++yy) {
      Combine(op, dst, rows.data() + static_cast<size_t>(yy) * uw, uw);
    }
  }
  return out;
}

}  // namespace

GrayImage Erode(const GrayImage& mask, int radius) {
  return Apply(mask, radius, Op::kErode);
}

GrayImage Dilate(const GrayImage& mask, int radius) {
  return Apply(mask, radius, Op::kDilate);
}

GrayImage Open(const GrayImage& mask, int radius) {
  return Dilate(Erode(mask, radius), radius);
}

GrayImage Close(const GrayImage& mask, int radius) {
  return Erode(Dilate(mask, radius), radius);
}

}  // namespace classminer::media
