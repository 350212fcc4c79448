#include "codec/dct.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "util/cpu.h"

namespace classminer::codec {
namespace internal {

namespace {

DctTables MakeTables() {
  DctTables tables;
  for (int u = 0; u < kBlockSize; ++u) {
    const double cu = (u == 0) ? std::sqrt(1.0 / kBlockSize)
                               : std::sqrt(2.0 / kBlockSize);
    for (int x = 0; x < kBlockSize; ++x) {
      const double v = cu * std::cos((2.0 * x + 1.0) * u * std::numbers::pi /
                                     (2.0 * kBlockSize));
      tables.basis[u][x] = v;
      tables.basis_t[x][u] = v;
    }
  }
  return tables;
}

}  // namespace

const DctTables& Tables() {
  static const DctTables tables = MakeTables();
  return tables;
}

Block ForwardDctScalar(const Block& spatial) {
  const auto& t = Tables().basis;
  // Separable: rows then columns.
  Block tmp{};
  for (int y = 0; y < kBlockSize; ++y) {
    for (int u = 0; u < kBlockSize; ++u) {
      double acc = 0.0;
      for (int x = 0; x < kBlockSize; ++x) {
        acc += spatial[static_cast<size_t>(y) * kBlockSize + x] * t[u][x];
      }
      tmp[static_cast<size_t>(y) * kBlockSize + u] = acc;
    }
  }
  Block out{};
  for (int u = 0; u < kBlockSize; ++u) {
    for (int v = 0; v < kBlockSize; ++v) {
      double acc = 0.0;
      for (int y = 0; y < kBlockSize; ++y) {
        acc += tmp[static_cast<size_t>(y) * kBlockSize + u] * t[v][y];
      }
      out[static_cast<size_t>(v) * kBlockSize + u] = acc;
    }
  }
  return out;
}

Block InverseDctScalar(const Block& freq) {
  const auto& t = Tables().basis;
  // Pass 1: tmp[y][u] = sum_v freq[v][u] * basis[v][y], over the nonzero
  // rows v only (see InverseDct for why skipping is exact). Each (y, u)
  // accumulator still adds its terms in ascending v.
  Block tmp{};
  for (int v = 0; v < kBlockSize; ++v) {
    const double* row = &freq[static_cast<size_t>(v) * kBlockSize];
    bool zero = true;
    for (int u = 0; u < kBlockSize; ++u) zero = zero && row[u] == 0.0;
    if (zero) continue;
    for (int y = 0; y < kBlockSize; ++y) {
      double* acc = &tmp[static_cast<size_t>(y) * kBlockSize];
      for (int u = 0; u < kBlockSize; ++u) acc[u] += row[u] * t[v][y];
    }
  }
  // Pass 2: out[y][x] = sum_u tmp[y][u] * basis[u][x], over the nonzero
  // tmp[y][u] only, ascending u for every x.
  Block out{};
  for (int y = 0; y < kBlockSize; ++y) {
    double* acc = &out[static_cast<size_t>(y) * kBlockSize];
    for (int u = 0; u < kBlockSize; ++u) {
      const double s = tmp[static_cast<size_t>(y) * kBlockSize + u];
      if (s == 0.0) continue;
      for (int x = 0; x < kBlockSize; ++x) acc[x] += s * t[u][x];
    }
  }
  return out;
}

}  // namespace internal

namespace {

inline bool UseDctAccel() {
  return util::ActiveDispatchLevel() >= util::DispatchLevel::kAvx2 &&
         internal::DctAccelAvailable();
}

}  // namespace

Block ForwardDct(const Block& spatial) {
  if (UseDctAccel()) return internal::ForwardDctAccel(spatial);
  return internal::ForwardDctScalar(spatial);
}

Block InverseDct(const Block& freq) {
  if (UseDctAccel()) return internal::InverseDctAccel(freq);
  return internal::InverseDctScalar(freq);
}

Picture FromImage(const media::Image& image) {
  const int w = image.width();
  const int h = image.height();
  const int cw = (w + 1) / 2;
  const int ch = (h + 1) / 2;

  Picture pic;
  pic.y = Plane::Make(w, h);
  pic.cb = Plane::Make(cw, ch);
  pic.cr = Plane::Make(cw, ch);

  // Full-resolution YCbCr, then average 2x2 for chroma.
  std::vector<double> cb_full(static_cast<size_t>(w) * h);
  std::vector<double> cr_full(static_cast<size_t>(w) * h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      const media::Rgb p = image.at(x, y);
      const double yy = 0.299 * p.r + 0.587 * p.g + 0.114 * p.b;
      const double cb = 128.0 - 0.168736 * p.r - 0.331264 * p.g + 0.5 * p.b;
      const double cr = 128.0 + 0.5 * p.r - 0.418688 * p.g - 0.081312 * p.b;
      pic.y.set(x, y, static_cast<int16_t>(RoundToSample(yy)));
      cb_full[static_cast<size_t>(y) * w + x] = cb;
      cr_full[static_cast<size_t>(y) * w + x] = cr;
    }
  }
  for (int y = 0; y < ch; ++y) {
    for (int x = 0; x < cw; ++x) {
      double sum_cb = 0.0, sum_cr = 0.0;
      int n = 0;
      for (int dy = 0; dy < 2; ++dy) {
        for (int dx = 0; dx < 2; ++dx) {
          const int sx = 2 * x + dx;
          const int sy = 2 * y + dy;
          if (sx < w && sy < h) {
            sum_cb += cb_full[static_cast<size_t>(sy) * w + sx];
            sum_cr += cr_full[static_cast<size_t>(sy) * w + sx];
            ++n;
          }
        }
      }
      pic.cb.set(x, y, static_cast<int16_t>(RoundToSample(sum_cb / n)));
      pic.cr.set(x, y, static_cast<int16_t>(RoundToSample(sum_cr / n)));
    }
  }
  return pic;
}

namespace {

// BT.601 YCbCr -> RGB lookup tables. Each entry is the conversion's own
// expression evaluated once, so a lookup is bit-identical to computing it:
//   R = round(y + 1.402 * (cr - 128))               -> r[y][cr]
//   B = round(y + 1.772 * (cb - 128))               -> b[y][cb]
//   G = round((y - 0.344136 * (cb - 128)) - 0.714136 * (cr - 128))
//     = round((y - g_cb[cb]) - g_cr[cr])            (same operations, same
//                                                    order)
struct YccTables {
  uint8_t r[256][256];
  uint8_t b[256][256];
  double g_cb[256];
  double g_cr[256];
};

YccTables* MakeYccTables() {
  auto* t = new YccTables;
  for (int c = 0; c < 256; ++c) {
    t->g_cb[c] = 0.344136 * (c - 128.0);
    t->g_cr[c] = 0.714136 * (c - 128.0);
  }
  for (int y = 0; y < 256; ++y) {
    const double yy = y;
    for (int c = 0; c < 256; ++c) {
      const double dc = c - 128.0;
      t->r[y][c] = static_cast<uint8_t>(RoundToSample(yy + 1.402 * dc));
      t->b[y][c] = static_cast<uint8_t>(RoundToSample(yy + 1.772 * dc));
    }
  }
  return t;
}

// Built on first use and never freed (130 KB: too large to build on the
// stack and copy into a static).
const YccTables& Ycc() {
  static const YccTables* const tables = MakeYccTables();
  return *tables;
}

// The conversion itself, for samples outside [0, 255] (no decoded or
// FromImage picture has any).
media::Rgb YccToRgb(int y, int cb, int cr) {
  const double yy = y;
  const double dcb = cb - 128.0;
  const double dcr = cr - 128.0;
  return media::Rgb{
      static_cast<uint8_t>(RoundToSample(yy + 1.402 * dcr)),
      static_cast<uint8_t>(RoundToSample(yy - 0.344136 * dcb - 0.714136 * dcr)),
      static_cast<uint8_t>(RoundToSample(yy + 1.772 * dcb))};
}

}  // namespace

media::Image ToImage(const Picture& picture, int width, int height) {
  media::Image out(width, height);
  if (out.empty()) return out;
  const YccTables& t = Ycc();
  // Pixels [0, vector_end) of every row need no edge repeat; the AVX2 row
  // kernel converts them eight at a time.
  const int vector_end =
      UseDctAccel()
          ? std::min({width, picture.y.width, 2 * picture.cb.width,
                      2 * picture.cr.width}) / 8 * 8
          : 0;
  media::Rgb* dst = out.pixels().data();
  for (int y = 0; y < height; ++y, dst += width) {
    const size_t sy = static_cast<size_t>(std::min(y, picture.y.height - 1));
    const int16_t* yrow = &picture.y.samples[sy * picture.y.width];
    const size_t cy =
        static_cast<size_t>(std::min(y / 2, picture.cb.height - 1));
    const int16_t* cbrow = &picture.cb.samples[cy * picture.cb.width];
    const int16_t* crrow = &picture.cr.samples[cy * picture.cr.width];
    if (vector_end > 0) {
      internal::YccRowToRgbAccel(yrow, cbrow, crrow, vector_end, dst);
    }
    for (int x = vector_end; x < width; ++x) {
      const int yy = yrow[std::min(x, picture.y.width - 1)];
      const int cx = std::min(x / 2, picture.cb.width - 1);
      const int cb = cbrow[cx];
      const int cr = crrow[cx];
      if (static_cast<unsigned>(yy | cb | cr) > 255u) {
        dst[x] = YccToRgb(yy, cb, cr);
        continue;
      }
      dst[x] = media::Rgb{
          t.r[yy][cr],
          static_cast<uint8_t>(RoundToSample((yy - t.g_cb[cb]) - t.g_cr[cr])),
          t.b[yy][cb]};
    }
  }
  return out;
}

Block GetBlock(const Plane& plane, int bx, int by, bool center) {
  Block block{};
  const double offset = center ? 128.0 : 0.0;
  for (int y = 0; y < kBlockSize; ++y) {
    const int sy = std::min(by * kBlockSize + y, plane.height - 1);
    for (int x = 0; x < kBlockSize; ++x) {
      const int sx = std::min(bx * kBlockSize + x, plane.width - 1);
      block[static_cast<size_t>(y) * kBlockSize + x] =
          plane.at(sx, sy) - offset;
    }
  }
  return block;
}

namespace {

// Where the 8x8 block at (bx, by) starts in `plane`, when the block lies
// wholly inside it and the AVX2 block writer may run; null otherwise.
int16_t* AccelBlockStart(Plane* plane, int bx, int by) {
  if (!UseDctAccel() || (bx + 1) * kBlockSize > plane->width ||
      (by + 1) * kBlockSize > plane->height) {
    return nullptr;
  }
  return &plane->samples[static_cast<size_t>(by) * kBlockSize * plane->width +
                         static_cast<size_t>(bx) * kBlockSize];
}

}  // namespace

void PutBlock(Plane* plane, int bx, int by, const Block& block, bool center) {
  const double offset = center ? 128.0 : 0.0;
  if (int16_t* dst = AccelBlockStart(plane, bx, by)) {
    internal::PutBlockAccel(block, nullptr, 0, offset, dst,
                            static_cast<size_t>(plane->width));
    return;
  }
  for (int y = 0; y < kBlockSize; ++y) {
    const int dy = by * kBlockSize + y;
    if (dy >= plane->height) break;
    for (int x = 0; x < kBlockSize; ++x) {
      const int dx = bx * kBlockSize + x;
      if (dx >= plane->width) break;
      plane->set(dx, dy,
                 static_cast<int16_t>(RoundToSample(
                     block[static_cast<size_t>(y) * kBlockSize + x] + offset)));
    }
  }
}

void PutResidualBlock(Plane* plane, int bx, int by, const Plane& pred,
                      const Block& residual) {
  int16_t* dst = AccelBlockStart(plane, bx, by);
  if (dst != nullptr && pred.width == plane->width &&
      pred.height == plane->height) {
    internal::PutBlockAccel(
        residual,
        &pred.samples[static_cast<size_t>(by) * kBlockSize * pred.width +
                      static_cast<size_t>(bx) * kBlockSize],
        static_cast<size_t>(pred.width), 0.0, dst,
        static_cast<size_t>(plane->width));
    return;
  }
  for (int y = 0; y < kBlockSize; ++y) {
    const int dy = by * kBlockSize + y;
    if (dy >= plane->height) break;
    for (int x = 0; x < kBlockSize; ++x) {
      const int dx = bx * kBlockSize + x;
      if (dx >= plane->width) break;
      plane->set(dx, dy,
                 static_cast<int16_t>(RoundToSample(
                     pred.at(dx, dy) +
                     residual[static_cast<size_t>(y) * kBlockSize + x])));
    }
  }
}

}  // namespace classminer::codec
