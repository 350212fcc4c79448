#include "codec/motion.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "util/cpu.h"

namespace classminer::codec {
namespace {

int16_t SampleClamped(const Plane& p, int x, int y) {
  x = std::clamp(x, 0, p.width - 1);
  y = std::clamp(y, 0, p.height - 1);
  return p.at(x, y);
}

// True when both 16x16 footprints lie fully inside their planes, so no
// per-sample clamping or partial-row logic is needed.
bool SadInterior(const Plane& cur, const Plane& ref, int mx, int my, int dx,
                 int dy) {
  return mx >= 0 && my >= 0 && mx + kMacroblockSize <= cur.width &&
         my + kMacroblockSize <= cur.height && mx + dx >= 0 && my + dy >= 0 &&
         mx + dx + kMacroblockSize <= ref.width &&
         my + dy + kMacroblockSize <= ref.height;
}

}  // namespace

namespace internal {

int64_t MacroblockSadScalar(const Plane& cur, const Plane& ref, int mx,
                            int my, int dx, int dy) {
  int64_t sad = 0;
  for (int y = 0; y < kMacroblockSize; ++y) {
    const int cy = my + y;
    if (cy >= cur.height) break;
    for (int x = 0; x < kMacroblockSize; ++x) {
      const int cx = mx + x;
      if (cx >= cur.width) break;
      sad += std::abs(static_cast<int>(cur.at(cx, cy)) -
                      SampleClamped(ref, cx + dx, cy + dy));
    }
  }
  return sad;
}

}  // namespace internal

int64_t MacroblockSad(const Plane& cur, const Plane& ref, int mx, int my,
                      int dx, int dy) {
  if (util::ActiveDispatchLevel() >= util::DispatchLevel::kAvx2 &&
      internal::SadAccelAvailable() && SadInterior(cur, ref, mx, my, dx, dy)) {
    return internal::MacroblockSadAccel(cur, ref, mx, my, dx, dy);
  }
  return internal::MacroblockSadScalar(cur, ref, mx, my, dx, dy);
}

MotionVector EstimateMotion(const Plane& cur, const Plane& ref, int mx,
                            int my, int range) {
  MotionVector best{0, 0};
  int64_t best_sad = MacroblockSad(cur, ref, mx, my, 0, 0);
  if (best_sad == 0) return best;
  for (int dy = -range; dy <= range; ++dy) {
    for (int dx = -range; dx <= range; ++dx) {
      if (dx == 0 && dy == 0) continue;
      const int64_t sad = MacroblockSad(cur, ref, mx, my, dx, dy);
      // Slight zero bias: prefer shorter vectors on ties.
      const int64_t penalty = std::abs(dx) + std::abs(dy);
      if (sad + penalty < best_sad) {
        best_sad = sad + penalty;
        best = MotionVector{dx, dy};
      }
    }
  }
  return best;
}

void MotionCompensate(const Plane& ref, Plane* pred, int mx, int my,
                      MotionVector mv, int block_size) {
  // 64-bit: a vector read from a damaged stream may be near the int range.
  const int64_t sx = int64_t{mx} + mv.dx;
  const int64_t sy = int64_t{my} + mv.dy;
  if (mx + block_size <= pred->width && my + block_size <= pred->height &&
      sx >= 0 && sy >= 0 && sx + block_size <= ref.width &&
      sy + block_size <= ref.height) {
    // Interior: both footprints in bounds, so each row is one copy.
    for (int y = 0; y < block_size; ++y) {
      const size_t dst = static_cast<size_t>(my + y) * pred->width + mx;
      const size_t src = static_cast<size_t>(sy + y) * ref.width +
                         static_cast<size_t>(sx);
      std::memcpy(&pred->samples[dst], &ref.samples[src],
                  static_cast<size_t>(block_size) * sizeof(int16_t));
    }
    return;
  }
  for (int y = 0; y < block_size; ++y) {
    const int py = my + y;
    if (py >= pred->height) break;
    const int ry = static_cast<int>(
        std::clamp<int64_t>(int64_t{py} + mv.dy, 0, ref.height - 1));
    for (int x = 0; x < block_size; ++x) {
      const int px = mx + x;
      if (px >= pred->width) break;
      const int rx = static_cast<int>(
          std::clamp<int64_t>(int64_t{px} + mv.dx, 0, ref.width - 1));
      pred->set(px, py, ref.at(rx, ry));
    }
  }
}

}  // namespace classminer::codec
