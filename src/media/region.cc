#include "media/region.h"

#include <algorithm>

namespace classminer::media {

std::vector<Region> ConnectedComponents(const GrayImage& mask, int min_area) {
  std::vector<Region> regions;
  if (mask.empty()) return regions;
  const int w = mask.width();
  const int h = mask.height();
  const uint8_t* px = mask.pixels().data();
  std::vector<uint8_t> visited(mask.pixel_count(), 0);
  // One flat stack serves every component. The visiting order differs
  // from a breadth-first queue, but nothing recorded depends on it: area
  // and bounding box are order-free, and the centroid sums add integer
  // coordinates, which a double sums exactly far below 2^53.
  struct Pixel {
    int x, y;
  };
  std::vector<Pixel> stack;

  for (int sy = 0; sy < h; ++sy) {
    for (int sx = 0; sx < w; ++sx) {
      const size_t seed = static_cast<size_t>(sy) * w + sx;
      if (px[seed] == 0 || visited[seed]) continue;
      Region region;
      region.min_x = region.max_x = sx;
      region.min_y = region.max_y = sy;
      double sum_x = 0.0, sum_y = 0.0;

      visited[seed] = 1;
      stack.push_back({sx, sy});
      while (!stack.empty()) {
        const auto [x, y] = stack.back();
        stack.pop_back();
        ++region.area;
        sum_x += x;
        sum_y += y;
        region.min_x = std::min(region.min_x, x);
        region.max_x = std::max(region.max_x, x);
        region.min_y = std::min(region.min_y, y);
        region.max_y = std::max(region.max_y, y);

        const size_t i = static_cast<size_t>(y) * w + x;
        auto visit = [&](size_t j, int nx, int ny) {
          if (px[j] == 0 || visited[j]) return;
          visited[j] = 1;
          stack.push_back({nx, ny});
        };
        if (x + 1 < w) visit(i + 1, x + 1, y);
        if (x > 0) visit(i - 1, x - 1, y);
        if (y + 1 < h) visit(i + w, x, y + 1);
        if (y > 0) visit(i - w, x, y - 1);
      }
      if (region.area >= min_area) {
        region.centroid_x = sum_x / region.area;
        region.centroid_y = sum_y / region.area;
        regions.push_back(region);
      }
    }
  }
  // Seeds are raster-ordered, so ties in area sort as they always have.
  std::sort(regions.begin(), regions.end(),
            [](const Region& a, const Region& b) { return a.area > b.area; });
  return regions;
}

std::vector<Region> FilterBySize(const std::vector<Region>& regions,
                                 int frame_w, int frame_h,
                                 double min_side_frac) {
  std::vector<Region> out;
  for (const Region& r : regions) {
    if (r.width() >= min_side_frac * frame_w &&
        r.height() >= min_side_frac * frame_h) {
      out.push_back(r);
    }
  }
  return out;
}

}  // namespace classminer::media
