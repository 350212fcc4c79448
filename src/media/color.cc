#include "media/color.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace classminer::media {

Hsv RgbToHsv(Rgb c) {
  const double r = c.r / 255.0;
  const double g = c.g / 255.0;
  const double b = c.b / 255.0;
  const double mx = std::max({r, g, b});
  const double mn = std::min({r, g, b});
  const double delta = mx - mn;

  Hsv out;
  out.v = mx;
  out.s = (mx > 0.0) ? delta / mx : 0.0;
  if (delta <= 1e-12) {
    out.h = 0.0;
  } else if (mx == r) {
    out.h = 60.0 * std::fmod((g - b) / delta, 6.0);
  } else if (mx == g) {
    out.h = 60.0 * ((b - r) / delta + 2.0);
  } else {
    out.h = 60.0 * ((r - g) / delta + 4.0);
  }
  if (out.h < 0.0) out.h += 360.0;
  return out;
}

Rgb HsvToRgb(const Hsv& c) {
  const double h = std::fmod(std::fmod(c.h, 360.0) + 360.0, 360.0);
  const double s = std::clamp(c.s, 0.0, 1.0);
  const double v = std::clamp(c.v, 0.0, 1.0);
  const double cc = v * s;
  const double x = cc * (1.0 - std::fabs(std::fmod(h / 60.0, 2.0) - 1.0));
  const double m = v - cc;
  double r = 0.0, g = 0.0, b = 0.0;
  if (h < 60.0) {
    r = cc, g = x;
  } else if (h < 120.0) {
    r = x, g = cc;
  } else if (h < 180.0) {
    g = cc, b = x;
  } else if (h < 240.0) {
    g = x, b = cc;
  } else if (h < 300.0) {
    r = x, b = cc;
  } else {
    r = cc, b = x;
  }
  auto to8 = [m](double u) {
    return static_cast<uint8_t>(std::lround(std::clamp(u + m, 0.0, 1.0) * 255.0));
  };
  return Rgb{to8(r), to8(g), to8(b)};
}

uint8_t Luma(Rgb c) {
  double y = 0.299 * c.r + 0.587 * c.g + 0.114 * c.b;
  // std::lround(std::clamp(y, 0.0, 255.0)) without the libm call, as
  // codec::RoundToSample: after the clamp t = (int)y is floor(y), y - t is
  // exact, and comparing it with 0.5 rounds half away from zero.
  y = y < 0.0 ? 0.0 : y;
  y = y > 255.0 ? 255.0 : y;
  const int t = static_cast<int>(y);
  return static_cast<uint8_t>(t + static_cast<int>(y - t >= 0.5));
}

GrayImage ToGray(const Image& image) {
  GrayImage out(image.width(), image.height());
  const std::vector<Rgb>& in = image.pixels();
  std::vector<uint8_t>& gray = out.pixels();
  for (size_t i = 0; i < in.size(); ++i) gray[i] = Luma(in[i]);
  return out;
}

}  // namespace classminer::media
