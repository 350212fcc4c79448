#ifndef CLASSMINER_MEDIA_COLOR_H_
#define CLASSMINER_MEDIA_COLOR_H_

#include "media/image.h"

namespace classminer::media {

// HSV triple with h in [0, 360), s and v in [0, 1].
struct Hsv {
  double h = 0.0;
  double s = 0.0;
  double v = 0.0;
};

// Converts an RGB pixel to HSV.
Hsv RgbToHsv(Rgb c);

// Converts an HSV triple (h in [0,360), s,v in [0,1]) to RGB.
Rgb HsvToRgb(const Hsv& c);

// Rec.601 luma in [0, 255].
uint8_t Luma(Rgb c);

// Whole-image grey conversion.
GrayImage ToGray(const Image& image);

}  // namespace classminer::media

#endif  // CLASSMINER_MEDIA_COLOR_H_
