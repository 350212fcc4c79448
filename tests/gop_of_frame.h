// The GOP partition of a CMV file as tests address it: the derived index
// and the GOP that holds a given frame.

#ifndef CLASSMINER_TESTS_GOP_OF_FRAME_H_
#define CLASSMINER_TESTS_GOP_OF_FRAME_H_

#include <utility>
#include <vector>

#include "codec/container.h"

namespace classminer {

// The GOPs the frame records derive; empty when they derive none (a
// stream that opens with a P-frame).
inline std::vector<codec::GopIndexEntry> Gops(const codec::CmvFile& file) {
  util::StatusOr<std::vector<codec::GopIndexEntry>> gops =
      codec::CmvFile::DeriveGopIndex(file.frames);
  return gops.ok() ? std::move(gops).value()
                   : std::vector<codec::GopIndexEntry>{};
}

// Index of the GOP holding `frame`, or -1 when no GOP does.
inline int GopOfFrame(const codec::CmvFile& file, int frame) {
  const std::vector<codec::GopIndexEntry> gops = Gops(file);
  for (size_t g = 0; g < gops.size(); ++g) {
    if (frame >= gops[g].start_frame &&
        frame < gops[g].start_frame + gops[g].frame_count) {
      return static_cast<int>(g);
    }
  }
  return -1;
}

}  // namespace classminer

#endif  // CLASSMINER_TESTS_GOP_OF_FRAME_H_
