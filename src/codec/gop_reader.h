#ifndef CLASSMINER_CODEC_GOP_READER_H_
#define CLASSMINER_CODEC_GOP_READER_H_

#include <vector>

#include "codec/container.h"
#include "media/image.h"
#include "util/exec_context.h"
#include "util/status.h"

namespace classminer::codec {

// Random-access GOP decoder over a CMV container. Each GOP opens with an
// I-frame, so decoding it needs no state from earlier GOPs: the reader
// seeks straight to the GOP's frame records and runs the shared per-GOP
// decode loop (internal::DecodeGopFrames) over them. Output is therefore
// bit-identical to the corresponding slice of a full DecodeVideo pass.
//
// The reader borrows the file; it must outlive the reader. The reader
// itself is immutable after Create and safe to share across threads.
class GopReader {
 public:
  // Validates dimensions and the GOP index (using the file's stored index,
  // or deriving one when the file carries none).
  static util::StatusOr<GopReader> Create(const CmvFile* file);

  int gop_count() const { return static_cast<int>(index_.size()); }
  int frame_count() const { return file_->frame_count(); }
  const GopIndexEntry& gop(int g) const {
    return index_[static_cast<size_t>(g)];
  }
  // Index of the GOP containing `frame_index`, or -1 when out of range.
  int GopOfFrame(int frame_index) const;

  // Decodes every frame of GOP `g` (in stream order, starting at its
  // I-frame). `cancel` (borrowed, may be null) is checked between frames.
  util::StatusOr<std::vector<media::Image>> DecodeGop(
      int g, const util::CancellationToken* cancel = nullptr) const;

 private:
  GopReader(const CmvFile* file, std::vector<GopIndexEntry> index)
      : file_(file), index_(std::move(index)) {}

  const CmvFile* file_;
  std::vector<GopIndexEntry> index_;
};

}  // namespace classminer::codec

#endif  // CLASSMINER_CODEC_GOP_READER_H_
