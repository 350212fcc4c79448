#include "codec/gop_reader.h"

#include <string>
#include <utility>

#include "codec/decoder.h"
#include "util/failpoint.h"

namespace classminer::codec {

util::StatusOr<GopReader> GopReader::Create(const CmvFile* file) {
  if (file == nullptr) {
    return util::Status::InvalidArgument("null CMV file");
  }
  if (file->width <= 0 || file->height <= 0) {
    return util::Status::InvalidArgument("CMV file has empty dimensions");
  }
  // The stored index is untrusted input (it may come off disk); a derived
  // index is authoritative. Files without one (hand-built in tests, legacy
  // containers) get the derived index transparently.
  util::StatusOr<std::vector<GopIndexEntry>> derived =
      CmvFile::DeriveGopIndex(file->frames);
  if (!derived.ok()) return derived.status();
  if (!file->gop_index.empty() && file->gop_index != *derived) {
    return util::Status::DataLoss(
        "GOP index inconsistent with frame records");
  }
  return GopReader(file, std::move(derived).value());
}

int GopReader::GopOfFrame(int frame_index) const {
  if (index_.empty() || frame_index < 0 || frame_index >= frame_count()) {
    return -1;
  }
  int lo = 0;
  int hi = gop_count() - 1;
  while (lo < hi) {
    const int mid = (lo + hi + 1) / 2;
    if (index_[static_cast<size_t>(mid)].start_frame <= frame_index) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

util::StatusOr<std::vector<media::Image>> GopReader::DecodeGop(
    int g, const util::CancellationToken* cancel) const {
  CLASSMINER_RETURN_IF_ERROR(
      util::FailPoint::Check("codec.gop_reader.decode_gop"));
  if (g < 0 || g >= gop_count()) {
    return util::Status::OutOfRange("GOP index " + std::to_string(g) +
                                    " outside [0, " +
                                    std::to_string(gop_count()) + ")");
  }
  return internal::DecodeGopFrames(*file_, index_[static_cast<size_t>(g)],
                                   cancel);
}

}  // namespace classminer::codec
