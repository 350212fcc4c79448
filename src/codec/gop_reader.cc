#include "codec/gop_reader.h"

#include <string>
#include <utility>

#include "codec/decoder.h"
#include "util/failpoint.h"
#include "util/threadpool.h"

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
    int g, const util::CancellationToken* cancel, int frames) const {
  CLASSMINER_RETURN_IF_ERROR(
      util::FailPoint::Check("codec.gop_reader.decode_gop"));
  if (g < 0 || g >= gop_count()) {
    return util::Status::OutOfRange("GOP index " + std::to_string(g) +
                                    " outside [0, " +
                                    std::to_string(gop_count()) + ")");
  }
  GopIndexEntry entry = index_[static_cast<size_t>(g)];
  if (frames > entry.frame_count) {
    return util::Status::OutOfRange(
        "GOP " + std::to_string(g) + " holds " +
        std::to_string(entry.frame_count) + " frames, not " +
        std::to_string(frames));
  }
  if (frames >= 0) entry.frame_count = frames;
  return internal::DecodeGopFrames(*file_, entry, cancel);
}

util::Status FrameBatch::FirstError() const {
  for (const DecodedFrame& frame : frames) {
    CLASSMINER_RETURN_IF_ERROR(frame.status);
  }
  return util::Status::Ok();
}

util::StatusOr<FrameBatch> DecodeFrames(const CmvFile& file,
                                        const std::vector<int>& frame_indices,
                                        const util::ExecutionContext& ctx) {
  util::StatusOr<GopReader> reader = GopReader::Create(&file);
  if (!reader.ok()) return reader.status();

  // The plan: one run of consecutive requests per needed GOP.
  struct GopRun {
    int gop;
    size_t first;  // requests [first, end) fall in this GOP
    size_t end;
    int frames;    // prefix to decode: up to the last requested frame
  };
  std::vector<GopRun> runs;
  for (size_t i = 0; i < frame_indices.size(); ++i) {
    const int f = frame_indices[i];
    if (f < 0 || f >= reader->frame_count()) {
      return util::Status::OutOfRange(
          "frame " + std::to_string(f) + " outside [0, " +
          std::to_string(reader->frame_count()) + ")");
    }
    if (i > 0 && f <= frame_indices[i - 1]) {
      return util::Status::OutOfRange(
          "frame indices must be strictly increasing (" +
          std::to_string(frame_indices[i - 1]) + " then " +
          std::to_string(f) + ")");
    }
    const int g = reader->GopOfFrame(f);
    if (runs.empty() || runs.back().gop != g) runs.push_back({g, i, i, 0});
    runs.back().end = i + 1;
    runs.back().frames = f - reader->gop(g).start_frame + 1;
  }

  FrameBatch batch;
  batch.frames.resize(frame_indices.size());
  // Each run writes only its own slots, and keeps only the frames asked
  // for, so no more than one GOP prefix per worker is resident at a time.
  // A status slot starts non-OK so a run whose task died with an exception
  // on a pool worker can never pass for a successful one.
  std::vector<util::Status> statuses(
      runs.size(), util::Status::Internal("GOP decode did not complete"));
  util::ParallelFor(ctx.pool(), static_cast<int>(runs.size()), [&](int r) {
    const GopRun& run = runs[static_cast<size_t>(r)];
    const int start = reader->gop(run.gop).start_frame;
    util::StatusOr<std::vector<media::Image>> prefix =
        reader->DecodeGop(run.gop, ctx.cancellation(), run.frames);
    statuses[static_cast<size_t>(r)] = prefix.status();
    if (!prefix.ok()) return;
    for (size_t i = run.first; i < run.end; ++i) {
      batch.frames[i].image =
          std::move((*prefix)[static_cast<size_t>(frame_indices[i] - start)]);
    }
  });

  batch.gops = static_cast<int>(runs.size());
  for (size_t r = 0; r < runs.size(); ++r) {
    const util::Status& status = statuses[r];
    if (status.code() == util::StatusCode::kCancelled) return status;
    if (status.ok()) {
      batch.frames_decoded += runs[r].frames;
    } else {
      ++batch.failed_gops;
    }
    for (size_t i = runs[r].first; i < runs[r].end; ++i) {
      batch.frames[i].status = status;
    }
  }
  return batch;
}

}  // namespace classminer::codec
