#include "codec/decoder.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "codec/bitstream.h"
#include "codec/motion.h"
#include "codec/quant.h"
#include "util/arena.h"
#include "util/failpoint.h"
#include "util/threadpool.h"

namespace classminer::codec {
namespace {

int BlocksAcross(int extent) { return (extent + kBlockSize - 1) / kBlockSize; }

// Decodes an intra plane. When `dc_only` is set, AC coefficients are parsed
// but not inverse-transformed, and only the per-block mean (DC/8 + 128) is
// stored into `dc_out`.
util::Status DecodeIntraPlane(BitReader* reader, int quality, bool chroma,
                              Plane* plane, bool dc_only,
                              std::vector<double>* dc_out) {
  const int bw = BlocksAcross(plane->width);
  const int bh = BlocksAcross(plane->height);
  const QuantSteps steps = MakeQuantSteps(quality, chroma);
  int32_t dc_pred = 0;
  QuantizedBlock q;
  for (int by = 0; by < bh; ++by) {
    for (int bx = 0; bx < bw; ++bx) {
      util::StatusOr<int32_t> dc = DecodeBlock(reader, &q, dc_pred);
      if (!dc.ok()) return dc.status();
      dc_pred = *dc;
      if (dc_only) {
        if (dc_out != nullptr) {
          dc_out->push_back(q[0] * steps.step[0] / kBlockSize + 128.0);
        }
        continue;
      }
      PutBlock(plane, bx, by, InverseDct(Dequantize(q, steps)),
               /*center=*/true);
    }
  }
  return util::Status::Ok();
}

// Adds a P-frame block's residual to the motion-compensated samples already
// in `plane`, in place. An all-zero block (most of them) would add +0.0 to
// every sample, which only clamps it to [0, 255], so it skips the
// transform.
void AddResidual(Plane* plane, int bx, int by, const QuantizedBlock& q,
                 const QuantSteps& steps) {
  int32_t any = 0;
  for (const int32_t c : q) any |= c;
  if (any != 0) {
    PutResidualBlock(plane, bx, by, *plane, InverseDct(Dequantize(q, steps)));
    return;
  }
  const int x_end = std::min(plane->width, (bx + 1) * kBlockSize);
  const int y_end = std::min(plane->height, (by + 1) * kBlockSize);
  for (int y = by * kBlockSize; y < y_end; ++y) {
    int16_t* row = &plane->samples[static_cast<size_t>(y) * plane->width];
    for (int x = bx * kBlockSize; x < x_end; ++x) {
      row[x] = std::clamp<int16_t>(row[x], 0, 255);
    }
  }
}

struct PFrameSink {
  // Full decode targets (null in DC-only mode).
  Picture* recon = nullptr;
  const Picture* ref = nullptr;
  // DC-only targets.
  media::GrayImage* dc_image = nullptr;
  const media::GrayImage* prev_dc = nullptr;
};

// Walks a P-frame payload. In full mode reconstructs the picture: each
// macroblock is motion-compensated straight into `recon`, then its blocks
// add their residuals in place. In DC mode updates the DC thumbnail with
// motion-shifted previous DC + residual DC means. Layout must mirror
// EncodePredicted.
util::Status DecodePredictedFrame(BitReader* reader, int width, int height,
                                  int quality, PFrameSink* sink) {
  const int mbw = (width + kMacroblockSize - 1) / kMacroblockSize;
  const int mbh = (height + kMacroblockSize - 1) / kMacroblockSize;
  const int cbw = ((width + 1) / 2);
  const int cbh = ((height + 1) / 2);

  const bool full = sink->recon != nullptr;
  const QuantSteps luma_steps = MakeQuantSteps(quality, /*chroma=*/false);
  const QuantSteps chroma_steps = MakeQuantSteps(quality, /*chroma=*/true);

  QuantizedBlock q;
  for (int my = 0; my < mbh; ++my) {
    for (int mx = 0; mx < mbw; ++mx) {
      MotionVector mv;
      if (!reader->ReadSE(&mv.dx) || !reader->ReadSE(&mv.dy)) {
        return reader->status();
      }

      const int px = mx * kMacroblockSize;
      const int py = my * kMacroblockSize;
      if (full) {
        MotionCompensate(sink->ref->y, &sink->recon->y, px, py, mv,
                         kMacroblockSize);
        const MotionVector cmv{mv.dx / 2, mv.dy / 2};
        MotionCompensate(sink->ref->cb, &sink->recon->cb, px / 2, py / 2, cmv,
                         kBlockSize);
        MotionCompensate(sink->ref->cr, &sink->recon->cr, px / 2, py / 2, cmv,
                         kBlockSize);
      }

      for (int sub = 0; sub < 4; ++sub) {
        const int bx = 2 * mx + (sub % 2);
        const int by = 2 * my + (sub / 2);
        if (bx * kBlockSize >= width || by * kBlockSize >= height) continue;
        util::StatusOr<int32_t> dc = DecodeBlock(reader, &q, 0);
        if (!dc.ok()) return dc.status();
        if (full) {
          AddResidual(&sink->recon->y, bx, by, q, luma_steps);
        } else if (sink->dc_image != nullptr) {
          // DC-resolution motion compensation: sample the previous DC image
          // at the vector-shifted position (rounded to DC grid).
          const media::GrayImage& prev = *sink->prev_dc;
          const int sx = std::clamp(
              bx + static_cast<int>(std::lround(mv.dx / 8.0)), 0,
              prev.width() - 1);
          const int sy = std::clamp(
              by + static_cast<int>(std::lround(mv.dy / 8.0)), 0,
              prev.height() - 1);
          const double base = prev.at(sx, sy);
          const double mean = base + q[0] * luma_steps.step[0] / kBlockSize;
          if (bx < sink->dc_image->width() && by < sink->dc_image->height()) {
            sink->dc_image->set(bx, by,
                                static_cast<uint8_t>(RoundToSample(mean)));
          }
        }
      }
      if (mx * kBlockSize < cbw && my * kBlockSize < cbh) {
        for (int c = 0; c < 2; ++c) {
          util::StatusOr<int32_t> dc = DecodeBlock(reader, &q, 0);
          if (!dc.ok()) return dc.status();
          if (full) {
            AddResidual(c == 0 ? &sink->recon->cb : &sink->recon->cr, mx, my,
                        q, chroma_steps);
          }
        }
      }
    }
  }
  return util::Status::Ok();
}

// Decodes the DC image of frame `i` into *dc (sized dcw x dch). `prev` is
// the previous frame's DC image (empty for the first frame).
util::Status DecodeDcFrame(const CmvFile& file, size_t i,
                           const media::GrayImage& prev, int dcw, int dch,
                           media::GrayImage* dc) {
  const FrameRecord& rec = file.frames[i];
  BitReader reader(rec.payload);
  if (rec.type == FrameType::kIntra) {
    // Dims-only plane: the DC-only intra walk never touches samples, so
    // skip the width*height allocation entirely.
    Plane y_dims;
    y_dims.width = file.width;
    y_dims.height = file.height;
    std::vector<double> dcs;
    dcs.reserve(static_cast<size_t>(dcw) * dch);
    CLASSMINER_RETURN_IF_ERROR(DecodeIntraPlane(
        &reader, file.quality, false, &y_dims, /*dc_only=*/true, &dcs));
    for (int by = 0; by < dch; ++by) {
      for (int bx = 0; bx < dcw; ++bx) {
        dc->set(bx, by, static_cast<uint8_t>(RoundToSample(
                            dcs[static_cast<size_t>(by) * dcw + bx])));
      }
    }
    // Chroma planes still occupy the bitstream; no need to parse them for
    // the luma-only DC series (payloads are length-delimited per frame).
    return util::Status::Ok();
  }
  if (i == 0) return util::Status::DataLoss("stream starts with P-frame");
  PFrameSink sink;
  sink.dc_image = dc;
  sink.prev_dc = &prev;
  return DecodePredictedFrame(&reader, file.width, file.height, file.quality,
                              &sink);
}

}  // namespace

namespace internal {

util::StatusOr<Picture> DecodePicture(const FrameRecord& rec, int width,
                                      int height, int quality,
                                      const Picture* ref,
                                      std::pmr::memory_resource* scratch) {
  const int cw = (width + 1) / 2;
  const int ch = (height + 1) / 2;
  BitReader reader(rec.payload);
  // Planes are constructed on `scratch` and the picture returned by move,
  // which preserves the resource (assignment through an existing Picture
  // would not — see Plane).
  Picture out{Plane::Make(width, height, 0, scratch),
              Plane::Make(cw, ch, 0, scratch),
              Plane::Make(cw, ch, 0, scratch)};
  if (rec.type == FrameType::kIntra) {
    CLASSMINER_RETURN_IF_ERROR(
        DecodeIntraPlane(&reader, quality, false, &out.y, false, nullptr));
    CLASSMINER_RETURN_IF_ERROR(
        DecodeIntraPlane(&reader, quality, true, &out.cb, false, nullptr));
    CLASSMINER_RETURN_IF_ERROR(
        DecodeIntraPlane(&reader, quality, true, &out.cr, false, nullptr));
    return out;
  }
  if (ref == nullptr) {
    return util::Status::DataLoss("P-frame without a reference picture");
  }
  PFrameSink sink;
  sink.recon = &out;
  sink.ref = ref;
  CLASSMINER_RETURN_IF_ERROR(
      DecodePredictedFrame(&reader, width, height, quality, &sink));
  return out;
}

util::StatusOr<std::vector<media::Image>> DecodeGopFrames(
    const CmvFile& file, const GopIndexEntry& gop,
    const util::CancellationToken* cancel) {
  std::vector<media::Image> frames;
  frames.reserve(static_cast<size_t>(gop.frame_count));
  // Double-buffered bump arenas: frame i decodes into arena i % 2 while the
  // previous reconstruction (the P-frame reference) stays live in the other
  // one. Resetting an arena only discards the frame from two steps back,
  // which nothing references any more. The decoded pixels escape as
  // heap-backed Images, never as arena memory.
  util::Arena arenas[2];
  std::optional<Picture> slots[2];
  const Picture* recon = nullptr;
  for (int i = 0; i < gop.frame_count; ++i) {
    if (cancel != nullptr && cancel->cancelled()) {
      return util::Status::Cancelled("GOP decode cancelled");
    }
    const FrameRecord& rec =
        file.frames[static_cast<size_t>(gop.start_frame + i)];
    util::Arena& frame_arena = arenas[i % 2];
    slots[i % 2].reset();
    frame_arena.Reset();
    util::StatusOr<Picture> next = DecodePicture(
        rec, file.width, file.height, file.quality,
        i == 0 ? nullptr : recon, &frame_arena);
    CLASSMINER_RETURN_IF_ERROR(next.status());
    recon = &slots[i % 2].emplace(std::move(*next));
    frames.push_back(ToImage(*recon, file.width, file.height));
  }
  return frames;
}

}  // namespace internal

util::StatusOr<media::Video> DecodeVideo(const CmvFile& file,
                                         const util::ExecutionContext& ctx) {
  CLASSMINER_RETURN_IF_ERROR(util::FailPoint::Check("codec.decode_video"));
  if (file.width <= 0 || file.height <= 0) {
    return util::Status::InvalidArgument("CMV file has empty dimensions");
  }
  util::StatusOr<std::vector<GopIndexEntry>> gops =
      CmvFile::DeriveGopIndex(file.frames);
  if (!gops.ok()) return gops.status();

  // Each GOP writes only its own slots. A status slot starts non-OK so a
  // GOP whose task died with an exception on a pool worker can never pass
  // for an empty, successful one.
  const size_t count = gops->size();
  std::vector<std::vector<media::Image>> frames(count);
  std::vector<util::Status> statuses(
      count, util::Status::Internal("GOP decode did not complete"));
  util::ParallelFor(ctx.pool(), static_cast<int>(count), [&](int g) {
    const size_t slot = static_cast<size_t>(g);
    util::StatusOr<std::vector<media::Image>> decoded =
        internal::DecodeGopFrames(file, (*gops)[slot], ctx.cancellation());
    statuses[slot] = decoded.status();
    if (decoded.ok()) frames[slot] = std::move(decoded).value();
  });
  for (const util::Status& status : statuses) {
    CLASSMINER_RETURN_IF_ERROR(status);
  }

  media::Video video(file.name, file.fps);
  video.Reserve(file.frames.size());
  for (std::vector<media::Image>& gop : frames) {
    for (media::Image& frame : gop) video.AppendFrame(std::move(frame));
  }
  return video;
}

util::StatusOr<std::vector<media::GrayImage>> DecodeDcImages(
    const CmvFile& file, const util::CancellationToken* cancel) {
  if (file.width <= 0 || file.height <= 0) {
    return util::Status::InvalidArgument("CMV file has empty dimensions");
  }
  const int dcw = BlocksAcross(file.width);
  const int dch = BlocksAcross(file.height);

  std::vector<media::GrayImage> out;
  out.reserve(file.frames.size());
  media::GrayImage prev;
  for (size_t i = 0; i < file.frames.size(); ++i) {
    if (cancel != nullptr && cancel->cancelled()) {
      return util::Status::Cancelled("DC image extraction cancelled");
    }
    media::GrayImage dc(dcw, dch);
    CLASSMINER_RETURN_IF_ERROR(DecodeDcFrame(file, i, prev, dcw, dch, &dc));
    prev = dc;
    out.push_back(std::move(dc));
  }
  return out;
}

util::StatusOr<std::vector<media::GrayImage>> DecodeDcImagesSalvage(
    const CmvFile& file, util::SalvageReport* report,
    const util::CancellationToken* cancel) {
  util::SalvageReport local;
  if (report == nullptr) report = &local;
  if (file.width <= 0 || file.height <= 0) {
    return util::Status::InvalidArgument("CMV file has empty dimensions");
  }
  const int dcw = BlocksAcross(file.width);
  const int dch = BlocksAcross(file.height);

  std::vector<media::GrayImage> out;
  out.reserve(file.frames.size());
  media::GrayImage prev(dcw, dch);  // mid-frame fallback when frame 0 fails
  for (int x = 0; x < dcw; ++x) {
    for (int y = 0; y < dch; ++y) prev.set(x, y, 128);
  }
  int decoded = 0;
  // Once a frame in a GOP fails, every P-frame until the next I-frame
  // predicts from garbage; hold the last good DC image until the stream
  // resynchronises at an I-frame.
  bool skipping = false;
  for (size_t i = 0; i < file.frames.size(); ++i) {
    if (cancel != nullptr && cancel->cancelled()) {
      return util::Status::Cancelled("DC image extraction cancelled");
    }
    const bool intra = file.frames[i].type == FrameType::kIntra;
    if (skipping && intra) skipping = false;
    media::GrayImage dc(dcw, dch);
    util::Status frame = skipping
                             ? util::Status::DataLoss("GOP lost upstream")
                             : DecodeDcFrame(file, i, prev, dcw, dch, &dc);
    if (frame.ok()) {
      ++decoded;
      prev = dc;
      out.push_back(std::move(dc));
      continue;
    }
    if (!skipping) {
      skipping = true;
      report->gops_skipped += 1;
      report->AddNote("decode: frame " + std::to_string(i) + ": " +
                      frame.message());
    }
    report->items_dropped += 1;
    out.push_back(prev);  // keep frame indices aligned with the container
  }
  if (decoded == 0 && !file.frames.empty()) {
    return util::Status::DataLoss("no frame in the stream decodes");
  }
  report->items_recovered += decoded;
  return out;
}

double Psnr(const media::Image& a, const media::Image& b) {
  const int w = std::min(a.width(), b.width());
  const int h = std::min(a.height(), b.height());
  if (w == 0 || h == 0) return 0.0;
  double mse = 0.0;
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      const media::Rgb pa = a.at(x, y);
      const media::Rgb pb = b.at(x, y);
      const double dr = static_cast<double>(pa.r) - pb.r;
      const double dg = static_cast<double>(pa.g) - pb.g;
      const double db = static_cast<double>(pa.b) - pb.b;
      mse += (dr * dr + dg * dg + db * db) / 3.0;
    }
  }
  mse /= static_cast<double>(w) * h;
  if (mse <= 0.0) return std::numeric_limits<double>::infinity();
  return 10.0 * std::log10(255.0 * 255.0 / mse);
}

}  // namespace classminer::codec
