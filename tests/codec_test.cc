#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "codec/bitstream.h"
#include "codec/container.h"
#include "codec/decoder.h"
#include "codec/dct.h"
#include "codec/encoder.h"
#include "codec/gop_reader.h"
#include "codec/motion.h"
#include "codec/quant.h"
#include "media/color.h"
#include "media/draw.h"
#include "util/exec_context.h"
#include "util/rng.h"
#include "util/threadpool.h"

namespace classminer::codec {
namespace {

TEST(BitstreamTest, BitsRoundTrip) {
  BitWriter w;
  w.PutBits(0b1011, 4);
  w.PutBits(0x3f, 6);
  const std::vector<uint8_t> bytes = w.Finish();
  BitReader r(bytes);
  EXPECT_EQ(*r.GetBits(4), 0b1011u);
  EXPECT_EQ(*r.GetBits(6), 0x3fu);
}

TEST(BitstreamTest, ExpGolombRoundTrip) {
  BitWriter w;
  for (uint32_t v = 0; v < 300; ++v) w.PutUE(v);
  for (int32_t v = -150; v <= 150; ++v) w.PutSE(v);
  const std::vector<uint8_t> bytes = w.Finish();
  BitReader r(bytes);
  for (uint32_t v = 0; v < 300; ++v) EXPECT_EQ(*r.GetUE(), v);
  for (int32_t v = -150; v <= 150; ++v) EXPECT_EQ(*r.GetSE(), v);
}

TEST(BitstreamTest, ExhaustionIsError) {
  BitReader r(nullptr, 0);
  EXPECT_FALSE(r.GetBit().ok());
}

TEST(DctTest, RoundTripRandomBlock) {
  util::Rng rng(11);
  Block b{};
  for (double& v : b) v = rng.Uniform(-128.0, 128.0);
  const Block rec = InverseDct(ForwardDct(b));
  for (size_t i = 0; i < b.size(); ++i) EXPECT_NEAR(rec[i], b[i], 1e-9);
}

TEST(DctTest, ConstantBlockHasOnlyDc) {
  Block b{};
  b.fill(100.0);
  const Block f = ForwardDct(b);
  EXPECT_NEAR(f[0], 800.0, 1e-9);  // 8 * 100 with orthonormal scaling
  for (size_t i = 1; i < f.size(); ++i) EXPECT_NEAR(f[i], 0.0, 1e-9);
}

TEST(DctTest, Parseval) {
  util::Rng rng(12);
  Block b{};
  for (double& v : b) v = rng.Uniform(-1.0, 1.0);
  const Block f = ForwardDct(b);
  double es = 0.0, ef = 0.0;
  for (size_t i = 0; i < b.size(); ++i) {
    es += b[i] * b[i];
    ef += f[i] * f[i];
  }
  EXPECT_NEAR(es, ef, 1e-9);
}

TEST(QuantTest, ZigzagIsPermutation) {
  const auto& zz = ZigzagOrder();
  std::array<int, kBlockPixels> seen{};
  for (int idx : zz) {
    ASSERT_GE(idx, 0);
    ASSERT_LT(idx, kBlockPixels);
    ++seen[static_cast<size_t>(idx)];
  }
  for (int count : seen) EXPECT_EQ(count, 1);
  EXPECT_EQ(zz[0], 0);
  EXPECT_EQ(zz[1], 1);      // (0,1)
  EXPECT_EQ(zz[2], 8);      // (1,0)
}

TEST(QuantTest, QuantizeDequantizeBoundsError) {
  util::Rng rng(13);
  Block f{};
  for (double& v : f) v = rng.Uniform(-200.0, 200.0);
  const int quality = 4;
  const QuantizedBlock q = Quantize(f, quality, false);
  const Block deq = Dequantize(q, quality, false);
  // Error per coefficient bounded by half a step (step = matrix * scale).
  for (size_t i = 0; i < f.size(); ++i) {
    EXPECT_LE(std::fabs(deq[i] - f[i]), 130.0 * quality / 8.0 * 0.5 + 1e-9);
  }
}

TEST(QuantTest, BlockCodingRoundTrip) {
  util::Rng rng(14);
  QuantizedBlock q{};
  q[0] = 37;
  for (int i = 0; i < 12; ++i) {
    q[static_cast<size_t>(rng.UniformInt(1, kBlockPixels - 1))] =
        rng.UniformInt(-40, 40);
  }
  BitWriter w;
  const int32_t dc = EncodeBlock(&w, q, /*dc_predictor=*/10);
  EXPECT_EQ(dc, 37);
  const std::vector<uint8_t> bytes = w.Finish();
  BitReader r(bytes);
  QuantizedBlock back{};
  util::StatusOr<int32_t> dc2 = DecodeBlock(&r, &back, 10);
  ASSERT_TRUE(dc2.ok());
  EXPECT_EQ(*dc2, 37);
  EXPECT_EQ(back, q);
}

TEST(MotionTest, FindsKnownShift) {
  Plane ref = Plane::Make(48, 48);
  util::Rng rng(15);
  for (int16_t& s : ref.samples) s = static_cast<int16_t>(rng.UniformInt(0, 255));
  // cur = ref shifted by (3, -2).
  Plane cur = Plane::Make(48, 48);
  for (int y = 0; y < 48; ++y) {
    for (int x = 0; x < 48; ++x) {
      const int sx = std::clamp(x - 3, 0, 47);
      const int sy = std::clamp(y + 2, 0, 47);
      cur.set(x, y, ref.at(sx, sy));
    }
  }
  const MotionVector mv = EstimateMotion(cur, ref, 16, 16, 7);
  EXPECT_EQ(mv.dx, -3);
  EXPECT_EQ(mv.dy, 2);
}

TEST(MotionTest, ZeroMotionForIdentical) {
  Plane p = Plane::Make(32, 32, 100);
  EXPECT_EQ(EstimateMotion(p, p, 0, 0, 7), (MotionVector{0, 0}));
}

TEST(ColorSpaceTest, RgbYcbcrRoundTrip) {
  util::Rng rng(16);
  media::Image img(17, 13);  // odd sizes exercise chroma padding
  media::AddNoise(&img, 255, &rng);
  const Picture pic = FromImage(img);
  const media::Image back = ToImage(pic, 17, 13);
  // 4:2:0 chroma subsampling loses colour detail; luma must stay close.
  double luma_err = 0.0;
  for (int y = 0; y < 13; ++y) {
    for (int x = 0; x < 17; ++x) {
      luma_err += std::fabs(static_cast<double>(media::Luma(img.at(x, y))) -
                            media::Luma(back.at(x, y)));
    }
  }
  EXPECT_LT(luma_err / (17 * 13), 3.0);
}

media::Video MakeTestVideo(int frames, int w, int h, uint64_t seed) {
  util::Rng rng(seed);
  media::Video video("codec_test", 12.0);
  media::Image base(w, h);
  media::FillGradient(&base, media::Rgb{40, 80, 160}, media::Rgb{10, 20, 60});
  media::FillEllipse(&base, w / 2, h / 2, w / 5, h / 5, media::Rgb{210, 160, 120});
  for (int i = 0; i < frames; ++i) {
    media::Image frame = media::Translated(base, i / 2, 0);
    media::AddNoise(&frame, 2, &rng);
    video.AppendFrame(std::move(frame));
  }
  return video;
}

TEST(CodecTest, EncodeDecodeQuality) {
  const media::Video video = MakeTestVideo(10, 48, 32, 21);
  EncoderOptions opts;
  opts.quality = 4;
  opts.gop_size = 5;
  const CmvFile file = EncodeVideo(video, opts);
  ASSERT_EQ(file.frame_count(), 10);
  EXPECT_EQ(file.frames[0].type, FrameType::kIntra);
  EXPECT_EQ(file.frames[5].type, FrameType::kIntra);
  EXPECT_EQ(file.frames[1].type, FrameType::kPredicted);

  util::StatusOr<media::Video> decoded = DecodeVideo(file);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->frame_count(), 10);
  for (int i = 0; i < 10; ++i) {
    EXPECT_GT(Psnr(video.frame(i), decoded->frame(i)), 26.0)
        << "frame " << i;
  }
}

TEST(CodecTest, CoarserQualityIsSmaller) {
  const media::Video video = MakeTestVideo(6, 48, 32, 22);
  EncoderOptions fine;
  fine.quality = 2;
  EncoderOptions coarse;
  coarse.quality = 16;
  EXPECT_LT(EncodeVideo(video, coarse).VideoPayloadBytes(),
            EncodeVideo(video, fine).VideoPayloadBytes());
}

TEST(CodecTest, ContainerRoundTrip) {
  const media::Video video = MakeTestVideo(4, 32, 24, 23);
  CmvFile file = EncodeVideo(video, EncoderOptions());
  file.audio_sample_rate = 8000;
  file.audio_pcm = {0.5f, -0.25f, 0.0f};
  const std::vector<uint8_t> bytes = file.Serialize();
  util::StatusOr<CmvFile> parsed = CmvFile::Parse(bytes);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->width, file.width);
  EXPECT_EQ(parsed->frame_count(), file.frame_count());
  EXPECT_EQ(parsed->audio_pcm, file.audio_pcm);
  EXPECT_EQ(parsed->frames[1].payload, file.frames[1].payload);
}

TEST(CodecTest, CorruptMagicRejected) {
  std::vector<uint8_t> bytes{1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_FALSE(CmvFile::Parse(bytes).ok());
}

TEST(CodecTest, TruncatedPayloadIsDataLoss) {
  const media::Video video = MakeTestVideo(3, 32, 24, 24);
  CmvFile file = EncodeVideo(video, EncoderOptions());
  std::vector<uint8_t> bytes = file.Serialize();
  bytes.resize(bytes.size() / 2);
  EXPECT_FALSE(CmvFile::Parse(bytes).ok());
}

TEST(CodecTest, DcImagesTrackLuma) {
  const media::Video video = MakeTestVideo(8, 48, 32, 25);
  EncoderOptions opts;
  opts.quality = 4;
  opts.gop_size = 4;
  const CmvFile file = EncodeVideo(video, opts);
  util::StatusOr<std::vector<media::GrayImage>> dc = DecodeDcImages(file);
  ASSERT_TRUE(dc.ok());
  ASSERT_EQ(dc->size(), 8u);
  EXPECT_EQ((*dc)[0].width(), 6);   // 48 / 8
  EXPECT_EQ((*dc)[0].height(), 4);  // 32 / 8

  // The DC image of an I-frame must approximate the true block means.
  const media::GrayImage gray = media::ToGray(video.frame(0));
  for (int by = 0; by < 4; ++by) {
    for (int bx = 0; bx < 6; ++bx) {
      double mean = 0.0;
      for (int y = 0; y < 8; ++y) {
        for (int x = 0; x < 8; ++x) mean += gray.at(bx * 8 + x, by * 8 + y);
      }
      mean /= 64.0;
      EXPECT_NEAR((*dc)[0].at(bx, by), mean, 24.0);
    }
  }
}

TEST(CodecTest, DcSequenceDetectsBigChange) {
  // Two visually distinct halves: DC difference across the boundary must
  // dominate within-shot differences.
  media::Video video("cut", 12.0);
  util::Rng rng(26);
  for (int i = 0; i < 6; ++i) {
    media::Image f(48, 32, media::Rgb{200, 30, 30});
    media::AddNoise(&f, 2, &rng);
    video.AppendFrame(std::move(f));
  }
  for (int i = 0; i < 6; ++i) {
    media::Image f(48, 32, media::Rgb{20, 30, 180});
    media::AddNoise(&f, 2, &rng);
    video.AppendFrame(std::move(f));
  }
  EncoderOptions opts;
  opts.gop_size = 4;
  const CmvFile file = EncodeVideo(video, opts);
  util::StatusOr<std::vector<media::GrayImage>> dc = DecodeDcImages(file);
  ASSERT_TRUE(dc.ok());
  double max_within = 0.0;
  double at_cut = 0.0;
  for (size_t i = 1; i < dc->size(); ++i) {
    double diff = 0.0;
    for (int y = 0; y < 4; ++y) {
      for (int x = 0; x < 6; ++x) {
        diff += std::fabs(static_cast<double>((*dc)[i].at(x, y)) -
                          (*dc)[i - 1].at(x, y));
      }
    }
    if (i == 6) {
      at_cut = diff;
    } else {
      max_within = std::max(max_within, diff);
    }
  }
  EXPECT_GT(at_cut, 3.0 * max_within);
}

// GOP-parallel full decode. The clip is 44 frames at gop_size 8: five full
// GOPs and a short final GOP of four frames.
CmvFile MultiGopFile() {
  EncoderOptions opts;
  opts.gop_size = 8;
  return EncodeVideo(MakeTestVideo(44, 40, 24, 31), opts);
}

// Reference frames: the per-frame core chained over the whole stream in
// one thread, with no GOP partition at all.
std::vector<media::Image> ChainedReferenceFrames(const CmvFile& file) {
  std::vector<media::Image> frames;
  std::optional<Picture> prev;
  for (const FrameRecord& rec : file.frames) {
    util::StatusOr<Picture> picture = internal::DecodePicture(
        rec, file.width, file.height, file.quality,
        prev.has_value() ? &*prev : nullptr);
    EXPECT_TRUE(picture.ok()) << picture.status().ToString();
    if (!picture.ok()) return frames;
    frames.push_back(ToImage(*picture, file.width, file.height));
    prev.emplace(std::move(*picture));
  }
  return frames;
}

// The serial walk DecodeVideo performs without a pool: GOPs in stream
// order, stopping at the first one that fails.
util::Status SerialWalkStatus(const CmvFile& file) {
  util::StatusOr<GopReader> reader = GopReader::Create(&file);
  if (!reader.ok()) return reader.status();
  for (int g = 0; g < reader->gop_count(); ++g) {
    util::StatusOr<std::vector<media::Image>> frames = reader->DecodeGop(g);
    if (!frames.ok()) return frames.status();
  }
  return util::Status::Ok();
}

TEST(GopParallelDecodeTest, PoolSizesDecodeByteIdenticalFrames) {
  const CmvFile file = MultiGopFile();
  ASSERT_EQ(file.gop_count(), 6);
  ASSERT_EQ(file.gop_index.back().frame_count, 4);
  util::StatusOr<media::Video> serial = DecodeVideo(file);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_EQ(serial->frame_count(), 44);
  const std::vector<media::Image> reference = ChainedReferenceFrames(file);
  ASSERT_EQ(reference.size(), 44u);
  for (int i = 0; i < serial->frame_count(); ++i) {
    ASSERT_EQ(serial->frame(i), reference[static_cast<size_t>(i)])
        << "frame " << i;
  }

  // The partition comes from the frame records: a wrong stored index
  // changes nothing.
  CmvFile bad_index = file;
  bad_index.gop_index[1].start_frame = 3;
  const CmvFile* inputs[] = {&file, &bad_index};
  for (const int threads : {2, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    util::ThreadPool pool(threads);
    for (const CmvFile* input : inputs) {
      util::StatusOr<media::Video> parallel = DecodeVideo(*input, &pool);
      ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
      EXPECT_EQ(parallel->name(), serial->name());
      EXPECT_EQ(parallel->fps(), serial->fps());
      ASSERT_EQ(parallel->frame_count(), serial->frame_count());
      for (int i = 0; i < serial->frame_count(); ++i) {
        ASSERT_EQ(parallel->frame(i), serial->frame(i)) << "frame " << i;
      }
    }
  }
}

// MultiGopFile with GOPs 2 and 4 damaged. GOP 2: clear every bit of its
// I-frame's first eight bytes, so the first exp-Golomb code runs past 31
// leading zeros. GOP 4: cut its I-frame's payload short, so the bitstream
// runs out. The stored index is rebuilt to match the new payload sizes.
CmvFile TwoDamagedGopsFile() {
  CmvFile file = MultiGopFile();
  std::vector<uint8_t>& gop2 = file.frames[16].payload;
  EXPECT_GE(gop2.size(), 8u);
  for (size_t b = 0; b < 8 && b < gop2.size(); ++b) gop2[b] ^= gop2[b];
  file.frames[32].payload.resize(2);
  EXPECT_TRUE(file.RebuildGopIndex().ok());
  return file;
}

TEST(GopParallelDecodeTest, LowestFailingGopWinsAtEveryPoolSize) {
  const CmvFile file = TwoDamagedGopsFile();

  util::StatusOr<GopReader> reader = GopReader::Create(&file);
  ASSERT_TRUE(reader.ok());
  const util::Status gop2_status = reader->DecodeGop(2).status();
  const util::Status gop4_status = reader->DecodeGop(4).status();
  ASSERT_FALSE(gop2_status.ok());
  ASSERT_FALSE(gop4_status.ok());
  ASSERT_NE(gop2_status.message(), gop4_status.message());
  ASSERT_EQ(SerialWalkStatus(file).message(), gop2_status.message());

  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    util::ThreadPool pool(threads);
    const util::Status status = DecodeVideo(file, &pool).status();
    EXPECT_EQ(status.code(), gop2_status.code());
    EXPECT_EQ(status.message(), gop2_status.message());
  }
  const util::Status inline_status = DecodeVideo(file).status();
  EXPECT_EQ(inline_status.code(), gop2_status.code());
  EXPECT_EQ(inline_status.message(), gop2_status.message());
}

TEST(GopParallelDecodeTest, CancellationAndLeadingPFrameKeepTheirCodes) {
  const CmvFile file = MultiGopFile();
  CmvFile p_first = file;
  p_first.frames[0].type = FrameType::kPredicted;
  util::CancellationToken cancel;
  cancel.Cancel();
  util::ThreadPool pool(4);
  for (util::ThreadPool* p : {static_cast<util::ThreadPool*>(nullptr), &pool}) {
    SCOPED_TRACE(p == nullptr ? "inline" : "pool of 4");
    EXPECT_EQ(DecodeVideo(file, util::ExecutionContext(p, nullptr, &cancel))
                  .status()
                  .code(),
              util::StatusCode::kCancelled);
    EXPECT_EQ(DecodeVideo(p_first, p).status().code(),
              util::StatusCode::kDataLoss);
  }
}

// ---------------------------------------------------------------- GOP index

// A small moving-gradient clip with enough texture that every frame encodes
// to a distinct payload (so index byte offsets are meaningful).
media::Video TestVideo(int frames, int w = 48, int h = 36) {
  util::Rng rng(77);
  media::Video video("gop-test", 10.0);
  media::Image base(w, h);
  media::FillGradient(&base, media::Rgb{60, 90, 140}, media::Rgb{20, 30, 50});
  media::FillEllipse(&base, w / 2, h / 2, w / 4, h / 4,
                     media::Rgb{205, 150, 120});
  for (int i = 0; i < frames; ++i) {
    media::Image f = media::Translated(base, i, i / 2);
    media::AddNoise(&f, 3, &rng);
    video.AppendFrame(std::move(f));
  }
  return video;
}

codec::CmvFile EncodeTestFile(int frames, int gop_size) {
  codec::EncoderOptions opts;
  opts.gop_size = gop_size;
  return codec::EncodeVideo(TestVideo(frames), opts);
}

TEST(GopIndexTest, EncoderEmitsConsistentIndex) {
  // 30 frames at GOP size 8: GOPs of 8, 8, 8 and a final partial 6.
  const codec::CmvFile file = EncodeTestFile(30, 8);
  ASSERT_EQ(file.gop_count(), 4);

  int next_frame = 0;
  uint64_t next_offset = 0;
  uint64_t total_bytes = 0;
  for (const codec::GopIndexEntry& g : file.gop_index) {
    EXPECT_EQ(g.start_frame, next_frame);
    EXPECT_EQ(g.byte_offset, next_offset);
    EXPECT_GT(g.frame_count, 0);
    EXPECT_GT(g.byte_size, 0u);
    EXPECT_EQ(file.frames[static_cast<size_t>(g.start_frame)].type,
              codec::FrameType::kIntra);
    next_frame += g.frame_count;
    next_offset += g.byte_size;
    total_bytes += g.byte_size;
  }
  EXPECT_EQ(next_frame, file.frame_count());
  EXPECT_EQ(total_bytes, file.VideoPayloadBytes());
  EXPECT_EQ(file.gop_index.back().frame_count, 6);
}

TEST(GopIndexTest, GopOfFrameCoversBoundaries) {
  const codec::CmvFile file = EncodeTestFile(30, 8);
  EXPECT_EQ(file.GopOfFrame(0), 0);
  EXPECT_EQ(file.GopOfFrame(7), 0);
  EXPECT_EQ(file.GopOfFrame(8), 1);
  EXPECT_EQ(file.GopOfFrame(23), 2);
  EXPECT_EQ(file.GopOfFrame(24), 3);
  EXPECT_EQ(file.GopOfFrame(29), 3);
  EXPECT_EQ(file.GopOfFrame(-1), -1);
  EXPECT_EQ(file.GopOfFrame(30), -1);
}

TEST(GopIndexTest, SerializeParseRoundTripPreservesIndex) {
  const codec::CmvFile file = EncodeTestFile(30, 8);
  util::StatusOr<codec::CmvFile> back = codec::CmvFile::Parse(file.Serialize());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->gop_index, file.gop_index);
}

TEST(GopIndexTest, ParseRebuildsIndexForLegacyContainer) {
  // A container serialized without the trailing index section (what files
  // written before the index existed look like) parses fine and gets its
  // index rebuilt from the frame records.
  codec::CmvFile file = EncodeTestFile(30, 8);
  const std::vector<codec::GopIndexEntry> expected = file.gop_index;
  file.gop_index.clear();
  const std::vector<uint8_t> legacy_bytes = file.Serialize();

  util::StatusOr<codec::CmvFile> back = codec::CmvFile::Parse(legacy_bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->gop_index, expected);
}

TEST(GopIndexTest, TruncatedIndexFailsCleanly) {
  const codec::CmvFile file = EncodeTestFile(30, 8);
  const std::vector<uint8_t> bytes = file.Serialize();

  // Dropping one whole 24-byte entry trips the explicit count-vs-remaining
  // guard; dropping a few bytes mid-entry fails on the short read. Either
  // way: a clean Status, never a crash or a silently short index.
  for (const size_t cut : {size_t{24}, size_t{5}, size_t{1}}) {
    ASSERT_GT(bytes.size(), cut);
    const std::vector<uint8_t> truncated(bytes.begin(),
                                         bytes.end() - static_cast<long>(cut));
    util::StatusOr<codec::CmvFile> back = codec::CmvFile::Parse(truncated);
    EXPECT_FALSE(back.ok()) << "cut " << cut << " bytes";
  }
}

TEST(GopIndexTest, TamperedIndexFailsValidation) {
  codec::CmvFile file = EncodeTestFile(30, 8);
  file.gop_index[1].frame_count += 1;
  util::StatusOr<codec::CmvFile> back = codec::CmvFile::Parse(file.Serialize());
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), util::StatusCode::kDataLoss);
}

TEST(GopIndexTest, StreamStartingWithPFrameCannotIndex) {
  codec::CmvFile file = EncodeTestFile(30, 8);
  file.frames.erase(file.frames.begin());  // now opens with a P-frame
  EXPECT_EQ(file.RebuildGopIndex().code(), util::StatusCode::kDataLoss);
  file.gop_index.clear();
  EXPECT_FALSE(codec::GopReader::Create(&file).ok());
}

// ---------------------------------------------------------------- GopReader

TEST(GopReaderTest, EveryGopMatchesFullDecodeSlice) {
  const codec::CmvFile file = EncodeTestFile(30, 8);
  util::StatusOr<media::Video> full = codec::DecodeVideo(file);
  ASSERT_TRUE(full.ok()) << full.status().ToString();

  util::StatusOr<codec::GopReader> reader = codec::GopReader::Create(&file);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  ASSERT_EQ(reader->gop_count(), 4);

  for (int g = 0; g < reader->gop_count(); ++g) {
    util::StatusOr<std::vector<media::Image>> gop = reader->DecodeGop(g);
    ASSERT_TRUE(gop.ok()) << gop.status().ToString();
    const codec::GopIndexEntry& entry = reader->gop(g);
    ASSERT_EQ(static_cast<int>(gop->size()), entry.frame_count);
    for (int i = 0; i < entry.frame_count; ++i) {
      EXPECT_EQ((*gop)[static_cast<size_t>(i)],
                full->frame(entry.start_frame + i))
          << "gop " << g << " frame " << i;
    }
  }
}

TEST(GopReaderTest, SingleGopVideoDecodesWhole) {
  // GOP size larger than the clip: the whole video is one GOP.
  const codec::CmvFile file = EncodeTestFile(10, 100);
  util::StatusOr<media::Video> full = codec::DecodeVideo(file);
  ASSERT_TRUE(full.ok());

  util::StatusOr<codec::GopReader> reader = codec::GopReader::Create(&file);
  ASSERT_TRUE(reader.ok());
  ASSERT_EQ(reader->gop_count(), 1);
  EXPECT_EQ(reader->GopOfFrame(0), 0);
  EXPECT_EQ(reader->GopOfFrame(9), 0);

  util::StatusOr<std::vector<media::Image>> gop = reader->DecodeGop(0);
  ASSERT_TRUE(gop.ok());
  ASSERT_EQ(gop->size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ((*gop)[static_cast<size_t>(i)], full->frame(i));
  }
}

TEST(GopReaderTest, RejectsBadGopIndexAndBadFile) {
  const codec::CmvFile file = EncodeTestFile(30, 8);
  util::StatusOr<codec::GopReader> reader = codec::GopReader::Create(&file);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->DecodeGop(-1).status().code(),
            util::StatusCode::kOutOfRange);
  EXPECT_EQ(reader->DecodeGop(reader->gop_count()).status().code(),
            util::StatusCode::kOutOfRange);
  // A prefix longer than the GOP (8 frames) is out of range too.
  EXPECT_EQ(reader->DecodeGop(0, nullptr, 9).status().code(),
            util::StatusCode::kOutOfRange);

  EXPECT_FALSE(codec::GopReader::Create(nullptr).ok());
  codec::CmvFile broken = file;
  broken.width = 0;
  EXPECT_FALSE(codec::GopReader::Create(&broken).ok());
  codec::CmvFile stale = file;
  stale.gop_index[0].byte_size += 1;  // stored index disagrees with frames
  EXPECT_EQ(codec::GopReader::Create(&stale).status().code(),
            util::StatusCode::kDataLoss);
}

// ------------------------------------------------------------- DecodeFrames

// Planned selective decode (DecodeFrames) over MultiGopFile: GOPs start at
// frames 0, 8, 16, 24, 32 and 40.

TEST(DecodeFramesTest, FramesMatchFullDecodeInlineAndOnAPool) {
  const CmvFile file = MultiGopFile();
  util::StatusOr<media::Video> full = DecodeVideo(file);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  const std::vector<int> wanted = {0, 3, 9, 10, 15, 31, 41, 43};
  util::ThreadPool pool(4);
  for (util::ThreadPool* p : {static_cast<util::ThreadPool*>(nullptr), &pool}) {
    SCOPED_TRACE(p == nullptr ? "inline" : "pool of 4");
    util::StatusOr<FrameBatch> batch = DecodeFrames(file, wanted, p);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    EXPECT_TRUE(batch->FirstError().ok());
    EXPECT_EQ(batch->failed_gops, 0);
    ASSERT_EQ(batch->frames.size(), wanted.size());
    for (size_t i = 0; i < wanted.size(); ++i) {
      const DecodedFrame& frame = batch->frames[i];
      EXPECT_TRUE(frame.status.ok());
      EXPECT_EQ(frame.image, full->frame(wanted[i])) << "frame " << wanted[i];
    }
  }
}

TEST(DecodeFramesTest, ConcurrentBatchesOnOnePoolAreBitIdentical) {
  // Several callers decode different, overlapping batches of one file at
  // once, all on one shared pool: a decode shares no state between calls,
  // so every frame still matches the full decode.
  const CmvFile file = MultiGopFile();
  util::StatusOr<media::Video> full = DecodeVideo(file);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  util::ThreadPool pool(4);

  constexpr int kCallers = 4;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      // Strided so every caller touches every GOP, at different frames.
      std::vector<int> wanted;
      for (int f = t; f < file.frame_count(); f += kCallers) {
        wanted.push_back(f);
      }
      for (int pass = 0; pass < 3; ++pass) {
        util::StatusOr<FrameBatch> batch = DecodeFrames(file, wanted, &pool);
        if (!batch.ok() || !batch->FirstError().ok() ||
            batch->frames.size() != wanted.size()) {
          failures.fetch_add(1);
          continue;
        }
        for (size_t i = 0; i < wanted.size(); ++i) {
          if (!(batch->frames[i].image == full->frame(wanted[i]))) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& caller : callers) caller.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(DecodeFramesTest, DecodesEachNeededGopOnceUpToItsLastFrame) {
  const CmvFile file = MultiGopFile();
  // GOP 0 up to position 5, GOP 2 up to position 3, GOP 5 up to position
  // 0: 6 + 4 + 1 frames. GOPs 1, 3 and 4 are never touched.
  util::StatusOr<FrameBatch> batch = DecodeFrames(file, {1, 5, 18, 19, 40});
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(batch->gops, 3);
  EXPECT_EQ(batch->frames_decoded, 6 + 4 + 1);

  util::StatusOr<FrameBatch> none = DecodeFrames(file, {});
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->frames.empty());
  EXPECT_EQ(none->gops, 0);
  EXPECT_EQ(none->frames_decoded, 0);
}

TEST(DecodeFramesTest, LowestFailingGopWinsAtEveryPoolSize) {
  const CmvFile file = TwoDamagedGopsFile();
  util::StatusOr<GopReader> reader = GopReader::Create(&file);
  ASSERT_TRUE(reader.ok());
  const util::Status gop2_status = reader->DecodeGop(2).status();
  ASSERT_FALSE(gop2_status.ok());
  ASSERT_NE(gop2_status.message(), reader->DecodeGop(4).status().message());

  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    util::ThreadPool pool(threads);
    util::StatusOr<FrameBatch> batch =
        DecodeFrames(file, {9, 17, 20, 33, 41}, &pool);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    EXPECT_EQ(batch->gops, 4);
    EXPECT_EQ(batch->failed_gops, 2);
    const util::Status first = batch->FirstError();
    EXPECT_EQ(first.code(), gop2_status.code());
    EXPECT_EQ(first.message(), gop2_status.message());
  }
}

TEST(DecodeFramesTest, SalvagingCallerKeepsEveryFrameOutsideTheFailedGops) {
  const CmvFile pristine = MultiGopFile();
  util::StatusOr<media::Video> full = DecodeVideo(pristine);
  ASSERT_TRUE(full.ok());
  const CmvFile file = TwoDamagedGopsFile();
  std::vector<int> wanted(static_cast<size_t>(file.frame_count()));
  for (int f = 0; f < file.frame_count(); ++f) {
    wanted[static_cast<size_t>(f)] = f;
  }
  util::ThreadPool pool(4);
  util::StatusOr<FrameBatch> batch = DecodeFrames(file, wanted, &pool);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(batch->failed_gops, 2);
  // Only GOPs 0, 1, 3 and 5 decode: 8 + 8 + 8 + 4 frames.
  EXPECT_EQ(batch->frames_decoded, 28);
  ASSERT_EQ(batch->frames.size(), wanted.size());
  for (int f = 0; f < file.frame_count(); ++f) {
    SCOPED_TRACE("frame " + std::to_string(f));
    const DecodedFrame& frame = batch->frames[static_cast<size_t>(f)];
    const int gop = file.GopOfFrame(f);
    if (gop == 2 || gop == 4) {
      EXPECT_FALSE(frame.status.ok());
      EXPECT_EQ(frame.image.width(), 0);
    } else {
      ASSERT_TRUE(frame.status.ok());
      EXPECT_EQ(frame.image, full->frame(f));
    }
  }
}

TEST(DecodeFramesTest, CancellationStopsEveryDecodeLoop) {
  const CmvFile file = MultiGopFile();
  util::CancellationToken cancel;
  cancel.Cancel();
  util::ThreadPool pool(4);
  for (util::ThreadPool* p : {static_cast<util::ThreadPool*>(nullptr), &pool}) {
    SCOPED_TRACE(p == nullptr ? "inline" : "pool of 4");
    EXPECT_EQ(DecodeFrames(file, {2, 12, 40},
                           util::ExecutionContext(p, nullptr, &cancel))
                  .status()
                  .code(),
              util::StatusCode::kCancelled);
  }
  EXPECT_EQ(DecodeDcImages(file, &cancel).status().code(),
            util::StatusCode::kCancelled);
  util::StatusOr<GopReader> reader = GopReader::Create(&file);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->DecodeGop(0, &cancel).status().code(),
            util::StatusCode::kCancelled);
}

TEST(DecodeFramesTest, RejectsOutOfRangeAndUnsortedIndices) {
  const CmvFile file = MultiGopFile();
  const std::vector<std::vector<int>> bad = {
      {-1}, {44}, {3, 100}, {9, 3}, {5, 5}};
  for (const std::vector<int>& indices : bad) {
    EXPECT_EQ(DecodeFrames(file, indices).status().code(),
              util::StatusCode::kOutOfRange)
        << "first index " << indices.front();
  }
  // The stored index is validated like GopReader::Create validates it.
  CmvFile stale = file;
  stale.gop_index[1].byte_size += 1;
  EXPECT_EQ(DecodeFrames(stale, {0}).status().code(),
            util::StatusCode::kDataLoss);
}

}  // namespace
}  // namespace classminer::codec
