#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "codec/bitstream.h"
#include "codec/container.h"
#include "codec/decoder.h"
#include "codec/dct.h"
#include "codec/encoder.h"
#include "codec/motion.h"
#include "codec/quant.h"
#include "gop_of_frame.h"
#include "media/color.h"
#include "media/draw.h"
#include "util/cpu.h"
#include "util/crc32.h"
#include "util/exec_context.h"
#include "util/rng.h"
#include "util/serial.h"
#include "util/threadpool.h"

namespace classminer::codec {
namespace {

TEST(BitstreamTest, BitsRoundTrip) {
  BitWriter w;
  w.PutBits(0b1011, 4);
  w.PutBits(0x3f, 6);
  const std::vector<uint8_t> bytes = w.Finish();
  BitReader r(bytes);
  uint32_t v = 0;
  ASSERT_TRUE(r.ReadBits(4, &v));
  EXPECT_EQ(v, 0b1011u);
  ASSERT_TRUE(r.ReadBits(6, &v));
  EXPECT_EQ(v, 0x3fu);
}

TEST(BitstreamTest, ExpGolombRoundTrip) {
  BitWriter w;
  for (uint32_t v = 0; v < 300; ++v) w.PutUE(v);
  for (int32_t v = -150; v <= 150; ++v) w.PutSE(v);
  const std::vector<uint8_t> bytes = w.Finish();
  BitReader r(bytes);
  for (uint32_t v = 0; v < 300; ++v) {
    uint32_t got = 0;
    ASSERT_TRUE(r.ReadUE(&got));
    EXPECT_EQ(got, v);
  }
  for (int32_t v = -150; v <= 150; ++v) {
    int32_t got = 0;
    ASSERT_TRUE(r.ReadSE(&got));
    EXPECT_EQ(got, v);
  }
}

TEST(BitstreamTest, ExhaustionIsError) {
  BitReader r(nullptr, 0);
  uint32_t bit = 0;
  EXPECT_FALSE(r.ReadBit(&bit));
  EXPECT_EQ(r.status().code(), util::StatusCode::kDataLoss);
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
  const QuantSteps steps = MakeQuantSteps(quality, false);
  const QuantizedBlock q = Quantize(f, steps);
  const Block deq = Dequantize(q, steps);
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

// The status of decoding GOP `g` of `file` alone, every frame of it.
util::Status GopStatus(const CmvFile& file, int g) {
  const GopIndexEntry gop = Gops(file)[static_cast<size_t>(g)];
  util::StatusOr<FrameBatch> batch =
      DecodeFrames(file, {gop.start_frame + gop.frame_count - 1});
  return batch.ok() ? batch->FirstError() : batch.status();
}

// The serial walk DecodeVideo performs without a pool: GOPs in stream
// order, stopping at the first one that fails.
util::Status SerialWalkStatus(const CmvFile& file) {
  const int gops = static_cast<int>(Gops(file).size());
  for (int g = 0; g < gops; ++g) {
    CLASSMINER_RETURN_IF_ERROR(GopStatus(file, g));
  }
  return util::Status::Ok();
}

TEST(GopParallelDecodeTest, PoolSizesDecodeByteIdenticalFrames) {
  const CmvFile file = MultiGopFile();
  const std::vector<GopIndexEntry> gops = Gops(file);
  ASSERT_EQ(gops.size(), 6u);
  ASSERT_EQ(gops.back().frame_count, 4);
  util::StatusOr<media::Video> serial = DecodeVideo(file);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_EQ(serial->frame_count(), 44);
  const std::vector<media::Image> reference = ChainedReferenceFrames(file);
  ASSERT_EQ(reference.size(), 44u);
  for (int i = 0; i < serial->frame_count(); ++i) {
    ASSERT_EQ(serial->frame(i), reference[static_cast<size_t>(i)])
        << "frame " << i;
  }

  for (const int threads : {2, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    util::ThreadPool pool(threads);
    util::StatusOr<media::Video> parallel = DecodeVideo(file, &pool);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    EXPECT_EQ(parallel->name(), serial->name());
    EXPECT_EQ(parallel->fps(), serial->fps());
    ASSERT_EQ(parallel->frame_count(), serial->frame_count());
    for (int i = 0; i < serial->frame_count(); ++i) {
      ASSERT_EQ(parallel->frame(i), serial->frame(i)) << "frame " << i;
    }
  }
}

// MultiGopFile with GOPs 2 and 4 damaged. GOP 2: clear every bit of its
// I-frame's first eight bytes, so the first exp-Golomb code runs past 31
// leading zeros. GOP 4: cut its I-frame's payload short, so the bitstream
// runs out.
CmvFile TwoDamagedGopsFile() {
  CmvFile file = MultiGopFile();
  std::vector<uint8_t>& gop2 = file.frames[16].payload;
  EXPECT_GE(gop2.size(), 8u);
  for (size_t b = 0; b < 8 && b < gop2.size(); ++b) gop2[b] ^= gop2[b];
  file.frames[32].payload.resize(2);
  return file;
}

TEST(GopParallelDecodeTest, LowestFailingGopWinsAtEveryPoolSize) {
  const CmvFile file = TwoDamagedGopsFile();

  const util::Status gop2_status = GopStatus(file, 2);
  const util::Status gop4_status = GopStatus(file, 4);
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

// Size of the trailing GIDX section for an index of `gops` entries.
size_t GopIndexSectionBytes(size_t gops) { return 8 + 24 * gops; }

// The GIDX section Serialize wrote at the end of `bytes`, `gops` entries.
std::vector<GopIndexEntry> StoredGopIndex(const std::vector<uint8_t>& bytes,
                                          size_t gops) {
  util::ByteReader r(bytes);
  EXPECT_TRUE(r.SeekTo(bytes.size() - GopIndexSectionBytes(gops)).ok());
  EXPECT_EQ(*r.GetU32(), CmvFile::kGopIndexMagic);
  EXPECT_EQ(*r.GetU32(), gops);
  std::vector<GopIndexEntry> index(gops);
  for (GopIndexEntry& g : index) {
    g.start_frame = *r.GetI32();
    g.frame_count = *r.GetI32();
    g.byte_offset = *r.GetU64();
    g.byte_size = *r.GetU64();
  }
  return index;
}

// `file` serialised with `index` as its stored GIDX section in place of the
// derived one (no section at all when `index` is empty).
std::vector<uint8_t> WithStoredIndex(const CmvFile& file,
                                     const std::vector<GopIndexEntry>& index) {
  std::vector<uint8_t> bytes = file.Serialize();
  bytes.resize(bytes.size() - GopIndexSectionBytes(Gops(file).size()));
  if (index.empty()) return bytes;
  util::ByteWriter w;
  w.PutU32(CmvFile::kGopIndexMagic);
  w.PutU32(static_cast<uint32_t>(index.size()));
  for (const GopIndexEntry& g : index) {
    w.PutI32(g.start_frame);
    w.PutI32(g.frame_count);
    w.PutU64(g.byte_offset);
    w.PutU64(g.byte_size);
  }
  bytes.insert(bytes.end(), w.bytes().begin(), w.bytes().end());
  return bytes;
}

TEST(GopIndexTest, EncoderEmitsConsistentIndex) {
  // 30 frames at GOP size 8: GOPs of 8, 8, 8 and a final partial 6.
  const codec::CmvFile file = EncodeTestFile(30, 8);
  const std::vector<GopIndexEntry> gops = Gops(file);
  ASSERT_EQ(gops.size(), 4u);
  // The section Serialize writes is the derived index.
  EXPECT_EQ(StoredGopIndex(file.Serialize(), gops.size()), gops);

  int next_frame = 0;
  uint64_t next_offset = 0;
  uint64_t total_bytes = 0;
  for (const codec::GopIndexEntry& g : gops) {
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
  EXPECT_EQ(gops.back().frame_count, 6);
}

TEST(GopIndexTest, GopOfFrameCoversBoundaries) {
  const codec::CmvFile file = EncodeTestFile(30, 8);
  EXPECT_EQ(GopOfFrame(file, 0), 0);
  EXPECT_EQ(GopOfFrame(file, 7), 0);
  EXPECT_EQ(GopOfFrame(file, 8), 1);
  EXPECT_EQ(GopOfFrame(file, 23), 2);
  EXPECT_EQ(GopOfFrame(file, 24), 3);
  EXPECT_EQ(GopOfFrame(file, 29), 3);
  EXPECT_EQ(GopOfFrame(file, -1), -1);
  EXPECT_EQ(GopOfFrame(file, 30), -1);
}

TEST(GopIndexTest, SerializeParseRoundTripPreservesIndex) {
  const codec::CmvFile file = EncodeTestFile(30, 8);
  const std::vector<uint8_t> bytes = file.Serialize();
  util::StatusOr<codec::CmvFile> back = codec::CmvFile::Parse(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(Gops(*back), Gops(file));
  EXPECT_EQ(back->Serialize(), bytes);
}

TEST(GopIndexTest, ParseRebuildsIndexForLegacyContainer) {
  // A container without the trailing index section parses fine; its GOPs
  // come from the frame records, and re-serialising writes the section.
  const codec::CmvFile file = EncodeTestFile(30, 8);
  const std::vector<uint8_t> no_index = WithStoredIndex(file, {});
  ASSERT_LT(no_index.size(), file.Serialize().size());

  util::StatusOr<codec::CmvFile> back = codec::CmvFile::Parse(no_index);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(Gops(*back), Gops(file));
  EXPECT_EQ(back->Serialize(), file.Serialize());
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
  const codec::CmvFile file = EncodeTestFile(30, 8);
  std::vector<GopIndexEntry> tampered = Gops(file);
  tampered[1].frame_count += 1;
  util::StatusOr<codec::CmvFile> back =
      codec::CmvFile::Parse(WithStoredIndex(file, tampered));
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), util::StatusCode::kDataLoss);
}

TEST(GopIndexTest, StreamStartingWithPFrameCannotIndex) {
  codec::CmvFile file = EncodeTestFile(30, 8);
  file.frames.erase(file.frames.begin());  // now opens with a P-frame
  EXPECT_EQ(CmvFile::DeriveGopIndex(file.frames).status().code(),
            util::StatusCode::kDataLoss);
  EXPECT_EQ(codec::DecodeFrames(file, {1}).status().code(),
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

TEST(DecodeFramesTest, EveryGopSliceMatchesFullDecode) {
  const CmvFile file = MultiGopFile();
  util::StatusOr<media::Video> full = DecodeVideo(file);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  const std::vector<GopIndexEntry> gops = Gops(file);
  ASSERT_EQ(gops.size(), 6u);
  for (const GopIndexEntry& gop : gops) {
    SCOPED_TRACE("GOP at frame " + std::to_string(gop.start_frame));
    std::vector<int> wanted;
    for (int i = 0; i < gop.frame_count; ++i) {
      wanted.push_back(gop.start_frame + i);
    }
    util::StatusOr<FrameBatch> batch = DecodeFrames(file, wanted);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    EXPECT_EQ(batch->gops, 1);
    EXPECT_EQ(batch->frames_decoded, gop.frame_count);
    ASSERT_EQ(batch->frames.size(), wanted.size());
    for (size_t i = 0; i < wanted.size(); ++i) {
      EXPECT_EQ(batch->frames[i].image, full->frame(wanted[i]))
          << "frame " << wanted[i];
    }
  }
}

TEST(DecodeFramesTest, SingleGopVideoDecodesWhole) {
  // GOP size larger than the clip: the whole video is one GOP.
  const CmvFile file = EncodeTestFile(10, 100);
  util::StatusOr<media::Video> full = DecodeVideo(file);
  ASSERT_TRUE(full.ok());
  util::StatusOr<FrameBatch> batch =
      DecodeFrames(file, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9});
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(batch->gops, 1);
  EXPECT_EQ(batch->frames_decoded, 10);
  ASSERT_EQ(batch->frames.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(batch->frames[static_cast<size_t>(i)].image, full->frame(i));
  }
}

TEST(DecodeFramesTest, RejectsEmptyAndDimensionlessFiles) {
  // A default file has no dimensions and no frames.
  EXPECT_EQ(DecodeFrames(CmvFile{}, {}).status().code(),
            util::StatusCode::kInvalidArgument);
  CmvFile broken = MultiGopFile();
  broken.width = 0;
  EXPECT_EQ(DecodeFrames(broken, {0}).status().code(),
            util::StatusCode::kInvalidArgument);
  // Dimensions but no frames: nothing to decode, and no frame to ask for.
  CmvFile empty = MultiGopFile();
  empty.frames.clear();
  util::StatusOr<FrameBatch> none = DecodeFrames(empty, {});
  ASSERT_TRUE(none.ok()) << none.status().ToString();
  EXPECT_EQ(none->gops, 0);
  EXPECT_EQ(DecodeFrames(empty, {0}).status().code(),
            util::StatusCode::kOutOfRange);
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
  const util::Status gop2_status = GopStatus(file, 2);
  ASSERT_FALSE(gop2_status.ok());
  ASSERT_NE(gop2_status.message(), GopStatus(file, 4).message());

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
    const int gop = GopOfFrame(file, f);
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
  EXPECT_EQ(DecodeDcImages(file, util::ExecutionContext(nullptr, nullptr,
                                                        &cancel))
                .status()
                .code(),
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
}

// A stored index that disagrees with the frame records never reaches a
// decode: the strict parse refuses it, and the salvage parse drops it and
// decodes exactly like the pristine file. A file with no stored index
// parses strictly and decodes the same too.
TEST(DecodeFramesTest, StaleStoredIndexCannotChangeWhatDecodes) {
  const CmvFile file = MultiGopFile();
  const std::vector<GopIndexEntry> gops = Gops(file);
  std::vector<std::vector<GopIndexEntry>> stored(4, gops);
  stored[0][1].byte_size += 1;
  stored[1][1].start_frame = 3;
  stored[2].clear();
  stored[3].push_back(stored[3].back());
  const std::vector<int> wanted = {0, 3, 9, 10, 15, 31, 41, 43};
  util::StatusOr<media::Video> video = DecodeVideo(file);
  util::StatusOr<FrameBatch> batch = DecodeFrames(file, wanted);
  util::StatusOr<std::vector<media::GrayImage>> dc = DecodeDcImages(file);
  ASSERT_TRUE(video.ok() && batch.ok() && dc.ok());
  util::ThreadPool pool(4);
  for (size_t k = 0; k < stored.size(); ++k) {
    SCOPED_TRACE("stored index " + std::to_string(k));
    const std::vector<uint8_t> bytes = WithStoredIndex(file, stored[k]);
    const util::StatusOr<CmvFile> strict = CmvFile::Parse(bytes);
    if (stored[k].empty()) {
      ASSERT_TRUE(strict.ok()) << strict.status().ToString();
    } else {
      ASSERT_FALSE(strict.ok());
      EXPECT_EQ(strict.status().code(), util::StatusCode::kDataLoss);
    }
    util::SalvageReport parse_report;
    const util::StatusOr<CmvFile> parsed =
        CmvFile::ParseBestEffort(bytes, &parse_report);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parse_report.index_rebuilt, !stored[k].empty());
    EXPECT_EQ(parse_report.gops_recovered, 6);
    const CmvFile& stale = *parsed;
    util::StatusOr<media::Video> stale_video = DecodeVideo(stale, &pool);
    ASSERT_TRUE(stale_video.ok()) << stale_video.status().ToString();
    ASSERT_EQ(stale_video->frame_count(), video->frame_count());
    for (int i = 0; i < video->frame_count(); ++i) {
      ASSERT_EQ(stale_video->frame(i), video->frame(i)) << "frame " << i;
    }
    util::StatusOr<FrameBatch> stale_batch =
        DecodeFrames(stale, wanted, &pool);
    ASSERT_TRUE(stale_batch.ok()) << stale_batch.status().ToString();
    EXPECT_EQ(stale_batch->gops, batch->gops);
    EXPECT_EQ(stale_batch->frames_decoded, batch->frames_decoded);
    for (size_t i = 0; i < wanted.size(); ++i) {
      EXPECT_EQ(stale_batch->frames[i].image, batch->frames[i].image);
    }
    util::SalvageReport report;
    util::StatusOr<std::vector<media::GrayImage>> stale_dc =
        DecodeDcImages(stale, &pool, &report);
    ASSERT_TRUE(stale_dc.ok()) << stale_dc.status().ToString();
    EXPECT_TRUE(*stale_dc == *dc);
    EXPECT_EQ(report.gops_skipped, 0);
    EXPECT_EQ(report.items_recovered, file.frame_count());
  }
}

// ------------------------------------------------------------ decode oracles

// Verbatim copies of the decoder's loops before the table-driven, sparse,
// status-free rewrite: the bit-at-a-time StatusOr reader, per-coefficient
// StepSize (de)quantisation, the dense inverse DCT, lround/clamp
// reconstruction, per-sample motion compensation and per-pixel colour
// conversion. The production decoder must match them bit for bit. They
// only ever see well-formed streams here (DecodeBlock below still has the
// unsigned-run and DC-range holes the production one closes).
namespace oracle {

class BitReader {
 public:
  BitReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit BitReader(const std::vector<uint8_t>& bytes)
      : BitReader(bytes.data(), bytes.size()) {}

  util::StatusOr<int> GetBit() {
    if (byte_pos_ >= size_) return util::Status::DataLoss("bitstream exhausted");
    const int bit = (data_[byte_pos_] >> (7 - bit_pos_)) & 1;
    if (++bit_pos_ == 8) {
      bit_pos_ = 0;
      ++byte_pos_;
    }
    return bit;
  }

  util::StatusOr<uint32_t> GetBits(int count) {
    uint32_t v = 0;
    for (int i = 0; i < count; ++i) {
      util::StatusOr<int> bit = GetBit();
      if (!bit.ok()) return bit.status();
      v = (v << 1) | static_cast<uint32_t>(*bit);
    }
    return v;
  }

  util::StatusOr<uint32_t> GetUE() {
    int zeros = 0;
    while (true) {
      util::StatusOr<int> bit = GetBit();
      if (!bit.ok()) return bit.status();
      if (*bit == 1) break;
      if (++zeros > 31) return util::Status::DataLoss("malformed exp-Golomb code");
    }
    util::StatusOr<uint32_t> rest = GetBits(zeros);
    if (!rest.ok()) return rest.status();
    const uint32_t code = (1u << zeros) | *rest;
    return code - 1;
  }

  util::StatusOr<int32_t> GetSE() {
    util::StatusOr<uint32_t> ue = GetUE();
    if (!ue.ok()) return ue.status();
    const uint32_t v = *ue;
    if (v % 2 == 1) return static_cast<int32_t>((v + 1) / 2);
    return -static_cast<int32_t>(v / 2);
  }

  size_t bits_consumed() const { return byte_pos_ * 8 + bit_pos_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t byte_pos_ = 0;
  int bit_pos_ = 0;
};

constexpr int kBaseMatrix[kBlockPixels] = {
    16, 11, 10, 16, 24,  40,  51,  61,   //
    12, 12, 14, 19, 26,  58,  60,  55,   //
    14, 13, 16, 24, 40,  57,  69,  56,   //
    14, 17, 22, 29, 51,  87,  80,  62,   //
    18, 22, 37, 56, 68,  109, 103, 77,   //
    24, 35, 55, 64, 81,  104, 113, 92,   //
    49, 64, 78, 87, 103, 121, 120, 101,  //
    72, 92, 95, 98, 112, 100, 103, 99};

double StepSize(int index, int quality, bool chroma) {
  const double scale = std::max(1, quality) / 8.0;
  const double chroma_boost = chroma ? 1.4 : 1.0;
  return std::max(1.0, kBaseMatrix[index] * scale * chroma_boost);
}

QuantizedBlock Quantize(const Block& freq, int quality, bool chroma) {
  QuantizedBlock q{};
  for (int i = 0; i < kBlockPixels; ++i) {
    q[static_cast<size_t>(i)] = static_cast<int32_t>(
        std::lround(freq[static_cast<size_t>(i)] / StepSize(i, quality, chroma)));
  }
  return q;
}

Block Dequantize(const QuantizedBlock& q, int quality, bool chroma) {
  Block freq{};
  for (int i = 0; i < kBlockPixels; ++i) {
    freq[static_cast<size_t>(i)] =
        q[static_cast<size_t>(i)] * StepSize(i, quality, chroma);
  }
  return freq;
}

util::StatusOr<int32_t> DecodeBlock(BitReader* reader, QuantizedBlock* q,
                                    int32_t dc_predictor) {
  q->fill(0);
  const auto& zz = ZigzagOrder();

  util::StatusOr<int32_t> dc_delta = reader->GetSE();
  if (!dc_delta.ok()) return dc_delta.status();
  const int32_t dc = dc_predictor + *dc_delta;
  (*q)[0] = dc;

  int pos = 1;
  while (true) {
    util::StatusOr<int> flag = reader->GetBit();
    if (!flag.ok()) return flag.status();
    if (*flag == 0) break;  // EOB
    util::StatusOr<uint32_t> run = reader->GetUE();
    if (!run.ok()) return run.status();
    util::StatusOr<int32_t> level = reader->GetSE();
    if (!level.ok()) return level.status();
    pos += static_cast<int>(*run);
    if (pos >= kBlockPixels) {
      return util::Status::DataLoss("AC run exceeds block size");
    }
    (*q)[static_cast<size_t>(zz[static_cast<size_t>(pos)])] = *level;
    ++pos;
  }
  return dc;
}

Block InverseDct(const Block& freq) {
  const auto& t = internal::Tables().basis;
  Block tmp{};
  for (int u = 0; u < kBlockSize; ++u) {
    for (int y = 0; y < kBlockSize; ++y) {
      double acc = 0.0;
      for (int v = 0; v < kBlockSize; ++v) {
        acc += freq[static_cast<size_t>(v) * kBlockSize + u] * t[v][y];
      }
      tmp[static_cast<size_t>(y) * kBlockSize + u] = acc;
    }
  }
  Block out{};
  for (int y = 0; y < kBlockSize; ++y) {
    for (int x = 0; x < kBlockSize; ++x) {
      double acc = 0.0;
      for (int u = 0; u < kBlockSize; ++u) {
        acc += tmp[static_cast<size_t>(y) * kBlockSize + u] * t[u][x];
      }
      out[static_cast<size_t>(y) * kBlockSize + x] = acc;
    }
  }
  return out;
}

void PutBlock(Plane* plane, int bx, int by, const Block& block, bool center) {
  const double offset = center ? 128.0 : 0.0;
  for (int y = 0; y < kBlockSize; ++y) {
    const int dy = by * kBlockSize + y;
    if (dy >= plane->height) break;
    for (int x = 0; x < kBlockSize; ++x) {
      const int dx = bx * kBlockSize + x;
      if (dx >= plane->width) break;
      const double v =
          block[static_cast<size_t>(y) * kBlockSize + x] + offset;
      plane->set(dx, dy, static_cast<int16_t>(
                             std::lround(std::clamp(v, 0.0, 255.0))));
    }
  }
}

int16_t SampleClamped(const Plane& p, int x, int y) {
  x = std::clamp(x, 0, p.width - 1);
  y = std::clamp(y, 0, p.height - 1);
  return p.at(x, y);
}

void MotionCompensate(const Plane& ref, Plane* pred, int mx, int my,
                      MotionVector mv, int block_size) {
  for (int y = 0; y < block_size; ++y) {
    const int py = my + y;
    if (py >= pred->height) break;
    for (int x = 0; x < block_size; ++x) {
      const int px = mx + x;
      if (px >= pred->width) break;
      pred->set(px, py, SampleClamped(ref, px + mv.dx, py + mv.dy));
    }
  }
}

// The P-frame residual add, as DecodePredictedFrame and the encoder's
// ReconstructResidual wrote it.
void AddResidual(const Plane& pred, const Block& residual, int bx, int by,
                 Plane* recon) {
  for (int y = 0; y < kBlockSize; ++y) {
    const int yy = by * kBlockSize + y;
    if (yy >= recon->height) break;
    for (int x = 0; x < kBlockSize; ++x) {
      const int xx = bx * kBlockSize + x;
      if (xx >= recon->width) break;
      const double v =
          pred.at(xx, yy) + residual[static_cast<size_t>(y) * kBlockSize + x];
      recon->set(xx, yy,
                 static_cast<int16_t>(std::lround(std::clamp(v, 0.0, 255.0))));
    }
  }
}

int BlocksAcross(int extent) { return (extent + kBlockSize - 1) / kBlockSize; }

util::Status DecodeIntraPlane(BitReader* reader, int quality, bool chroma,
                              Plane* plane) {
  const int bw = BlocksAcross(plane->width);
  const int bh = BlocksAcross(plane->height);
  int32_t dc_pred = 0;
  QuantizedBlock q;
  for (int by = 0; by < bh; ++by) {
    for (int bx = 0; bx < bw; ++bx) {
      util::StatusOr<int32_t> dc = DecodeBlock(reader, &q, dc_pred);
      if (!dc.ok()) return dc.status();
      dc_pred = *dc;
      const Block deq = Dequantize(q, quality, chroma);
      oracle::PutBlock(plane, bx, by, oracle::InverseDct(deq), /*center=*/true);
    }
  }
  return util::Status::Ok();
}

util::Status DecodePredictedFrame(BitReader* reader, int width, int height,
                                  int quality, const Picture& ref,
                                  Picture* recon) {
  const int mbw = (width + kMacroblockSize - 1) / kMacroblockSize;
  const int mbh = (height + kMacroblockSize - 1) / kMacroblockSize;
  const int cbw = ((width + 1) / 2);
  const int cbh = ((height + 1) / 2);
  Plane pred_y = Plane::Make(width, height);
  Plane pred_cb = Plane::Make(cbw, cbh);
  Plane pred_cr = Plane::Make(cbw, cbh);

  QuantizedBlock q;
  for (int my = 0; my < mbh; ++my) {
    for (int mx = 0; mx < mbw; ++mx) {
      util::StatusOr<int32_t> dx = reader->GetSE();
      if (!dx.ok()) return dx.status();
      util::StatusOr<int32_t> dy = reader->GetSE();
      if (!dy.ok()) return dy.status();
      const MotionVector mv{*dx, *dy};
      const int px = mx * kMacroblockSize;
      const int py = my * kMacroblockSize;
      oracle::MotionCompensate(ref.y, &pred_y, px, py, mv, kMacroblockSize);
      const MotionVector cmv{mv.dx / 2, mv.dy / 2};
      oracle::MotionCompensate(ref.cb, &pred_cb, px / 2, py / 2, cmv,
                               kBlockSize);
      oracle::MotionCompensate(ref.cr, &pred_cr, px / 2, py / 2, cmv,
                               kBlockSize);

      for (int sub = 0; sub < 4; ++sub) {
        const int bx = 2 * mx + (sub % 2);
        const int by = 2 * my + (sub / 2);
        if (bx * kBlockSize >= width || by * kBlockSize >= height) continue;
        util::StatusOr<int32_t> dc = DecodeBlock(reader, &q, 0);
        if (!dc.ok()) return dc.status();
        const Block deq = Dequantize(q, quality, /*chroma=*/false);
        AddResidual(pred_y, oracle::InverseDct(deq), bx, by, &recon->y);
      }
      if (mx * kBlockSize < cbw && my * kBlockSize < cbh) {
        for (int c = 0; c < 2; ++c) {
          util::StatusOr<int32_t> dc = DecodeBlock(reader, &q, 0);
          if (!dc.ok()) return dc.status();
          const Block deq = Dequantize(q, quality, /*chroma=*/true);
          AddResidual(c == 0 ? pred_cb : pred_cr, oracle::InverseDct(deq), mx,
                      my, c == 0 ? &recon->cb : &recon->cr);
        }
      }
    }
  }
  return util::Status::Ok();
}

media::Image ToImage(const Picture& picture, int width, int height) {
  media::Image out(width, height);
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      const double yy = picture.y.at(std::min(x, picture.y.width - 1),
                                     std::min(y, picture.y.height - 1));
      const int cx = std::min(x / 2, picture.cb.width - 1);
      const int cy = std::min(y / 2, picture.cb.height - 1);
      const double cb = picture.cb.at(cx, cy) - 128.0;
      const double cr = picture.cr.at(cx, cy) - 128.0;
      auto to8 = [](double v) {
        return static_cast<uint8_t>(std::lround(std::clamp(v, 0.0, 255.0)));
      };
      out.set(x, y,
              media::Rgb{to8(yy + 1.402 * cr),
                         to8(yy - 0.344136 * cb - 0.714136 * cr),
                         to8(yy + 1.772 * cb)});
    }
  }
  return out;
}

// Every frame of `file`, decoded serially by the loops above.
std::vector<media::Image> DecodeVideo(const CmvFile& file) {
  std::vector<media::Image> frames;
  Picture prev;
  const int cw = (file.width + 1) / 2;
  const int ch = (file.height + 1) / 2;
  for (const FrameRecord& rec : file.frames) {
    BitReader reader(rec.payload);
    Picture pic{Plane::Make(file.width, file.height), Plane::Make(cw, ch),
                Plane::Make(cw, ch)};
    util::Status status;
    if (rec.type == FrameType::kIntra) {
      status = DecodeIntraPlane(&reader, file.quality, false, &pic.y);
      if (status.ok()) {
        status = DecodeIntraPlane(&reader, file.quality, true, &pic.cb);
      }
      if (status.ok()) {
        status = DecodeIntraPlane(&reader, file.quality, true, &pic.cr);
      }
    } else {
      status = DecodePredictedFrame(&reader, file.width, file.height,
                                    file.quality, prev, &pic);
    }
    EXPECT_TRUE(status.ok()) << status.ToString();
    if (!status.ok()) return frames;
    frames.push_back(oracle::ToImage(pic, file.width, file.height));
    prev = std::move(pic);
  }
  return frames;
}

}  // namespace oracle

class ScopedDispatchLevel {
 public:
  explicit ScopedDispatchLevel(util::DispatchLevel level) {
    util::SetDispatchLevelForTest(level);
  }
  ~ScopedDispatchLevel() { util::ClearDispatchLevelForTest(); }
};

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

// Clips for the oracle and golden tests: textured, noisy, moving several
// pixels a frame, at an odd size (partial blocks and macroblocks, odd
// chroma) and at a macroblock-aligned one.
media::Video GoldenClip(int frames, int w, int h, int step, uint64_t seed) {
  util::Rng rng(seed);
  media::Video video("golden", 12.0);
  media::Image base(w, h);
  media::FillGradient(&base, media::Rgb{30, 120, 200}, media::Rgb{220, 40, 10});
  media::FillEllipse(&base, w / 3, h / 2, w / 4, h / 3,
                     media::Rgb{250, 240, 20});
  for (int i = 0; i < frames; ++i) {
    media::Image f = media::Translated(base, step * i, -step * i / 2);
    media::AddNoise(&f, 12, &rng);
    video.AppendFrame(std::move(f));
  }
  return video;
}

CmvFile GoldenFile(int which) {
  EncoderOptions opts;
  if (which == 0) {
    opts.quality = 3;
    opts.gop_size = 7;
    return EncodeVideo(GoldenClip(14, 45, 37, 3, 101), opts);
  }
  opts.quality = 12;
  opts.gop_size = 12;
  return EncodeVideo(GoldenClip(24, 96, 72, 2, 202), opts);
}

uint32_t FramesCrc(const std::vector<media::Image>& frames) {
  uint32_t crc = 0;
  for (const media::Image& frame : frames) {
    crc = util::Crc32(reinterpret_cast<const uint8_t*>(frame.pixels().data()),
                      frame.pixels().size() * sizeof(media::Rgb), crc);
  }
  return crc;
}

TEST(DecodeOracleTest, FramesMatchTheReferenceLoopsAtEveryDispatchLevel) {
  const CmvFile files[] = {GoldenFile(0), GoldenFile(1), MultiGopFile()};
  for (const CmvFile& file : files) {
    const std::vector<media::Image> want = oracle::DecodeVideo(file);
    ASSERT_EQ(want.size(), file.frames.size());
    for (util::DispatchLevel level : util::SupportedDispatchLevels()) {
      SCOPED_TRACE(util::DispatchLevelName(level));
      ScopedDispatchLevel pin(level);
      util::StatusOr<media::Video> got = DecodeVideo(file);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_EQ(static_cast<size_t>(got->frame_count()), want.size());
      for (int i = 0; i < got->frame_count(); ++i) {
        ASSERT_EQ(got->frame(i), want[static_cast<size_t>(i)]) << "frame " << i;
      }
    }
  }
}

// CRC-32s of the two golden clips' EncodeVideo bytes, decoded RGB frames
// and DC images, recorded before the decoder rewrite. Any drift of encoder
// or decoder output fails here.
TEST(DecodeOracleTest, GoldenClipsKeepTheirRecordedCrcs) {
  struct Golden {
    uint32_t encoded, decoded, dc;
  };
  const Golden golden[] = {{0xa671497du, 0x70939deau, 0x5234bd2bu},
                           {0x7b82889eu, 0x98d6df5fu, 0xd1894abfu}};
  for (int which = 0; which < 2; ++which) {
    SCOPED_TRACE("clip " + std::to_string(which));
    const CmvFile file = GoldenFile(which);
    EXPECT_EQ(util::Crc32(file.Serialize()), golden[which].encoded);
    util::StatusOr<media::Video> video = DecodeVideo(file);
    ASSERT_TRUE(video.ok());
    std::vector<media::Image> frames;
    for (int i = 0; i < video->frame_count(); ++i) {
      frames.push_back(video->frame(i));
    }
    EXPECT_EQ(FramesCrc(frames), golden[which].decoded);
    util::StatusOr<std::vector<media::GrayImage>> dc = DecodeDcImages(file);
    ASSERT_TRUE(dc.ok());
    uint32_t dc_crc = 0;
    for (const media::GrayImage& image : *dc) {
      dc_crc =
          util::Crc32(image.pixels().data(), image.pixels().size(), dc_crc);
    }
    EXPECT_EQ(dc_crc, golden[which].dc);
  }
}

// ---------------------------------------------------------- DC decode pins

// The DC decode under test: strict when `salvage` is null, on `pool` (null
// decodes inline).
util::StatusOr<std::vector<media::GrayImage>> DcDecode(
    const CmvFile& file, util::ThreadPool* pool,
    util::CancellationToken* cancel, util::SalvageReport* salvage) {
  return DecodeDcImages(file, util::ExecutionContext(pool, nullptr, cancel),
                        salvage);
}

// Every SalvageReport field, comparable and printable in one EXPECT_EQ.
auto ReportFields(const util::SalvageReport& r) {
  return std::make_tuple(r.salvaged, r.bytes_dropped, r.items_recovered,
                         r.items_dropped, r.gops_recovered, r.gops_skipped,
                         r.resync_points, r.audio_dropped, r.index_rebuilt,
                         r.notes);
}

uint32_t DcCrc(const std::vector<media::GrayImage>& images) {
  uint32_t crc = 0;
  for (const media::GrayImage& image : images) {
    crc = util::Crc32(image.pixels().data(), image.pixels().size(), crc);
  }
  return crc;
}

// A damaged MultiGopFile (GOPs at frames 0, 8, 16, 24, 32 and 40) with the
// runs of frames the salvage decode loses and the note of each run.
struct DcDamageCase {
  const char* name;
  CmvFile file;
  std::vector<std::pair<int, int>> lost;  // [first, end) frame runs
  std::vector<std::string> notes;         // one per run, in order
};

std::vector<DcDamageCase> DcDamageCases() {
  const CmvFile pristine = MultiGopFile();
  std::vector<DcDamageCase> cases;
  cases.push_back({"pristine", pristine, {}, {}});
  cases.push_back({"two damaged GOPs",
                   TwoDamagedGopsFile(),
                   {{16, 24}, {32, 40}},
                   {"decode: frame 16: malformed exp-Golomb code",
                    "decode: frame 32: bitstream exhausted"}});
  CmvFile mid_p = pristine;
  mid_p.frames[11].payload.resize(2);  // GOP 1's fourth frame
  cases.push_back({"damaged mid-GOP P-frame", mid_p, {{11, 16}},
                   {"decode: frame 11: bitstream exhausted"}});
  CmvFile first_i = pristine;
  first_i.frames[0].payload.resize(2);
  cases.push_back({"frame 0's I-frame fails", first_i, {{0, 8}},
                   {"decode: frame 0: bitstream exhausted"}});
  // Re-typing the I-frames at 0 and 8 leaves a 16-frame run with no
  // I-frame to open it: one lost run up to the I-frame at 16.
  CmvFile p_run = pristine;
  p_run.frames[0].type = FrameType::kPredicted;
  p_run.frames[8].type = FrameType::kPredicted;
  cases.push_back({"leading P-run", p_run, {{0, 16}},
                   {"decode: frame 0: stream starts with P-frame"}});
  CmvFile none = pristine;
  DcDamageCase nothing{"nothing decodes", {}, {}, {}};
  for (int g = 0; g < 44; g += 8) {
    none.frames[static_cast<size_t>(g)].payload.resize(2);
    nothing.lost.push_back({g, std::min(g + 8, 44)});
    nothing.notes.push_back("decode: frame " + std::to_string(g) + ": bitstream exhausted");
  }
  nothing.file = std::move(none);
  cases.push_back(std::move(nothing));
  return cases;
}

// Strict and salvage DC decodes of every damage case, inline and on pools
// of 1, 2 and 4 threads, at every dispatch level: every image byte and
// every SalvageReport field. The salvage decode holds the last good image
// (mid-grey before the first) over each lost run, which ends at the next
// I-frame; a strict decode fails with the first lost run's status.
TEST(DcDecodeTest, DamageCasesMatchAtEveryPoolSizeAndDispatchLevel) {
  util::StatusOr<std::vector<media::GrayImage>> pristine =
      DcDecode(MultiGopFile(), nullptr, nullptr, nullptr);
  ASSERT_TRUE(pristine.ok()) << pristine.status().ToString();
  ASSERT_EQ(pristine->size(), 44u);
  EXPECT_EQ(DcCrc(*pristine), 0x23e5b92eu);
  const media::GrayImage grey(5, 3, 128);  // 40x24 in 8x8 blocks

  for (const DcDamageCase& c : DcDamageCases()) {
    SCOPED_TRACE(c.name);
    std::vector<media::GrayImage> want = *pristine;
    util::SalvageReport want_report;
    for (const auto& [first, end] : c.lost) {
      for (int f = first; f < end; ++f) {
        want[static_cast<size_t>(f)] =
            f == 0 ? grey : want[static_cast<size_t>(f - 1)];
      }
      want_report.items_dropped += end - first;
    }
    want_report.gops_skipped = static_cast<int>(c.lost.size());
    for (const std::string& note : c.notes) want_report.AddNote(note);
    const bool nothing_decodes = want_report.items_dropped == 44;
    if (!nothing_decodes) {
      want_report.items_recovered = 44 - want_report.items_dropped;
    }

    for (util::DispatchLevel level : util::SupportedDispatchLevels()) {
      ScopedDispatchLevel pin(level);
      for (const int threads : {0, 1, 2, 4}) {
        SCOPED_TRACE(std::string(util::DispatchLevelName(level)) + ", " +
                     (threads == 0 ? std::string("inline")
                                   : "pool of " + std::to_string(threads)));
        const std::unique_ptr<util::ThreadPool> pool =
            threads > 0 ? std::make_unique<util::ThreadPool>(threads)
                        : nullptr;
        util::SalvageReport report;
        util::StatusOr<std::vector<media::GrayImage>> salvaged =
            DcDecode(c.file, pool.get(), nullptr, &report);
        EXPECT_EQ(ReportFields(report), ReportFields(want_report));
        if (nothing_decodes) {
          EXPECT_EQ(salvaged.status().code(), util::StatusCode::kDataLoss);
          EXPECT_EQ(salvaged.status().message(),
                    "no frame in the stream decodes");
        } else {
          ASSERT_TRUE(salvaged.ok()) << salvaged.status().ToString();
          ASSERT_EQ(salvaged->size(), want.size());
          for (size_t f = 0; f < want.size(); ++f) {
            ASSERT_TRUE((*salvaged)[f] == want[f]) << "frame " << f;
          }
        }

        util::StatusOr<std::vector<media::GrayImage>> strict =
            DcDecode(c.file, pool.get(), nullptr, nullptr);
        if (c.lost.empty()) {
          ASSERT_TRUE(strict.ok()) << strict.status().ToString();
          EXPECT_EQ(DcCrc(*strict), DcCrc(want));
        } else {
          EXPECT_EQ(strict.status().code(), util::StatusCode::kDataLoss);
          EXPECT_EQ("decode: frame " + std::to_string(c.lost[0].first) +
                        ": " + strict.status().message(),
                    c.notes[0]);
        }
      }
    }
  }
}

TEST(DcDecodeTest, CancelledDecodeIsNeverSalvaged) {
  util::CancellationToken cancel;
  cancel.Cancel();
  const CmvFile files[] = {MultiGopFile(), TwoDamagedGopsFile()};
  for (const int threads : {0, 1, 2, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const std::unique_ptr<util::ThreadPool> pool =
        threads > 0 ? std::make_unique<util::ThreadPool>(threads) : nullptr;
    for (const CmvFile& file : files) {
      util::SalvageReport report;
      EXPECT_EQ(DcDecode(file, pool.get(), &cancel, &report).status().code(),
                util::StatusCode::kCancelled);
      EXPECT_EQ(ReportFields(report), ReportFields(util::SalvageReport{}));
      EXPECT_EQ(DcDecode(file, pool.get(), &cancel, nullptr).status().code(),
                util::StatusCode::kCancelled);
    }
  }
}

// All 2^24 (Y, Cb, Cr) triples: a 512x512 picture pairs every (Cb, Cr) in
// its 256x256 chroma planes with four luma values; 64 pictures cover them
// all.
TEST(DecodeOracleTest, ToImageMatchesTheReferenceOnEveryTriple) {
  Picture pic{Plane::Make(512, 512), Plane::Make(256, 256),
              Plane::Make(256, 256)};
  for (int c = 0; c < 256; ++c) {
    for (int x = 0; x < 256; ++x) {
      pic.cb.set(x, c, static_cast<int16_t>(x));
      pic.cr.set(x, c, static_cast<int16_t>(c));
    }
  }
  for (int k = 0; k < 64; ++k) {
    for (int y = 0; y < 512; ++y) {
      for (int x = 0; x < 512; ++x) {
        pic.y.set(x, y, static_cast<int16_t>(4 * k + 2 * (y % 2) + x % 2));
      }
    }
    const media::Image want = oracle::ToImage(pic, 512, 512);
    for (util::DispatchLevel level : util::SupportedDispatchLevels()) {
      ScopedDispatchLevel pin(level);
      ASSERT_TRUE(ToImage(pic, 512, 512) == want)
          << "luma " << 4 * k << ".." << 4 * k + 3 << " at "
          << util::DispatchLevelName(level);
    }
  }
}

TEST(DecodeOracleTest, ToImageOutOfRangeAndCroppedPicturesMatchTheReference) {
  util::Rng rng(0x70);
  for (int iter = 0; iter < 40; ++iter) {
    const int w = rng.UniformInt(1, 37);
    const int h = rng.UniformInt(1, 17);
    Picture pic{Plane::Make(w, h), Plane::Make((w + 1) / 2, (h + 1) / 2),
                Plane::Make((w + 1) / 2, (h + 1) / 2)};
    for (Plane* p : {&pic.y, &pic.cb, &pic.cr}) {
      for (int16_t& s : p->samples) {
        s = static_cast<int16_t>(rng.UniformInt(-300, 600));
      }
    }
    // Asking for more than the picture holds repeats its edge.
    const int ow = w + rng.UniformInt(0, 5);
    const int oh = h + rng.UniformInt(0, 5);
    for (util::DispatchLevel level : util::SupportedDispatchLevels()) {
      ScopedDispatchLevel pin(level);
      EXPECT_TRUE(ToImage(pic, ow, oh) == oracle::ToImage(pic, ow, oh))
          << util::DispatchLevelName(level);
    }
  }
}

TEST(DecodeOracleTest, StepTablesQuantiseAndDequantiseLikeStepSize) {
  util::Rng rng(0x71);
  for (int quality : {-4, 0, 1, 2, 5, 8, 13, 31, 64, 1000}) {
    for (bool chroma : {false, true}) {
      const QuantSteps steps = MakeQuantSteps(quality, chroma);
      for (int iter = 0; iter < 20; ++iter) {
        QuantizedBlock q;
        Block f;
        for (size_t i = 0; i < kBlockPixels; ++i) {
          q[i] = rng.UniformInt(-2000, 2000);
          f[i] = rng.Uniform(-2000.0, 2000.0);
        }
        const Block got = Dequantize(q, steps);
        const Block want = oracle::Dequantize(q, quality, chroma);
        for (size_t i = 0; i < kBlockPixels; ++i) {
          ASSERT_EQ(Bits(got[i]), Bits(want[i])) << "quality " << quality;
        }
        EXPECT_EQ(Quantize(f, steps), oracle::Quantize(f, quality, chroma));
      }
    }
  }
}

TEST(DecodeOracleTest, ExactRoundingMatchesLroundOfClamp) {
  // Every quarter-step from below 0 to above 255, the neighbours of each
  // half, and a random sweep.
  std::vector<double> values;
  for (int i = -40; i <= 1100; ++i) {
    const double v = i / 4.0;
    values.push_back(v);
    values.push_back(std::nextafter(v, -1e9));
    values.push_back(std::nextafter(v, 1e9));
  }
  values.push_back(-0.0);
  values.push_back(1e300);
  values.push_back(-1e300);
  util::Rng rng(0x72);
  for (int i = 0; i < 100000; ++i) values.push_back(rng.Uniform(-20.0, 275.0));
  for (double v : values) {
    ASSERT_EQ(RoundToSample(v), std::lround(std::clamp(v, 0.0, 255.0))) << v;
  }
}

TEST(DecodeOracleTest, BlockWritesMatchTheReferenceLoops) {
  util::Rng rng(0x73);
  for (int iter = 0; iter < 200; ++iter) {
    // Blocks land on the plane's border half the time (partial blocks).
    const int w = rng.UniformInt(1, 32);
    const int h = rng.UniformInt(1, 32);
    const int bx = rng.UniformInt(0, oracle::BlocksAcross(w) - 1);
    const int by = rng.UniformInt(0, oracle::BlocksAcross(h) - 1);
    Block block;
    for (double& v : block) {
      // Whole and half values too, where rounding direction matters.
      v = iter % 2 == 0 ? rng.Uniform(-200.0, 400.0)
                        : rng.UniformInt(-300, 600) / 2.0;
    }
    Plane pred = Plane::Make(w, h);
    for (int16_t& s : pred.samples) {
      s = static_cast<int16_t>(rng.UniformInt(0, 255));
    }
    for (util::DispatchLevel level : util::SupportedDispatchLevels()) {
      SCOPED_TRACE(util::DispatchLevelName(level));
      ScopedDispatchLevel pin(level);
      for (bool center : {false, true}) {
        Plane got = Plane::Make(w, h, 7);
        Plane want = Plane::Make(w, h, 7);
        PutBlock(&got, bx, by, block, center);
        oracle::PutBlock(&want, bx, by, block, center);
        ASSERT_EQ(got.samples, want.samples);
      }
      Plane got = Plane::Make(w, h, 7);
      Plane want = Plane::Make(w, h, 7);
      PutResidualBlock(&got, bx, by, pred, block);
      oracle::AddResidual(pred, block, bx, by, &want);
      ASSERT_EQ(got.samples, want.samples);
      // In place, as the decoder adds residuals.
      Plane in_place = pred;
      PutResidualBlock(&in_place, bx, by, in_place, block);
      Plane want_in_place = pred;
      oracle::AddResidual(pred, block, bx, by, &want_in_place);
      ASSERT_EQ(in_place.samples, want_in_place.samples);
    }
  }
}

TEST(DecodeOracleTest, MotionCompensationMatchesPerSampleClamping) {
  util::Rng rng(0x74);
  Plane ref = Plane::Make(40, 28);
  for (int16_t& s : ref.samples) {
    s = static_cast<int16_t>(rng.UniformInt(0, 255));
  }
  for (int iter = 0; iter < 500; ++iter) {
    const int block = iter % 2 == 0 ? kMacroblockSize : kBlockSize;
    const int mx = rng.UniformInt(0, 39);
    const int my = rng.UniformInt(0, 27);
    const MotionVector mv{rng.UniformInt(-50, 50), rng.UniformInt(-50, 50)};
    Plane got = Plane::Make(40, 28, 3);
    Plane want = Plane::Make(40, 28, 3);
    MotionCompensate(ref, &got, mx, my, mv, block);
    oracle::MotionCompensate(ref, &want, mx, my, mv, block);
    ASSERT_EQ(got.samples, want.samples)
        << mx << "," << my << " mv " << mv.dx << "," << mv.dy;
  }
}

// Runs the same random sequence of reads on both readers: values, failures,
// their messages and the bit positions must agree, up to and including the
// first failure.
void ExpectReadersAgree(const std::vector<uint8_t>& bytes, uint64_t seed) {
  BitReader fast(bytes);
  oracle::BitReader ref(bytes);
  util::Rng rng(seed);
  for (int op = 0; op < 4000; ++op) {
    const int kind = rng.UniformInt(0, 3);
    util::Status want_status;
    int64_t want = 0;
    int64_t got = 0;
    bool ok = false;
    if (kind == 0) {
      util::StatusOr<int> v = ref.GetBit();
      want_status = v.status();
      if (v.ok()) want = *v;
      uint32_t g = 0;
      ok = fast.ReadBit(&g);
      got = g;
    } else if (kind == 1) {
      const int count = rng.UniformInt(0, 32);
      util::StatusOr<uint32_t> v = ref.GetBits(count);
      want_status = v.status();
      if (v.ok()) want = *v;
      uint32_t g = 0;
      ok = fast.ReadBits(count, &g);
      got = g;
    } else if (kind == 2) {
      util::StatusOr<uint32_t> v = ref.GetUE();
      want_status = v.status();
      if (v.ok()) want = *v;
      uint32_t g = 0;
      ok = fast.ReadUE(&g);
      got = g;
    } else {
      util::StatusOr<int32_t> v = ref.GetSE();
      want_status = v.status();
      if (v.ok()) want = *v;
      int32_t g = 0;
      ok = fast.ReadSE(&g);
      got = g;
    }
    ASSERT_EQ(ok, want_status.ok()) << "op " << op << " kind " << kind;
    ASSERT_EQ(fast.bits_consumed(), ref.bits_consumed()) << "op " << op;
    if (!ok) {
      EXPECT_EQ(fast.status(), want_status);
      return;
    }
    ASSERT_EQ(got, want) << "op " << op << " kind " << kind;
  }
}

TEST(BitReaderOracleTest, RandomAndTruncatedStreamsReadIdentically) {
  util::Rng rng(0x75);
  for (int iter = 0; iter < 300; ++iter) {
    // Dense streams, sparse ones (long exp-Golomb prefixes, over-long ones
    // included) and real exp-Golomb streams.
    std::vector<uint8_t> bytes(static_cast<size_t>(rng.UniformInt(0, 96)));
    const int mode = iter % 3;
    if (mode == 2) {
      BitWriter w;
      for (int i = 0; i < 200; ++i) {
        w.PutSE(rng.UniformInt(-70000, 70000));
        w.PutUE(static_cast<uint32_t>(rng.UniformInt(0, 1 << 20)));
        w.PutBits(static_cast<uint32_t>(rng.UniformInt(0, 255)), 8);
      }
      bytes = w.Finish();
    }
    for (uint8_t& b : bytes) {
      if (mode == 0) b = static_cast<uint8_t>(rng.UniformInt(0, 255));
      if (mode == 1) {
        b = rng.UniformInt(0, 15) == 0
                ? static_cast<uint8_t>(1 << rng.UniformInt(0, 7))
                : 0;
      }
    }
    ExpectReadersAgree(bytes, 1000 + static_cast<uint64_t>(iter));
    // Every truncation of a short prefix of the stream.
    for (size_t cut = 0; cut < std::min<size_t>(bytes.size(), 12); ++cut) {
      ExpectReadersAgree(
          std::vector<uint8_t>(bytes.begin(),
                               bytes.begin() + static_cast<ptrdiff_t>(cut)),
          2000 + cut);
    }
  }
  // The longest codes: 31 leading zeros (value 2^32 - 2) and 32 (malformed).
  BitWriter w;
  w.PutUE(0xFFFFFFFEu);
  w.PutBits(0, 32);
  ExpectReadersAgree(w.Finish(), 7);
}

// A crafted AC run of 2^31 once wrapped the scan position negative and
// indexed outside the zig-zag table.
TEST(QuantTest, HugeAcRunIsDataLoss) {
  for (uint32_t run : {0x80000000u, 0xFFFFFFFEu, 0x7FFFFFFFu, 63u}) {
    BitWriter w;
    w.PutSE(0);    // DC delta
    w.PutBit(1);   // coefficient flag
    w.PutUE(run);  // run past the end of the block
    w.PutSE(5);    // level
    w.PutBit(0);   // EOB
    const std::vector<uint8_t> bytes = w.Finish();
    BitReader r(bytes);
    QuantizedBlock q;
    const util::StatusOr<int32_t> dc = DecodeBlock(&r, &q, 0);
    ASSERT_FALSE(dc.ok()) << "run " << run;
    EXPECT_EQ(dc.status().code(), util::StatusCode::kDataLoss);
  }
}

TEST(QuantTest, DcOutsideInt32IsDataLoss) {
  const struct {
    int32_t predictor;
    int32_t delta;
  } cases[] = {{std::numeric_limits<int32_t>::max(), 1},
               {std::numeric_limits<int32_t>::min(), -1},
               {std::numeric_limits<int32_t>::max(),
                std::numeric_limits<int32_t>::max()}};
  for (const auto& c : cases) {
    BitWriter w;
    w.PutSE(c.delta);
    w.PutBit(0);  // EOB
    const std::vector<uint8_t> bytes = w.Finish();
    BitReader r(bytes);
    QuantizedBlock q;
    const util::StatusOr<int32_t> dc = DecodeBlock(&r, &q, c.predictor);
    ASSERT_FALSE(dc.ok()) << c.predictor << " + " << c.delta;
    EXPECT_EQ(dc.status().code(), util::StatusCode::kDataLoss);
  }
  // The int32 extremes themselves still decode.
  BitWriter w;
  w.PutSE(-1);
  w.PutBit(0);
  const std::vector<uint8_t> bytes = w.Finish();
  BitReader r(bytes);
  QuantizedBlock q;
  const util::StatusOr<int32_t> dc =
      DecodeBlock(&r, &q, std::numeric_limits<int32_t>::min() + 1);
  ASSERT_TRUE(dc.ok());
  EXPECT_EQ(*dc, std::numeric_limits<int32_t>::min());
}

}  // namespace
}  // namespace classminer::codec
