// Dispatch-layer and kernel-equivalence tests: every vector path must
// produce results exactly equal (bit-identical for doubles) to the scalar
// reference, at every dispatch level this host can execute, on aligned and
// unaligned data, even and odd sizes.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "audio/speaker_segmenter.h"
#include "codec/dct.h"
#include "codec/decoder.h"
#include "codec/encoder.h"
#include "codec/motion.h"
#include "core/classminer.h"
#include "core/cmv_pipeline.h"
#include "features/histogram.h"
#include "media/image.h"
#include "synth/corpus.h"
#include "synth/video_generator.h"
#include "util/cpu.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace classminer {
namespace {

// Restores the process-wide dispatch pin on scope exit so a failing test
// cannot leak a pinned level into later tests.
class ScopedDispatchLevel {
 public:
  explicit ScopedDispatchLevel(util::DispatchLevel level) {
    pinned_ = util::SetDispatchLevelForTest(level);
  }
  ~ScopedDispatchLevel() { util::ClearDispatchLevelForTest(); }
  bool pinned() const { return pinned_; }

 private:
  bool pinned_ = false;
};

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

// ---------------------------------------------------------------------------
// Dispatch policy.

TEST(CpuDispatchTest, ResolveLevelFollowsFeatureFlags) {
  util::CpuFeatures f;
  EXPECT_EQ(util::internal::ResolveDispatchLevel(f, false),
            util::DispatchLevel::kScalar);
  f.sse42 = true;  // PCLMUL missing: stays scalar
  EXPECT_EQ(util::internal::ResolveDispatchLevel(f, false),
            util::DispatchLevel::kScalar);
  f.pclmul = true;
  EXPECT_EQ(util::internal::ResolveDispatchLevel(f, false),
            util::DispatchLevel::kSse42);
  f.avx2 = true;
  EXPECT_EQ(util::internal::ResolveDispatchLevel(f, false),
            util::DispatchLevel::kAvx2);
  // The env knob wins over any hardware.
  EXPECT_EQ(util::internal::ResolveDispatchLevel(f, true),
            util::DispatchLevel::kScalar);

  util::CpuFeatures arm;
  arm.neon = true;
  EXPECT_EQ(util::internal::ResolveDispatchLevel(arm, false),
            util::DispatchLevel::kScalar);
  arm.arm_crc32 = true;
  EXPECT_EQ(util::internal::ResolveDispatchLevel(arm, false),
            util::DispatchLevel::kNeon);
}

TEST(CpuDispatchTest, SupportedLevelsStartAtScalarAndAscend) {
  const std::vector<util::DispatchLevel> levels =
      util::SupportedDispatchLevels();
  ASSERT_FALSE(levels.empty());
  EXPECT_EQ(levels.front(), util::DispatchLevel::kScalar);
  for (size_t i = 1; i < levels.size(); ++i) {
    EXPECT_LT(static_cast<int>(levels[i - 1]), static_cast<int>(levels[i]));
  }
}

TEST(CpuDispatchTest, PinningChangesActiveLevelAndBumpsGeneration) {
  const uint64_t gen_before = util::DispatchGeneration();
  {
    ScopedDispatchLevel pin(util::DispatchLevel::kScalar);
    ASSERT_TRUE(pin.pinned());
    EXPECT_EQ(util::ActiveDispatchLevel(), util::DispatchLevel::kScalar);
    EXPECT_GT(util::DispatchGeneration(), gen_before);
  }
  // Every supported level can actually be pinned.
  for (util::DispatchLevel level : util::SupportedDispatchLevels()) {
    ScopedDispatchLevel pin(level);
    EXPECT_TRUE(pin.pinned());
    EXPECT_EQ(util::ActiveDispatchLevel(), level);
  }
}

TEST(CpuDispatchTest, LevelNamesAreStable) {
  EXPECT_STREQ(util::DispatchLevelName(util::DispatchLevel::kScalar),
               "scalar");
  EXPECT_STREQ(util::DispatchLevelName(util::DispatchLevel::kSse42),
               "sse4.2");
  EXPECT_STREQ(util::DispatchLevelName(util::DispatchLevel::kAvx2), "avx2");
  EXPECT_STREQ(util::DispatchLevelName(util::DispatchLevel::kNeon), "neon");
}

// ---------------------------------------------------------------------------
// CRC-32.

std::vector<uint8_t> RandomBytes(size_t n, util::Rng* rng) {
  std::vector<uint8_t> bytes(n);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng->UniformInt(0, 255));
  return bytes;
}

TEST(Crc32KernelTest, AllDispatchLevelsMatchTheReference) {
  util::Rng rng(0xC0FFEE);
  const size_t sizes[] = {0,  1,  2,  3,   7,   8,    9,    15,   16,  17,
                          31, 63, 64, 65,  100, 127,  128,  255,  256, 1000,
                          4096, 65536};
  for (size_t n : sizes) {
    const std::vector<uint8_t> data = RandomBytes(n, &rng);
    const uint32_t want =
        util::internal::Crc32Reference(data.data(), data.size(), 0);
    // Internal kernels agree regardless of the dispatch level.
    EXPECT_EQ(util::internal::Crc32Slice8(data.data(), data.size(), 0), want)
        << "slice8 size " << n;
    if (util::internal::Crc32AccelAvailable()) {
      EXPECT_EQ(util::internal::Crc32Accel(data.data(), data.size(), 0), want)
          << "accel size " << n;
    }
    // The public entry point agrees at every pinned level (this exercises
    // the cached-function-pointer invalidation path too).
    for (util::DispatchLevel level : util::SupportedDispatchLevels()) {
      ScopedDispatchLevel pin(level);
      ASSERT_TRUE(pin.pinned());
      EXPECT_EQ(util::Crc32(data.data(), data.size()), want)
          << "level " << util::DispatchLevelName(level) << " size " << n;
      EXPECT_EQ(util::Crc32(data), want)
          << "vector overload, level " << util::DispatchLevelName(level);
    }
  }
}

TEST(Crc32KernelTest, UnalignedSpansMatchTheReference) {
  util::Rng rng(7);
  const std::vector<uint8_t> data = RandomBytes(4099, &rng);
  for (size_t offset : {1u, 2u, 3u, 5u, 7u}) {
    const uint8_t* p = data.data() + offset;
    const size_t n = data.size() - offset;
    const uint32_t want = util::internal::Crc32Reference(p, n, 0);
    for (util::DispatchLevel level : util::SupportedDispatchLevels()) {
      ScopedDispatchLevel pin(level);
      EXPECT_EQ(util::Crc32(p, n), want)
          << "offset " << offset << " level "
          << util::DispatchLevelName(level);
    }
  }
}

TEST(Crc32KernelTest, ChainingSplitsAnywhere) {
  util::Rng rng(99);
  const std::vector<uint8_t> data = RandomBytes(777, &rng);
  const uint32_t whole = util::Crc32(data.data(), data.size());
  for (size_t split : {size_t{0}, size_t{1}, size_t{63}, size_t{64},
                       size_t{65}, size_t{512}, size_t{776}, size_t{777}}) {
    for (util::DispatchLevel level : util::SupportedDispatchLevels()) {
      ScopedDispatchLevel pin(level);
      const uint32_t head = util::Crc32(data.data(), split);
      const uint32_t chained =
          util::Crc32(data.data() + split, data.size() - split, head);
      EXPECT_EQ(chained, whole) << "split " << split << " level "
                                << util::DispatchLevelName(level);
    }
  }
}

TEST(Crc32KernelTest, KnownVector) {
  // CRC-32("123456789") — the classic IEEE check value.
  const uint8_t digits[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  for (util::DispatchLevel level : util::SupportedDispatchLevels()) {
    ScopedDispatchLevel pin(level);
    EXPECT_EQ(util::Crc32(digits, sizeof(digits)), 0xCBF43926u);
  }
}

// ---------------------------------------------------------------------------
// DCT.

codec::Block RandomBlock(util::Rng* rng, double lo, double hi) {
  codec::Block b;
  for (double& v : b) v = rng->Uniform(lo, hi);
  return b;
}

TEST(DctKernelTest, AccelMatchesScalarBitForBit) {
  if (!codec::internal::DctAccelAvailable()) {
    GTEST_SKIP() << "no DCT accel kernel on this architecture";
  }
  util::Rng rng(0xD0);
  for (int iter = 0; iter < 200; ++iter) {
    const codec::Block spatial = RandomBlock(&rng, -255.0, 255.0);
    const codec::Block want_f = codec::internal::ForwardDctScalar(spatial);
    const codec::Block got_f = codec::internal::ForwardDctAccel(spatial);
    for (size_t i = 0; i < spatial.size(); ++i) {
      ASSERT_EQ(Bits(got_f[i]), Bits(want_f[i])) << "fwd coeff " << i;
    }
    const codec::Block want_i = codec::internal::InverseDctScalar(want_f);
    const codec::Block got_i = codec::internal::InverseDctAccel(want_f);
    for (size_t i = 0; i < spatial.size(); ++i) {
      ASSERT_EQ(Bits(got_i[i]), Bits(want_i[i])) << "inv coeff " << i;
    }
  }
}

TEST(DctKernelTest, PublicEntryPointsAgreeAcrossLevels) {
  util::Rng rng(0xD1);
  const codec::Block spatial = RandomBlock(&rng, -128.0, 127.0);
  codec::Block want_f, want_i;
  {
    ScopedDispatchLevel pin(util::DispatchLevel::kScalar);
    want_f = codec::ForwardDct(spatial);
    want_i = codec::InverseDct(want_f);
  }
  for (util::DispatchLevel level : util::SupportedDispatchLevels()) {
    ScopedDispatchLevel pin(level);
    const codec::Block got_f = codec::ForwardDct(spatial);
    const codec::Block got_i = codec::InverseDct(want_f);
    for (size_t i = 0; i < spatial.size(); ++i) {
      ASSERT_EQ(Bits(got_f[i]), Bits(want_f[i]))
          << "fwd " << i << " level " << util::DispatchLevelName(level);
      ASSERT_EQ(Bits(got_i[i]), Bits(want_i[i]))
          << "inv " << i << " level " << util::DispatchLevelName(level);
    }
  }
}

// The dense inverse DCT the sparse kernels replaced, verbatim: every term
// of every sum, zero or not.
codec::Block InverseDctDense(const codec::Block& freq) {
  const auto& t = codec::internal::Tables().basis;
  codec::Block tmp{};
  for (int u = 0; u < codec::kBlockSize; ++u) {
    for (int y = 0; y < codec::kBlockSize; ++y) {
      double acc = 0.0;
      for (int v = 0; v < codec::kBlockSize; ++v) {
        acc += freq[static_cast<size_t>(v) * codec::kBlockSize + u] * t[v][y];
      }
      tmp[static_cast<size_t>(y) * codec::kBlockSize + u] = acc;
    }
  }
  codec::Block out{};
  for (int y = 0; y < codec::kBlockSize; ++y) {
    for (int x = 0; x < codec::kBlockSize; ++x) {
      double acc = 0.0;
      for (int u = 0; u < codec::kBlockSize; ++u) {
        acc += tmp[static_cast<size_t>(y) * codec::kBlockSize + u] * t[u][x];
      }
      out[static_cast<size_t>(y) * codec::kBlockSize + x] = acc;
    }
  }
  return out;
}

// Sparse blocks, where the kernels skip work: DC-only, one nonzero row,
// one nonzero column, a few scattered coefficients, and -0.0 wherever a
// zero may sit. Scalar, AVX2 and the dense loops must agree bit for bit.
TEST(DctKernelTest, SparseInverseMatchesScalarAndDenseLoops) {
  util::Rng rng(0xD2);
  std::vector<codec::Block> blocks;
  for (int iter = 0; iter < 50; ++iter) {
    const double zero = iter % 2 == 0 ? 0.0 : -0.0;
    codec::Block dc_only;
    dc_only.fill(zero);
    dc_only[0] = rng.UniformInt(-2000, 2000) * 1.25;
    blocks.push_back(dc_only);

    const int line = rng.UniformInt(0, codec::kBlockSize - 1);
    codec::Block row;
    codec::Block column;
    row.fill(zero);
    column.fill(zero);
    for (int i = 0; i < codec::kBlockSize; ++i) {
      row[static_cast<size_t>(line * codec::kBlockSize + i)] =
          rng.Uniform(-300.0, 300.0);
      column[static_cast<size_t>(i * codec::kBlockSize + line)] =
          rng.Uniform(-300.0, 300.0);
    }
    blocks.push_back(row);
    blocks.push_back(column);

    codec::Block scattered;
    for (double& v : scattered) v = rng.UniformInt(0, 1) == 0 ? 0.0 : -0.0;
    for (int k = rng.UniformInt(1, 6); k > 0; --k) {
      scattered[static_cast<size_t>(rng.UniformInt(0, 63))] =
          rng.UniformInt(-60, 60) * 11.5;
    }
    blocks.push_back(scattered);
  }
  codec::Block all_negative_zero;
  all_negative_zero.fill(-0.0);
  blocks.push_back(all_negative_zero);
  // basis[4][0] == basis[0][0] bit for bit, so equal and opposite
  // coefficients in rows 0 and 4 cancel exactly to +0 in pass 1 (tmp row
  // 0), and pass 2 then adds -0 products to that +0.
  ASSERT_EQ(Bits(codec::internal::Tables().basis[4][0]),
            Bits(codec::internal::Tables().basis[0][0]));
  codec::Block cancel;
  cancel.fill(-0.0);
  cancel[0] = 100.0;
  cancel[4 * codec::kBlockSize] = -100.0;
  cancel[1] = 50.0;
  cancel[4 * codec::kBlockSize + 1] = -50.0;
  cancel[2] = 7.0;
  blocks.push_back(cancel);

  for (const codec::Block& freq : blocks) {
    const codec::Block want = InverseDctDense(freq);
    const codec::Block scalar = codec::internal::InverseDctScalar(freq);
    for (size_t i = 0; i < freq.size(); ++i) {
      ASSERT_EQ(Bits(scalar[i]), Bits(want[i])) << "scalar coeff " << i;
    }
    if (!codec::internal::DctAccelAvailable()) continue;
    const codec::Block accel = codec::internal::InverseDctAccel(freq);
    for (size_t i = 0; i < freq.size(); ++i) {
      ASSERT_EQ(Bits(accel[i]), Bits(want[i])) << "accel coeff " << i;
    }
  }
}

TEST(DctKernelTest, DenseInverseMatchesTheDenseLoops) {
  util::Rng rng(0xD3);
  for (int iter = 0; iter < 200; ++iter) {
    const codec::Block freq = RandomBlock(&rng, -500.0, 500.0);
    const codec::Block want = InverseDctDense(freq);
    const codec::Block scalar = codec::internal::InverseDctScalar(freq);
    for (size_t i = 0; i < freq.size(); ++i) {
      ASSERT_EQ(Bits(scalar[i]), Bits(want[i])) << "coeff " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Histogram.

media::Image RandomImage(int w, int h, util::Rng* rng) {
  media::Image img(w, h);
  for (media::Rgb& p : img.pixels()) {
    // Mix fully random pixels with grey / saturated ones so the delta==0
    // and mx==r==g branch-priority paths all get exercised.
    const int kind = rng->UniformInt(0, 9);
    if (kind == 0) {
      const uint8_t g = static_cast<uint8_t>(rng->UniformInt(0, 255));
      p = media::Rgb{g, g, g};
    } else if (kind == 1) {
      p = media::Rgb{static_cast<uint8_t>(rng->UniformInt(0, 1) * 255),
                     static_cast<uint8_t>(rng->UniformInt(0, 1) * 255),
                     static_cast<uint8_t>(rng->UniformInt(0, 1) * 255)};
    } else {
      p = media::Rgb{static_cast<uint8_t>(rng->UniformInt(0, 255)),
                     static_cast<uint8_t>(rng->UniformInt(0, 255)),
                     static_cast<uint8_t>(rng->UniformInt(0, 255))};
    }
  }
  return img;
}

TEST(HistogramKernelTest, BatchBinsMatchPerPixelScalar) {
  if (!features::internal::HistogramAccelAvailable()) {
    GTEST_SKIP() << "no histogram accel kernel on this architecture";
  }
  util::Rng rng(0x415);
  // Odd pixel counts force a ragged vector tail; offset 1 starts the batch
  // on an unaligned Rgb (3-byte stride already defeats natural alignment).
  for (size_t n : {size_t{1}, size_t{2}, size_t{3}, size_t{4}, size_t{5},
                   size_t{7}, size_t{64}, size_t{257}, size_t{1001}}) {
    std::vector<media::Rgb> pixels(n + 1);
    for (media::Rgb& p : pixels) {
      p = media::Rgb{static_cast<uint8_t>(rng.UniformInt(0, 255)),
                     static_cast<uint8_t>(rng.UniformInt(0, 255)),
                     static_cast<uint8_t>(rng.UniformInt(0, 255))};
    }
    for (size_t offset : {size_t{0}, size_t{1}}) {
      std::vector<int32_t> want(n), got(n);
      features::internal::HistogramBinRangeScalar(pixels.data() + offset, n,
                                                  want.data());
      features::internal::HistogramBinRangeAccel(pixels.data() + offset, n,
                                                 got.data());
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(got[i], want[i]) << "n " << n << " offset " << offset
                                   << " pixel " << i;
        ASSERT_EQ(want[i],
                  features::HistogramBin(pixels[offset + i]));
      }
    }
  }
}

TEST(HistogramKernelTest, AllRgbEdgeValuesBinIdentically) {
  if (!features::internal::HistogramAccelAvailable()) {
    GTEST_SKIP() << "no histogram accel kernel on this architecture";
  }
  // Every combination of {0, 1, 127, 128, 254, 255} per channel: covers the
  // grey path, single-channel maxima and ties between channels.
  const uint8_t vals[] = {0, 1, 127, 128, 254, 255};
  std::vector<media::Rgb> pixels;
  for (uint8_t r : vals) {
    for (uint8_t g : vals) {
      for (uint8_t b : vals) pixels.push_back(media::Rgb{r, g, b});
    }
  }
  std::vector<int32_t> want(pixels.size()), got(pixels.size());
  features::internal::HistogramBinRangeScalar(pixels.data(), pixels.size(),
                                              want.data());
  features::internal::HistogramBinRangeAccel(pixels.data(), pixels.size(),
                                             got.data());
  EXPECT_EQ(want, got);
}

TEST(HistogramKernelTest, ComputeColorHistogramIsBitIdenticalAcrossLevels) {
  util::Rng rng(0x416);
  for (auto [w, h] : {std::pair{17, 13}, {1, 1}, {3, 7}, {32, 32}, {33, 9}}) {
    const media::Image img = RandomImage(w, h, &rng);
    features::ColorHistogram want;
    {
      ScopedDispatchLevel pin(util::DispatchLevel::kScalar);
      want = features::ComputeColorHistogram(img);
    }
    for (util::DispatchLevel level : util::SupportedDispatchLevels()) {
      ScopedDispatchLevel pin(level);
      const features::ColorHistogram got = features::ComputeColorHistogram(img);
      for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(Bits(got[i]), Bits(want[i]))
            << w << "x" << h << " bin " << i << " level "
            << util::DispatchLevelName(level);
      }
    }
  }
}

TEST(HistogramKernelTest, ReductionsAreBitIdenticalAcrossLevels) {
  util::Rng rng(0x417);
  // Sizes around the 4-lane boundary plus full histogram size; unaligned
  // subspans shift the loads off 32-byte boundaries.
  for (size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{3}, size_t{4},
                   size_t{5}, size_t{6}, size_t{7}, size_t{8}, size_t{9},
                   size_t{255}, size_t{256}}) {
    std::vector<double> a(n + 1), b(n + 1);
    for (double& v : a) v = rng.Uniform();
    for (double& v : b) v = rng.Uniform();
    for (size_t offset : {size_t{0}, size_t{1}}) {
      const std::span<const double> sa(a.data() + offset, n);
      const std::span<const double> sb(b.data() + offset, n);
      const double want_int =
          features::internal::HistogramIntersectionScalar(sa, sb);
      const double want_l1 =
          features::internal::HistogramL1DistanceScalar(sa, sb);
      if (features::internal::HistogramAccelAvailable()) {
        EXPECT_EQ(Bits(features::internal::HistogramIntersectionAccel(sa, sb)),
                  Bits(want_int))
            << "n " << n << " offset " << offset;
        EXPECT_EQ(Bits(features::internal::HistogramL1DistanceAccel(sa, sb)),
                  Bits(want_l1))
            << "n " << n << " offset " << offset;
      }
      for (util::DispatchLevel level : util::SupportedDispatchLevels()) {
        ScopedDispatchLevel pin(level);
        EXPECT_EQ(Bits(features::HistogramIntersection(sa, sb)),
                  Bits(want_int))
            << "n " << n << " level " << util::DispatchLevelName(level);
        EXPECT_EQ(Bits(features::HistogramL1Distance(sa, sb)), Bits(want_l1))
            << "n " << n << " level " << util::DispatchLevelName(level);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// SAD.

codec::Plane RandomPlane(int w, int h, int lo, int hi, util::Rng* rng) {
  codec::Plane p = codec::Plane::Make(w, h);
  for (int16_t& s : p.samples) {
    s = static_cast<int16_t>(rng->UniformInt(lo, hi));
  }
  return p;
}

TEST(SadKernelTest, InteriorBlocksMatchScalarExactly) {
  if (!codec::internal::SadAccelAvailable()) {
    GTEST_SKIP() << "no SAD accel kernel on this architecture";
  }
  util::Rng rng(0x5AD);
  // Residual-range samples exercise the int32 widening (an int16 subtract
  // would wrap on e.g. 32000 - (-32000)).
  const codec::Plane cur = RandomPlane(64, 48, -32000, 32000, &rng);
  const codec::Plane ref = RandomPlane(64, 48, -32000, 32000, &rng);
  for (int iter = 0; iter < 200; ++iter) {
    const int mx = rng.UniformInt(0, 48);
    const int my = rng.UniformInt(0, 32);
    const int dx = rng.UniformInt(-mx, 48 - mx);
    const int dy = rng.UniformInt(-my, 32 - my);
    const int64_t want =
        codec::internal::MacroblockSadScalar(cur, ref, mx, my, dx, dy);
    const int64_t got =
        codec::internal::MacroblockSadAccel(cur, ref, mx, my, dx, dy);
    ASSERT_EQ(got, want) << "mx " << mx << " my " << my << " dx " << dx
                         << " dy " << dy;
  }
}

TEST(SadKernelTest, PublicEntryPointAgreesAcrossLevelsIncludingEdges) {
  util::Rng rng(0x5AE);
  // Odd dimensions put macroblocks across the right/bottom edges, forcing
  // the scalar fallback path; interior positions take the vector path.
  const codec::Plane cur = RandomPlane(53, 37, 0, 255, &rng);
  const codec::Plane ref = RandomPlane(53, 37, 0, 255, &rng);
  for (int iter = 0; iter < 300; ++iter) {
    const int mx = rng.UniformInt(0, 52);
    const int my = rng.UniformInt(0, 36);
    const int dx = rng.UniformInt(-20, 20);
    const int dy = rng.UniformInt(-20, 20);
    int64_t want = 0;
    {
      ScopedDispatchLevel pin(util::DispatchLevel::kScalar);
      want = codec::MacroblockSad(cur, ref, mx, my, dx, dy);
    }
    for (util::DispatchLevel level : util::SupportedDispatchLevels()) {
      ScopedDispatchLevel pin(level);
      ASSERT_EQ(codec::MacroblockSad(cur, ref, mx, my, dx, dy), want)
          << "mx " << mx << " my " << my << " dx " << dx << " dy " << dy
          << " level " << util::DispatchLevelName(level);
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end: mining output must not depend on the dispatch level.

core::MiningResult MineAtLevel(const codec::CmvFile& file,
                               util::DispatchLevel level, int threads) {
  ScopedDispatchLevel pin(level);
  core::MiningOptions options;
  options.thread_count = threads;
  util::StatusOr<core::MiningResult> result =
      core::MineCmvFileFast(file, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(*result);
}

TEST(KernelEndToEndTest, MiningOutputIsBitIdenticalAcrossDispatchLevels) {
  const synth::GeneratedVideo generated =
      synth::GenerateVideo(synth::QuickScript(17));
  const codec::CmvFile file = core::PackGeneratedVideo(generated);

  for (int threads : {1, 2}) {
    const core::MiningResult want =
        MineAtLevel(file, util::DispatchLevel::kScalar, threads);
    size_t with_mfcc = 0;
    for (const audio::ShotAudioAnalysis& a : want.shot_audio) {
      if (a.analyzable && a.mfcc.rows() > 0) ++with_mfcc;
    }
    ASSERT_GT(with_mfcc, 0u) << "the clip must exercise the audio kernels";
    for (util::DispatchLevel level : util::SupportedDispatchLevels()) {
      const core::MiningResult got = MineAtLevel(file, level, threads);
      // The frame-difference trace is the rawest double-valued output the
      // kernels touch; require bit equality, not tolerance.
      ASSERT_EQ(got.shot_trace.differences.size(),
                want.shot_trace.differences.size());
      for (size_t i = 0; i < want.shot_trace.differences.size(); ++i) {
        ASSERT_EQ(Bits(got.shot_trace.differences[i]),
                  Bits(want.shot_trace.differences[i]))
            << "diff " << i << " level " << util::DispatchLevelName(level)
            << " threads " << threads;
      }
      EXPECT_EQ(got.shot_trace.cuts, want.shot_trace.cuts);
      ASSERT_EQ(got.structure.shots.size(), want.structure.shots.size());
      for (size_t i = 0; i < want.structure.shots.size(); ++i) {
        EXPECT_EQ(got.structure.shots[i].start_frame,
                  want.structure.shots[i].start_frame);
        EXPECT_EQ(got.structure.shots[i].end_frame,
                  want.structure.shots[i].end_frame);
      }
      EXPECT_EQ(got.structure.scenes.size(), want.structure.scenes.size());
      EXPECT_EQ(got.events.size(), want.events.size());
      // The audio features and MFCC feed speech and speaker decisions;
      // compare them by bits so a drifting audio kernel cannot hide
      // behind unchanged counts.
      ASSERT_EQ(got.shot_audio.size(), want.shot_audio.size());
      for (size_t i = 0; i < want.shot_audio.size(); ++i) {
        const audio::ShotAudioAnalysis& g = got.shot_audio[i];
        const audio::ShotAudioAnalysis& w = want.shot_audio[i];
        const std::string where = "shot_audio " + std::to_string(i) +
                                  " level " + util::DispatchLevelName(level) +
                                  " threads " + std::to_string(threads);
        EXPECT_EQ(g.shot_index, w.shot_index) << where;
        EXPECT_EQ(g.analyzable, w.analyzable) << where;
        EXPECT_EQ(g.has_speech, w.has_speech) << where;
        EXPECT_EQ(Bits(g.speech_margin), Bits(w.speech_margin)) << where;
        for (size_t d = 0; d < w.rep_features.size(); ++d) {
          EXPECT_EQ(Bits(g.rep_features[d]), Bits(w.rep_features[d]))
              << where << " feature " << d;
        }
        ASSERT_EQ(g.mfcc.rows(), w.mfcc.rows()) << where;
        ASSERT_EQ(g.mfcc.cols(), w.mfcc.cols()) << where;
        for (size_t r = 0; r < w.mfcc.rows(); ++r) {
          for (size_t c = 0; c < w.mfcc.cols(); ++c) {
            ASSERT_EQ(Bits(g.mfcc.at(r, c)), Bits(w.mfcc.at(r, c)))
                << where << " mfcc " << r << "," << c;
          }
        }
      }
    }
  }
}

TEST(KernelEndToEndTest, FullDecodeIsIdenticalAcrossDispatchLevels) {
  const synth::GeneratedVideo generated =
      synth::GenerateVideo(synth::QuickScript(5));
  const codec::CmvFile file = core::PackGeneratedVideo(generated);

  util::StatusOr<media::Video> want = [&] {
    ScopedDispatchLevel pin(util::DispatchLevel::kScalar);
    return codec::DecodeVideo(file);
  }();
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  for (util::DispatchLevel level : util::SupportedDispatchLevels()) {
    ScopedDispatchLevel pin(level);
    util::StatusOr<media::Video> got = codec::DecodeVideo(file);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(got->frame_count(), want->frame_count());
    for (int i = 0; i < want->frame_count(); ++i) {
      ASSERT_TRUE(got->frame(i) == want->frame(i))
          << "frame " << i << " level " << util::DispatchLevelName(level);
    }
  }
}

}  // namespace
}  // namespace classminer
