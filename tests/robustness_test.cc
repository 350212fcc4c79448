// Corruption robustness: hostile bytes must surface as Status errors (or
// decode to harmless content), never crash, hang or scribble memory. This
// matters for a database system whose containers arrive over networks.

#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "codec/container.h"
#include "codec/decoder.h"
#include "codec/encoder.h"
#include "core/classminer.h"
#include "core/cmv_pipeline.h"
#include "index/persist.h"
#include "index/repair.h"
#include "index/shard.h"
#include "media/draw.h"
#include "media/ppm.h"
#include "shot/detector.h"
#include "skim/skimmer.h"
#include "structure/content_structure.h"
#include "synth/corpus.h"
#include "synth/video_generator.h"
#include "util/failpoint.h"
#include "util/rng.h"
#include "util/salvage.h"
#include "util/serial.h"
#include "util/threadpool.h"

namespace classminer {
namespace {

std::vector<uint8_t> EncodedFixture() {
  util::Rng rng(3);
  media::Video video("fuzz", 12.0);
  media::Image base(32, 24);
  media::FillGradient(&base, media::Rgb{120, 60, 180}, media::Rgb{20, 40, 10});
  for (int i = 0; i < 6; ++i) {
    media::Image f = base;
    media::AddNoise(&f, 4, &rng);
    video.AppendFrame(std::move(f));
  }
  codec::CmvFile file = codec::EncodeVideo(video, codec::EncoderOptions());
  file.audio_sample_rate = 8000;
  file.audio_pcm.assign(800, 0.1f);
  return file.Serialize();
}

// Truncation at every granularity: parse must fail cleanly or, if the cut
// lands beyond all parsed fields, succeed.
class TruncationSweep : public ::testing::TestWithParam<int> {};

TEST_P(TruncationSweep, NeverCrashes) {
  const std::vector<uint8_t> bytes = EncodedFixture();
  const size_t keep =
      static_cast<size_t>(bytes.size() * GetParam() / 100);
  std::vector<uint8_t> cut(bytes.begin(),
                           bytes.begin() + static_cast<ptrdiff_t>(keep));
  const util::StatusOr<codec::CmvFile> parsed = codec::CmvFile::Parse(cut);
  if (GetParam() < 100) {
    EXPECT_FALSE(parsed.ok());
  } else {
    EXPECT_TRUE(parsed.ok());
  }
}

INSTANTIATE_TEST_SUITE_P(Percentages, TruncationSweep,
                         ::testing::Values(0, 1, 5, 25, 50, 75, 99, 100));

TEST(CorruptionTest, RandomByteFlipsParseOrFailCleanly) {
  const std::vector<uint8_t> original = EncodedFixture();
  util::Rng rng(17);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<uint8_t> bytes = original;
    const int flips = rng.UniformInt(1, 8);
    for (int f = 0; f < flips; ++f) {
      const size_t pos = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int>(bytes.size()) - 1));
      bytes[pos] = static_cast<uint8_t>(rng.UniformInt(0, 255));
    }
    util::StatusOr<codec::CmvFile> parsed = codec::CmvFile::Parse(bytes);
    if (!parsed.ok()) continue;  // clean rejection
    // Parse survived: decoding must also either fail cleanly or produce a
    // video of the declared (possibly corrupted) dimensions.
    if (parsed->width <= 0 || parsed->height <= 0 ||
        parsed->width > 4096 || parsed->height > 4096) {
      continue;  // DecodeVideo guards dimensions itself; skip absurd sizes
    }
    util::StatusOr<media::Video> decoded = codec::DecodeVideo(*parsed);
    if (decoded.ok()) {
      EXPECT_EQ(decoded->frame_count(), parsed->frame_count());
    }
  }
  SUCCEED();
}

TEST(CorruptionTest, DatabaseTruncationSweep) {
  index::VideoDatabase db;
  structure::ContentStructure cs;
  shot::Shot s;
  s.index = 0;
  s.end_frame = 29;
  s.rep_frame = 9;
  cs.shots.push_back(s);
  db.AddVideo("fuzz", std::move(cs), {});
  const std::vector<uint8_t> bytes = index::SerializeDatabase(db);
  for (size_t keep = 0; keep < bytes.size(); keep += 7) {
    std::vector<uint8_t> cut(bytes.begin(),
                             bytes.begin() + static_cast<ptrdiff_t>(keep));
    EXPECT_FALSE(index::ParseDatabase(cut).ok()) << "kept " << keep;
  }
  EXPECT_TRUE(index::ParseDatabase(bytes).ok());
}

TEST(CorruptionTest, PpmHeaderVariants) {
  const std::string dir = ::testing::TempDir();
  // Comment lines and extra whitespace are legal.
  const std::string ok = "P6\n# comment\n 2 1\n255\n\x01\x02\x03\x04\x05\x06";
  ASSERT_TRUE(util::WriteFile(dir + "/ok.ppm",
                              std::vector<uint8_t>(ok.begin(), ok.end()))
                  .ok());
  EXPECT_TRUE(media::ReadPpm(dir + "/ok.ppm").ok());

  for (const std::string& bad :
       {std::string("P5\n2 1\n255\n......"),     // wrong magic
        std::string("P6\n2 1\n65535\n......"),   // unsupported maxval
        std::string("P6\n2 1\n255\n\x01"),        // truncated pixels
        std::string("P6\nx y\n255\n......")}) {  // non-numeric dims
    ASSERT_TRUE(util::WriteFile(dir + "/bad.ppm",
                                std::vector<uint8_t>(bad.begin(), bad.end()))
                    .ok());
    EXPECT_FALSE(media::ReadPpm(dir + "/bad.ppm").ok()) << bad.substr(0, 8);
  }
}

TEST(CorruptionTest, EmptyInputsEverywhere) {
  EXPECT_FALSE(codec::CmvFile::Parse({}).ok());
  EXPECT_FALSE(index::ParseDatabase({}).ok());
  const media::Video empty_video;
  EXPECT_TRUE(shot::DetectShots(empty_video).empty());
  EXPECT_TRUE(structure::MineVideoStructure({}).shots.empty());
}

// ---------------------------------------------------------------------------
// Salvage parsing: the best-effort path must recover the valid prefix of a
// damaged container instead of rejecting the whole file.

// Byte offset where frame record `index` starts in a serialised CmvFile.
size_t FrameRecordOffset(const codec::CmvFile& file, size_t index) {
  // magic + name (u32 length prefix + bytes) + width + height + fps +
  // quality + gop_size + frame_count.
  size_t offset = 4 + 4 + file.name.size() + 4 + 4 + 8 + 4 + 4 + 4;
  for (size_t i = 0; i < index; ++i) {
    // type + size + payload (+ CRC-32 on checksummed CMV2 records).
    offset += 1 + 4 + file.frames[i].payload.size() +
              (file.record_checksums ? 4 : 0);
  }
  return offset;
}

TEST(SalvageParseTest, PristineInputIsNotFlaggedSalvaged) {
  const std::vector<uint8_t> bytes = EncodedFixture();
  util::SalvageReport report;
  const util::StatusOr<codec::CmvFile> parsed =
      codec::CmvFile::ParseBestEffort(bytes, &report);
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(report.salvaged);
  EXPECT_EQ(report.ToString(), "");
  const util::StatusOr<codec::CmvFile> strict = codec::CmvFile::Parse(bytes);
  ASSERT_TRUE(strict.ok());
  EXPECT_EQ(parsed->frame_count(), strict->frame_count());
  EXPECT_FALSE(parsed->audio_pcm.empty());
}

TEST(SalvageParseTest, RecordBoundaryTruncationKeepsExactPrefix) {
  const std::vector<uint8_t> bytes = EncodedFixture();
  const codec::CmvFile pristine = *codec::CmvFile::Parse(bytes);
  const int total = pristine.frame_count();
  for (int keep = 1; keep < total; ++keep) {
    const size_t cut = FrameRecordOffset(pristine, static_cast<size_t>(keep));
    std::vector<uint8_t> damaged(bytes.begin(),
                                 bytes.begin() + static_cast<ptrdiff_t>(cut));
    util::SalvageReport report;
    const util::StatusOr<codec::CmvFile> parsed =
        codec::CmvFile::ParseBestEffort(damaged, &report);
    ASSERT_TRUE(parsed.ok()) << "kept " << keep << " records";
    EXPECT_EQ(parsed->frame_count(), keep);
    EXPECT_TRUE(report.salvaged);
    EXPECT_EQ(report.items_recovered, keep);
    EXPECT_EQ(report.items_dropped, total - keep);
    // Nothing past the torn record is framed, so audio is unrecoverable and
    // the seek index must be re-derived from the surviving records.
    EXPECT_TRUE(report.audio_dropped);
    EXPECT_TRUE(report.index_rebuilt);
    EXPECT_TRUE(parsed->audio_pcm.empty());
    // The recovered prefix is fully decodable.
    const util::StatusOr<media::Video> decoded = codec::DecodeVideo(*parsed);
    ASSERT_TRUE(decoded.ok()) << "kept " << keep << " records";
    EXPECT_EQ(decoded->frame_count(), keep);
  }
}

TEST(SalvageParseTest, ByteGranularityTruncationNeverCrashes) {
  const std::vector<uint8_t> bytes = EncodedFixture();
  for (size_t keep = 0; keep < bytes.size(); keep += 3) {
    std::vector<uint8_t> cut(bytes.begin(),
                             bytes.begin() + static_cast<ptrdiff_t>(keep));
    util::SalvageReport report;
    const util::StatusOr<codec::CmvFile> parsed =
        codec::CmvFile::ParseBestEffort(cut, &report);
    if (!parsed.ok()) continue;  // header torn or no GOP survives: clean fail
    EXPECT_GE(parsed->frame_count(), 1) << "kept " << keep;
    // Salvage only keeps whole records, so whatever survived decodes.
    const util::StatusOr<media::Video> decoded = codec::DecodeVideo(*parsed);
    ASSERT_TRUE(decoded.ok()) << "kept " << keep;
    EXPECT_EQ(decoded->frame_count(), parsed->frame_count());
  }
}

TEST(SalvageParseTest, MidStreamCorruptionResynchronisesOntoTrailer) {
  const std::vector<uint8_t> bytes = EncodedFixture();
  const codec::CmvFile pristine = *codec::CmvFile::Parse(bytes);
  ASSERT_GE(pristine.frame_count(), 4);
  std::vector<uint8_t> damaged = bytes;
  // Stamp an impossible frame type onto record 3: a structural tear in the
  // middle of the stream, with intact bytes on both sides.
  damaged[FrameRecordOffset(pristine, 3)] = 0xFF;
  EXPECT_FALSE(codec::CmvFile::Parse(damaged).ok());
  util::SalvageReport report;
  const util::StatusOr<codec::CmvFile> parsed =
      codec::CmvFile::ParseBestEffort(damaged, &report);
  ASSERT_TRUE(parsed.ok());
  // Records 3..5 are P-frames (one GOP fixture), so no record behind the
  // tear can anchor a decode — but the scan resynchronises onto the
  // trailer, so the audio track survives the damage.
  EXPECT_EQ(parsed->frame_count(), 3);
  EXPECT_TRUE(report.salvaged);
  EXPECT_FALSE(report.notes.empty());
  EXPECT_GT(report.bytes_dropped, 0u);
  EXPECT_EQ(report.resync_points, 1);
  EXPECT_FALSE(report.audio_dropped);
  EXPECT_EQ(parsed->audio_pcm.size(), pristine.audio_pcm.size());
  EXPECT_NE(report.ToString(), "");
}

// Samples whose bits a float round trip through arithmetic could change:
// NaNs with payloads (quiet, signalling, negative), -0, subnormals, +-inf,
// the extremes, and random bit patterns.
std::vector<float> AwkwardPcm() {
  std::vector<uint32_t> bits = {
      0x7fc00000u, 0x7fc00001u, 0x7fbfffffu, 0x7f800001u, 0xffc12345u,
      0xff800001u, 0x80000000u, 0x00000000u, 0x00000001u, 0x807fffffu,
      0x00400000u, 0x7f800000u, 0xff800000u, 0x7f7fffffu, 0x00800000u};
  util::Rng rng(5);
  for (int i = 0; i < 301; ++i) bits.push_back(static_cast<uint32_t>(rng.Next()));
  std::vector<float> pcm;
  for (const uint32_t b : bits) pcm.push_back(std::bit_cast<float>(b));
  return pcm;
}

void ExpectSameBits(const std::vector<float>& got,
                    const std::vector<float>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(std::bit_cast<uint32_t>(got[i]), std::bit_cast<uint32_t>(want[i]))
        << what << " sample " << i;
  }
}

TEST(AudioSectionTest, PcmRoundTripsEveryBitPattern) {
  const codec::CmvFile pristine = *codec::CmvFile::Parse(EncodedFixture());
  codec::CmvFile file = pristine;
  file.audio_pcm = AwkwardPcm();
  const std::vector<uint8_t> bytes = file.Serialize();
  const util::StatusOr<codec::CmvFile> strict = codec::CmvFile::Parse(bytes);
  ASSERT_TRUE(strict.ok()) << strict.status().message();
  ExpectSameBits(strict->audio_pcm, file.audio_pcm, "strict parse");
  util::SalvageReport report;
  const util::StatusOr<codec::CmvFile> salvaged =
      codec::CmvFile::ParseBestEffort(bytes, &report);
  ASSERT_TRUE(salvaged.ok());
  ExpectSameBits(salvaged->audio_pcm, file.audio_pcm, "best-effort parse");
  // A tear in record 3 makes the salvage scan resynchronise onto the
  // trailer, which decodes the samples on its own path.
  std::vector<uint8_t> torn = bytes;
  torn[FrameRecordOffset(file, 3)] = 0xFF;
  const util::StatusOr<codec::CmvFile> resynced =
      codec::CmvFile::ParseBestEffort(torn, &report);
  ASSERT_TRUE(resynced.ok());
  EXPECT_EQ(report.resync_points, 1);
  ExpectSameBits(resynced->audio_pcm, file.audio_pcm, "trailer resync");
}

// A PCM run cut short, and a sample count larger than the bytes left, fail
// the strict parse naming the audio section; the best-effort parse drops
// the track with the same message.
TEST(AudioSectionTest, ShortOrOversizedPcmIsCorruption) {
  const codec::CmvFile file = *codec::CmvFile::Parse(EncodedFixture());
  const std::vector<uint8_t> bytes = file.Serialize();
  const size_t audio = FrameRecordOffset(file, file.frames.size());
  std::vector<uint8_t> cut(bytes.begin(),
                           bytes.begin() + static_cast<ptrdiff_t>(audio + 8 + 401));
  std::vector<uint8_t> oversized = bytes;
  const uint32_t count = static_cast<uint32_t>(file.audio_pcm.size()) + 1000;
  for (int i = 0; i < 4; ++i) {
    oversized[audio + 4 + static_cast<size_t>(i)] =
        static_cast<uint8_t>(count >> (8 * i));
  }
  for (const std::vector<uint8_t>* damaged : {&cut, &oversized}) {
    const util::StatusOr<codec::CmvFile> strict =
        codec::CmvFile::Parse(*damaged);
    ASSERT_FALSE(strict.ok());
    EXPECT_NE(strict.status().message().find(
                  "audio sample count exceeds container (section 'audio'"),
              std::string::npos)
        << strict.status().message();
    util::SalvageReport report;
    const util::StatusOr<codec::CmvFile> salvaged =
        codec::CmvFile::ParseBestEffort(*damaged, &report);
    ASSERT_TRUE(salvaged.ok());
    EXPECT_TRUE(report.audio_dropped);
    EXPECT_TRUE(salvaged->audio_pcm.empty());
    EXPECT_EQ(salvaged->frame_count(), file.frame_count());
  }
}

TEST(SalvageParseTest, MidStreamTearResynchronisesOntoNextIFrame) {
  // Multi-GOP fixture: gop_size 2 over 6 frames gives I P I P I P, so a
  // tear in GOP 0 leaves checksum-confirmed I-frames behind it.
  util::Rng rng(31);
  media::Video video("resync", 12.0);
  media::Image base(32, 24);
  media::FillGradient(&base, media::Rgb{90, 30, 150}, media::Rgb{15, 25, 5});
  for (int i = 0; i < 6; ++i) {
    media::Image f = base;
    media::AddNoise(&f, 3, &rng);
    video.AppendFrame(std::move(f));
  }
  codec::EncoderOptions options;
  options.gop_size = 2;
  codec::CmvFile file = codec::EncodeVideo(video, options);
  file.audio_sample_rate = 8000;
  file.audio_pcm.assign(400, 0.25f);
  const std::vector<uint8_t> bytes = file.Serialize();
  ASSERT_TRUE(file.record_checksums);

  // Corrupt the payload of record 1 (a P-frame): its checksum fails, and
  // the suffix from the next I-frame (record 2) onward is recoverable.
  std::vector<uint8_t> damaged = bytes;
  damaged[FrameRecordOffset(file, 1) + 5 + 2] ^= 0xFF;
  ASSERT_FALSE(codec::CmvFile::Parse(damaged).ok());

  util::SalvageReport report;
  const util::StatusOr<codec::CmvFile> parsed =
      codec::CmvFile::ParseBestEffort(damaged, &report);
  ASSERT_TRUE(parsed.ok());
  // Only the torn record is lost: frames 0, 2, 3, 4, 5 survive.
  EXPECT_EQ(parsed->frame_count(), 5);
  EXPECT_EQ(parsed->frames[1].type, codec::FrameType::kIntra);
  EXPECT_EQ(report.items_dropped, 1);
  EXPECT_EQ(report.resync_points, 1);
  EXPECT_GT(report.bytes_dropped, 0u);
  // The trailer was reached through normal parsing after the resync, so
  // the audio track survives; the seek index is re-derived.
  EXPECT_EQ(parsed->audio_pcm.size(), file.audio_pcm.size());
  EXPECT_TRUE(report.index_rebuilt);
  EXPECT_EQ(parsed->gop_count(), 3);
  // Everything recovered decodes (the suffix re-anchors on its I-frame).
  const util::StatusOr<media::Video> decoded = codec::DecodeVideo(*parsed);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->frame_count(), 5);
}

TEST(SalvageParseTest, LegacyCmv1FilesRoundTripByteStable) {
  const std::vector<uint8_t> bytes = EncodedFixture();
  codec::CmvFile downgraded = *codec::CmvFile::Parse(bytes);
  downgraded.record_checksums = false;
  const std::vector<uint8_t> v1 = downgraded.Serialize();
  const codec::CmvFile reloaded = *codec::CmvFile::Parse(v1);
  EXPECT_FALSE(reloaded.record_checksums);
  // A CMV1-era file (GIDX section included) re-serialises bit-identically:
  // the parser remembers the generation instead of upgrading in place.
  EXPECT_EQ(reloaded.Serialize(), v1);
  // And a checksummed container round-trips byte-stable too.
  EXPECT_EQ(codec::CmvFile::Parse(bytes)->Serialize(), bytes);
}

TEST(SalvageParseTest, LegacyCmv1TearKeepsPrefixOnly) {
  // CMV1 records carry no checksum, so no scan can confirm a sync point:
  // a mid-stream tear still degrades to prefix-only salvage.
  const std::vector<uint8_t> bytes = EncodedFixture();
  codec::CmvFile legacy = *codec::CmvFile::Parse(bytes);
  legacy.record_checksums = false;
  const std::vector<uint8_t> v1 = legacy.Serialize();
  const codec::CmvFile pristine = *codec::CmvFile::Parse(v1);
  ASSERT_FALSE(pristine.record_checksums);
  std::vector<uint8_t> damaged = v1;
  damaged[FrameRecordOffset(pristine, 3)] = 0xFF;
  util::SalvageReport report;
  const util::StatusOr<codec::CmvFile> parsed =
      codec::CmvFile::ParseBestEffort(damaged, &report);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->frame_count(), 3);
  EXPECT_EQ(report.resync_points, 0);
  EXPECT_TRUE(report.audio_dropped);
  EXPECT_TRUE(parsed->audio_pcm.empty());
}

TEST(SalvageParseTest, LeadingPredictedFramesAreDropped) {
  util::Rng rng(9);
  media::Video video("pdrop", 12.0);
  media::Image base(32, 24);
  media::FillGradient(&base, media::Rgb{80, 80, 80}, media::Rgb{5, 5, 5});
  for (int i = 0; i < 6; ++i) {
    media::Image f = base;
    media::AddNoise(&f, 2, &rng);
    video.AppendFrame(std::move(f));
  }
  codec::EncoderOptions options;
  options.gop_size = 3;
  const codec::CmvFile file = codec::EncodeVideo(video, options);
  std::vector<uint8_t> bytes = file.Serialize();
  // Re-type the opening I-frame as predicted: its GOP has no anchor left.
  bytes[FrameRecordOffset(file, 0)] =
      static_cast<uint8_t>(codec::FrameType::kPredicted);
  util::SalvageReport report;
  const util::StatusOr<codec::CmvFile> parsed =
      codec::CmvFile::ParseBestEffort(bytes, &report);
  ASSERT_TRUE(parsed.ok());
  // The first decodable GOP starts at frame 3; the leading run is dropped.
  EXPECT_EQ(parsed->frame_count(), 3);
  EXPECT_EQ(parsed->frames[0].type, codec::FrameType::kIntra);
  EXPECT_TRUE(report.salvaged);
  const util::StatusOr<media::Video> decoded = codec::DecodeVideo(*parsed);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->frame_count(), 3);
}

TEST(SalvageParseTest, AllFramesLostIsACleanFailure) {
  const std::vector<uint8_t> bytes = EncodedFixture();
  const codec::CmvFile pristine = *codec::CmvFile::Parse(bytes);
  // Cut inside the very first record: no decodable GOP can survive.
  const size_t cut = FrameRecordOffset(pristine, 0) + 2;
  std::vector<uint8_t> damaged(bytes.begin(),
                               bytes.begin() + static_cast<ptrdiff_t>(cut));
  util::SalvageReport report;
  EXPECT_FALSE(codec::CmvFile::ParseBestEffort(damaged, &report).ok());
}

// Every SalvageReport field, comparable and printable in one EXPECT_EQ.
auto ReportFields(const util::SalvageReport& r) {
  return std::make_tuple(r.salvaged, r.bytes_dropped, r.items_recovered,
                         r.items_dropped, r.gops_recovered, r.gops_skipped,
                         r.resync_points, r.audio_dropped, r.index_rebuilt,
                         r.notes);
}

TEST(SalvageParseTest, BitFlipCorpusNeverCrashes) {
  const std::vector<uint8_t> original = EncodedFixture();
  util::ThreadPool pool(4);
  util::Rng rng(23);
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<uint8_t> bytes = original;
    const int flips = rng.UniformInt(1, 6);
    for (int f = 0; f < flips; ++f) {
      const size_t pos = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int>(bytes.size()) - 1));
      bytes[pos] ^= static_cast<uint8_t>(1 << rng.UniformInt(0, 7));
    }
    util::SalvageReport report;
    const util::StatusOr<codec::CmvFile> parsed =
        codec::CmvFile::ParseBestEffort(bytes, &report);
    if (!parsed.ok()) continue;  // header or every GOP lost: clean rejection
    EXPECT_GE(parsed->frame_count(), 0);
    if (parsed->width <= 0 || parsed->height <= 0 || parsed->width > 4096 ||
        parsed->height > 4096) {
      continue;  // flipped dimensions; DecodeVideo guards these itself
    }
    // The salvage decode substitutes held frames for corrupt payloads, so
    // it must keep the frame count aligned whenever it succeeds at all, and
    // its GOPs decoding on a pool must change nothing.
    util::SalvageReport decode_report;
    const util::StatusOr<std::vector<media::GrayImage>> dc =
        codec::DecodeDcImages(*parsed, {}, &decode_report);
    util::SalvageReport pooled_report;
    const util::StatusOr<std::vector<media::GrayImage>> pooled =
        codec::DecodeDcImages(*parsed, &pool, &pooled_report);
    EXPECT_EQ(pooled.status().code(), dc.status().code());
    EXPECT_EQ(pooled.status().message(), dc.status().message());
    EXPECT_EQ(ReportFields(pooled_report), ReportFields(decode_report));
    if (dc.ok()) {
      EXPECT_EQ(static_cast<int>(dc->size()), parsed->frame_count());
      ASSERT_TRUE(pooled.ok());
      EXPECT_TRUE(*pooled == *dc) << "trial " << trial;
    }
  }
  SUCCEED();
}

// ---------------------------------------------------------------------------
// Degraded-mode mining: damage or injected stage failures must still yield
// an indexable (shots + groups + scenes) result, flagged degraded.

synth::GeneratedVideo MiningFixture() {
  synth::VideoScript script;
  script.name = "robustness";
  script.seed = 21;
  script.width = 64;
  script.height = 48;
  script.scenes.push_back(
      {synth::SceneKind::kPresentation, 4, 0, 0, -1, 1.0});
  script.scenes.push_back({synth::SceneKind::kDialog, 4, 1, 0, 1, 1.0});
  return synth::GenerateVideo(script);
}

core::MiningOptions DegradedOptions() {
  core::MiningOptions options;
  options.failure_policy = core::FailurePolicy::kDegraded;
  options.thread_count = 2;
  return options;
}

// Asserts the essential chain of a degraded result is intact and usable.
void ExpectIndexable(const core::MiningResult& result) {
  EXPECT_FALSE(result.structure.shots.empty());
  EXPECT_FALSE(result.structure.groups.empty());
  EXPECT_FALSE(result.structure.scenes.empty());
}

class DegradedMiningTest : public ::testing::Test {
 protected:
  void SetUp() override { util::FailPoint::DisarmAll(); }
  void TearDown() override { util::FailPoint::DisarmAll(); }
};

TEST_F(DegradedMiningTest, TruncatedTailStillMinesAndIndexes) {
  const synth::GeneratedVideo generated = MiningFixture();
  const codec::CmvFile file = core::PackGeneratedVideo(generated);
  std::vector<uint8_t> bytes = file.Serialize();
  // Tear the container mid-way through a frame record two thirds in (the
  // audio and index sections behind it become unreachable too).
  bytes.resize(FrameRecordOffset(file, file.frames.size() * 2 / 3) + 2);
  ASSERT_FALSE(codec::CmvFile::Parse(bytes).ok());

  util::SalvageReport parse_report;
  const util::StatusOr<codec::CmvFile> salvaged =
      codec::CmvFile::ParseBestEffort(bytes, &parse_report);
  ASSERT_TRUE(salvaged.ok());
  ASSERT_TRUE(parse_report.salvaged);
  ASSERT_LT(salvaged->frame_count(), file.frame_count());

  util::StatusOr<core::MiningResult> mined =
      core::MineCmvFileFast(*salvaged, DegradedOptions());
  ASSERT_TRUE(mined.ok()) << mined.status().message();
  ExpectIndexable(*mined);

  // Fold the load-time salvage into the result the way ingest does, then
  // index it: the entry lands flagged degraded.
  mined->salvage.Merge(parse_report);
  mined->degraded = mined->degraded || parse_report.salvaged;
  index::VideoDatabase db;
  db.AddVideo("torn", std::move(mined->structure), std::move(mined->events),
              mined->degraded);
  EXPECT_EQ(db.video_count(), 1);
  EXPECT_EQ(db.DegradedCount(), 1);
  EXPECT_GT(db.TotalShotCount(), 0u);

  // The access layer still works on the degraded entry: all four skim
  // levels build, each a non-empty subset of the salvaged shots.
  const skim::ScalableSkim skim(&db.video(0).structure);
  for (int level = 1; level <= skim::kSkimLevels; ++level) {
    EXPECT_FALSE(skim.track(level).shot_indices.empty()) << "level " << level;
    EXPECT_LE(skim.track(level).shot_indices.size(),
              db.video(0).structure.shots.size());
  }
  EXPECT_GT(skim.Fcr(skim::kSkimLevels), 0.0);
}

bool SameFeatures(const features::ShotFeatures& a,
                  const features::ShotFeatures& b) {
  return a.histogram == b.histogram && a.tamura == b.tamura;
}

bool SameCues(const cues::FrameCues& a, const cues::FrameCues& b) {
  return a.special == b.special && a.has_face == b.has_face &&
         a.face_closeup == b.face_closeup &&
         a.max_face_fraction == b.max_face_fraction &&
         a.has_skin_region == b.has_skin_region &&
         a.skin_closeup == b.skin_closeup &&
         a.max_skin_fraction == b.max_skin_fraction &&
         a.has_blood == b.has_blood &&
         a.max_blood_fraction == b.max_blood_fraction;
}

TEST_F(DegradedMiningTest, CorruptMidGopStillMinesDegraded) {
  const synth::GeneratedVideo generated = MiningFixture();
  const codec::CmvFile file = core::PackGeneratedVideo(generated);
  const util::StatusOr<core::MiningResult> pristine =
      core::MineCmvFileFast(file, DegradedOptions());
  ASSERT_TRUE(pristine.ok()) << pristine.status().message();
  ASSERT_FALSE(pristine->degraded);

  // One GOP decode fails with unrecoverable damage mid-container.
  util::FailPoint::Scoped scoped(
      "codec.gop_reader.decode_gop",
      util::FailPoint::Spec::Once(util::StatusCode::kDataLoss));
  const util::StatusOr<core::MiningResult> mined =
      core::MineCmvFileFast(file, DegradedOptions());
  ASSERT_TRUE(mined.ok()) << mined.status().message();
  ExpectIndexable(*mined);
  EXPECT_TRUE(mined->degraded);
  EXPECT_TRUE(mined->salvage.salvaged);
  EXPECT_EQ(mined->salvage.gops_skipped, 1);
  for (const core::StageFailure& failure : mined->stage_failures) {
    EXPECT_NE(failure.stage, "cues");
  }

  // The damage stays with the shots whose representative frame the failed
  // GOP holds. Which GOP the one-shot fault hits depends on scheduling, so
  // find it as the GOP of the shots that lost their features.
  const std::vector<shot::Shot>& shots = mined->structure.shots;
  ASSERT_EQ(shots.size(), pristine->structure.shots.size());
  ASSERT_EQ(mined->shot_cues.size(), shots.size());
  ASSERT_EQ(pristine->shot_cues.size(), shots.size());
  std::vector<int> lost_gops;
  for (size_t i = 0; i < shots.size(); ++i) {
    if (!SameFeatures(shots[i].features,
                      pristine->structure.shots[i].features)) {
      lost_gops.push_back(file.GopOfFrame(shots[i].rep_frame));
    }
  }
  ASSERT_FALSE(lost_gops.empty());
  const int failed_gop = lost_gops.front();
  for (size_t i = 0; i < shots.size(); ++i) {
    SCOPED_TRACE("shot " + std::to_string(i));
    ASSERT_EQ(shots[i].rep_frame, pristine->structure.shots[i].rep_frame);
    if (file.GopOfFrame(shots[i].rep_frame) == failed_gop) {
      EXPECT_TRUE(SameFeatures(shots[i].features, features::ShotFeatures{}));
      EXPECT_TRUE(SameCues(mined->shot_cues[i], cues::FrameCues{}));
    } else {
      EXPECT_TRUE(SameFeatures(shots[i].features,
                               pristine->structure.shots[i].features));
      EXPECT_TRUE(SameCues(mined->shot_cues[i], pristine->shot_cues[i]));
    }
  }
}

TEST_F(DegradedMiningTest, CorruptMidGopFailsStrictMode) {
  const synth::GeneratedVideo generated = MiningFixture();
  const codec::CmvFile file = core::PackGeneratedVideo(generated);
  util::FailPoint::Scoped scoped(
      "codec.gop_reader.decode_gop",
      util::FailPoint::Spec::Once(util::StatusCode::kDataLoss));
  core::MiningOptions options = DegradedOptions();
  options.failure_policy = core::FailurePolicy::kStrict;
  EXPECT_FALSE(core::MineCmvFileFast(file, options).ok());
}

TEST_F(DegradedMiningTest, AudioStageFailureDegradesButKeepsStructure) {
  const synth::GeneratedVideo generated = MiningFixture();
  util::FailPoint::Scoped scoped(
      "core.stage.audio",
      util::FailPoint::Spec::Always(util::StatusCode::kInternal));
  const util::StatusOr<core::MiningResult> mined = core::MineVideo(
      generated.video, generated.audio, DegradedOptions());
  ASSERT_TRUE(mined.ok()) << mined.status().message();
  ExpectIndexable(*mined);
  EXPECT_TRUE(mined->degraded);
  ASSERT_EQ(mined->stage_failures.size(), 1u);
  EXPECT_EQ(mined->stage_failures[0].stage, "audio");
  EXPECT_EQ(mined->stage_failures[0].status.code(),
            util::StatusCode::kInternal);
  // Dependents saw consistent defaults sized to the shots.
  EXPECT_EQ(mined->shot_audio.size(), mined->structure.shots.size());
}

TEST_F(DegradedMiningTest, AudioStageFailureFailsStrictMode) {
  const synth::GeneratedVideo generated = MiningFixture();
  util::FailPoint::Scoped scoped(
      "core.stage.audio",
      util::FailPoint::Spec::Always(util::StatusCode::kInternal));
  core::MiningOptions options;
  options.failure_policy = core::FailurePolicy::kStrict;
  EXPECT_FALSE(
      core::MineVideo(generated.video, generated.audio, options).ok());
}

TEST_F(DegradedMiningTest, MultipleOptionalFailuresCollectInOrder) {
  const synth::GeneratedVideo generated = MiningFixture();
  util::FailPoint::Scoped audio(
      "core.stage.audio",
      util::FailPoint::Spec::Always(util::StatusCode::kInternal));
  util::FailPoint::Scoped cues(
      "core.stage.cues",
      util::FailPoint::Spec::Always(util::StatusCode::kUnavailable));
  const util::StatusOr<core::MiningResult> mined = core::MineVideo(
      generated.video, generated.audio, DegradedOptions());
  ASSERT_TRUE(mined.ok()) << mined.status().message();
  ExpectIndexable(*mined);
  // Declaration order regardless of DAG completion order on the pool.
  ASSERT_EQ(mined->stage_failures.size(), 2u);
  EXPECT_EQ(mined->stage_failures[0].stage, "audio");
  EXPECT_EQ(mined->stage_failures[1].stage, "cues");
}

// ---------------------------------------------------------------------------
// Database persistence under damage and across format versions.

index::VideoDatabase ThreeVideoDatabase() {
  index::VideoDatabase db;
  for (int v = 0; v < 3; ++v) {
    structure::ContentStructure cs;
    shot::Shot s;
    s.index = 0;
    s.end_frame = 29;
    s.rep_frame = 9;
    cs.shots.push_back(s);
    db.AddVideo("video" + std::to_string(v), std::move(cs), {}, v == 1);
  }
  return db;
}

TEST(DatabaseSalvageTest, TornEntryKeepsValidPrefix) {
  const index::VideoDatabase db = ThreeVideoDatabase();
  const std::vector<uint8_t> bytes = index::SerializeDatabase(db);
  // Tear the file inside the second entry (entries dominate the file, so
  // cutting at 40% lands past the header and first entry).
  std::vector<uint8_t> cut(
      bytes.begin(), bytes.begin() + static_cast<ptrdiff_t>(bytes.size() * 2 / 5));
  ASSERT_FALSE(index::ParseDatabase(cut).ok());
  util::SalvageReport report;
  const util::StatusOr<index::VideoDatabase> salvaged =
      index::ParseDatabaseSalvage(cut, &report);
  ASSERT_TRUE(salvaged.ok());
  EXPECT_EQ(salvaged->video_count(), 1);
  EXPECT_EQ(salvaged->video(0).name, "video0");
  EXPECT_EQ(report.items_recovered, 1);
  EXPECT_EQ(report.items_dropped, 2);
  EXPECT_FALSE(report.notes.empty());
}

TEST(DatabaseSalvageTest, DamagedHeaderIsUnrecoverable) {
  const std::vector<uint8_t> bytes =
      index::SerializeDatabase(ThreeVideoDatabase());
  std::vector<uint8_t> damaged = bytes;
  damaged[0] ^= 0xFF;  // magic
  util::SalvageReport report;
  EXPECT_FALSE(index::ParseDatabaseSalvage(damaged, &report).ok());
  EXPECT_FALSE(index::ParseDatabaseSalvage({}, &report).ok());
}

TEST(DatabaseSalvageTest, ErrorsCarrySectionAndOffset) {
  const std::vector<uint8_t> bytes =
      index::SerializeDatabase(ThreeVideoDatabase());
  std::vector<uint8_t> cut(
      bytes.begin(), bytes.begin() + static_cast<ptrdiff_t>(bytes.size() * 2 / 5));
  const util::Status status = index::ParseDatabase(cut).status();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("section 'videos[1]'"), std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("byte offset"), std::string::npos)
      << status.message();
}

// Reconstructs a legacy CMDB file (version 1 or 2) from freshly
// serialised v3 bytes: the version field is stamped back, every entry's
// 12-byte frame (magic + body size + CRC) is stripped, and for v1 the
// trailing per-body degraded byte goes too.
std::vector<uint8_t> StripToLegacy(const std::vector<uint8_t>& v3,
                                   uint32_t version) {
  auto read_u32 = [&v3](size_t pos) {
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(v3[pos + i]) << (8 * i);
    return v;
  };
  std::vector<uint8_t> out(v3.begin(), v3.begin() + 12);
  out[4] = static_cast<uint8_t>(version);
  const uint32_t videos = read_u32(8);
  size_t pos = 12;
  for (uint32_t i = 0; i < videos; ++i) {
    const uint32_t body_size = read_u32(pos + 4);
    const size_t body = pos + 12;
    const size_t keep = version >= 2 ? body_size : body_size - 1;
    out.insert(out.end(), v3.begin() + static_cast<ptrdiff_t>(body),
               v3.begin() + static_cast<ptrdiff_t>(body + keep));
    pos = body + body_size;
  }
  return out;
}

TEST(DatabaseSalvageTest, TornEntryResynchronisesOntoNextEntry) {
  const index::VideoDatabase db = ThreeVideoDatabase();
  std::vector<uint8_t> bytes = index::SerializeDatabase(db);
  // Flip one byte inside the second entry's body: its checksum fails, and
  // the scan must recover video2 behind the damage.
  const size_t file_mid = bytes.size() * 2 / 5;
  std::vector<uint8_t> damaged = bytes;
  damaged[file_mid] ^= 0xFF;
  ASSERT_FALSE(index::ParseDatabase(damaged).ok());
  util::SalvageReport report;
  const util::StatusOr<index::VideoDatabase> salvaged =
      index::ParseDatabaseSalvage(damaged, &report);
  ASSERT_TRUE(salvaged.ok());
  ASSERT_EQ(salvaged->video_count(), 2);
  EXPECT_EQ(salvaged->video(0).name, "video0");
  EXPECT_EQ(salvaged->video(1).name, "video2");
  // The recovered video2 keeps its per-entry state (it was not degraded).
  EXPECT_FALSE(salvaged->video(1).degraded);
  EXPECT_EQ(report.items_dropped, 1);
  EXPECT_EQ(report.resync_points, 1);
  EXPECT_GT(report.bytes_dropped, 0u);
}

TEST(DatabaseSalvageTest, ChecksumMismatchNamesTheDamage) {
  const index::VideoDatabase db = ThreeVideoDatabase();
  std::vector<uint8_t> damaged = index::SerializeDatabase(db);
  damaged[damaged.size() * 2 / 5] ^= 0xFF;
  const util::Status status = index::ParseDatabase(damaged).status();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("checksum mismatch"), std::string::npos)
      << status.message();
}

TEST(DatabaseVersionTest, DegradedFlagRoundTripsInV2) {
  const index::VideoDatabase db = ThreeVideoDatabase();
  const util::StatusOr<index::VideoDatabase> loaded =
      index::ParseDatabase(index::SerializeDatabase(db));
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->video_count(), 3);
  EXPECT_FALSE(loaded->video(0).degraded);
  EXPECT_TRUE(loaded->video(1).degraded);
  EXPECT_FALSE(loaded->video(2).degraded);
  EXPECT_EQ(loaded->DegradedCount(), 1);
}

TEST(DatabaseVersionTest, V1FilesWithoutDegradedFlagStillLoad) {
  index::VideoDatabase db;
  structure::ContentStructure cs;
  shot::Shot s;
  s.index = 0;
  s.end_frame = 9;
  cs.shots.push_back(s);
  db.AddVideo("legacy", std::move(cs), {}, true);
  const std::vector<uint8_t> v1 =
      StripToLegacy(index::SerializeDatabase(db), 1);
  const util::StatusOr<index::VideoDatabase> loaded =
      index::ParseDatabase(v1);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  ASSERT_EQ(loaded->video_count(), 1);
  EXPECT_EQ(loaded->video(0).name, "legacy");
  // v1 carries no flag; entries load as non-degraded.
  EXPECT_FALSE(loaded->video(0).degraded);
}

TEST(DatabaseVersionTest, V2FilesWithoutEntryFramesStillLoad) {
  const index::VideoDatabase db = ThreeVideoDatabase();
  const std::vector<uint8_t> v2 =
      StripToLegacy(index::SerializeDatabase(db), 2);
  const util::StatusOr<index::VideoDatabase> loaded =
      index::ParseDatabase(v2);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  ASSERT_EQ(loaded->video_count(), 3);
  // v2 keeps the per-video degraded flag even without entry framing.
  EXPECT_TRUE(loaded->video(1).degraded);
  EXPECT_EQ(loaded->DegradedCount(), 1);
}

TEST(DatabaseVersionTest, V2TornEntryStillSalvagesPrefixOnly) {
  const index::VideoDatabase db = ThreeVideoDatabase();
  const std::vector<uint8_t> v2 =
      StripToLegacy(index::SerializeDatabase(db), 2);
  std::vector<uint8_t> cut(
      v2.begin(), v2.begin() + static_cast<ptrdiff_t>(v2.size() * 2 / 5));
  util::SalvageReport report;
  const util::StatusOr<index::VideoDatabase> salvaged =
      index::ParseDatabaseSalvage(cut, &report);
  ASSERT_TRUE(salvaged.ok());
  // Unframed legacy entries cannot be resynchronised past a tear.
  EXPECT_EQ(salvaged->video_count(), 1);
  EXPECT_EQ(report.resync_points, 0);
  EXPECT_EQ(report.items_dropped, 2);
}

TEST(DatabaseVersionTest, FutureVersionIsRejectedWithClearMessage) {
  std::vector<uint8_t> bytes =
      index::SerializeDatabase(ThreeVideoDatabase());
  bytes[4] = 9;
  const util::Status status = index::ParseDatabase(bytes).status();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("unsupported CMDB version 9"),
            std::string::npos)
      << status.message();
}

// ---------------------------------------------------------------------------
// Legacy CMDB migration: OpenDatabaseAnyGeneration is the only reader of a
// CMDB root, and repair rewrites what it read as a 1-shard CMSL library.

class LegacyMigrationTest : public ::testing::Test {
 protected:
  void SetUp() override { util::FailPoint::DisarmAll(); }
  void TearDown() override { util::FailPoint::DisarmAll(); }

  // Writes `bytes` as a legacy root at a path cleared of shard files from
  // earlier runs.
  static std::string WriteLegacy(const std::string& stem,
                                 const std::vector<uint8_t>& bytes) {
    const std::string path = ::testing::TempDir() + "/" + stem + ".cmdb";
    std::remove((path + ".tmp").c_str());
    const std::string log = index::ShardPath(path, 0);
    std::remove(log.c_str());
    std::remove((log + ".tmp").c_str());
    std::remove(index::ShardBackupPath(path, 0).c_str());
    EXPECT_TRUE(util::WriteFile(path, bytes).ok());
    return path;
  }
};

struct LegacyFixture {
  std::string name;
  std::vector<uint8_t> bytes;
};

// v1, v2 and v3 images of ThreeVideoDatabase, plus a v3 file torn inside
// its third entry.
std::vector<LegacyFixture> LegacyFixtures() {
  const std::vector<uint8_t> v3 =
      index::SerializeDatabase(ThreeVideoDatabase());
  const std::vector<uint8_t> torn(
      v3.begin(), v3.begin() + static_cast<ptrdiff_t>(v3.size() * 3 / 4));
  return {{"v1", StripToLegacy(v3, 1)},
          {"v2", StripToLegacy(v3, 2)},
          {"v3", v3},
          {"torn_v3", torn}};
}

// What a legacy file holds: the strict parse, else what salvage recovers.
index::VideoDatabase ParseLegacy(const std::vector<uint8_t>& bytes) {
  util::StatusOr<index::VideoDatabase> db = index::ParseDatabase(bytes);
  if (db.ok()) return *db;
  util::SalvageReport report;
  db = index::ParseDatabaseSalvage(bytes, &report);
  EXPECT_TRUE(db.ok()) << db.status().message();
  return db.ok() ? *db : index::VideoDatabase();
}

const char* const kMigrationCrashSites[] = {
    "index.shard.compact.write",     "index.shard.compact.fsync",
    "index.shard.compact.rename",    "index.shard.compact.manifest",
    "serial.atomic_write.tmp_write", "serial.atomic_write.fsync",
    "serial.atomic_write.rename"};

TEST_F(LegacyMigrationTest, EveryCmdbVersionMigratesToAOneShardLibrary) {
  for (const LegacyFixture& f : LegacyFixtures()) {
    const std::string path = WriteLegacy("migrate_" + f.name, f.bytes);
    const index::VideoDatabase want = ParseLegacy(f.bytes);
    ASSERT_GT(want.video_count(), 0) << f.name;

    const util::StatusOr<index::RepairReport> report =
        index::RepairDatabaseFile(path, index::RemineFn(), nullptr);
    ASSERT_TRUE(report.ok()) << f.name << ": " << report.status().message();
    EXPECT_TRUE(report->rewritten) << f.name;

    const index::VerifyReport verify = index::VerifyDatabaseFile(path);
    EXPECT_TRUE(verify.loadable) << f.name << ": " << verify.ToString();
    EXPECT_TRUE(verify.manifest_matches) << f.name;
    EXPECT_EQ(verify.shards, 1) << f.name;
    EXPECT_EQ(verify.videos, want.video_count()) << f.name;

    // Entry for entry — every field the entry codec carries — the library
    // holds exactly what the legacy reader parsed.
    const util::StatusOr<std::unique_ptr<index::ShardedDatabase>> db =
        index::ShardedDatabase::Open(path);
    ASSERT_TRUE(db.ok()) << f.name << ": " << db.status().message();
    const index::VideoDatabase got = (*db)->Snapshot();
    ASSERT_EQ(got.video_count(), want.video_count()) << f.name;
    for (int i = 0; i < want.video_count(); ++i) {
      EXPECT_EQ(got.video(i).name, want.video(i).name) << f.name;
      EXPECT_EQ(got.video(i).degraded, want.video(i).degraded) << f.name;
    }
    EXPECT_EQ(index::SerializeDatabase(got), index::SerializeDatabase(want))
        << f.name;
  }
}

TEST_F(LegacyMigrationTest, VerifyOnALegacyRootIsNotCleanAndNamesRepair) {
  const std::string path = WriteLegacy(
      "verify_legacy", index::SerializeDatabase(ThreeVideoDatabase()));
  const index::VerifyReport verify = index::VerifyDatabaseFile(path);
  EXPECT_FALSE(verify.clean());
  EXPECT_FALSE(verify.loadable);
  EXPECT_NE(verify.error.find("legacy CMDB"), std::string::npos)
      << verify.ToString();
  EXPECT_NE(verify.error.find("repair"), std::string::npos)
      << verify.ToString();
}

TEST_F(LegacyMigrationTest, ShardedOpenRefusesALegacyRoot) {
  const std::vector<uint8_t> bytes =
      index::SerializeDatabase(ThreeVideoDatabase());
  const std::string path = WriteLegacy("open_legacy", bytes);
  const util::StatusOr<std::unique_ptr<index::ShardedDatabase>> db =
      index::ShardedDatabase::Open(path);
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), util::StatusCode::kFailedPrecondition);
  EXPECT_NE(db.status().message().find("repair"), std::string::npos)
      << db.status().message();
  // The refusal touches nothing.
  EXPECT_EQ(*util::ReadFile(path), bytes);
}

TEST_F(LegacyMigrationTest, CrashAtEverySiteLeavesALegacyOrMigratedRoot) {
  const std::vector<uint8_t> bytes =
      index::SerializeDatabase(ThreeVideoDatabase());
  for (const char* site : kMigrationCrashSites) {
    const std::string path =
        WriteLegacy(std::string("migrate_crash_") + site, bytes);
    util::FailPoint::Arm(
        site, util::FailPoint::Spec::Once(util::StatusCode::kDataLoss));
    EXPECT_FALSE(
        index::RepairDatabaseFile(path, index::RemineFn(), nullptr).ok())
        << site;
    util::FailPoint::DisarmAll();

    // The root opens as one whole database: the untouched legacy file, or
    // the complete migrated library — never a mixture.
    const util::StatusOr<index::OpenResult> opened =
        index::OpenDatabaseAnyGeneration(path, nullptr);
    ASSERT_TRUE(opened.ok()) << site << ": " << opened.status().message();
    EXPECT_EQ(index::SerializeDatabase(opened->db), bytes) << site;
    if (opened->legacy) {
      EXPECT_EQ(*util::ReadFile(path), bytes) << site;
    } else {
      EXPECT_EQ(index::VerifyDatabaseFile(path).shards, 1) << site;
    }

    // Once the fault clears, repair finishes the migration.
    ASSERT_TRUE(
        index::RepairDatabaseFile(path, index::RemineFn(), nullptr).ok())
        << site;
    const index::VerifyReport verify = index::VerifyDatabaseFile(path);
    EXPECT_TRUE(verify.loadable) << site << ": " << verify.ToString();
    EXPECT_EQ(verify.shards, 1) << site;
    EXPECT_EQ(verify.videos, 3) << site;
  }
}

}  // namespace
}  // namespace classminer
