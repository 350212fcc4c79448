// Corruption robustness: hostile bytes must surface as Status errors (or
// decode to harmless content), never crash, hang or scribble memory. This
// matters for a database system whose containers arrive over networks.

#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "codec/container.h"
#include "codec/decoder.h"
#include "codec/encoder.h"
#include "core/classminer.h"
#include "core/cmv_pipeline.h"
#include "gop_of_frame.h"
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
#include "util/crc32.h"
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

// ---------------------------------------------------------------------------
// The library's shard log as a target of hostile bytes. A 1-shard library
// is what `classminer index` writes: a CMSM root manifest plus one CMSL log
// that holds a 24-byte header and one CMVE entry frame (magic, body size,
// CRC-32, body) per video, so every byte-level check of the entry codec is
// reached through it.

constexpr size_t kLogHeaderBytes = 24;

// A library path cleared of files from earlier runs.
std::string FreshLibraryPath(const std::string& stem) {
  const std::string path = ::testing::TempDir() + "/" + stem + ".lib";
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
  const std::string log = index::ShardPath(path, 0);
  std::remove(log.c_str());
  std::remove((log + ".tmp").c_str());
  std::remove(index::ShardBackupPath(path, 0).c_str());
  return path;
}

// Saves `db` as a fresh 1-shard library; returns its root path.
std::string OneShardLibrary(const std::string& stem,
                            const index::VideoDatabase& db) {
  const std::string path = FreshLibraryPath(stem);
  EXPECT_TRUE(index::SaveDatabase(db, path, 1).ok());
  return path;
}

std::vector<uint8_t> ShardLog(const std::string& path) {
  util::StatusOr<std::vector<uint8_t>> bytes =
      util::ReadFile(index::ShardPath(path, 0));
  EXPECT_TRUE(bytes.ok()) << bytes.status().message();
  return bytes.ok() ? *bytes : std::vector<uint8_t>{};
}

void WriteShardLog(const std::string& path, const std::vector<uint8_t>& log) {
  EXPECT_TRUE(util::WriteFile(index::ShardPath(path, 0), log).ok());
}

// A read-only open: its status, snapshot and per-shard outcome.
struct ReadOnlyOpen {
  util::Status status = util::Status::Ok();
  index::VideoDatabase db;
  index::ShardedDatabase::OpenReport shards;
  util::SalvageReport report;
};

// Opens the library read-only and checks that it touched neither file.
ReadOnlyOpen OpenReadOnly(const std::string& path) {
  const std::vector<uint8_t> root = *util::ReadFile(path);
  const std::vector<uint8_t> log = ShardLog(path);
  ReadOnlyOpen out;
  {
    util::StatusOr<std::unique_ptr<index::ShardedDatabase>> db =
        index::ShardedDatabase::Open(path, &out.report, &out.shards,
                                     /*read_only=*/true);
    out.status = db.status();
    if (db.ok()) out.db = (*db)->Snapshot();
  }
  EXPECT_EQ(*util::ReadFile(path), root);
  EXPECT_EQ(ShardLog(path), log);
  return out;
}

uint32_t U32At(const std::vector<uint8_t>& bytes, size_t pos) {
  uint32_t v = 0;
  for (size_t i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(bytes[pos + i]) << (8 * i);
  }
  return v;
}

void PutU32At(std::vector<uint8_t>* bytes, size_t pos, uint32_t v) {
  for (size_t i = 0; i < 4; ++i) {
    (*bytes)[pos + i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

// Offsets of the record frames of a log whose framing is intact.
std::vector<size_t> FrameOffsets(const std::vector<uint8_t>& log) {
  std::vector<size_t> frames;
  for (size_t pos = kLogHeaderBytes; pos + 12 <= log.size();
       pos += 12 + U32At(log, pos + 4)) {
    frames.push_back(pos);
  }
  return frames;
}

// Re-stamps the CRC-32 of the frame at `frame` over its declared body, so a
// mutation of the body gets past the checksum into the entry parser. A
// frame whose declared body runs past the log is left alone.
void Reseal(std::vector<uint8_t>* log, size_t frame) {
  if (frame + 12 > log->size()) return;
  const uint32_t body = U32At(*log, frame + 4);
  if (body > log->size() - frame - 12) return;
  PutU32At(log, frame + 8, util::Crc32(log->data() + frame + 12, body));
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

// Every 7th cut of a 1-shard library's log: the strict readers refuse each
// one, and a read-only open salvages what is left (the log's one entry is
// always torn, so nothing) without touching a file.
TEST(CorruptionTest, DatabaseTruncationSweep) {
  index::VideoDatabase db;
  structure::ContentStructure cs;
  shot::Shot s;
  s.index = 0;
  s.end_frame = 29;
  s.rep_frame = 9;
  cs.shots.push_back(s);
  db.AddVideo("fuzz", std::move(cs), {});
  const std::string path = OneShardLibrary("truncation_sweep", db);
  const std::vector<uint8_t> log = ShardLog(path);
  // No cut lands exactly on the header's end, which is a valid empty log.
  static_assert(kLogHeaderBytes % 7 != 0);
  for (size_t keep = 0; keep < log.size(); keep += 7) {
    SCOPED_TRACE("kept " + std::to_string(keep));
    WriteShardLog(path, std::vector<uint8_t>(
                            log.begin(),
                            log.begin() + static_cast<ptrdiff_t>(keep)));
    EXPECT_FALSE(index::LoadDatabase(path).ok());
    EXPECT_FALSE(index::VerifyDatabaseFile(path).loadable);
    const ReadOnlyOpen opened = OpenReadOnly(path);
    ASSERT_TRUE(opened.status.ok()) << opened.status.message();
    EXPECT_EQ(opened.db.video_count(), 0);
    EXPECT_EQ(opened.shards.any_lost(), keep < kLogHeaderBytes);
    EXPECT_EQ(opened.shards.any_salvaged(), keep > kLogHeaderBytes);
  }
  WriteShardLog(path, log);
  EXPECT_TRUE(index::LoadDatabase(path).ok());
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
  const std::string empty_root = FreshLibraryPath("empty_root");
  ASSERT_TRUE(util::WriteFile(empty_root, {}).ok());
  EXPECT_FALSE(index::LoadDatabase(empty_root).ok());
  EXPECT_FALSE(index::ShardedDatabase::Open(empty_root).ok());
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
    // type + size + payload + CRC-32.
    offset += 1 + 4 + file.frames[i].payload.size() + 4;
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
  EXPECT_EQ(report.gops_recovered, 3);
  EXPECT_EQ(Gops(*parsed).size(), 3u);
  // Everything recovered decodes (the suffix re-anchors on its I-frame).
  const util::StatusOr<media::Video> decoded = codec::DecodeVideo(*parsed);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->frame_count(), 5);
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
      lost_gops.push_back(GopOfFrame(file, shots[i].rep_frame));
    }
  }
  ASSERT_FALSE(lost_gops.empty());
  const int failed_gop = lost_gops.front();
  for (size_t i = 0; i < shots.size(); ++i) {
    SCOPED_TRACE("shot " + std::to_string(i));
    ASSERT_EQ(shots[i].rep_frame, pristine->structure.shots[i].rep_frame);
    if (GopOfFrame(file, shots[i].rep_frame) == failed_gop) {
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
// Library entries under damage: the entry codec's checks, exercised through
// a 1-shard library's log.

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

// Three entries with every part an entry body holds: two shots, a group
// with a shot cluster, a scene, a scene cluster and one event.
index::VideoDatabase StructuredDatabase() {
  index::VideoDatabase db;
  for (int v = 0; v < 3; ++v) {
    structure::ContentStructure cs;
    for (int i = 0; i < 2; ++i) {
      shot::Shot s;
      s.index = i;
      s.start_frame = 30 * i;
      s.end_frame = 30 * i + 29;
      s.rep_frame = 30 * i + 9;
      cs.shots.push_back(s);
    }
    structure::Group group;
    group.end_shot = 1;
    group.temporally_related = true;
    structure::ShotCluster cluster;
    cluster.shot_indices = {0, 1};
    cluster.rep_shot = 1;
    group.clusters.push_back(cluster);
    group.rep_shots = {1};
    cs.groups.push_back(group);
    structure::Scene scene;
    scene.rep_group = 0;
    cs.scenes.push_back(scene);
    structure::SceneCluster scene_cluster;
    scene_cluster.scene_indices = {0};
    scene_cluster.rep_group = 0;
    cs.clustered_scenes.push_back(scene_cluster);
    events::EventRecord event;
    event.type = events::EventType::kDialog;
    event.shot_count = 2;
    db.AddVideo("video" + std::to_string(v), std::move(cs), {event}, v == 1);
  }
  return db;
}

// One entry's stored bytes, for comparing entries field for field.
std::vector<uint8_t> EntryBytes(const index::VideoEntry& entry) {
  index::VideoDatabase one;
  one.AddVideo(entry.name, entry.structure, entry.events, entry.degraded);
  return index::SerializeDatabase(one);
}

TEST(DatabaseSalvageTest, TornEntryKeepsValidPrefix) {
  const std::string path = OneShardLibrary("torn_prefix", ThreeVideoDatabase());
  const std::vector<uint8_t> log = ShardLog(path);
  const std::vector<size_t> frames = FrameOffsets(log);
  ASSERT_EQ(frames.size(), 3u);
  // Tear the log inside the second entry (entries dominate the log, so
  // cutting at 40% lands past the header and the first entry).
  const size_t cut = log.size() * 2 / 5;
  ASSERT_GT(cut, frames[1]);
  ASSERT_LT(cut, frames[2]);
  WriteShardLog(path, std::vector<uint8_t>(
                          log.begin(), log.begin() + static_cast<ptrdiff_t>(cut)));
  EXPECT_FALSE(index::LoadDatabase(path).ok());
  const ReadOnlyOpen opened = OpenReadOnly(path);
  ASSERT_TRUE(opened.status.ok()) << opened.status.message();
  ASSERT_EQ(opened.db.video_count(), 1);
  EXPECT_EQ(opened.db.video(0).name, "video0");
  EXPECT_TRUE(opened.shards.any_salvaged());
  EXPECT_EQ(opened.report.items_recovered, 1);
  EXPECT_EQ(opened.report.bytes_dropped, cut - frames[1]);
  EXPECT_FALSE(opened.report.notes.empty());
}

TEST(DatabaseSalvageTest, DamagedHeaderIsUnrecoverable) {
  const std::string path =
      OneShardLibrary("damaged_header", ThreeVideoDatabase());
  const std::vector<uint8_t> log = ShardLog(path);
  std::vector<uint8_t> damaged = log;
  damaged[0] ^= 0xFF;  // CMSL magic
  // Nothing precedes the header, so neither an empty log nor one with a
  // damaged header yields an entry: the shard opens empty, flagged lost.
  for (const std::vector<uint8_t>& bytes : {damaged, std::vector<uint8_t>{}}) {
    SCOPED_TRACE(bytes.empty() ? "empty log" : "damaged magic");
    WriteShardLog(path, bytes);
    EXPECT_FALSE(index::LoadDatabase(path).ok());
    const ReadOnlyOpen opened = OpenReadOnly(path);
    ASSERT_TRUE(opened.status.ok()) << opened.status.message();
    EXPECT_TRUE(opened.shards.any_lost());
    EXPECT_EQ(opened.db.video_count(), 0);
  }
}

TEST(DatabaseSalvageTest, ErrorsCarrySectionAndOffset) {
  const std::string path =
      OneShardLibrary("error_offset", ThreeVideoDatabase());
  const std::vector<uint8_t> log = ShardLog(path);
  WriteShardLog(path, std::vector<uint8_t>(
                          log.begin(),
                          log.begin() + static_cast<ptrdiff_t>(log.size() * 2 / 5)));
  const util::Status status = index::LoadDatabase(path).status();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("section 'records[1]'"), std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("byte offset"), std::string::npos)
      << status.message();
}

TEST(DatabaseSalvageTest, TornEntryResynchronisesOntoNextEntry) {
  const std::string path = OneShardLibrary("resync", ThreeVideoDatabase());
  // Flip one byte inside the second entry's body: its checksum fails, and
  // the scan must recover video2 behind the damage.
  std::vector<uint8_t> damaged = ShardLog(path);
  damaged[damaged.size() * 2 / 5] ^= 0xFF;
  WriteShardLog(path, damaged);
  EXPECT_FALSE(index::LoadDatabase(path).ok());
  const ReadOnlyOpen opened = OpenReadOnly(path);
  ASSERT_TRUE(opened.status.ok()) << opened.status.message();
  ASSERT_EQ(opened.db.video_count(), 2);
  EXPECT_EQ(opened.db.video(0).name, "video0");
  EXPECT_EQ(opened.db.video(1).name, "video2");
  // The recovered video2 keeps its per-entry state (it was not degraded).
  EXPECT_FALSE(opened.db.video(1).degraded);
  EXPECT_TRUE(opened.shards.any_salvaged());
  EXPECT_EQ(opened.report.resync_points, 1);
  EXPECT_GT(opened.report.bytes_dropped, 0u);
}

TEST(DatabaseSalvageTest, ChecksumMismatchNamesTheDamage) {
  const std::string path =
      OneShardLibrary("checksum_mismatch", ThreeVideoDatabase());
  std::vector<uint8_t> damaged = ShardLog(path);
  damaged[damaged.size() * 2 / 5] ^= 0xFF;
  WriteShardLog(path, damaged);
  const util::Status status = index::LoadDatabase(path).status();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("video entry checksum mismatch"),
            std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("section 'records[1]'"), std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("byte offset"), std::string::npos)
      << status.message();
  EXPECT_NE(index::VerifyDatabaseFile(path).error.find("checksum mismatch"),
            std::string::npos);
}

// Bytes behind a valid checksum are still hostile: each field the entry
// parser bounds is forged in the first entry and its CRC re-stamped. The
// strict readers name the field; a read-only open drops that entry alone.
TEST(DatabaseSalvageTest, ResealedHostileFieldsFailCleanly) {
  const index::VideoDatabase db = StructuredDatabase();
  const std::string path = OneShardLibrary("hostile_fields", db);
  const std::vector<uint8_t> log = ShardLog(path);
  const std::vector<size_t> frames = FrameOffsets(log);
  ASSERT_EQ(frames.size(), 3u);
  const size_t body = frames[0] + 12;
  const size_t body_size = U32At(log, frames[0] + 4);
  // Body layout: name (u32 length + "video0"), shot count, two shots of
  // 4 ints + 266 doubles, group count, ... , one 23-byte event, then the
  // degraded flag.
  const size_t shot_count_at = body + 4 + 6;
  const size_t group_count_at = shot_count_at + 4 + 2 * (16 + 266 * 8);
  const size_t event_at = body + body_size - 1 - 23;
  ASSERT_EQ(U32At(log, shot_count_at), 2u);
  ASSERT_EQ(U32At(log, group_count_at), 1u);
  ASSERT_EQ(U32At(log, event_at - 4), 1u);

  struct Forgery {
    const char* field;
    size_t at;
    uint32_t value;
    const char* error;
  };
  const Forgery forgeries[] = {
      {"shot count", shot_count_at, 0xFFFFFFFFu, "shot count exceeds"},
      {"group count", group_count_at, 0xFFFFFFFFu, "group count exceeds"},
      {"event count", event_at - 4, 0x7FFFFFFFu, "event count exceeds"},
      {"event type", event_at + 4, 7, "invalid event type"},
  };
  for (const Forgery& f : forgeries) {
    SCOPED_TRACE(f.field);
    std::vector<uint8_t> forged = log;
    PutU32At(&forged, f.at, f.value);
    Reseal(&forged, frames[0]);
    WriteShardLog(path, forged);
    const util::Status status = index::LoadDatabase(path).status();
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.message().find(f.error), std::string::npos)
        << status.message();
    EXPECT_NE(status.message().find("section 'records[0]'"),
              std::string::npos)
        << status.message();
    EXPECT_FALSE(index::VerifyDatabaseFile(path).loadable);
    const ReadOnlyOpen opened = OpenReadOnly(path);
    ASSERT_TRUE(opened.status.ok()) << opened.status.message();
    ASSERT_EQ(opened.db.video_count(), 2);
    EXPECT_EQ(opened.db.video(0).name, "video1");
    EXPECT_EQ(opened.db.video(1).name, "video2");
  }

  // A body longer than the entry it holds: one spare byte inside the frame,
  // size and CRC stamped to match.
  std::vector<uint8_t> padded = log;
  padded.insert(padded.begin() + static_cast<ptrdiff_t>(body + body_size), 0);
  PutU32At(&padded, frames[0] + 4, static_cast<uint32_t>(body_size + 1));
  Reseal(&padded, frames[0]);
  WriteShardLog(path, padded);
  const util::Status status = index::LoadDatabase(path).status();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("video entry body size mismatch"),
            std::string::npos)
      << status.message();
  const ReadOnlyOpen opened = OpenReadOnly(path);
  ASSERT_TRUE(opened.status.ok()) << opened.status.message();
  EXPECT_EQ(opened.db.video_count(), 2);
}

// A seeded byte-flip corpus over a 3-entry log. Odd trials re-stamp every
// frame's CRC after flipping, so the flips reach the entry body parser;
// even trials leave the CRCs as they are. Either way the strict readers
// agree with each other and a read-only open succeeds without touching a
// file. Without re-stamping, every entry the open recovers is one the
// library held, field for field.
TEST(DatabaseSalvageTest, SeededByteFlipsFailCleanly) {
  const index::VideoDatabase db = StructuredDatabase();
  const std::string path = OneShardLibrary("flip_corpus", db);
  const std::vector<uint8_t> original = ShardLog(path);
  const std::vector<size_t> frames = FrameOffsets(original);
  ASSERT_EQ(frames.size(), 3u);
  std::map<std::string, std::vector<uint8_t>> held;
  for (int i = 0; i < db.video_count(); ++i) {
    held[db.video(i).name] = EntryBytes(db.video(i));
  }
  util::Rng rng(41);
  for (int trial = 0; trial < 120; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    std::vector<uint8_t> log = original;
    const int flips = rng.UniformInt(1, 4);
    for (int f = 0; f < flips; ++f) {
      const size_t pos = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int>(log.size()) - 1));
      log[pos] ^= static_cast<uint8_t>(rng.UniformInt(1, 255));
    }
    const bool resealed = trial % 2 == 1;
    if (resealed) {
      for (size_t frame : frames) Reseal(&log, frame);
    }
    WriteShardLog(path, log);

    const util::StatusOr<index::VideoDatabase> loaded =
        index::LoadDatabase(path);
    const index::VerifyReport verify = index::VerifyDatabaseFile(path);
    EXPECT_EQ(verify.loadable, loaded.ok()) << verify.ToString();
    if (loaded.ok()) {
      EXPECT_EQ(verify.videos, loaded->video_count());
    }

    const ReadOnlyOpen opened = OpenReadOnly(path);
    ASSERT_TRUE(opened.status.ok()) << opened.status.message();
    EXPECT_LE(opened.db.video_count(), 3);
    if (resealed) continue;
    for (int i = 0; i < opened.db.video_count(); ++i) {
      const index::VideoEntry& entry = opened.db.video(i);
      ASSERT_EQ(held.count(entry.name), 1u) << entry.name;
      EXPECT_EQ(EntryBytes(entry), held[entry.name]) << entry.name;
    }
  }
}

TEST(DatabaseVersionTest, DegradedFlagRoundTripsInV2) {
  // The per-entry degraded flag (first stored by CMDB v2) survives a save
  // and a strict load of the library.
  const std::string path =
      OneShardLibrary("degraded_flag", ThreeVideoDatabase());
  const util::StatusOr<index::VideoDatabase> loaded = index::LoadDatabase(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  ASSERT_EQ(loaded->video_count(), 3);
  EXPECT_FALSE(loaded->video(0).degraded);
  EXPECT_TRUE(loaded->video(1).degraded);
  EXPECT_FALSE(loaded->video(2).degraded);
  EXPECT_EQ(loaded->DegradedCount(), 1);
}

TEST(DatabaseVersionTest, FutureVersionIsRejectedWithClearMessage) {
  const std::string path =
      OneShardLibrary("future_version", ThreeVideoDatabase());
  std::vector<uint8_t> log = ShardLog(path);
  log[4] = 9;  // CMSL version
  WriteShardLog(path, log);
  const util::Status status = index::LoadDatabase(path).status();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("unsupported CMSL version 9"),
            std::string::npos)
      << status.message();
  EXPECT_NE(index::VerifyDatabaseFile(path).error.find(
                "unsupported CMSL version 9"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Files in the retired formats: the monolithic CMDB database (v1-v3) and
// the unchecksummed CMV1 container. No reader for either is left, so each
// is refused like any unknown magic and left as it was.

class LegacyMigrationTest : public ::testing::Test {
 protected:
  void SetUp() override { util::FailPoint::DisarmAll(); }
  void TearDown() override { util::FailPoint::DisarmAll(); }

  // Writes `bytes` as a root at a path cleared of library files from
  // earlier runs.
  static std::string WriteLegacy(const std::string& stem,
                                 const std::vector<uint8_t>& bytes) {
    const std::string path = FreshLibraryPath(stem);
    EXPECT_TRUE(util::WriteFile(path, bytes).ok());
    return path;
  }
};

// Reconstructs a CMDB file of version 1 or 2 from SerializeDatabase's v3
// bytes: the version field is stamped back, every entry's 12-byte frame
// (magic + body size + CRC) is stripped, and for v1 the trailing per-body
// degraded byte goes too.
std::vector<uint8_t> StripToLegacy(const std::vector<uint8_t>& v3,
                                   uint32_t version) {
  std::vector<uint8_t> out(v3.begin(), v3.begin() + 12);
  out[4] = static_cast<uint8_t>(version);
  const uint32_t videos = U32At(v3, 8);
  size_t pos = 12;
  for (uint32_t i = 0; i < videos; ++i) {
    const uint32_t body_size = U32At(v3, pos + 4);
    const size_t body = pos + 12;
    const size_t keep = version >= 2 ? body_size : body_size - 1;
    out.insert(out.end(), v3.begin() + static_cast<ptrdiff_t>(body),
               v3.begin() + static_cast<ptrdiff_t>(body + keep));
    pos = body + body_size;
  }
  return out;
}

// A CMV1 container: the CMV2 bytes of `file` with the magic stamped "CMV1"
// and every frame record's trailing CRC-32 stripped.
std::vector<uint8_t> StripToCmv1(const codec::CmvFile& file) {
  const std::vector<uint8_t> v2 = file.Serialize();
  size_t pos = FrameRecordOffset(file, 0);
  std::vector<uint8_t> out(v2.begin(), v2.begin() + static_cast<ptrdiff_t>(pos));
  out[3] = '1';
  for (const codec::FrameRecord& rec : file.frames) {
    const size_t record = 1 + 4 + rec.payload.size();
    out.insert(out.end(), v2.begin() + static_cast<ptrdiff_t>(pos),
               v2.begin() + static_cast<ptrdiff_t>(pos + record));
    pos += record + 4;
  }
  out.insert(out.end(), v2.begin() + static_cast<ptrdiff_t>(pos), v2.end());
  return out;
}

TEST_F(LegacyMigrationTest, ShardedOpenRefusesALegacyRoot) {
  const std::vector<uint8_t> bytes =
      index::SerializeDatabase(ThreeVideoDatabase());
  const std::string path = WriteLegacy("open_legacy", bytes);
  const util::StatusOr<std::unique_ptr<index::ShardedDatabase>> db =
      index::ShardedDatabase::Open(path);
  ASSERT_FALSE(db.ok());
  // Refused like any file that is not a library: no manifest parses and no
  // shard log exists to rebuild one from.
  EXPECT_EQ(db.status().code(), util::StatusCode::kDataLoss);
  // The refusal touches nothing.
  EXPECT_EQ(*util::ReadFile(path), bytes);
}

TEST_F(LegacyMigrationTest, EveryEntryPointRefusesOldFilesUntouched) {
  const std::vector<uint8_t> v3 =
      index::SerializeDatabase(ThreeVideoDatabase());
  const codec::CmvFile cmv = *codec::CmvFile::Parse(EncodedFixture());
  const struct {
    std::string name;
    std::vector<uint8_t> bytes;
  } fixtures[] = {{"cmdb_v1", StripToLegacy(v3, 1)},
                  {"cmdb_v2", StripToLegacy(v3, 2)},
                  {"cmdb_v3", v3},
                  {"cmv1", StripToCmv1(cmv)}};
  // The fixtures are what they claim: frames (and v1's flags) stripped.
  ASSERT_EQ(fixtures[1].bytes.size(), v3.size() - 3 * 12);
  ASSERT_EQ(fixtures[0].bytes.size(), v3.size() - 3 * 13);
  ASSERT_EQ(fixtures[3].bytes.size(),
            cmv.Serialize().size() - 4 * cmv.frames.size());

  for (const auto& f : fixtures) {
    SCOPED_TRACE(f.name);
    const std::string path = WriteLegacy("refuse_" + f.name, f.bytes);
    const auto untouched = [&](const char* entry_point) {
      EXPECT_EQ(*util::ReadFile(path), f.bytes) << entry_point;
      EXPECT_FALSE(util::ReadFile(index::ShardPath(path, 0)).ok())
          << entry_point;
    };
    for (const bool read_only : {false, true}) {
      EXPECT_FALSE(
          index::ShardedDatabase::Open(path, nullptr, nullptr, read_only)
              .ok())
          << "read_only " << read_only;
      untouched("ShardedDatabase::Open");
    }
    EXPECT_FALSE(index::LoadDatabase(path).ok());
    untouched("LoadDatabase");
    const index::VerifyReport verify = index::VerifyDatabaseFile(path);
    EXPECT_FALSE(verify.loadable);
    EXPECT_FALSE(verify.clean());
    EXPECT_FALSE(verify.error.empty());
    untouched("VerifyDatabaseFile");
    EXPECT_FALSE(index::CompactDatabaseFile(path).ok());
    untouched("CompactDatabaseFile");
    EXPECT_FALSE(
        index::RepairDatabaseFile(path, index::RemineFn(), nullptr).ok());
    untouched("RepairDatabaseFile");

    EXPECT_FALSE(codec::CmvFile::Parse(f.bytes).ok());
    util::SalvageReport report;
    EXPECT_FALSE(codec::CmvFile::ParseBestEffort(f.bytes, &report).ok());
    EXPECT_FALSE(codec::CmvFile::LoadFromFileBestEffort(path, &report).ok());
    untouched("CmvFile::LoadFromFileBestEffort");
  }
}

}  // namespace
}  // namespace classminer
