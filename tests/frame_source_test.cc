// Selective GOP decoding: the per-GOP seek index, GopReader and the
// LRU-cached FrameSource. The load-bearing property throughout is
// bit-identity — any frame obtained selectively must equal (operator==)
// the same index of a full DecodeVideo pass.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "codec/decoder.h"
#include "codec/encoder.h"
#include "codec/frame_source.h"
#include "codec/gop_reader.h"
#include "media/draw.h"
#include "util/rng.h"

namespace classminer {
namespace {

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

// ---------------------------------------------------------------- GOP index

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

  EXPECT_FALSE(codec::GopReader::Create(nullptr).ok());
  codec::CmvFile broken = file;
  broken.width = 0;
  EXPECT_FALSE(codec::GopReader::Create(&broken).ok());
  codec::CmvFile stale = file;
  stale.gop_index[0].byte_size += 1;  // stored index disagrees with frames
  EXPECT_EQ(codec::GopReader::Create(&stale).status().code(),
            util::StatusCode::kDataLoss);
}

// -------------------------------------------------------------- FrameSource

TEST(FrameSourceTest, EveryFrameBitIdenticalToFullDecode) {
  const codec::CmvFile file = EncodeTestFile(30, 8);
  util::StatusOr<media::Video> full = codec::DecodeVideo(file);
  ASSERT_TRUE(full.ok());

  codec::FrameSource::Options options;
  options.cache_capacity_gops = 2;
  util::StatusOr<std::unique_ptr<codec::FrameSource>> source =
      codec::FrameSource::Create(&file, options);
  ASSERT_TRUE(source.ok()) << source.status().ToString();

  for (int i = 0; i < file.frame_count(); ++i) {
    util::StatusOr<codec::FrameHandle> frame = (*source)->GetFrame(i);
    ASSERT_TRUE(frame.ok()) << "frame " << i << ": "
                            << frame.status().ToString();
    EXPECT_EQ(frame->image(), full->frame(i)) << "frame " << i;
  }

  // Forward sequential access decodes each GOP exactly once even with a
  // 2-GOP cache; every other request is a hit.
  const codec::FrameSource::Stats stats = (*source)->stats();
  EXPECT_EQ(stats.decoded_gops, 4);
  EXPECT_EQ(stats.decoded_frames, 30);
  EXPECT_EQ(stats.cache_misses, 4);
  EXPECT_EQ(stats.cache_hits, 26);
}

TEST(FrameSourceTest, SparseAccessDecodesOnlyTouchedGops) {
  const codec::CmvFile file = EncodeTestFile(30, 8);
  util::StatusOr<std::unique_ptr<codec::FrameSource>> source =
      codec::FrameSource::Create(&file);
  ASSERT_TRUE(source.ok());

  // One frame from GOP 2 only: exactly that GOP (8 frames) gets decoded —
  // the whole point of the selective path.
  ASSERT_TRUE((*source)->GetFrame(18).ok());
  const codec::FrameSource::Stats stats = (*source)->stats();
  EXPECT_EQ(stats.decoded_gops, 1);
  EXPECT_EQ(stats.decoded_frames, 8);
  EXPECT_EQ(stats.evictions, 0);
  EXPECT_LT(stats.decoded_frames, file.frame_count());
}

TEST(FrameSourceTest, LruEvictsUnderTinyCache) {
  const codec::CmvFile file = EncodeTestFile(30, 8);
  util::StatusOr<media::Video> full = codec::DecodeVideo(file);
  ASSERT_TRUE(full.ok());

  codec::FrameSource::Options options;
  options.cache_capacity_gops = 1;
  util::StatusOr<std::unique_ptr<codec::FrameSource>> source =
      codec::FrameSource::Create(&file, options);
  ASSERT_TRUE(source.ok());

  util::StatusOr<codec::FrameHandle> pinned = (*source)->GetFrame(0);  // miss
  ASSERT_TRUE(pinned.ok());
  ASSERT_TRUE((*source)->GetFrame(1).ok());   // hit (same GOP)
  ASSERT_TRUE((*source)->GetFrame(8).ok());   // miss, evicts GOP 0
  ASSERT_TRUE((*source)->GetFrame(0).ok());   // miss again, evicts GOP 1

  const codec::FrameSource::Stats stats = (*source)->stats();
  EXPECT_EQ(stats.decoded_gops, 3);
  EXPECT_EQ(stats.cache_hits, 1);
  EXPECT_EQ(stats.cache_misses, 3);
  EXPECT_EQ(stats.evictions, 2);

  // The handle taken before eviction still pins its GOP: the image stays
  // valid and bit-identical after the cache dropped the entry.
  EXPECT_EQ(pinned->image(), full->frame(0));
}

TEST(FrameSourceTest, AdaptiveCapacityStopsScanThrashing) {
  // 40 frames at GOP size 8: five GOPs. A repeated scan touching one frame
  // per GOP is the LRU worst case for a capacity-1 cache — every access
  // evicts the GOP the next sweep needs, so a fixed cache re-decodes the
  // whole file on every pass.
  const codec::CmvFile file = EncodeTestFile(40, 8);
  ASSERT_EQ(file.gop_count(), 5);
  util::StatusOr<media::Video> full = codec::DecodeVideo(file);
  ASSERT_TRUE(full.ok());
  const std::vector<int> sweep = {0, 8, 16, 24, 32};  // one frame per GOP

  // Fixed capacity 1: thrashes forever — 5 decodes per sweep, no hits.
  codec::FrameSource::Options fixed;
  fixed.cache_capacity_gops = 1;
  util::StatusOr<std::unique_ptr<codec::FrameSource>> fixed_source =
      codec::FrameSource::Create(&file, fixed);
  ASSERT_TRUE(fixed_source.ok());
  for (int pass = 0; pass < 3; ++pass) {
    for (int f : sweep) ASSERT_TRUE((*fixed_source)->GetFrame(f).ok());
  }
  EXPECT_EQ((*fixed_source)->stats().decoded_gops, 15);
  EXPECT_EQ((*fixed_source)->stats().cache_hits, 0);
  EXPECT_EQ((*fixed_source)->stats().capacity_gops, 1);

  // Same base capacity with an adaptive ceiling: the second sweep's misses
  // land on GOPs already decoded once, so the source recognises eviction
  // thrash and doubles 1 -> 2 -> 4 -> 8. From the third sweep on, the whole
  // working set fits and every access is a hit.
  codec::FrameSource::Options adaptive;
  adaptive.cache_capacity_gops = 1;
  adaptive.cache_capacity_max_gops = 8;
  util::StatusOr<std::unique_ptr<codec::FrameSource>> source =
      codec::FrameSource::Create(&file, adaptive);
  ASSERT_TRUE(source.ok());
  for (int pass = 0; pass < 3; ++pass) {
    for (int f : sweep) ASSERT_TRUE((*source)->GetFrame(f).ok());
  }
  codec::FrameSource::Stats stats = (*source)->stats();
  EXPECT_EQ(stats.decoded_gops, 9);  // 5 first-time + 4 thrash re-decodes
  EXPECT_EQ(stats.capacity_grows, 3);
  EXPECT_EQ(stats.capacity_gops, 8);

  // Plateau: further sweeps decode nothing new and stay bit-identical.
  for (int f : sweep) {
    util::StatusOr<codec::FrameHandle> h = (*source)->GetFrame(f);
    ASSERT_TRUE(h.ok());
    EXPECT_EQ(h->image(), full->frame(f));
  }
  EXPECT_EQ((*source)->stats().decoded_gops, 9);

  // Contraction: hammering a single GOP gives miss-free windows touching
  // far less than half the grown capacity, so it halves back to base
  // (8 -> 4 -> 2 -> 1) without re-decoding the hot GOP.
  for (int i = 0; i < 6 * 64; ++i) ASSERT_TRUE((*source)->GetFrame(0).ok());
  stats = (*source)->stats();
  EXPECT_EQ(stats.capacity_gops, 1);
  EXPECT_EQ(stats.capacity_shrinks, 3);
  EXPECT_EQ(stats.decoded_gops, 9);
}

TEST(FrameSourceTest, OutOfRangeFrameFails) {
  const codec::CmvFile file = EncodeTestFile(10, 8);
  util::StatusOr<std::unique_ptr<codec::FrameSource>> source =
      codec::FrameSource::Create(&file);
  ASSERT_TRUE(source.ok());
  EXPECT_EQ((*source)->GetFrame(-1).status().code(),
            util::StatusCode::kOutOfRange);
  EXPECT_EQ((*source)->GetFrame(file.frame_count()).status().code(),
            util::StatusCode::kOutOfRange);
}

TEST(FrameSourceTest, CancellationStopsDecodeLoops) {
  const codec::CmvFile file = EncodeTestFile(30, 8);
  util::CancellationToken cancel;
  cancel.Cancel();

  const util::ExecutionContext cancelled_ctx(nullptr, nullptr, &cancel);
  EXPECT_EQ(codec::DecodeVideo(file, cancelled_ctx).status().code(),
            util::StatusCode::kCancelled);
  EXPECT_EQ(codec::DecodeDcImages(file, &cancel).status().code(),
            util::StatusCode::kCancelled);

  codec::FrameSource::Options options;
  options.cancel = &cancel;
  util::StatusOr<std::unique_ptr<codec::FrameSource>> source =
      codec::FrameSource::Create(&file, options);
  ASSERT_TRUE(source.ok());
  EXPECT_EQ((*source)->GetFrame(0).status().code(),
            util::StatusCode::kCancelled);

  util::StatusOr<codec::GopReader> reader = codec::GopReader::Create(&file);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->DecodeGop(0, &cancel).status().code(),
            util::StatusCode::kCancelled);
}

// TSAN-run suite (scripts/tier1.sh): many threads hammer one FrameSource
// with overlapping GOPs under heavy eviction pressure; every frame must
// still come back bit-identical to the full decode.
TEST(FrameSourceTest, ConcurrentAccessIsBitIdentical) {
  const codec::CmvFile file = EncodeTestFile(30, 6);  // 5 GOPs
  util::StatusOr<media::Video> full = codec::DecodeVideo(file);
  ASSERT_TRUE(full.ok());

  codec::FrameSource::Options options;
  options.cache_capacity_gops = 2;  // forces eviction races
  util::StatusOr<std::unique_ptr<codec::FrameSource>> source =
      codec::FrameSource::Create(&file, options);
  ASSERT_TRUE(source.ok());
  codec::FrameSource* src = source->get();

  constexpr int kThreads = 4;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      // Strided so every thread touches every GOP, in different orders.
      for (int pass = 0; pass < 3; ++pass) {
        for (int i = t; i < file.frame_count(); i += kThreads) {
          const int idx = (pass % 2 == 0) ? i : file.frame_count() - 1 - i;
          util::StatusOr<codec::FrameHandle> frame = src->GetFrame(idx);
          if (!frame.ok()) {
            failures.fetch_add(1);
            continue;
          }
          if (!(frame->image() == full->frame(idx))) mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  const codec::FrameSource::Stats stats = (*source)->stats();
  EXPECT_EQ(stats.cache_hits + stats.cache_misses,
            static_cast<int64_t>(3 * file.frame_count()));
  // Re-decodes happen under eviction, but concurrent requesters of one GOP
  // must share a single decode, never duplicate it while inflight.
  EXPECT_GE(stats.decoded_gops, 5);
}

}  // namespace
}  // namespace classminer
