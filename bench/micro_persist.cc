// Micro-benchmarks for the checksummed persistence layer: CRC-32
// throughput, CMV container serialise/parse, and the sharded append-log
// upsert against a full rewrite of a 1-shard library.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "codec/container.h"
#include "codec/encoder.h"
#include "index/database.h"
#include "index/shard.h"
#include "media/draw.h"
#include "media/image.h"
#include "media/video.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace classminer {
namespace {

codec::CmvFile BenchContainer() {
  util::Rng rng(71);
  media::Video video("bench", 12.0);
  media::Image base(96, 72);
  media::FillGradient(&base, media::Rgb{60, 90, 140}, media::Rgb{20, 30, 50});
  for (int i = 0; i < 24; ++i) {
    media::Image f = media::Translated(base, i, i / 2);
    media::AddNoise(&f, 3, &rng);
    video.AppendFrame(std::move(f));
  }
  return codec::EncodeVideo(video, codec::EncoderOptions());
}

void BM_Crc32(benchmark::State& state) {
  util::Rng rng(5);
  std::vector<uint8_t> bytes(static_cast<size_t>(state.range(0)));
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng.UniformInt(0, 255));
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::Crc32(bytes.data(), bytes.size()));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

// CMV container round trip: every frame record carries its CRC-32.
void BM_CmvSerialize(benchmark::State& state) {
  const codec::CmvFile file = BenchContainer();
  size_t bytes = 0;
  for (auto _ : state) {
    const std::vector<uint8_t> out = file.Serialize();
    benchmark::DoNotOptimize(out.data());
    bytes = out.size();
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(bytes));
}
BENCHMARK(BM_CmvSerialize)->Unit(benchmark::kMicrosecond);

void BM_CmvParse(benchmark::State& state) {
  const std::vector<uint8_t> bytes = BenchContainer().Serialize();
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec::CmvFile::Parse(bytes));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(bytes.size()));
}
BENCHMARK(BM_CmvParse)->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// Sharded append-log tier: the headline scaling claim. Updating an entry by
// a full save rewrites the whole library (O(library)); an upsert appends
// one framed entry to one shard log and fsyncs it (O(entry)). The arg is
// the number of entries already in the library — the per-upsert cost must
// stay flat from 1k to 100k while the full rewrite grows linearly.

index::VideoDatabase TinyDatabase(int videos) {
  index::VideoDatabase db;
  for (int v = 0; v < videos; ++v) {
    structure::ContentStructure cs;
    shot::Shot s;
    s.index = 0;
    s.start_frame = 0;
    s.end_frame = 29;
    s.rep_frame = 9;
    cs.shots.push_back(s);
    db.AddVideo("bench" + std::to_string(v), std::move(cs), {});
  }
  return db;
}

void RemoveShardedFiles(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
  for (int k = 0; k < 8; ++k) {
    const std::string log = index::ShardPath(path, k);
    std::remove(log.c_str());
    std::remove(index::ShardBackupPath(path, k).c_str());
    std::remove((log + ".tmp").c_str());
  }
}

void BM_ShardedUpsert(benchmark::State& state) {
  const int videos = static_cast<int>(state.range(0));
  const std::string path = "bench_sharded.cmdb";
  RemoveShardedFiles(path);
  if (!index::SaveDatabase(TinyDatabase(videos), path, 8).ok()) {
    state.SkipWithError("sharded save failed");
    return;
  }
  util::StatusOr<std::unique_ptr<index::ShardedDatabase>> db =
      index::ShardedDatabase::Open(path);
  if (!db.ok()) {
    state.SkipWithError("sharded open failed");
    return;
  }
  const index::VideoDatabase one = TinyDatabase(1);
  for (auto _ : state) {
    // Re-upserting an existing name is the steady-state update: one framed
    // append + fsync, regardless of how many entries the library holds.
    const util::Status st = (*db)->Upsert(
        one.video(0).name, one.video(0).structure, one.video(0).events,
        /*degraded=*/false);
    if (!st.ok()) {
      state.SkipWithError("upsert failed");
      break;
    }
  }
  state.SetItemsProcessed(state.iterations());
  db->reset();
  RemoveShardedFiles(path);
}
BENCHMARK(BM_ShardedUpsert)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

void BM_OneShardFullRewrite(benchmark::State& state) {
  const int videos = static_cast<int>(state.range(0));
  const std::string path = "bench_full_rewrite.cmdb";
  RemoveShardedFiles(path);
  const index::VideoDatabase db = TinyDatabase(videos);
  for (auto _ : state) {
    // Updating an entry by a full save re-serialises every entry into a new
    // shard generation (tmp, fsync, rotate, rename, manifest).
    const util::Status st = index::SaveDatabase(db, path, 1);
    if (!st.ok()) {
      state.SkipWithError("save failed");
      break;
    }
  }
  state.SetItemsProcessed(state.iterations());
  RemoveShardedFiles(path);
}
BENCHMARK(BM_OneShardFullRewrite)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace classminer

BENCHMARK_MAIN();
