// Video archive workflow: encode a video into the CMV container (the
// database's at-rest format), mine it straight from the compressed file,
// persist the mined database as a shard library, reload it, and export
// representative frames as PPM images — the complete ingest-to-browse loop.
//
//   ./example_video_archive [output_dir]

#include <cstdio>
#include <string>

#include "codec/decoder.h"
#include "core/cmv_pipeline.h"
#include "index/shard.h"
#include "media/ppm.h"
#include "synth/corpus.h"

int main(int argc, char** argv) {
  using namespace classminer;
  const std::string out_dir = argc > 1 ? argv[1] : ".";

  // 1. Acquire + encode: the archive stores compressed bitstreams.
  const synth::GeneratedVideo source =
      synth::GenerateVideo(synth::QuickScript(55));
  codec::EncoderOptions eopts;
  eopts.quality = 8;
  const codec::CmvFile file = core::PackGeneratedVideo(source, eopts);
  const std::string cmv_path = out_dir + "/" + source.video.name() + ".cmv";
  if (!file.SaveToFile(cmv_path).ok()) {
    std::fprintf(stderr, "cannot write %s\n", cmv_path.c_str());
    return 1;
  }
  std::printf("encoded %d frames -> %s (%zu kB video payload)\n",
              file.frame_count(), cmv_path.c_str(),
              file.VideoPayloadBytes() / 1024);

  // 2. Mine directly from the compressed file (DC-image fast path for shot
  //    spans, embedded audio track for the speaker analysis).
  util::StatusOr<codec::CmvFile> loaded = codec::CmvFile::LoadFromFile(cmv_path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  util::StatusOr<core::MiningResult> mined = core::MineCmvFileFast(
      *loaded, core::MiningOptions());
  if (!mined.ok()) {
    std::fprintf(stderr, "mining failed: %s\n",
                 mined.status().ToString().c_str());
    return 1;
  }
  std::printf("mined from compressed file: %zu shots, %d scenes, %zu "
              "events\n",
              mined->structure.shots.size(),
              mined->structure.ActiveSceneCount(), mined->events.size());

  // 3. Persist the mined database (a 1-shard library on a fresh path) and
  // reload it.
  index::VideoDatabase db;
  db.AddVideo(source.video.name(), mined->structure, mined->events);
  const std::string db_path = out_dir + "/archive.cmdb";
  if (!index::SaveDatabase(db, db_path).ok()) {
    std::fprintf(stderr, "cannot write %s\n", db_path.c_str());
    return 1;
  }
  util::StatusOr<index::VideoDatabase> reloaded =
      index::LoadDatabase(db_path);
  if (!reloaded.ok()) {
    std::fprintf(stderr, "reload failed: %s\n",
                 reloaded.status().ToString().c_str());
    return 1;
  }
  std::printf("database round-trip: %d videos, %zu shots -> %s\n",
              reloaded->video_count(), reloaded->TotalShotCount(),
              db_path.c_str());

  // 4. Export each scene's representative frame for human browsing.
  util::StatusOr<media::Video> decoded = codec::DecodeVideo(*loaded);
  if (!decoded.ok()) return 1;
  int exported = 0;
  for (const structure::Scene& scene : mined->structure.scenes) {
    if (scene.eliminated || scene.rep_group < 0) continue;
    const structure::Group& group =
        mined->structure.groups[static_cast<size_t>(scene.rep_group)];
    if (group.rep_shots.empty()) continue;
    const shot::Shot& rep =
        mined->structure.shots[static_cast<size_t>(group.rep_shots[0])];
    char name[128];
    std::snprintf(name, sizeof(name), "%s/scene_%02d_rep.ppm",
                  out_dir.c_str(), scene.index);
    if (media::WritePpm(decoded->frame(rep.rep_frame), name).ok()) {
      ++exported;
    }
  }
  std::printf("exported %d representative frames as PPM\n", exported);
  return 0;
}
