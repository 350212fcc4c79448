#include "index/database.h"

namespace classminer::index {

int VideoEntry::SceneOfShot(int shot_index) const {
  for (const structure::Scene& scene : structure.scenes) {
    const structure::Group& first =
        structure.groups[static_cast<size_t>(scene.start_group)];
    const structure::Group& last =
        structure.groups[static_cast<size_t>(scene.end_group)];
    if (shot_index >= first.start_shot && shot_index <= last.end_shot) {
      return scene.index;
    }
  }
  return -1;
}

events::EventType VideoEntry::EventOfShot(int shot_index) const {
  const int scene = SceneOfShot(shot_index);
  if (scene < 0) return events::EventType::kUndetermined;
  for (const events::EventRecord& rec : events) {
    if (rec.scene_index == scene) return rec.type;
  }
  return events::EventType::kUndetermined;
}

int VideoDatabase::AddVideo(std::string name,
                            structure::ContentStructure structure,
                            std::vector<events::EventRecord> events,
                            bool degraded) {
  VideoEntry entry;
  entry.id = static_cast<int>(videos_.size());
  entry.name = std::move(name);
  entry.structure = std::move(structure);
  entry.events = std::move(events);
  entry.degraded = degraded;
  videos_.push_back(std::move(entry));
  return videos_.back().id;
}

util::Status VideoDatabase::ReplaceVideo(int id, std::string name,
                                         structure::ContentStructure structure,
                                         std::vector<events::EventRecord> events,
                                         bool degraded) {
  if (id < 0 || id >= video_count()) {
    return util::Status::InvalidArgument("no video with id " +
                                         std::to_string(id));
  }
  VideoEntry& entry = videos_[static_cast<size_t>(id)];
  entry.name = std::move(name);
  entry.structure = std::move(structure);
  entry.events = std::move(events);
  entry.degraded = degraded;
  return util::Status::Ok();
}

int VideoDatabase::DegradedCount() const {
  int degraded = 0;
  for (const VideoEntry& v : videos_) {
    if (v.degraded) ++degraded;
  }
  return degraded;
}

size_t VideoDatabase::TotalShotCount() const {
  size_t n = 0;
  for (const VideoEntry& v : videos_) n += v.structure.shots.size();
  return n;
}

std::vector<ShotRef> VideoDatabase::AllShots() const {
  std::vector<ShotRef> out;
  out.reserve(TotalShotCount());
  for (const VideoEntry& v : videos_) {
    for (size_t s = 0; s < v.structure.shots.size(); ++s) {
      out.push_back(ShotRef{v.id, static_cast<int>(s)});
    }
  }
  return out;
}

const features::ShotFeatures& VideoDatabase::Features(
    const ShotRef& ref) const {
  return videos_[static_cast<size_t>(ref.video_id)]
      .structure.shots[static_cast<size_t>(ref.shot_index)]
      .features;
}

}  // namespace classminer::index
