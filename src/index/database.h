#ifndef CLASSMINER_INDEX_DATABASE_H_
#define CLASSMINER_INDEX_DATABASE_H_

#include <string>
#include <vector>

#include "events/event_miner.h"
#include "structure/types.h"
#include "util/status.h"

namespace classminer::index {

// Identifies one shot in the database.
struct ShotRef {
  int video_id = -1;
  int shot_index = -1;

  friend bool operator==(const ShotRef&, const ShotRef&) = default;
};

// One ingested video: its mined structure and events. Raw media stays in
// codec containers on disk; the database holds features and structure only.
struct VideoEntry {
  int id = -1;
  std::string name;
  structure::ContentStructure structure;
  std::vector<events::EventRecord> events;  // per active scene
  // True when the entry came from a degraded mining run (optional stages
  // lost, or the source container needed salvage). The structure is still
  // queryable; event/cue-derived answers may be incomplete. Persisted as
  // the last byte of the entry body.
  bool degraded = false;

  // Event type of the (active) scene owning a shot; kUndetermined when the
  // shot belongs to an eliminated scene.
  events::EventType EventOfShot(int shot_index) const;
  // Index of the scene (in structure.scenes) containing the shot; -1 if none.
  int SceneOfShot(int shot_index) const;
};

// The video database: a collection of mined videos addressable by shot.
class VideoDatabase {
 public:
  // Adds a mined video; returns its id. `degraded` marks an entry mined
  // from a damaged source or with optional stages lost.
  int AddVideo(std::string name, structure::ContentStructure structure,
               std::vector<events::EventRecord> events,
               bool degraded = false);

  // Replaces an existing entry in place (the id is preserved). The repair
  // pass uses this to swap a degraded entry for a freshly re-mined one.
  util::Status ReplaceVideo(int id, std::string name,
                            structure::ContentStructure structure,
                            std::vector<events::EventRecord> events,
                            bool degraded = false);

  int video_count() const { return static_cast<int>(videos_.size()); }
  // Entries flagged degraded.
  int DegradedCount() const;
  const VideoEntry& video(int id) const {
    return videos_[static_cast<size_t>(id)];
  }

  size_t TotalShotCount() const;

  // All shot refs in insertion order.
  std::vector<ShotRef> AllShots() const;

  const features::ShotFeatures& Features(const ShotRef& ref) const;

 private:
  std::vector<VideoEntry> videos_;
};

}  // namespace classminer::index

#endif  // CLASSMINER_INDEX_DATABASE_H_
