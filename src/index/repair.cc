#include "index/repair.h"

#include <memory>
#include <utility>

#include "index/shard.h"

namespace classminer::index {

std::string RepairReport::ToString() const {
  std::string s = "examined=" + std::to_string(examined) +
                  " degraded=" + std::to_string(degraded) +
                  " repaired=" + std::to_string(repaired) +
                  " failed=" + std::to_string(failed);
  if (rewritten) s += " rewritten";
  return s;
}

RepairReport RepairDatabase(VideoDatabase* db, const RemineFn& remine) {
  RepairReport report;
  for (int id = 0; id < db->video_count(); ++id) {
    ++report.examined;
    const VideoEntry& entry = db->video(id);
    if (!entry.degraded) continue;
    ++report.degraded;
    const std::string name = entry.name;
    if (!remine) {
      ++report.failed;
      report.notes.push_back(name + ": no re-mine source available");
      continue;
    }
    util::StatusOr<ReminedEntry> fresh = remine(name);
    if (!fresh.ok()) {
      ++report.failed;
      report.notes.push_back(name + ": " + fresh.status().message());
      continue;
    }
    (void)db->ReplaceVideo(id, name, std::move(fresh->structure),
                           std::move(fresh->events), /*degraded=*/false);
    ++report.repaired;
    report.notes.push_back(name + ": repaired");
  }
  return report;
}

util::StatusOr<RepairReport> RepairDatabaseFile(const std::string& path,
                                                const RemineFn& remine,
                                                util::SalvageReport* salvage) {
  util::SalvageReport local;
  if (salvage == nullptr) salvage = &local;
  // A read-write open truncates torn shard tails back to the last
  // confirmed frame; each shard falls back or salvages on its own.
  ShardedDatabase::OpenReport shards;
  util::StatusOr<std::unique_ptr<ShardedDatabase>> opened =
      ShardedDatabase::Open(path, salvage, &shards);
  if (!opened.ok()) return opened.status();
  VideoDatabase db = (*opened)->Snapshot();
  opened->reset();

  RepairReport report = RepairDatabase(&db, remine);
  // Rewrite when an entry was healed, and also when the open itself had to
  // recover (a backup generation, a salvaged or a lost shard): saving then
  // promotes the recovered state to a pristine library.
  if (report.repaired > 0 || shards.any_backup() || shards.any_salvaged() ||
      shards.any_lost()) {
    CLASSMINER_RETURN_IF_ERROR(SaveDatabase(db, path));
    report.rewritten = true;
  }
  return report;
}

}  // namespace classminer::index
