#ifndef CLASSMINER_INDEX_REPAIR_H_
#define CLASSMINER_INDEX_REPAIR_H_

#include <functional>
#include <string>
#include <vector>

#include "index/database.h"
#include "util/salvage.h"
#include "util/status.h"

namespace classminer::index {

// A pristine replacement for one database entry, produced by re-mining the
// entry's source container.
struct ReminedEntry {
  structure::ContentStructure structure;
  std::vector<events::EventRecord> events;
};

// Re-mines one entry (addressed by name) from its pristine source.
// Implementations live above this layer — core owns the mining pipeline
// and depends on index, not the other way round; see core::MakeCmvRemineFn.
// Must fail rather than degrade when the source is damaged: repair never
// swaps one degraded entry for another.
using RemineFn =
    std::function<util::StatusOr<ReminedEntry>(const std::string& name)>;

struct RepairReport {
  int examined = 0;        // entries inspected
  int degraded = 0;        // entries that needed repair
  int repaired = 0;        // degraded entries replaced by pristine re-mines
  int failed = 0;          // re-mine failed; entry left degraded in place
  bool rewritten = false;  // a fresh generation was saved (file-level pass)
  std::vector<std::string> notes;  // one line per entry touched

  std::string ToString() const;
};

// In-memory repair pass: every entry still flagged degraded is re-mined
// through `remine` and replaced in place (id preserved, flag cleared).
// Entries whose re-mine fails stay degraded and are itemised in the
// report's notes; healthy entries are untouched.
RepairReport RepairDatabase(VideoDatabase* db, const RemineFn& remine);

// File-level repair: opens the library at `path` read-write
// (ShardedDatabase::Open, with its per-shard fallback and salvage), runs
// the in-memory pass, and saves a fresh generation when anything changed —
// an entry repaired, or a shard that loaded from its backup, needed a
// salvage parse or was lost (rewriting then restores a pristine library).
// A path that holds no library is refused untouched. Fallback and salvage
// details land in *salvage (nullptr to discard).
util::StatusOr<RepairReport> RepairDatabaseFile(const std::string& path,
                                                const RemineFn& remine,
                                                util::SalvageReport* salvage);

}  // namespace classminer::index

#endif  // CLASSMINER_INDEX_REPAIR_H_
