#ifndef CLASSMINER_UTIL_SALVAGE_H_
#define CLASSMINER_UTIL_SALVAGE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace classminer::util {

// What a best-effort parse or decode managed to rescue from damaged input.
// Filled by CmvFile::ParseBestEffort, the salvage DC decode, the fast
// path's planned decode and the shard-log open; merged onto MiningResult
// so callers (CLI, batch ingest) can report exactly what was lost. Lives in
// util so codec, index and core can all speak it without layering knots.
struct SalvageReport {
  // True when the producer had to drop, rebuild or substitute anything —
  // the input was not pristine. The owning result should be flagged
  // degraded whenever this is set.
  bool salvaged = false;

  uint64_t bytes_dropped = 0;  // trailing/corrupt bytes discarded
  int items_recovered = 0;     // container frames / library entries kept
  int items_dropped = 0;       // structurally unrecoverable items
  int gops_recovered = 0;      // complete GOPs usable after salvage
  int gops_skipped = 0;        // GOPs dropped or substituted as corrupt
  // Tears the parser scanned past to a checksum-confirmed sync point (an
  // I-frame record or a video-entry frame), recovering the suffix behind
  // the damage instead of only the prefix in front of it.
  int resync_points = 0;
  bool audio_dropped = false;  // audio track lost to corruption
  bool index_rebuilt = false;  // stored seek index unusable, re-derived

  // Human-readable breadcrumbs ("frames: truncated record at offset 123"),
  // one per salvage decision, for logs and the CLI report.
  std::vector<std::string> notes;

  // Folds another report (e.g. a later pipeline layer's) into this one.
  void Merge(const SalvageReport& other);

  void AddNote(std::string note);

  // One-line summary, "" when nothing was salvaged.
  std::string ToString() const;
};

}  // namespace classminer::util

#endif  // CLASSMINER_UTIL_SALVAGE_H_
