#ifndef CLASSMINER_INDEX_SHARD_H_
#define CLASSMINER_INDEX_SHARD_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "index/database.h"
#include "util/salvage.h"
#include "util/status.h"

namespace classminer::index {

// ---------------------------------------------------------------------------
// The library: a sharded append-log database, the one on-disk format the
// code writes.
//
// Entries are hash-partitioned across N shard logs (the paper's leaf
// hash-table indexing, Fig. 2), so an upsert appends O(entry) to exactly
// one log instead of rewriting the library. N is fixed when the library is
// written; `classminer index` defaults to N = 1.
//
// On disk:
//   <path>              shard manifest "CMSM": version u32, shard count u32,
//                       epoch u64, per-shard {generation u64, live u64,
//                       tombstones u64}, CRC-32 u32 over the preceding
//                       bytes. Written via util::AtomicWriteFile; live and
//                       tombstone counts are advisory (appends do not
//                       rewrite the manifest).
//   <path>.shard<k>     append-only log: header "CMSL" (version u32, shard
//                       index u32, shard count u32, generation u64)
//                       followed by self-delimiting CRC'd records — an
//                       upsert is exactly a "CMVE" entry frame (see
//                       index/persist.h); a delete is a "CMVT" tombstone
//                       frame whose body is the entry name. Later records
//                       supersede earlier ones.
//   <path>.shard<k>.prev  the previous generation of that shard, rotated
//                       aside when a new generation is written.
//
// Replay: a shard's live state is the last record per name, tombstones
// erasing. Superseded records + tombstones are "dead" bytes; compaction
// folds a log into a pristine next generation (one CMVE frame per live
// entry) with the crash ordering: stage tmp → fsync → rotate current to
// .prev → rename tmp into place → rewrite the manifest. A crash at any
// point (fail-point sites "index.shard.compact.{write,fsync,rename,
// manifest}", then "serial.atomic_write.*" inside the manifest write)
// leaves either the old generation (directly or via .prev fallback) or the
// new one — the manifest is refreshed last, so at worst it is stale, which
// verify reports as advisory staleness naming the shard. A full save
// (SaveDatabase) writes every shard this way, so a 1-shard library is
// replaced whole: old or new, never torn.
//
// Appends run under "index.shard.append.{write,fsync}": a frame is written
// and fsync'ed in one shot; on failure the log is truncated back to the
// pre-append size (and a crash that prevents the rollback leaves a torn
// tail that the next open resynchronises away with the CRC-confirmed-frame
// scan). "index.shard.open" injects an unreadable current generation at
// open time, forcing the per-shard fallback.
//
// Opens parse shards in parallel and degrade per shard: strict current →
// strict previous → salvage current → salvage previous → (both dead) an
// empty shard flagged lost. One corrupt shard never takes down the library.
//
// This is the only library format the code reads: every entry point
// refuses a root in any other format with a non-OK status and leaves it
// untouched.
// ---------------------------------------------------------------------------

// Derived per-shard file names: "<path>.shard<k>" and its ".prev".
std::string ShardPath(const std::string& path, int shard);
std::string ShardBackupPath(const std::string& path, int shard);

// Which shard owns `name`: CRC-32(name) mod shard_count (stable across
// platforms; the CRC kernel is bit-identical at every dispatch level).
int ShardOfName(const std::string& name, int shard_count);

// The root "CMSM" manifest.
struct ShardManifest {
  struct Shard {
    uint64_t generation = 0;
    uint64_t live = 0;        // advisory live-entry count at last rewrite
    uint64_t tombstones = 0;  // advisory tombstone-record count
  };
  uint32_t shard_count = 0;
  uint64_t epoch = 0;  // bumped on every manifest rewrite
  std::vector<Shard> shards;
};

std::vector<uint8_t> SerializeShardManifest(const ShardManifest& manifest);
util::StatusOr<ShardManifest> ParseShardManifest(
    const std::vector<uint8_t>& bytes);

class ShardedDatabase {
 public:
  struct Options {
    int shard_count = 8;       // used by Create
    bool sync_appends = true;  // fsync the shard log after every append
  };

  // How one shard's open was satisfied.
  struct ShardStatus {
    bool used_backup = false;  // loaded from the .prev generation
    bool salvaged = false;     // needed the CRC-confirmed-frame resync
    bool lost = false;         // no generation loadable; opened empty
    uint64_t generation = 0;   // generation of the log that loaded
  };
  struct OpenReport {
    std::vector<ShardStatus> shards;
    bool any_backup() const;
    bool any_salvaged() const;
    bool any_lost() const;
  };

  struct CompactionReport {
    int shard = -1;
    bool skipped = false;       // nothing dead; log left untouched
    uint64_t generation = 0;    // generation written (current when skipped)
    uint64_t live = 0;          // entries in the (new) generation
    uint64_t dead_dropped = 0;  // superseded + tombstone records folded away
    std::string ToString() const;
  };

  // Creates a fresh sharded database: N empty generation-1 shard logs, then
  // the manifest. Refuses to overwrite an existing file at `path`.
  static util::StatusOr<std::unique_ptr<ShardedDatabase>> Create(
      const std::string& path, const Options& options);

  // Opens an existing sharded database, parsing shards in parallel with
  // per-shard fallback (see file comment). Fallbacks and salvage decisions
  // land in `report`; per-shard outcomes in `open_report` (both optional).
  // Read-write opens (`read_only == false`) truncate torn shard tails back
  // to the last checksum-confirmed frame so subsequent appends extend a
  // structurally clean log; read-only opens never modify any file. A shard
  // that loaded from backup or needed a mid-log resync is rewritten as a
  // pristine next generation before its first append (self-healing).
  static util::StatusOr<std::unique_ptr<ShardedDatabase>> Open(
      const std::string& path, util::SalvageReport* report = nullptr,
      OpenReport* open_report = nullptr, bool read_only = false);

  int shard_count() const { return shard_count_; }
  uint64_t epoch() const;
  const std::string& path() const { return path_; }
  int live_count() const;        // live entries across all shards
  uint64_t dead_records() const; // superseded + tombstone records across logs

  // Inserts or replaces the entry, appending one CMVE frame (O(entry)) to
  // the owning shard log with write+fsync discipline. Thread-safe;
  // concurrent upserts to different shards do not contend.
  util::Status Upsert(std::string name, structure::ContentStructure structure,
                      std::vector<events::EventRecord> events, bool degraded);

  // Deletes the entry by appending a CMVT tombstone. kNotFound when absent.
  util::Status Remove(const std::string& name);

  bool Contains(const std::string& name) const;

  // Merged point-in-time view, shard-major in per-shard insertion order
  // (deterministic for a given append history).
  VideoDatabase Snapshot() const;

  // Folds shard `shard`'s log into a pristine next generation (one frame
  // per live entry), then rewrites the manifest. Interlocked with
  // concurrent appends via the per-shard lock; skipped when the log has no
  // dead records (unless `force`).
  util::StatusOr<CompactionReport> CompactShard(int shard, bool force = false);
  // Compacts every shard that has dead records.
  util::StatusOr<std::vector<CompactionReport>> CompactAll(bool force = false);

  ~ShardedDatabase();
  ShardedDatabase(const ShardedDatabase&) = delete;
  ShardedDatabase& operator=(const ShardedDatabase&) = delete;

 private:
  struct ShardState;
  ShardedDatabase(std::string path, int shard_count, bool sync_appends);

  util::Status SelfHealLocked(ShardState& s, int shard);
  util::Status RewriteManifest();

  std::string path_;
  int shard_count_ = 0;
  bool sync_appends_ = true;
  std::vector<std::unique_ptr<ShardState>> shards_;
  std::unique_ptr<std::mutex> manifest_mu_;
  std::unique_ptr<std::atomic<uint64_t>> epoch_;
};

// Full rewrite of the library at `path` from `db`: every shard advances
// one generation through the staged compaction path, then the manifest is
// rewritten last. `shard_count` must be in [1, 4096]; the two-argument form
// keeps the existing library's shard count (1 for a path that holds no
// library). Used by `classminer index`, repair promotion and Create.
util::Status SaveDatabase(const VideoDatabase& db, const std::string& path,
                          int shard_count);
util::Status SaveDatabase(const VideoDatabase& db, const std::string& path);

// Strict load: the manifest and every shard log must parse cleanly
// (generation staleness stays advisory). Parses shards in parallel.
util::StatusOr<VideoDatabase> LoadDatabase(const std::string& path);

// Open-compact-close convenience for the scrubber, server ops and the CLI:
// compacts shard `shard` (-1 = every shard with dead records). Returns the
// per-shard reports, skipped shards included.
util::StatusOr<std::vector<ShardedDatabase::CompactionReport>>
CompactDatabaseFile(const std::string& path, int shard = -1,
                    bool force = false);

// Integrity audit of one library.
struct VerifyReport {
  bool loadable = false;          // manifest and every shard parse strictly
  int videos = 0;
  int degraded_videos = 0;        // entries still flagged degraded
  int shards = 0;                 // shard count, once the manifest parses
  bool manifest_matches = false;  // every shard's generation is recorded
  uint64_t generation = 0;        // manifest epoch
  // When the manifest is stale, names each shard whose log generation
  // disagrees with it — so "manifest=stale" is actionable, not just
  // clean()==false.
  std::string stale_detail;
  std::string error;              // first integrity failure, empty if none

  // True when the library is pristine: strictly loadable, no degraded
  // entries, and the manifest describes exactly the logs on disk.
  bool clean() const {
    return loadable && degraded_videos == 0 && manifest_matches;
  }
  std::string ToString() const;
};

// Strict per-shard parse (aggregate live/degraded counts) plus generation
// staleness. Never modifies any file.
VerifyReport VerifyDatabaseFile(const std::string& path);

}  // namespace classminer::index

#endif  // CLASSMINER_INDEX_SHARD_H_
