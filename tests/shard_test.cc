// The sharded append-log database tier: hash-partitioned shard logs with
// O(entry) upserts, per-shard fallback and salvage on open, and crash-safe
// compaction. The crash matrix arms every new fail-point site
// ("index.shard.append.{write,fsync}", "index.shard.compact.{write,fsync,
// rename,manifest}", "index.shard.open") and requires that a reopen after
// any injected crash yields a consistent pre- or post-operation state —
// never a torn library.

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "index/database.h"
#include "index/persist.h"
#include "index/repair.h"
#include "index/shard.h"
#include "util/failpoint.h"
#include "util/salvage.h"
#include "util/serial.h"
#include "util/status.h"

namespace classminer {
namespace {

using index::ShardedDatabase;
using util::FailPoint;
using util::StatusCode;

class ShardTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FailPoint::DisarmAll();
    dir_ = ::testing::TempDir();
  }
  void TearDown() override { FailPoint::DisarmAll(); }

  // A unique sharded-database path per test, with every shard file from
  // earlier runs cleared.
  std::string FreshDbPath(const std::string& stem) {
    const std::string path = dir_ + "/" + stem + ".cmdb";
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
    for (int k = 0; k < 32; ++k) {
      std::remove(index::ShardPath(path, k).c_str());
      std::remove(index::ShardBackupPath(path, k).c_str());
      std::remove((index::ShardPath(path, k) + ".tmp").c_str());
    }
    return path;
  }

  std::string dir_;
};

// One single-shot entry, the same shape the recovery tests use.
index::VideoEntry MakeEntry(const std::string& name, bool degraded = false) {
  index::VideoEntry entry;
  entry.name = name;
  shot::Shot s;
  s.index = 0;
  s.end_frame = 29;
  s.rep_frame = 9;
  entry.structure.shots.push_back(s);
  entry.degraded = degraded;
  return entry;
}

util::Status UpsertEntry(ShardedDatabase& db, const std::string& name,
                         bool degraded = false) {
  index::VideoEntry entry = MakeEntry(name, degraded);
  return db.Upsert(entry.name, std::move(entry.structure),
                   std::move(entry.events), entry.degraded);
}

std::set<std::string> Names(const index::VideoDatabase& db) {
  std::set<std::string> names;
  for (int i = 0; i < db.video_count(); ++i) names.insert(db.video(i).name);
  return names;
}

// A name that ShardOfName maps to `shard` (videoN series).
std::string NameInShard(int shard, int shard_count, int skip = 0) {
  for (int i = 0;; ++i) {
    const std::string name = "video" + std::to_string(i);
    if (index::ShardOfName(name, shard_count) == shard && skip-- == 0) {
      return name;
    }
  }
}

const char* const kAppendSites[] = {"index.shard.append.write",
                                    "index.shard.append.fsync"};
const char* const kCompactSites[] = {
    "index.shard.compact.write", "index.shard.compact.fsync",
    "index.shard.compact.rename", "index.shard.compact.manifest"};

// ---------------------------------------------------------------------------
// Round trips.

TEST_F(ShardTest, CreateUpsertReopenRoundTrips) {
  const std::string path = FreshDbPath("roundtrip");
  ShardedDatabase::Options options;
  options.shard_count = 4;
  util::StatusOr<std::unique_ptr<ShardedDatabase>> created =
      ShardedDatabase::Create(path, options);
  ASSERT_TRUE(created.ok()) << created.status().message();
  ASSERT_EQ((*created)->shard_count(), 4);

  std::set<std::string> expected;
  for (int i = 0; i < 12; ++i) {
    const std::string name = "video" + std::to_string(i);
    ASSERT_TRUE(UpsertEntry(**created, name).ok());
    expected.insert(name);
  }
  EXPECT_EQ((*created)->live_count(), 12);
  EXPECT_EQ(Names((*created)->Snapshot()), expected);

  // Reopen from disk: same content, no fallback, no salvage.
  util::SalvageReport report;
  ShardedDatabase::OpenReport open_report;
  util::StatusOr<std::unique_ptr<ShardedDatabase>> reopened =
      ShardedDatabase::Open(path, &report, &open_report);
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  EXPECT_EQ(Names((*reopened)->Snapshot()), expected);
  EXPECT_FALSE(open_report.any_backup());
  EXPECT_FALSE(open_report.any_salvaged());
  EXPECT_FALSE(open_report.any_lost());

  // The file-level entry points read the same library.
  const util::StatusOr<index::VideoDatabase> loaded =
      index::LoadDatabase(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(Names(*loaded), expected);
  const index::VerifyReport verify = index::VerifyDatabaseFile(path);
  EXPECT_TRUE(verify.clean()) << verify.ToString();
  EXPECT_EQ(verify.shards, 4);
  EXPECT_EQ(verify.shards, 4);
  EXPECT_EQ(verify.videos, 12);
}

TEST_F(ShardTest, UpsertReplacesAndTombstoneRemoves) {
  const std::string path = FreshDbPath("tombstone");
  ShardedDatabase::Options options;
  options.shard_count = 2;
  util::StatusOr<std::unique_ptr<ShardedDatabase>> db =
      ShardedDatabase::Create(path, options);
  ASSERT_TRUE(db.ok());

  ASSERT_TRUE(UpsertEntry(**db, "alpha").ok());
  ASSERT_TRUE(UpsertEntry(**db, "beta").ok());
  // Replacing appends a superseding record; the old one becomes dead.
  ASSERT_TRUE(UpsertEntry(**db, "alpha", /*degraded=*/true).ok());
  EXPECT_EQ((*db)->live_count(), 2);
  EXPECT_EQ((*db)->dead_records(), 1u);

  ASSERT_TRUE((*db)->Remove("beta").ok());
  EXPECT_FALSE((*db)->Contains("beta"));
  EXPECT_EQ((*db)->live_count(), 1);
  // The tombstone and the record it erased are both dead now.
  EXPECT_EQ((*db)->dead_records(), 3u);
  EXPECT_EQ((*db)->Remove("beta").code(), StatusCode::kNotFound);

  // Replay on reopen applies the same supersede/erase order.
  util::StatusOr<std::unique_ptr<ShardedDatabase>> reopened =
      ShardedDatabase::Open(path);
  ASSERT_TRUE(reopened.ok());
  const index::VideoDatabase snap = (*reopened)->Snapshot();
  ASSERT_EQ(snap.video_count(), 1);
  EXPECT_EQ(snap.video(0).name, "alpha");
  EXPECT_TRUE(snap.video(0).degraded);
  EXPECT_EQ((*reopened)->dead_records(), 3u);
}

TEST_F(ShardTest, ShardOfNameIsStableAndSpreadsEntries) {
  std::set<int> used;
  for (int i = 0; i < 1000; ++i) {
    const std::string name = "video" + std::to_string(i);
    const int shard = index::ShardOfName(name, 8);
    ASSERT_GE(shard, 0);
    ASSERT_LT(shard, 8);
    ASSERT_EQ(shard, index::ShardOfName(name, 8));  // deterministic
    used.insert(shard);
  }
  // 1000 names over 8 shards must touch every shard.
  EXPECT_EQ(used.size(), 8u);
}

// ---------------------------------------------------------------------------
// Torn tails and per-shard degradation.

TEST_F(ShardTest, TornTailIsResyncedAndTruncatedOnOpen) {
  const std::string path = FreshDbPath("torn_tail");
  ShardedDatabase::Options options;
  options.shard_count = 2;
  util::StatusOr<std::unique_ptr<ShardedDatabase>> db =
      ShardedDatabase::Create(path, options);
  ASSERT_TRUE(db.ok());
  const std::string victim = NameInShard(0, 2);
  const std::string other = NameInShard(1, 2);
  ASSERT_TRUE(UpsertEntry(**db, victim).ok());
  ASSERT_TRUE(UpsertEntry(**db, other).ok());
  db->reset();

  // A crash mid-append leaves a torn frame at the tail of one shard log.
  const std::string log = index::ShardPath(path, 0);
  std::vector<uint8_t> bytes = *util::ReadFile(log);
  const size_t intact = bytes.size();
  for (int i = 0; i < 37; ++i) bytes.push_back(0xAD);
  ASSERT_TRUE(util::WriteFile(log, bytes).ok());

  util::SalvageReport report;
  ShardedDatabase::OpenReport open_report;
  util::StatusOr<std::unique_ptr<ShardedDatabase>> reopened =
      ShardedDatabase::Open(path, &report, &open_report);
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  EXPECT_TRUE(open_report.shards[0].salvaged);
  EXPECT_FALSE(open_report.shards[1].salvaged);
  EXPECT_GT(report.bytes_dropped, 0u);
  EXPECT_EQ(Names((*reopened)->Snapshot()),
            (std::set<std::string>{victim, other}));

  // The read-write open truncated the torn tail back to the last confirmed
  // frame, so the log is strictly clean again.
  EXPECT_EQ(util::ReadFile(log)->size(), intact);
  const index::VerifyReport verify = index::VerifyDatabaseFile(path);
  EXPECT_TRUE(verify.clean()) << verify.ToString();
}

TEST_F(ShardTest, CorruptShardFallsBackAloneAndVerifyNamesItsGeneration) {
  const std::string path = FreshDbPath("mixed_gen");
  ShardedDatabase::Options options;
  options.shard_count = 3;
  util::StatusOr<std::unique_ptr<ShardedDatabase>> db =
      ShardedDatabase::Create(path, options);
  ASSERT_TRUE(db.ok());
  std::set<std::string> all;
  for (int i = 0; i < 9; ++i) {
    const std::string name = "video" + std::to_string(i);
    ASSERT_TRUE(UpsertEntry(**db, name).ok());
    all.insert(name);
  }
  // Compact shard 1 so it owns a .prev generation, then append one more
  // entry to its new current generation.
  util::StatusOr<ShardedDatabase::CompactionReport> compacted =
      (*db)->CompactShard(1, /*force=*/true);
  ASSERT_TRUE(compacted.ok()) << compacted.status().message();
  const std::string extra = NameInShard(1, 3, /*skip=*/9);
  ASSERT_TRUE(UpsertEntry(**db, extra).ok());
  db->reset();

  // Destroy shard 1's current generation: the library must open with shard
  // 1 served from .prev (losing only `extra`) and every other shard intact.
  ASSERT_EQ(std::remove(index::ShardPath(path, 1).c_str()), 0);
  util::SalvageReport report;
  ShardedDatabase::OpenReport shards;
  util::StatusOr<std::unique_ptr<ShardedDatabase>> opened =
      ShardedDatabase::Open(path, &report, &shards);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  EXPECT_TRUE(shards.any_backup());
  EXPECT_EQ(Names((*opened)->Snapshot()), all);
  opened->reset();

  // Verify pinpoints the damaged shard by name; the other shards do not
  // drag the whole file into "unloadable".
  const index::VerifyReport verify = index::VerifyDatabaseFile(path);
  EXPECT_FALSE(verify.clean());
  EXPECT_NE(verify.error.find("shard 1"), std::string::npos)
      << verify.ToString();
}

TEST_F(ShardTest, LostShardDegradesTheLibraryInsteadOfKillingIt) {
  const std::string path = FreshDbPath("lost_shard");
  ShardedDatabase::Options options;
  options.shard_count = 2;
  util::StatusOr<std::unique_ptr<ShardedDatabase>> db =
      ShardedDatabase::Create(path, options);
  ASSERT_TRUE(db.ok());
  const std::string doomed = NameInShard(0, 2);
  const std::string survivor = NameInShard(1, 2);
  ASSERT_TRUE(UpsertEntry(**db, doomed).ok());
  ASSERT_TRUE(UpsertEntry(**db, survivor).ok());
  db->reset();

  // No .prev generation exists yet, so deleting the current log loses the
  // shard outright — the open degrades instead of failing.
  ASSERT_EQ(std::remove(index::ShardPath(path, 0).c_str()), 0);
  util::SalvageReport report;
  ShardedDatabase::OpenReport open_report;
  util::StatusOr<std::unique_ptr<ShardedDatabase>> reopened =
      ShardedDatabase::Open(path, &report, &open_report);
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  EXPECT_TRUE(open_report.shards[0].lost);
  EXPECT_TRUE(report.salvaged);
  EXPECT_EQ(Names((*reopened)->Snapshot()),
            (std::set<std::string>{survivor}));

  // The first write into the lost shard rebuilds its log; the library is
  // pristine again afterwards.
  ASSERT_TRUE(UpsertEntry(**reopened, doomed).ok());
  reopened->reset();
  const index::VerifyReport verify = index::VerifyDatabaseFile(path);
  EXPECT_TRUE(verify.clean()) << verify.ToString();
  EXPECT_EQ(verify.videos, 2);
}

TEST_F(ShardTest, ManifestIsReconstructedFromShardHeaders) {
  const std::string path = FreshDbPath("manifest_rebuild");
  ShardedDatabase::Options options;
  options.shard_count = 3;
  util::StatusOr<std::unique_ptr<ShardedDatabase>> db =
      ShardedDatabase::Create(path, options);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(UpsertEntry(**db, "video0").ok());
  db->reset();

  ASSERT_EQ(std::remove(path.c_str()), 0);
  util::SalvageReport report;
  util::StatusOr<std::unique_ptr<ShardedDatabase>> reopened =
      ShardedDatabase::Open(path, &report);
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  EXPECT_EQ((*reopened)->shard_count(), 3);
  EXPECT_EQ((*reopened)->live_count(), 1);
  EXPECT_TRUE(report.salvaged);
  reopened->reset();
  // The read-write open rewrote the manifest; the library verifies clean.
  const index::VerifyReport verify = index::VerifyDatabaseFile(path);
  EXPECT_TRUE(verify.clean()) << verify.ToString();
}

// ---------------------------------------------------------------------------
// Crash matrix: append sites.

TEST_F(ShardTest, AppendCrashMatrixReopensToPreCrashState) {
  for (const char* site : kAppendSites) {
    const std::string path = FreshDbPath(std::string("append_crash_") + site);
    ShardedDatabase::Options options;
    options.shard_count = 2;
    util::StatusOr<std::unique_ptr<ShardedDatabase>> db =
        ShardedDatabase::Create(path, options);
    ASSERT_TRUE(db.ok()) << site;
    ASSERT_TRUE(UpsertEntry(**db, "stable").ok()) << site;

    FailPoint::Arm(site, FailPoint::Spec::Once(StatusCode::kDataLoss));
    EXPECT_FALSE(UpsertEntry(**db, "casualty").ok()) << site;
    FailPoint::DisarmAll();
    EXPECT_EQ(FailPoint::FailureCount(site), 0);  // disarmed clears counts

    // In-process state rolled back with the file.
    EXPECT_FALSE((*db)->Contains("casualty")) << site;
    EXPECT_EQ((*db)->live_count(), 1) << site;

    // Reopen sees the pre-crash state: one entry, strictly clean logs.
    util::StatusOr<std::unique_ptr<ShardedDatabase>> reopened =
        ShardedDatabase::Open(path);
    ASSERT_TRUE(reopened.ok()) << site << ": " << reopened.status().message();
    EXPECT_EQ(Names((*reopened)->Snapshot()),
              (std::set<std::string>{"stable"}))
        << site;
    EXPECT_TRUE(index::VerifyDatabaseFile(path).clean()) << site;

    // The handle that took the failure keeps working once the fault clears.
    EXPECT_TRUE(UpsertEntry(**db, "casualty").ok()) << site;
    EXPECT_EQ((*db)->live_count(), 2) << site;
  }
}

// ---------------------------------------------------------------------------
// Crash matrix: compaction sites.

TEST_F(ShardTest, CompactionCrashMatrixReopensToConsistentState) {
  for (const char* site : kCompactSites) {
    const std::string path = FreshDbPath(std::string("compact_crash_") + site);
    ShardedDatabase::Options options;
    options.shard_count = 2;
    util::StatusOr<std::unique_ptr<ShardedDatabase>> db =
        ShardedDatabase::Create(path, options);
    ASSERT_TRUE(db.ok()) << site;
    const std::string name = NameInShard(0, 2);
    const std::string other = NameInShard(1, 2);
    // Two upserts of the same name leave one dead record to fold away.
    ASSERT_TRUE(UpsertEntry(**db, name).ok()) << site;
    ASSERT_TRUE(UpsertEntry(**db, name, /*degraded=*/false).ok()) << site;
    ASSERT_TRUE(UpsertEntry(**db, other).ok()) << site;
    const std::set<std::string> expected = Names((*db)->Snapshot());

    FailPoint::Arm(site, FailPoint::Spec::Once(StatusCode::kDataLoss));
    const util::StatusOr<ShardedDatabase::CompactionReport> crashed =
        (*db)->CompactShard(0);
    FailPoint::DisarmAll();
    EXPECT_FALSE(crashed.ok()) << site;
    db->reset();

    // Whatever the crash point, the reopen yields the same logical library:
    // compaction only rewrites representation, so pre- and post-crash
    // states agree on content — a torn mixture is the only wrong answer.
    util::StatusOr<std::unique_ptr<ShardedDatabase>> opened =
        ShardedDatabase::Open(path);
    ASSERT_TRUE(opened.ok()) << site << ": " << opened.status().message();
    EXPECT_EQ(Names((*opened)->Snapshot()), expected) << site;
    opened->reset();

    // After the fault clears, compaction completes and the library is
    // pristine: no dead records, manifest in step with every log.
    util::StatusOr<std::unique_ptr<ShardedDatabase>> healed =
        ShardedDatabase::Open(path);
    ASSERT_TRUE(healed.ok()) << site;
    const util::StatusOr<std::vector<ShardedDatabase::CompactionReport>>
        compacted = (*healed)->CompactAll();
    ASSERT_TRUE(compacted.ok()) << site << ": " << compacted.status().message();
    EXPECT_EQ((*healed)->dead_records(), 0u) << site;
    EXPECT_EQ(Names((*healed)->Snapshot()), expected) << site;
    healed->reset();
    const index::VerifyReport verify = index::VerifyDatabaseFile(path);
    EXPECT_TRUE(verify.clean()) << site << ": " << verify.ToString();
  }
}

TEST_F(ShardTest, CrashBetweenCompactionRenamesFallsBackToPrev) {
  const std::string path = FreshDbPath("compact_manifest_stale");
  ShardedDatabase::Options options;
  options.shard_count = 2;
  util::StatusOr<std::unique_ptr<ShardedDatabase>> db =
      ShardedDatabase::Create(path, options);
  ASSERT_TRUE(db.ok());
  const std::string name = NameInShard(0, 2);
  ASSERT_TRUE(UpsertEntry(**db, name).ok());
  ASSERT_TRUE(UpsertEntry(**db, name).ok());  // one dead record

  // Crash after the new generation landed but before the manifest refresh:
  // the shard log is already generation 2 while the manifest still records
  // generation 1 — stale, and verify says exactly which shard.
  FailPoint::Arm("index.shard.compact.manifest",
                 FailPoint::Spec::Once(StatusCode::kDataLoss));
  EXPECT_FALSE((*db)->CompactShard(0).ok());
  FailPoint::DisarmAll();
  db->reset();

  const index::VerifyReport verify = index::VerifyDatabaseFile(path);
  EXPECT_TRUE(verify.loadable) << verify.ToString();
  EXPECT_FALSE(verify.manifest_matches);
  EXPECT_NE(verify.stale_detail.find("shard 0 log generation 2"),
            std::string::npos)
      << verify.ToString();
  EXPECT_NE(verify.stale_detail.find("manifest records 1"),
            std::string::npos)
      << verify.ToString();

  // Staleness is advisory: the open succeeds, and the next compaction
  // brings the manifest back in step.
  util::StatusOr<std::unique_ptr<ShardedDatabase>> reopened =
      ShardedDatabase::Open(path);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->live_count(), 1);
  ASSERT_TRUE((*reopened)->CompactAll(/*force=*/true).ok());
  reopened->reset();
  EXPECT_TRUE(index::VerifyDatabaseFile(path).clean());
}

TEST_F(ShardTest, OpenSiteInjectsPerShardFallback) {
  const std::string path = FreshDbPath("open_site");
  ShardedDatabase::Options options;
  options.shard_count = 2;
  util::StatusOr<std::unique_ptr<ShardedDatabase>> db =
      ShardedDatabase::Create(path, options);
  ASSERT_TRUE(db.ok());
  const std::string name0 = NameInShard(0, 2);
  const std::string name1 = NameInShard(1, 2);
  ASSERT_TRUE(UpsertEntry(**db, name0).ok());
  ASSERT_TRUE(UpsertEntry(**db, name1).ok());
  // Give both shards a .prev generation so the injected outage has a
  // fallback to land on.
  ASSERT_TRUE((*db)->CompactAll(/*force=*/true).ok());
  db->reset();

  // The first shard to check the site takes the injected failure of its
  // current generation and falls back to .prev; the other loads clean.
  FailPoint::Arm("index.shard.open",
                 FailPoint::Spec::Once(StatusCode::kUnavailable));
  util::SalvageReport report;
  ShardedDatabase::OpenReport open_report;
  util::StatusOr<std::unique_ptr<ShardedDatabase>> reopened =
      ShardedDatabase::Open(path, &report, &open_report);
  FailPoint::DisarmAll();
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  EXPECT_TRUE(open_report.any_backup());
  EXPECT_EQ(Names((*reopened)->Snapshot()),
            (std::set<std::string>{name0, name1}));
}

// ---------------------------------------------------------------------------
// Compaction racing concurrent upserts.

TEST_F(ShardTest, CompactionRacesConcurrentUpsertsWithoutLosingWrites) {
  const std::string path = FreshDbPath("compact_race");
  ShardedDatabase::Options options;
  options.shard_count = 2;
  util::StatusOr<std::unique_ptr<ShardedDatabase>> created =
      ShardedDatabase::Create(path, options);
  ASSERT_TRUE(created.ok());
  ShardedDatabase& db = **created;

  constexpr int kWrites = 60;
  std::set<std::string> expected;
  for (int i = 0; i < kWrites; ++i) {
    expected.insert("video" + std::to_string(i));
  }

  std::thread writer([&db] {
    for (int i = 0; i < kWrites; ++i) {
      // Every name is written twice so compaction always has dead records
      // to fold while the writer is still appending.
      const std::string name = "video" + std::to_string(i);
      ASSERT_TRUE(UpsertEntry(db, name).ok());
      ASSERT_TRUE(UpsertEntry(db, name).ok());
    }
  });
  std::thread compactor([&db] {
    for (int round = 0; round < 25; ++round) {
      const util::StatusOr<std::vector<ShardedDatabase::CompactionReport>>
          reports = db.CompactAll(/*force=*/true);
      ASSERT_TRUE(reports.ok()) << reports.status().message();
    }
  });
  writer.join();
  compactor.join();

  EXPECT_EQ(Names(db.Snapshot()), expected);

  // A final compaction settles generation counters, and the on-disk state
  // replays to exactly the same library.
  ASSERT_TRUE(db.CompactAll(/*force=*/true).ok());
  created->reset();
  util::StatusOr<std::unique_ptr<ShardedDatabase>> reopened =
      ShardedDatabase::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  EXPECT_EQ(Names((*reopened)->Snapshot()), expected);
  reopened->reset();
  const index::VerifyReport verify = index::VerifyDatabaseFile(path);
  EXPECT_TRUE(verify.clean()) << verify.ToString();
  EXPECT_EQ(verify.videos, kWrites);
}

// ---------------------------------------------------------------------------
// Repair and full saves over shards.

TEST_F(ShardTest, SaveDatabaseDispatchKeepsTheShardedLayout) {
  const std::string path = FreshDbPath("save_dispatch");
  ShardedDatabase::Options options;
  options.shard_count = 2;
  ASSERT_TRUE(ShardedDatabase::Create(path, options).ok());

  index::VideoDatabase db;
  for (int i = 0; i < 6; ++i) {
    index::VideoEntry entry = MakeEntry("video" + std::to_string(i));
    db.AddVideo(entry.name, std::move(entry.structure), {}, false);
  }
  // A full save without a shard count keeps the library's count.
  ASSERT_TRUE(index::SaveDatabase(db, path).ok());
  const util::StatusOr<index::VideoDatabase> loaded =
      index::LoadDatabase(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->video_count(), 6);
  const index::VerifyReport verify = index::VerifyDatabaseFile(path);
  EXPECT_TRUE(verify.clean()) << verify.ToString();
  EXPECT_EQ(verify.shards, 2);
}

TEST_F(ShardTest, RepairPromotesASalvagedShardAndStaysSharded) {
  const std::string path = FreshDbPath("repair_sharded");
  ShardedDatabase::Options options;
  options.shard_count = 2;
  util::StatusOr<std::unique_ptr<ShardedDatabase>> db =
      ShardedDatabase::Create(path, options);
  ASSERT_TRUE(db.ok());
  const std::string a = NameInShard(0, 2);
  const std::string b = NameInShard(0, 2, /*skip=*/1);
  const std::string c = NameInShard(1, 2);
  ASSERT_TRUE(UpsertEntry(**db, a).ok());
  ASSERT_TRUE(UpsertEntry(**db, b).ok());
  ASSERT_TRUE(UpsertEntry(**db, c).ok());
  db->reset();

  // Flip a byte inside shard 0's first entry body: strict verify fails,
  // salvage resynchronises onto the second entry.
  const std::string log = index::ShardPath(path, 0);
  std::vector<uint8_t> bytes = *util::ReadFile(log);
  bytes[bytes.size() / 2] ^= 0xFF;
  ASSERT_TRUE(util::WriteFile(log, bytes).ok());
  EXPECT_FALSE(index::VerifyDatabaseFile(path).clean());

  // Repair opens any generation (salvaging shard 0), rewrites keeping the
  // shard count, and the library must still have both shards after.
  const util::StatusOr<index::RepairReport> report =
      index::RepairDatabaseFile(path, index::RemineFn(), nullptr);
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_TRUE(report->rewritten);
  const index::VerifyReport verify = index::VerifyDatabaseFile(path);
  EXPECT_TRUE(verify.clean()) << verify.ToString();
  EXPECT_EQ(verify.videos, 2);  // the bit-flipped entry was dropped
  EXPECT_EQ(verify.shards, 2);
}

// ---------------------------------------------------------------------------
// CompactDatabaseFile convenience (scrubber / ops / CLI entry point).

TEST_F(ShardTest, CompactDatabaseFileFoldsOnlyDirtyShards) {
  const std::string path = FreshDbPath("compact_file");
  ShardedDatabase::Options options;
  options.shard_count = 2;
  util::StatusOr<std::unique_ptr<ShardedDatabase>> db =
      ShardedDatabase::Create(path, options);
  ASSERT_TRUE(db.ok());
  const std::string churner = NameInShard(0, 2);
  const std::string still = NameInShard(1, 2);
  ASSERT_TRUE(UpsertEntry(**db, churner).ok());
  ASSERT_TRUE(UpsertEntry(**db, churner).ok());  // dead record in shard 0
  ASSERT_TRUE(UpsertEntry(**db, still).ok());
  db->reset();

  const util::StatusOr<std::vector<ShardedDatabase::CompactionReport>>
      reports = index::CompactDatabaseFile(path);
  ASSERT_TRUE(reports.ok()) << reports.status().message();
  ASSERT_EQ(reports->size(), 2u);
  EXPECT_FALSE((*reports)[0].skipped);
  EXPECT_EQ((*reports)[0].dead_dropped, 1u);
  EXPECT_TRUE((*reports)[1].skipped);  // nothing dead in shard 1

  // A file in the retired CMDB format is refused like any other file that
  // is not a library, not silently rewritten.
  const std::string legacy = FreshDbPath("compact_legacy");
  index::VideoDatabase legacydb;
  index::VideoEntry entry = MakeEntry("only");
  legacydb.AddVideo(entry.name, std::move(entry.structure), {}, false);
  const std::vector<uint8_t> legacy_bytes = index::SerializeDatabase(legacydb);
  ASSERT_TRUE(util::WriteFile(legacy, legacy_bytes).ok());
  EXPECT_EQ(index::CompactDatabaseFile(legacy).status().code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(*util::ReadFile(legacy), legacy_bytes);
}

}  // namespace
}  // namespace classminer
