// Crash-consistent persistence and self-healing recovery on a 1-shard
// library (the default layout of `classminer index`): a crash injected at
// any step of a full save must leave the whole library old or new, never a
// torn mixture; a read-write open must find it; and the repair pass
// must re-mine degraded entries back to pristine so a subsequent verify
// reports zero integrity failures.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "codec/container.h"
#include "core/cmv_pipeline.h"
#include "core/repair.h"
#include "index/database.h"
#include "index/repair.h"
#include "index/shard.h"
#include "shot/detector.h"
#include "structure/content_structure.h"
#include "synth/video_generator.h"
#include "util/failpoint.h"
#include "util/salvage.h"
#include "util/serial.h"
#include "util/status.h"

namespace classminer {
namespace {

using util::FailPoint;
using util::StatusCode;

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FailPoint::DisarmAll();
    dir_ = ::testing::TempDir();
  }
  void TearDown() override { FailPoint::DisarmAll(); }

  // A unique library path per test; stale files from earlier runs are
  // cleared so fallback assertions see only this test's files.
  std::string FreshDbPath(const std::string& stem) {
    const std::string path = dir_ + "/" + stem + ".cmdb";
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
    const std::string log = index::ShardPath(path, 0);
    std::remove(log.c_str());
    std::remove((log + ".tmp").c_str());
    std::remove(index::ShardBackupPath(path, 0).c_str());
    return path;
  }

  std::string dir_;
};

// What a read-write open of a library yields: its snapshot and how each
// shard's open was satisfied.
struct Opened {
  index::VideoDatabase db;
  index::ShardedDatabase::OpenReport shards;
};

util::StatusOr<Opened> OpenLibrary(const std::string& path,
                                   util::SalvageReport* report = nullptr) {
  Opened out;
  util::StatusOr<std::unique_ptr<index::ShardedDatabase>> db =
      index::ShardedDatabase::Open(path, report, &out.shards);
  if (!db.ok()) return db.status();
  out.db = (*db)->Snapshot();
  return out;
}

// A database with `videos` single-shot entries named video0..videoN.
index::VideoDatabase MakeDatabase(int videos, bool degrade_first = false) {
  index::VideoDatabase db;
  for (int v = 0; v < videos; ++v) {
    structure::ContentStructure cs;
    shot::Shot s;
    s.index = 0;
    s.end_frame = 29;
    s.rep_frame = 9;
    cs.shots.push_back(s);
    db.AddVideo("video" + std::to_string(v), std::move(cs), {},
                degrade_first && v == 0);
  }
  return db;
}

// Every site a full save passes, in order: the shard log is staged,
// synced and renamed into place, then the root manifest goes through the
// atomic-write sequence.
struct SaveSite {
  const char* name;
  bool log_landed;  // the new shard log is in place when this site fires
};
const SaveSite kSaveSites[] = {
    {"index.shard.compact.write", false},
    {"index.shard.compact.fsync", false},
    {"index.shard.compact.rename", false},
    {"index.shard.compact.manifest", true},
    {"serial.atomic_write.tmp_write", true},
    {"serial.atomic_write.fsync", true},
    {"serial.atomic_write.rename", true},
};

// ---------------------------------------------------------------------------
// Crash matrix: every save site x {prior generation, fresh path}.

TEST_F(RecoveryTest, CrashAtEverySiteWithPriorGenerationKeepsADatabase) {
  for (const SaveSite& site : kSaveSites) {
    const std::string path =
        FreshDbPath(std::string("crash_prior_") + site.name);
    ASSERT_TRUE(index::SaveDatabase(MakeDatabase(1), path).ok()) << site.name;

    FailPoint::Arm(site.name, FailPoint::Spec::Once(StatusCode::kDataLoss));
    const util::Status crashed = index::SaveDatabase(MakeDatabase(2), path);
    FailPoint::DisarmAll();
    EXPECT_FALSE(crashed.ok()) << site.name;

    // Whatever the crash point, a complete library is reopenable: the
    // one-video generation until the new shard log is renamed into place,
    // the whole two-video one from then on (only the manifest lags, which
    // is advisory). Never a mixture, never a salvage.
    util::SalvageReport report;
    const util::StatusOr<Opened> opened = OpenLibrary(path, &report);
    ASSERT_TRUE(opened.ok()) << site.name;
    EXPECT_FALSE(opened->shards.any_salvaged() || opened->shards.any_lost())
        << site.name;
    EXPECT_EQ(opened->db.video_count(), site.log_landed ? 2 : 1) << site.name;
    EXPECT_EQ(opened->db.video(0).name, "video0") << site.name;
  }
}

TEST_F(RecoveryTest, CrashAtEverySiteOnFreshPathLeavesNoTornFile) {
  for (const SaveSite& site : kSaveSites) {
    const std::string path =
        FreshDbPath(std::string("crash_fresh_") + site.name);
    FailPoint::Arm(site.name, FailPoint::Spec::Once(StatusCode::kDataLoss));
    EXPECT_FALSE(index::SaveDatabase(MakeDatabase(2), path).ok()) << site.name;
    FailPoint::DisarmAll();
    // No torn bytes appear at the root: the manifest lands last, whole.
    EXPECT_EQ(util::ReadFile(path).status().code(), StatusCode::kNotFound)
        << site.name;
    // Before the shard log lands the open fails cleanly instead of loading
    // garbage; after, the shard-0 log header identifies the library and
    // the open reconstructs the complete new generation.
    const util::StatusOr<Opened> opened = OpenLibrary(path);
    if (site.log_landed) {
      ASSERT_TRUE(opened.ok()) << site.name;
      EXPECT_EQ(opened->db.video_count(), 2) << site.name;
    } else {
      EXPECT_FALSE(opened.ok()) << site.name;
    }
  }
}

TEST_F(RecoveryTest, CompletedSaveAfterCrashesWinsCleanly) {
  const std::string path = FreshDbPath("crash_then_win");
  ASSERT_TRUE(index::SaveDatabase(MakeDatabase(1), path).ok());
  for (const SaveSite& site : kSaveSites) {
    FailPoint::Arm(site.name, FailPoint::Spec::Once(StatusCode::kDataLoss));
    EXPECT_FALSE(index::SaveDatabase(MakeDatabase(2), path).ok()) << site.name;
    FailPoint::DisarmAll();
  }
  // After the outage clears, a full save lands and verifies pristine.
  ASSERT_TRUE(index::SaveDatabase(MakeDatabase(3), path).ok());
  const index::VerifyReport verify = index::VerifyDatabaseFile(path);
  EXPECT_TRUE(verify.clean()) << verify.ToString();
  EXPECT_EQ(verify.videos, 3);
  EXPECT_EQ(verify.shards, 1);
}

// ---------------------------------------------------------------------------
// Generations and the manifest.

TEST_F(RecoveryTest, SecondSaveRotatesThePreviousGeneration) {
  const std::string path = FreshDbPath("rotate");
  ASSERT_TRUE(index::SaveDatabase(MakeDatabase(1), path).ok());
  ASSERT_TRUE(index::SaveDatabase(MakeDatabase(2), path).ok());

  const util::StatusOr<index::VideoDatabase> current =
      index::LoadDatabase(path);
  ASSERT_TRUE(current.ok());
  EXPECT_EQ(current->video_count(), 2);
  // The first generation's log was rotated aside, not overwritten.
  EXPECT_TRUE(util::ReadFile(index::ShardBackupPath(path, 0)).ok());

  const index::VerifyReport verify = index::VerifyDatabaseFile(path);
  EXPECT_TRUE(verify.clean()) << verify.ToString();
  EXPECT_EQ(verify.generation, 2u);
}

TEST_F(RecoveryTest, InterruptedManifestWriteIsAdvisoryNotFatal) {
  const std::string path = FreshDbPath("stale_manifest");
  ASSERT_TRUE(index::SaveDatabase(MakeDatabase(1), path).ok());
  // The shard log lands before the manifest's atomic write; failing that
  // write models a crash between them: new data, stale manifest.
  FailPoint::Arm("serial.atomic_write.tmp_write",
                 FailPoint::Spec::Once(StatusCode::kDataLoss));
  EXPECT_FALSE(index::SaveDatabase(MakeDatabase(2), path).ok());
  FailPoint::DisarmAll();

  // The new generation is fully readable; only the manifest lags behind.
  const util::StatusOr<index::VideoDatabase> loaded =
      index::LoadDatabase(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->video_count(), 2);
  const index::VerifyReport verify = index::VerifyDatabaseFile(path);
  EXPECT_TRUE(verify.loadable);
  EXPECT_FALSE(verify.manifest_matches);
  EXPECT_FALSE(verify.clean());
  // A read-write open treats the stale manifest as advisory.
  const util::StatusOr<Opened> opened = OpenLibrary(path);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened->db.video_count(), 2);
}

TEST_F(RecoveryTest, StaleManifestDiagnosticsNameTheRecordedGeneration) {
  const std::string path = FreshDbPath("stale_manifest_detail");
  ASSERT_TRUE(index::SaveDatabase(MakeDatabase(1), path).ok());
  FailPoint::Arm("serial.atomic_write.tmp_write",
                 FailPoint::Spec::Once(StatusCode::kDataLoss));
  EXPECT_FALSE(index::SaveDatabase(MakeDatabase(2), path).ok());
  FailPoint::DisarmAll();

  // The report says more than "stale": it names the generation the log is
  // at and the one the manifest still records, so an operator can tell a
  // harmless lagging manifest from a lost log.
  const index::VerifyReport verify = index::VerifyDatabaseFile(path);
  EXPECT_FALSE(verify.manifest_matches);
  ASSERT_FALSE(verify.stale_detail.empty());
  EXPECT_NE(verify.stale_detail.find("shard 0 log generation 2"),
            std::string::npos)
      << verify.stale_detail;
  EXPECT_NE(verify.stale_detail.find("manifest records 1"), std::string::npos)
      << verify.stale_detail;
  EXPECT_NE(verify.ToString().find("manifest=stale(" + verify.stale_detail),
            std::string::npos)
      << verify.ToString();

  // A clean save clears the diagnostic entirely.
  ASSERT_TRUE(index::SaveDatabase(MakeDatabase(2), path).ok());
  const index::VerifyReport healed = index::VerifyDatabaseFile(path);
  EXPECT_TRUE(healed.clean()) << healed.ToString();
  EXPECT_TRUE(healed.stale_detail.empty());
}

// ---------------------------------------------------------------------------
// Fallback chain of a read-write open.

TEST_F(RecoveryTest, UnsalvageableCurrentFallsBackToPreviousGeneration) {
  const std::string path = FreshDbPath("fallback_prev");
  ASSERT_TRUE(index::SaveDatabase(MakeDatabase(1), path).ok());
  ASSERT_TRUE(index::SaveDatabase(MakeDatabase(2), path).ok());
  // Destroy the current shard log's header: strict and salvage parses both
  // refuse it, so the previous generation answers.
  const std::string log = index::ShardPath(path, 0);
  std::vector<uint8_t> bytes = *util::ReadFile(log);
  bytes[0] ^= 0xFF;
  ASSERT_TRUE(util::WriteFile(log, bytes).ok());

  util::SalvageReport report;
  const util::StatusOr<Opened> opened = OpenLibrary(path, &report);
  ASSERT_TRUE(opened.ok());
  EXPECT_TRUE(opened->shards.any_backup());
  EXPECT_FALSE(opened->shards.any_salvaged() || opened->shards.any_lost());
  EXPECT_EQ(opened->db.video_count(), 1);
  EXPECT_FALSE(report.notes.empty());
}

TEST_F(RecoveryTest, BitFlippedCurrentIsSalvagedWithResync) {
  const std::string path = FreshDbPath("fallback_salvage");
  ASSERT_TRUE(index::SaveDatabase(MakeDatabase(3), path).ok());
  // Flip one byte mid-log (inside the second entry's body): strict load
  // fails on its checksum, salvage resynchronises onto the third entry.
  const std::string log = index::ShardPath(path, 0);
  std::vector<uint8_t> bytes = *util::ReadFile(log);
  bytes[bytes.size() * 2 / 5] ^= 0xFF;
  ASSERT_TRUE(util::WriteFile(log, bytes).ok());

  util::SalvageReport report;
  const util::StatusOr<Opened> opened = OpenLibrary(path, &report);
  ASSERT_TRUE(opened.ok());
  EXPECT_FALSE(opened->shards.any_backup());  // no .prev generation here
  EXPECT_TRUE(opened->shards.any_salvaged());
  EXPECT_EQ(opened->db.video_count(), 2);
  EXPECT_EQ(report.resync_points, 1);
}

// ---------------------------------------------------------------------------
// Repair pass: re-mine degraded entries from pristine containers, then
// verify reports zero integrity failures.

synth::GeneratedVideo SmallGenerated(const std::string& name) {
  synth::VideoScript script;
  script.name = name;
  script.seed = 33;
  script.width = 64;
  script.height = 48;
  script.scenes.push_back({synth::SceneKind::kPresentation, 3, 0, 0, -1, 1.0});
  script.scenes.push_back({synth::SceneKind::kDialog, 3, 1, 0, 1, 1.0});
  return synth::GenerateVideo(script);
}

TEST_F(RecoveryTest, RepairReminesDegradedEntryAndVerifyComesBackClean) {
  const std::string name = "repairable";
  const std::string db_path = FreshDbPath("repair_e2e");
  const synth::GeneratedVideo generated = SmallGenerated(name);
  const codec::CmvFile container = core::PackGeneratedVideo(generated);
  ASSERT_TRUE(container.SaveToFile(dir_ + "/" + name + ".cmv").ok());

  // Ingest the entry flagged degraded (as a salvage-path ingest would).
  util::StatusOr<core::MiningResult> mined =
      core::MineCmvFileFast(container, core::MiningOptions());
  ASSERT_TRUE(mined.ok()) << mined.status().message();
  index::VideoDatabase db;
  db.AddVideo(name, std::move(mined->structure), std::move(mined->events),
              /*degraded=*/true);
  ASSERT_TRUE(index::SaveDatabase(db, db_path).ok());
  EXPECT_FALSE(index::VerifyDatabaseFile(db_path).clean());

  util::SalvageReport salvage;
  const util::StatusOr<index::RepairReport> report = index::RepairDatabaseFile(
      db_path, core::MakeCmvRemineFn(dir_), &salvage);
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_EQ(report->examined, 1);
  EXPECT_EQ(report->degraded, 1);
  EXPECT_EQ(report->repaired, 1);
  EXPECT_EQ(report->failed, 0);
  EXPECT_TRUE(report->rewritten);

  const index::VerifyReport verify = index::VerifyDatabaseFile(db_path);
  EXPECT_TRUE(verify.clean()) << verify.ToString();
  EXPECT_EQ(verify.degraded_videos, 0);
  // The repaired entry carries real mined structure, not a husk.
  const util::StatusOr<index::VideoDatabase> loaded =
      index::LoadDatabase(db_path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_FALSE(loaded->video(0).degraded);
  EXPECT_GT(loaded->TotalShotCount(), 0u);

  // A second pass finds nothing to do and does not rewrite.
  const util::StatusOr<index::RepairReport> again = index::RepairDatabaseFile(
      db_path, core::MakeCmvRemineFn(dir_), nullptr);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->degraded, 0);
  EXPECT_FALSE(again->rewritten);
}

TEST_F(RecoveryTest, RepairLeavesEntryDegradedWhenSourceIsMissing) {
  const std::string db_path = FreshDbPath("repair_missing");
  index::VideoDatabase db = MakeDatabase(2, /*degrade_first=*/true);
  ASSERT_TRUE(index::SaveDatabase(db, db_path).ok());

  const util::StatusOr<index::RepairReport> report = index::RepairDatabaseFile(
      db_path, core::MakeCmvRemineFn(dir_ + "/no_such_dir"), nullptr);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->degraded, 1);
  EXPECT_EQ(report->repaired, 0);
  EXPECT_EQ(report->failed, 1);
  EXPECT_FALSE(report->rewritten);
  // The entry stays flagged rather than being dropped or blanked.
  const util::StatusOr<index::VideoDatabase> loaded =
      index::LoadDatabase(db_path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->video_count(), 2);
  EXPECT_TRUE(loaded->video(0).degraded);
}

TEST_F(RecoveryTest, RepairPromotesASalvagedOpenToAPristineGeneration) {
  const std::string db_path = FreshDbPath("repair_promote");
  ASSERT_TRUE(index::SaveDatabase(MakeDatabase(3), db_path).ok());
  const std::string log = index::ShardPath(db_path, 0);
  std::vector<uint8_t> bytes = *util::ReadFile(log);
  bytes[bytes.size() * 2 / 5] ^= 0xFF;  // tear the middle entry
  ASSERT_TRUE(util::WriteFile(log, bytes).ok());

  // No entry is flagged degraded, but the open itself needed salvage, so
  // repair rewrites a pristine current generation from what survived.
  const util::StatusOr<index::RepairReport> report =
      index::RepairDatabaseFile(db_path, index::RemineFn(), nullptr);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->repaired, 0);
  EXPECT_TRUE(report->rewritten);
  const index::VerifyReport verify = index::VerifyDatabaseFile(db_path);
  EXPECT_TRUE(verify.clean()) << verify.ToString();
  EXPECT_EQ(verify.videos, 2);
}

// The other two ways an open recovers: a shard served from its backup
// generation, and a shard with no loadable generation at all. Either way
// repair rewrites, and verify comes back clean.
TEST_F(RecoveryTest, RepairRewritesABackupOrLostShard) {
  for (const bool lost : {false, true}) {
    SCOPED_TRACE(lost ? "lost shard" : "backup generation");
    const std::string db_path =
        FreshDbPath(lost ? "repair_lost" : "repair_backup");
    ASSERT_TRUE(index::SaveDatabase(MakeDatabase(1), db_path).ok());
    ASSERT_TRUE(index::SaveDatabase(MakeDatabase(2), db_path).ok());
    ASSERT_EQ(std::remove(index::ShardPath(db_path, 0).c_str()), 0);
    if (lost) {
      ASSERT_EQ(std::remove(index::ShardBackupPath(db_path, 0).c_str()), 0);
    }

    const util::StatusOr<index::RepairReport> report =
        index::RepairDatabaseFile(db_path, index::RemineFn(), nullptr);
    ASSERT_TRUE(report.ok()) << report.status().message();
    EXPECT_EQ(report->repaired, 0);
    EXPECT_TRUE(report->rewritten);
    const index::VerifyReport verify = index::VerifyDatabaseFile(db_path);
    EXPECT_TRUE(verify.clean()) << verify.ToString();
    EXPECT_EQ(verify.videos, lost ? 0 : 1);
  }
}

}  // namespace
}  // namespace classminer
