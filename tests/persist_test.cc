#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "index/classifier.h"
#include "index/persist.h"
#include "index/shard.h"
#include "media/color.h"
#include "media/draw.h"
#include "util/rng.h"
#include "util/serial.h"

namespace classminer::index {
namespace {

shot::Shot MakeShot(int index, double hue, uint64_t seed) {
  util::Rng rng(seed + static_cast<uint64_t>(index));
  media::Image img(48, 36, media::HsvToRgb({hue, 0.7, 0.8}));
  media::AddNoise(&img, 4, &rng);
  shot::Shot s;
  s.index = index;
  s.start_frame = index * 30;
  s.end_frame = index * 30 + 29;
  s.rep_frame = s.start_frame + 9;
  s.features = features::ExtractShotFeatures(img);
  return s;
}

VideoDatabase MakeDatabase() {
  VideoDatabase db;
  structure::ContentStructure cs;
  for (int i = 0; i < 6; ++i) {
    cs.shots.push_back(MakeShot(i, i < 3 ? 20.0 : 150.0, 400));
  }
  for (int g = 0; g < 2; ++g) {
    structure::Group group;
    group.index = g;
    group.start_shot = g * 3;
    group.end_shot = g * 3 + 2;
    group.temporally_related = g == 0;
    structure::ShotCluster cluster;
    cluster.shot_indices = {g * 3, g * 3 + 1, g * 3 + 2};
    cluster.rep_shot = g * 3 + 1;
    group.clusters.push_back(cluster);
    group.rep_shots = {g * 3 + 1};
    cs.groups.push_back(group);
    structure::Scene scene;
    scene.index = g;
    scene.start_group = g;
    scene.end_group = g;
    scene.rep_group = g;
    scene.eliminated = false;
    cs.scenes.push_back(scene);
  }
  structure::SceneCluster sc;
  sc.scene_indices = {0, 1};
  sc.rep_group = 0;
  cs.clustered_scenes.push_back(sc);

  events::EventRecord e0;
  e0.scene_index = 0;
  e0.type = events::EventType::kPresentation;
  e0.has_slide = true;
  e0.shot_count = 3;
  events::EventRecord e1;
  e1.scene_index = 1;
  e1.type = events::EventType::kClinicalOperation;
  e1.has_blood = true;
  e1.skin_shot_count = 2;
  e1.shot_count = 3;
  db.AddVideo("persist_me", std::move(cs), {e0, e1});
  return db;
}

// A library path cleared of files from earlier runs.
std::string FreshLibraryPath(const std::string& stem) {
  const std::string path = ::testing::TempDir() + "/" + stem + ".lib";
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
  const std::string log = ShardPath(path, 0);
  std::remove(log.c_str());
  std::remove((log + ".tmp").c_str());
  std::remove(ShardBackupPath(path, 0).c_str());
  return path;
}

TEST(PersistTest, RoundTripPreservesEverything) {
  const VideoDatabase db = MakeDatabase();
  const std::string path = FreshLibraryPath("round_trip");
  ASSERT_TRUE(SaveDatabase(db, path, 1).ok());
  util::StatusOr<VideoDatabase> back = LoadDatabase(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  // Every field the entry codec carries, byte for byte.
  EXPECT_EQ(SerializeDatabase(*back), SerializeDatabase(db));

  ASSERT_EQ(back->video_count(), 1);
  const VideoEntry& orig = db.video(0);
  const VideoEntry& copy = back->video(0);
  EXPECT_EQ(copy.name, orig.name);
  ASSERT_EQ(copy.structure.shots.size(), orig.structure.shots.size());
  for (size_t i = 0; i < orig.structure.shots.size(); ++i) {
    EXPECT_EQ(copy.structure.shots[i].start_frame,
              orig.structure.shots[i].start_frame);
    EXPECT_EQ(copy.structure.shots[i].features.histogram,
              orig.structure.shots[i].features.histogram);
    EXPECT_EQ(copy.structure.shots[i].features.tamura,
              orig.structure.shots[i].features.tamura);
  }
  ASSERT_EQ(copy.structure.groups.size(), 2u);
  EXPECT_TRUE(copy.structure.groups[0].temporally_related);
  EXPECT_EQ(copy.structure.groups[0].clusters[0].shot_indices,
            orig.structure.groups[0].clusters[0].shot_indices);
  ASSERT_EQ(copy.structure.clustered_scenes.size(), 1u);
  EXPECT_EQ(copy.structure.clustered_scenes[0].scene_indices,
            orig.structure.clustered_scenes[0].scene_indices);
  ASSERT_EQ(copy.events.size(), 2u);
  EXPECT_EQ(copy.events[1].type, events::EventType::kClinicalOperation);
  EXPECT_TRUE(copy.events[1].has_blood);
  EXPECT_EQ(copy.events[1].skin_shot_count, 2);
}

TEST(PersistTest, FileRoundTrip) {
  const VideoDatabase db = MakeDatabase();
  const std::string path = ::testing::TempDir() + "/db_test.cmdb";
  ASSERT_TRUE(SaveDatabase(db, path).ok());
  util::StatusOr<VideoDatabase> back = LoadDatabase(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->TotalShotCount(), db.TotalShotCount());
}

TEST(PersistTest, BadMagicRejected) {
  const std::vector<uint8_t> junk{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
  // Junk at the root: no manifest to read.
  const std::string root = FreshLibraryPath("bad_root_magic");
  ASSERT_TRUE(util::WriteFile(root, junk).ok());
  EXPECT_FALSE(LoadDatabase(root).ok());
  EXPECT_FALSE(VerifyDatabaseFile(root).loadable);
  // Junk in place of the shard log under a valid manifest.
  const std::string path = FreshLibraryPath("bad_log_magic");
  ASSERT_TRUE(SaveDatabase(MakeDatabase(), path, 1).ok());
  ASSERT_TRUE(util::WriteFile(ShardPath(path, 0), junk).ok());
  EXPECT_FALSE(LoadDatabase(path).ok());
  EXPECT_NE(VerifyDatabaseFile(path).error.find("bad CMSL magic"),
            std::string::npos);
}

TEST(PersistTest, TruncationRejected) {
  const std::string path = FreshLibraryPath("truncated");
  ASSERT_TRUE(SaveDatabase(MakeDatabase(), path, 1).ok());
  util::StatusOr<std::vector<uint8_t>> log = util::ReadFile(ShardPath(path, 0));
  ASSERT_TRUE(log.ok());
  log->resize(log->size() / 3);
  ASSERT_TRUE(util::WriteFile(ShardPath(path, 0), *log).ok());
  util::StatusOr<VideoDatabase> back = LoadDatabase(path);
  EXPECT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), util::StatusCode::kDataLoss);
}

TEST(PersistTest, EmptyDatabase) {
  const std::string path = FreshLibraryPath("empty");
  ASSERT_TRUE(SaveDatabase(VideoDatabase(), path, 1).ok());
  util::StatusOr<VideoDatabase> back = LoadDatabase(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->video_count(), 0);
}

TEST(ClassifierTest, ClinicalDominatedVideo) {
  const ConceptHierarchy concepts = ConceptHierarchy::MedicalDefault();
  const SemanticClassifier classifier(&concepts);
  const VideoDatabase db = MakeDatabase();  // 1 presentation + 1 clinical
  const VideoAssignment a = classifier.ClassifyVideo(db.video(0));
  EXPECT_EQ(a.video_id, 0);
  EXPECT_EQ(a.presentation_scenes, 1);
  EXPECT_EQ(a.clinical_scenes, 1);
  // Tie resolves toward the clinical (health_care) branch.
  EXPECT_EQ(concepts.node(a.cluster_node).name, "health_care");
  ASSERT_EQ(a.scenes.size(), 2u);
  EXPECT_EQ(concepts.node(a.scenes[0].concept_node).name, "presentation");
  EXPECT_EQ(concepts.node(a.scenes[1].concept_node).name,
            "clinical_operation");
}

TEST(ClassifierTest, PresentationDominatedVideo) {
  const ConceptHierarchy concepts = ConceptHierarchy::MedicalDefault();
  const SemanticClassifier classifier(&concepts);
  VideoDatabase db;
  structure::ContentStructure cs;
  cs.shots.push_back(MakeShot(0, 10, 500));
  events::EventRecord e0;
  e0.scene_index = 0;
  e0.type = events::EventType::kPresentation;
  events::EventRecord e1;
  e1.scene_index = 1;
  e1.type = events::EventType::kPresentation;
  events::EventRecord e2;
  e2.scene_index = 2;
  e2.type = events::EventType::kDialog;
  db.AddVideo("lecture", std::move(cs), {e0, e1, e2});
  const VideoAssignment a = classifier.ClassifyVideo(db.video(0));
  EXPECT_EQ(concepts.node(a.cluster_node).name, "medical_education");
}

TEST(ClassifierTest, AllUndeterminedStaysAtRoot) {
  const ConceptHierarchy concepts = ConceptHierarchy::MedicalDefault();
  const SemanticClassifier classifier(&concepts);
  VideoDatabase db;
  structure::ContentStructure cs;
  events::EventRecord e;
  e.scene_index = 0;
  e.type = events::EventType::kUndetermined;
  db.AddVideo("mystery", std::move(cs), {e});
  const VideoAssignment a = classifier.ClassifyVideo(db.video(0));
  EXPECT_EQ(a.cluster_node, concepts.root());
}

}  // namespace
}  // namespace classminer::index
