#include <gtest/gtest.h>

#include "index/classifier.h"
#include "index/persist.h"
#include "index/shard.h"
#include "media/color.h"
#include "media/draw.h"
#include "util/rng.h"

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

TEST(PersistTest, RoundTripPreservesEverything) {
  const VideoDatabase db = MakeDatabase();
  const std::vector<uint8_t> bytes = SerializeDatabase(db);
  util::StatusOr<VideoDatabase> back = ParseDatabase(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();

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
  std::vector<uint8_t> bytes{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
  EXPECT_FALSE(ParseDatabase(bytes).ok());
}

TEST(PersistTest, TruncationRejected) {
  const VideoDatabase db = MakeDatabase();
  std::vector<uint8_t> bytes = SerializeDatabase(db);
  bytes.resize(bytes.size() / 3);
  util::StatusOr<VideoDatabase> back = ParseDatabase(bytes);
  EXPECT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), util::StatusCode::kDataLoss);
}

TEST(PersistTest, EmptyDatabase) {
  VideoDatabase db;
  util::StatusOr<VideoDatabase> back = ParseDatabase(SerializeDatabase(db));
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
