// Corpus-level integration: two mined titles flow through classification,
// browsing, persistence, indexing and storyboard export together, with
// cross-module invariants checked at each hand-off.

#include <gtest/gtest.h>

#include "core/classminer.h"
#include "index/browser.h"
#include "index/classifier.h"
#include "index/hier_index.h"
#include "index/linear_index.h"
#include "index/shard.h"
#include "media/ppm.h"
#include "skim/storyboard.h"
#include "synth/corpus.h"

namespace classminer {
namespace {

class CorpusIntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    synth::CorpusOptions copts;
    copts.scale = 0.5;
    const std::vector<synth::VideoScript> scripts =
        synth::MedicalCorpusScripts(copts);
    // Two contrasting titles: lecture-heavy and surgery-heavy.
    inputs_ = new std::vector<synth::GeneratedVideo>();
    results_ = new std::vector<core::MiningResult>();
    db_ = new index::VideoDatabase();
    for (const char* name : {"nuclear_medicine", "laparoscopy"}) {
      for (const synth::VideoScript& s : scripts) {
        if (s.name != name) continue;
        inputs_->push_back(synth::GenerateVideo(s));
        util::StatusOr<core::MiningResult> mined =
            core::MineVideo(inputs_->back().video, inputs_->back().audio);
        ASSERT_TRUE(mined.ok()) << mined.status().ToString();
        results_->push_back(std::move(*mined));
        db_->AddVideo(s.name, results_->back().structure,
                      results_->back().events);
      }
    }
  }
  static void TearDownTestSuite() {
    delete db_;
    delete results_;
    delete inputs_;
    db_ = nullptr;
    results_ = nullptr;
    inputs_ = nullptr;
  }

  static std::vector<synth::GeneratedVideo>* inputs_;
  static std::vector<core::MiningResult>* results_;
  static index::VideoDatabase* db_;
};

std::vector<synth::GeneratedVideo>* CorpusIntegrationTest::inputs_ = nullptr;
std::vector<core::MiningResult>* CorpusIntegrationTest::results_ = nullptr;
index::VideoDatabase* CorpusIntegrationTest::db_ = nullptr;

TEST_F(CorpusIntegrationTest, ClassifierSeparatesTitles) {
  const index::ConceptHierarchy concepts =
      index::ConceptHierarchy::MedicalDefault();
  const index::SemanticClassifier classifier(&concepts);
  const std::vector<index::VideoAssignment> assignments =
      classifier.ClassifyDatabase(*db_);
  ASSERT_EQ(assignments.size(), 2u);
  // Lecture-heavy title lands under medical_education; surgery-heavy under
  // health_care.
  EXPECT_EQ(concepts.node(assignments[0].cluster_node).name,
            "medical_education");
  EXPECT_EQ(concepts.node(assignments[1].cluster_node).name, "health_care");
}

TEST_F(CorpusIntegrationTest, BrowseTreeRespectsClearance) {
  const index::ConceptHierarchy concepts =
      index::ConceptHierarchy::MedicalDefault();
  const index::AccessController access(&concepts);

  index::UserCredential surgeon{"surgeon", 3, {}};
  index::UserCredential student{"student", 1, {}};
  const auto full =
      index::BuildBrowseTree(*db_, concepts, access, surgeon);
  const auto limited =
      index::BuildBrowseTree(*db_, concepts, access, student);

  size_t full_scenes = 0, limited_scenes = 0;
  bool limited_has_clinical = false;
  for (const auto& c : full) {
    for (const auto& v : c.videos) full_scenes += v.scenes.size();
  }
  for (const auto& c : limited) {
    for (const auto& v : c.videos) {
      limited_scenes += v.scenes.size();
      for (const auto& s : v.scenes) {
        limited_has_clinical |=
            s.event == events::EventType::kClinicalOperation;
      }
    }
  }
  EXPECT_GT(full_scenes, limited_scenes);
  EXPECT_FALSE(limited_has_clinical);

  const std::string text = index::RenderBrowseTree(full);
  EXPECT_NE(text.find("nuclear_medicine"), std::string::npos);
  EXPECT_NE(text.find("scene"), std::string::npos);
}

TEST_F(CorpusIntegrationTest, PersistedDatabaseAnswersSameQueries) {
  const std::string path = ::testing::TempDir() + "/integration.cmdb";
  ASSERT_TRUE(index::SaveDatabase(*db_, path).ok());
  util::StatusOr<index::VideoDatabase> reloaded = index::LoadDatabase(path);
  ASSERT_TRUE(reloaded.ok());

  const index::LinearIndex before(db_);
  const index::LinearIndex after(&*reloaded);
  for (int s = 0; s < 6; ++s) {
    const index::ShotRef q{0, s * 3};
    const auto a = before.Search(db_->Features(q), 3);
    const auto b = after.Search(reloaded->Features(q), 3);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].ref, b[i].ref);
      EXPECT_DOUBLE_EQ(a[i].similarity, b[i].similarity);
    }
  }
}

TEST_F(CorpusIntegrationTest, HierIndexCoversBothVideos) {
  const index::ConceptHierarchy concepts =
      index::ConceptHierarchy::MedicalDefault();
  const index::HierarchicalIndex hier(db_, &concepts);
  EXPECT_EQ(hier.TotalIndexedShots(), db_->TotalShotCount());
}

TEST_F(CorpusIntegrationTest, StoryboardExports) {
  const skim::ScalableSkim sk(&(*results_)[0].structure);
  const media::Image sheet = skim::RenderStoryboard(
      sk, 3, (*inputs_)[0].video, (*results_)[0].events);
  ASSERT_FALSE(sheet.empty());
  EXPECT_GT(sheet.width(), 96);
  EXPECT_GT(sheet.height(), 72);

  const std::string path = ::testing::TempDir() + "/storyboard.ppm";
  ASSERT_TRUE(skim::ExportStoryboard(sk, 3, (*inputs_)[0].video,
                                     (*results_)[0].events, path)
                  .ok());
  util::StatusOr<media::Image> back = media::ReadPpm(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->width(), sheet.width());
}

TEST_F(CorpusIntegrationTest, StoryboardEmptyTrackFails) {
  structure::ContentStructure empty;
  const skim::ScalableSkim sk(&empty);
  EXPECT_FALSE(skim::ExportStoryboard(sk, 4, (*inputs_)[0].video,
                                      (*results_)[0].events,
                                      ::testing::TempDir() + "/none.ppm")
                   .ok());
}

}  // namespace
}  // namespace classminer
