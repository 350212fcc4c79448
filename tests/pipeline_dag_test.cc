// StageDag runtime contract: declaration-time validation, dependency
// ordering under concurrent execution, cancellation and error propagation,
// a shared pool's no-clamp guarantee, and bit-identical parallel
// index construction.

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/classminer.h"
#include "core/pipeline_dag.h"
#include "index/concept.h"
#include "index/database.h"
#include "index/hier_index.h"
#include "synth/corpus.h"
#include "util/exec_context.h"
#include "util/threadpool.h"

namespace classminer {
namespace {

core::StageDag::StageFn Noop() {
  return [](util::StageMetrics*) {};
}

TEST(StageDagTest, AddRejectsUnknownDependency) {
  core::StageDag dag;
  ASSERT_TRUE(dag.Add("a", {}, Noop()).ok());
  const util::Status status = dag.Add("b", {"missing"}, Noop());
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
  // Deps must be declared first, so forward references (and therefore
  // cycles) are inexpressible.
  EXPECT_EQ(dag.size(), 1);
}

TEST(StageDagTest, AddRejectsDuplicateAndEmptyNames) {
  core::StageDag dag;
  ASSERT_TRUE(dag.Add("a", {}, Noop()).ok());
  EXPECT_EQ(dag.Add("a", {}, Noop()).code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(dag.Add("", {}, Noop()).code(),
            util::StatusCode::kInvalidArgument);
}

TEST(StageDagTest, DependenciesOfReportsDeclaredEdges) {
  core::StageDag dag;
  ASSERT_TRUE(dag.Add("shot", {}, Noop()).ok());
  ASSERT_TRUE(dag.Add("group", {"shot"}, Noop()).ok());
  ASSERT_TRUE(dag.Add("events", {"shot", "group"}, Noop()).ok());
  EXPECT_TRUE(dag.DependenciesOf("shot").empty());
  EXPECT_EQ(dag.DependenciesOf("events"),
            (std::vector<std::string>{"shot", "group"}));
  EXPECT_TRUE(dag.DependenciesOf("nonexistent").empty());
}

// Stress: a layered fan-out/fan-in graph run repeatedly on a contended
// pool. Every stage asserts all of its dependencies finished before its
// own body started — the core scheduling invariant.
TEST(StageDagTest, DependencyOrderingStress) {
  constexpr int kLayers = 6;
  constexpr int kWidth = 4;
  constexpr int kIterations = 25;
  util::ThreadPool pool(8);
  for (int iter = 0; iter < kIterations; ++iter) {
    core::StageDag dag;
    std::vector<std::atomic<bool>> done(kLayers * kWidth);
    std::atomic<int> violations{0};
    for (int layer = 0; layer < kLayers; ++layer) {
      for (int w = 0; w < kWidth; ++w) {
        const int id = layer * kWidth + w;
        std::vector<std::string> deps;
        if (layer > 0) {
          // Full bipartite edges between consecutive layers: a stage can
          // start only after every stage of the previous layer.
          for (int p = 0; p < kWidth; ++p) {
            deps.push_back(std::to_string((layer - 1) * kWidth + p));
          }
        }
        ASSERT_TRUE(dag.Add(std::to_string(id), deps,
                            [&done, &violations, id, layer,
                             kWidth_ = kWidth](util::StageMetrics*) {
                              if (layer > 0) {
                                for (int p = 0; p < kWidth_; ++p) {
                                  const int dep = (layer - 1) * kWidth_ + p;
                                  if (!done[static_cast<size_t>(dep)].load()) {
                                    violations.fetch_add(1);
                                  }
                                }
                              }
                              done[static_cast<size_t>(id)].store(true);
                            })
                        .ok());
      }
    }
    const util::ExecutionContext ctx(&pool);
    ASSERT_TRUE(dag.Run(ctx).ok());
    EXPECT_EQ(violations.load(), 0) << "iteration " << iter;
    for (const auto& d : done) EXPECT_TRUE(d.load());
  }
}

// A stage cancelling mid-run: already-finished stages keep their metrics
// rows, downstream stages are skipped (no rows), and Run reports
// kCancelled after draining.
TEST(StageDagTest, CancellationMidStageSkipsDependents) {
  for (const bool use_pool : {false, true}) {
    util::ThreadPool pool(4);
    util::CancellationToken cancel;
    util::PipelineMetrics metrics;
    util::StatusSink sink;
    const util::ExecutionContext ctx(use_pool ? &pool : nullptr, &metrics,
                                     &cancel, &sink);
    core::StageDag dag;
    std::atomic<bool> c_ran{false};
    ASSERT_TRUE(dag.Add("a", {}, Noop()).ok());
    ASSERT_TRUE(dag.Add("b", {"a"},
                        [&cancel](util::StageMetrics*) { cancel.Cancel(); })
                    .ok());
    ASSERT_TRUE(dag.Add("c", {"b"},
                        [&c_ran](util::StageMetrics*) { c_ran.store(true); })
                    .ok());
    const util::Status status = dag.Run(ctx);
    EXPECT_EQ(status.code(), util::StatusCode::kCancelled);
    EXPECT_FALSE(c_ran.load());
    EXPECT_NE(metrics.Find("b"), nullptr);
    EXPECT_EQ(metrics.Find("c"), nullptr);
  }
}

// A throwing stage fails the run with Internal (naming the stage), skips
// dependents, and still drains the graph.
TEST(StageDagTest, ThrowingStageFailsRunAndSkipsDependents) {
  for (const bool use_pool : {false, true}) {
    util::ThreadPool pool(4);
    util::PipelineMetrics metrics;
    util::StatusSink sink;
    const util::ExecutionContext ctx(use_pool ? &pool : nullptr, &metrics,
                                     nullptr, &sink);
    core::StageDag dag;
    std::atomic<bool> b_ran{false};
    ASSERT_TRUE(dag.Add("boom", {},
                        [](util::StageMetrics*) {
                          throw std::runtime_error("kaput");
                        })
                    .ok());
    ASSERT_TRUE(dag.Add("after", {"boom"},
                        [&b_ran](util::StageMetrics*) { b_ran.store(true); })
                    .ok());
    const util::Status status = dag.Run(ctx);
    EXPECT_EQ(status.code(), util::StatusCode::kInternal);
    EXPECT_NE(status.message().find("boom"), std::string::npos);
    EXPECT_NE(status.message().find("kaput"), std::string::npos);
    EXPECT_FALSE(b_ran.load());
  }
}

// A stage whose raw pool loop throws fails like a throwing stage body: the
// loop rethrows on the stage's thread after every chunk ran, so Run reports
// kInternal naming the stage and skips its dependents, with or without a
// pool, and nothing escapes to the pool's worker boundary.
TEST(StageDagTest, ThrowingRawLoopFailsItsOwnStage) {
  for (const bool use_pool : {false, true}) {
    util::ThreadPool pool(3);
    util::PipelineMetrics metrics;
    util::StatusSink sink;
    const util::ExecutionContext ctx(use_pool ? &pool : nullptr, &metrics,
                                     nullptr, &sink);
    core::StageDag dag;
    std::atomic<bool> after_ran{false};
    ASSERT_TRUE(dag.Add("loop", {},
                        [&ctx](util::StageMetrics*) {
                          util::ParallelFor(ctx.pool(), 16, [](int i) {
                            if (i == 3) throw std::runtime_error("index 3");
                          });
                        })
                    .ok());
    ASSERT_TRUE(dag.Add("after", {"loop"},
                        [&after_ran](util::StageMetrics*) {
                          after_ran.store(true);
                        })
                    .ok());
    const util::Status status = dag.Run(ctx);
    EXPECT_EQ(status.code(), util::StatusCode::kInternal) << use_pool;
    EXPECT_NE(status.message().find("'loop'"), std::string::npos)
        << status.message();
    EXPECT_NE(status.message().find("index 3"), std::string::npos)
        << status.message();
    EXPECT_FALSE(after_ran.load()) << use_pool;
    EXPECT_EQ(pool.exception_count(), 0) << use_pool;
  }
}

// A pre-cancelled token makes MineVideo return kCancelled without mining.
TEST(StageDagTest, PreCancelledMineVideoReturnsCancelled) {
  const synth::GeneratedVideo g = synth::GenerateVideo(synth::QuickScript(7));
  util::CancellationToken cancel;
  cancel.Cancel();
  const util::StatusOr<core::MiningResult> mined =
      core::MineVideo(g.video, g.audio, core::MiningOptions(),
                      util::ExecutionContext(nullptr, nullptr, &cancel));
  ASSERT_FALSE(mined.ok());
  EXPECT_EQ(mined.status().code(), util::StatusCode::kCancelled);
}

// Mines sharing one pool are not clamped to a thread each: two videos mined
// at once on one 8-thread pool report the full pool in every stage row.
TEST(BatchSchedulingTest, NoPerVideoThreadClamp) {
  const std::vector<synth::GeneratedVideo> videos = {
      synth::GenerateVideo(synth::QuickScript(41)),
      synth::GenerateVideo(synth::QuickScript(42))};
  util::ThreadPool pool(8);
  std::vector<util::StatusOr<core::MiningResult>> mined(
      videos.size(), util::Status::Internal("not mined"));
  std::vector<std::thread> callers;
  for (size_t i = 0; i < videos.size(); ++i) {
    callers.emplace_back([&, i] {
      mined[i] = core::MineVideo(videos[i].video, videos[i].audio,
                                 core::MiningOptions(), &pool);
    });
  }
  for (std::thread& caller : callers) caller.join();
  for (const util::StatusOr<core::MiningResult>& result : mined) {
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_FALSE(result->metrics.stages.empty());
    for (const util::StageMetrics& stage : result->metrics.stages) {
      EXPECT_EQ(stage.threads, 8) << stage.name;
    }
  }
}

// Parallel index construction is bit-identical to serial: same tree shape
// and the same centres, observed through exact Search results.
TEST(IndexBuildTest, ParallelBuildMatchesSerial) {
  const synth::GeneratedVideo g =
      synth::GenerateVideo(synth::QuickScript(55));
  util::StatusOr<core::MiningResult> mined =
      core::MineVideo(g.video, g.audio);
  ASSERT_TRUE(mined.ok());
  // Keep query features before the structure moves into the database.
  std::vector<features::ShotFeatures> queries;
  for (size_t i = 0; i < mined->structure.shots.size(); i += 3) {
    queries.push_back(mined->structure.shots[i].features);
  }
  ASSERT_FALSE(queries.empty());

  index::VideoDatabase db;
  db.AddVideo("det", std::move(mined->structure), std::move(mined->events));
  const index::ConceptHierarchy concepts =
      index::ConceptHierarchy::MedicalDefault();

  const index::HierarchicalIndex serial(&db, &concepts);

  util::ThreadPool pool(4);
  util::PipelineMetrics metrics;
  const util::ExecutionContext ctx(&pool, &metrics, nullptr, nullptr);
  const index::HierarchicalIndex parallel(
      &db, &concepts, index::HierarchicalIndex::Options(), ctx);

  EXPECT_EQ(parallel.cluster_count(), serial.cluster_count());
  EXPECT_EQ(parallel.TotalSceneNodes(), serial.TotalSceneNodes());
  EXPECT_EQ(parallel.TotalIndexedShots(), serial.TotalIndexedShots());
  // The build recorded its cost row through the context.
  const util::StageMetrics* row = metrics.Find("index_build");
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->items,
            static_cast<int64_t>(parallel.TotalIndexedShots()));
  EXPECT_EQ(row->threads, 4);

  for (const features::ShotFeatures& q : queries) {
    const std::vector<index::QueryMatch> s = serial.Search(q, 5);
    const std::vector<index::QueryMatch> p = parallel.Search(q, 5);
    ASSERT_EQ(p.size(), s.size());
    for (size_t i = 0; i < s.size(); ++i) {
      EXPECT_EQ(p[i].ref, s[i].ref);
      EXPECT_EQ(p[i].similarity, s[i].similarity);  // exact, not approx
    }
  }
}

}  // namespace
}  // namespace classminer
