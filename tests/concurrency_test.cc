#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <future>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/classminer.h"
#include "core/cmv_pipeline.h"
#include "core/pipeline_dag.h"
#include "mined_output_crc.h"
#include "synth/corpus.h"
#include "util/threadpool.h"

namespace classminer {
namespace {

// Blocks until every worker of `pool` is running one of the tasks this
// schedules behind everything already queued. Workers pop in FIFO order and
// finish a task (exception accounting included) before popping the next,
// so on return every earlier task has completed and every worker is alive.
void Quiesce(util::ThreadPool* pool) {
  const int workers = pool->thread_count();
  std::atomic<int> running{0};
  std::atomic<bool> go{false};
  std::atomic<int> left{0};
  for (int w = 0; w < workers; ++w) {
    pool->Schedule([&running, &go, &left] {
      running.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      left.fetch_add(1);
    });
  }
  while (running.load() < workers) std::this_thread::yield();
  go = true;
  while (left.load() < workers) std::this_thread::yield();
}

TEST(ThreadPoolTest, RunsEveryTask) {
  std::atomic<int> counter{0};
  {
    util::ThreadPool pool(4);
    for (int i = 0; i < 100; ++i) {
      pool.Schedule([&counter] { counter.fetch_add(1); });
    }
  }  // the destructor runs every queued task before it joins
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitOnIdlePoolReturns) {
  { util::ThreadPool pool(2); }  // joining an idle pool must not hang
  SUCCEED();
}

TEST(ThreadPoolTest, ParallelForCoversEachIndexOnce) {
  util::ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(57);
  util::ParallelFor(&pool, 57, [&hits](int i) {
    hits[static_cast<size_t>(i)].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, AtLeastOneWorkerEvenForZero) {
  std::atomic<bool> ran{false};
  {
    util::ThreadPool pool(0);
    EXPECT_GE(pool.thread_count(), 1);
    pool.Schedule([&ran] { ran = true; });
  }
  EXPECT_TRUE(ran.load());
}

// Regression: a throwing task used to skip the pool's in-flight
// bookkeeping and deadlock the waiter. The pool catches at the worker
// boundary, counts the exception, and stays fully usable.
TEST(ThreadPoolTest, ThrowingTaskDoesNotDeadlockWait) {
  util::ThreadPool pool(2);
  std::atomic<int> completed{0};
  for (int i = 0; i < 8; ++i) {
    pool.Schedule([&completed, i] {
      if (i % 2 == 0) throw std::runtime_error("task failure");
      completed.fetch_add(1);
    });
  }
  Quiesce(&pool);  // must return despite the throwing tasks
  EXPECT_EQ(completed.load(), 4);
  EXPECT_EQ(pool.exception_count(), 4);

  // The workers survive and keep executing later tasks.
  std::atomic<bool> ran{false};
  pool.Schedule([&ran] { ran = true; });
  Quiesce(&pool);
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPoolTest, NonStdExceptionAlsoCaught) {
  util::ThreadPool pool(1);
  pool.Schedule([] { throw 42; });
  Quiesce(&pool);
  EXPECT_EQ(pool.exception_count(), 1);
}

TEST(ThreadPoolTest, ParallelForNullPoolRunsInline) {
  std::vector<int> hits(13, 0);
  util::ParallelFor(nullptr, 13,
                    [&hits](int i) { ++hits[static_cast<size_t>(i)]; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, ParallelForGrainCoversEachIndexOnce) {
  util::ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(57);
  util::ParallelFor(
      &pool, 57,
      [&hits](int i) { hits[static_cast<size_t>(i)].fetch_add(1); },
      /*grain=*/5);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// A throwing body does not cut the loop short: every other index still runs
// once, and the exception reaches the caller, never the pool.
TEST(ThreadPoolTest, ParallelForRunsEveryIndexAndRethrowsOnCaller) {
  util::ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(16);
  try {
    util::ParallelFor(&pool, 16, [&hits](int i) {
      if (i == 3) throw std::runtime_error("index 3 failed");
      hits[static_cast<size_t>(i)].fetch_add(1);
    });
    ADD_FAILURE() << "ParallelFor swallowed the body's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "index 3 failed");
  }
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(hits[static_cast<size_t>(i)].load(), i == 3 ? 0 : 1) << i;
  }
  EXPECT_EQ(pool.exception_count(), 0);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  // A ParallelFor body fans out onto the SAME pool. The waiting caller
  // claims its own loop's chunks, so even a 2-thread pool fully saturated
  // by the outer loop completes the inner loops.
  util::ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(8 * 16);
  util::ParallelFor(&pool, 8, [&](int outer) {
    util::ParallelFor(&pool, 16, [&](int inner) {
      hits[static_cast<size_t>(outer * 16 + inner)].fetch_add(1);
    });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// Runs `wait_on_own_work` inside a task of a 2-thread pool whose other
// worker is parked on a blocker, right after that task queued a foreign
// task. Returns whether the foreign task ran while the caller was still
// inside `wait_on_own_work`. A caller that helps by popping the pool's
// queue runs the foreign task first; a caller that claims only its own
// work leaves it queued until the blocker is released.
bool ForeignTaskRanInsideWait(
    const std::function<void(util::ThreadPool*)>& wait_on_own_work) {
  std::promise<void> blocker_started;
  std::promise<void> release;
  std::promise<void> caller_done;
  std::shared_future<void> released = release.get_future().share();
  std::future<void> started = blocker_started.get_future();
  std::future<void> done = caller_done.get_future();
  std::atomic<bool> inside{false};
  std::atomic<bool> foreign_ran{false};
  std::atomic<bool> foreign_ran_inside{false};
  {
    util::ThreadPool pool(2);
    pool.Schedule([&blocker_started, released] {
      blocker_started.set_value();
      released.wait();
    });
    started.wait();
    pool.Schedule([&] {
      pool.Schedule([&inside, &foreign_ran, &foreign_ran_inside] {
        foreign_ran_inside = inside.load();
        foreign_ran = true;
      });
      inside = true;
      wait_on_own_work(&pool);
      inside = false;
      caller_done.set_value();
    });
    done.wait();
    release.set_value();
  }
  EXPECT_TRUE(foreign_ran.load());
  return foreign_ran_inside.load();
}

TEST(ThreadPoolTest, WaitingParallelForCallerRunsNoForeignTask) {
  std::vector<int> hits(4, 0);
  const bool ran_inside =
      ForeignTaskRanInsideWait([&hits](util::ThreadPool* pool) {
        util::ParallelFor(pool, 4, [&hits](int i) {
          ++hits[static_cast<size_t>(i)];
        });
      });
  EXPECT_FALSE(ran_inside);
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, WaitingStageDagCallerRunsNoForeignTask) {
  std::vector<std::string> order;
  std::mutex mutex;
  const auto stage = [&order, &mutex](const char* name) {
    return [&order, &mutex, name](util::StageMetrics*) {
      std::lock_guard<std::mutex> lock(mutex);
      order.emplace_back(name);
    };
  };
  core::StageDag dag;
  ASSERT_TRUE(dag.Add("a", {}, stage("a")).ok());
  ASSERT_TRUE(dag.Add("b", {"a"}, stage("b")).ok());
  ASSERT_TRUE(dag.Add("c", {"a"}, stage("c")).ok());
  const bool ran_inside =
      ForeignTaskRanInsideWait([&dag](util::ThreadPool* pool) {
        EXPECT_TRUE(dag.Run(util::ExecutionContext(pool)).ok());
      });
  EXPECT_FALSE(ran_inside);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "a");
}

// The quickstart clip at half the shots and a quarter of the pixels, so the
// shared-pool test below stays quick under TSan.
synth::VideoScript SmallScript(uint64_t seed) {
  synth::VideoScript script = synth::QuickScript(seed);
  script.width = 48;
  script.height = 36;
  for (synth::SceneScript& scene : script.scenes) {
    scene.shots = (scene.shots + 1) / 2;
  }
  return script;
}

// Four callers mine four different containers at once on one 4-thread pool,
// on every mining path: each result is bit-identical to a serial mine of the
// same container, and every stage row reports the shared pool's threads (a
// mine sharing a pool is not clamped to one thread).
TEST(SharedPoolMiningTest, ConcurrentCallersMatchSerialMines) {
  constexpr size_t kCallers = 4;
  constexpr int kThreads = 4;
  std::vector<synth::GeneratedVideo> videos;
  std::vector<codec::CmvFile> files;
  for (size_t c = 0; c < kCallers; ++c) {
    videos.push_back(synth::GenerateVideo(SmallScript(90 + c)));
    files.push_back(core::PackGeneratedVideo(videos.back()));
  }
  const core::MiningOptions full;
  core::MiningOptions lean;
  lean.structure_only = true;
  using Mine = std::function<util::StatusOr<core::MiningResult>(
      size_t, const util::ExecutionContext&)>;
  const std::vector<std::pair<std::string, Mine>> paths = {
      {"pixel MineVideo",
       [&](size_t c, const util::ExecutionContext& ctx) {
         return core::MineVideo(videos[c].video, videos[c].audio, full, ctx);
       }},
      {"MineCmvFile",
       [&](size_t c, const util::ExecutionContext& ctx) {
         return core::MineCmvFile(files[c], full, ctx);
       }},
      {"MineCmvFileFast",
       [&](size_t c, const util::ExecutionContext& ctx) {
         return core::MineCmvFileFast(files[c], full, ctx);
       }},
      {"structure-only skim",
       [&](size_t c, const util::ExecutionContext& ctx) {
         return core::MineCmvFile(files[c], lean, ctx);
       }},
  };

  util::ThreadPool pool(kThreads);
  for (const auto& [name, mine] : paths) {
    SCOPED_TRACE(name);
    std::vector<uint32_t> serial;
    for (size_t c = 0; c < kCallers; ++c) {
      const util::StatusOr<core::MiningResult> mined =
          mine(c, util::ExecutionContext());
      ASSERT_TRUE(mined.ok()) << mined.status().ToString();
      serial.push_back(MinedOutputCrc(*mined));
    }
    // Distinct containers, so a mine that read another's state would show.
    for (size_t c = 1; c < kCallers; ++c) {
      EXPECT_NE(serial[c], serial[c - 1]) << "caller " << c;
    }

    std::vector<util::StatusOr<core::MiningResult>> shared(
        kCallers, util::Status::Internal("not mined"));
    std::vector<std::thread> callers;
    for (size_t c = 0; c < kCallers; ++c) {
      callers.emplace_back([&, c] { shared[c] = mine(c, &pool); });
    }
    for (std::thread& caller : callers) caller.join();

    for (size_t c = 0; c < kCallers; ++c) {
      SCOPED_TRACE("caller " + std::to_string(c));
      ASSERT_TRUE(shared[c].ok()) << shared[c].status().ToString();
      EXPECT_EQ(MinedOutputCrc(*shared[c]), serial[c]);
      ASSERT_FALSE(shared[c]->metrics.stages.empty());
      for (const util::StageMetrics& stage : shared[c]->metrics.stages) {
        EXPECT_EQ(stage.threads, kThreads) << stage.name;
      }
    }
  }
}

// Two full-size clips mined at once by two callers on one 2-thread pool
// are bit-identical to serial mines of the same clips.
TEST(ParallelMiningTest, MatchesSerialResults) {
  const std::vector<synth::GeneratedVideo> videos = {
      synth::GenerateVideo(synth::QuickScript(81)),
      synth::GenerateVideo(synth::QuickScript(82))};
  std::vector<uint32_t> serial;
  for (const synth::GeneratedVideo& v : videos) {
    const util::StatusOr<core::MiningResult> mined =
        core::MineVideo(v.video, v.audio);
    ASSERT_TRUE(mined.ok()) << mined.status().ToString();
    serial.push_back(MinedOutputCrc(*mined));
  }
  EXPECT_NE(serial[0], serial[1]);

  util::ThreadPool pool(2);
  std::vector<util::StatusOr<core::MiningResult>> parallel(
      videos.size(), util::Status::Internal("not mined"));
  std::vector<std::thread> callers;
  for (size_t i = 0; i < videos.size(); ++i) {
    callers.emplace_back([&, i] {
      parallel[i] = core::MineVideo(videos[i].video, videos[i].audio,
                                    core::MiningOptions(), &pool);
    });
  }
  for (std::thread& caller : callers) caller.join();
  for (size_t i = 0; i < videos.size(); ++i) {
    ASSERT_TRUE(parallel[i].ok()) << parallel[i].status().ToString();
    EXPECT_EQ(MinedOutputCrc(*parallel[i]), serial[i]) << "video " << i;
  }
}

}  // namespace
}  // namespace classminer
