#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <future>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/classminer.h"
#include "core/pipeline_dag.h"
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

TEST(ParallelMiningTest, MatchesSerialResults) {
  // Two small videos; parallel ingest must be bit-identical to serial.
  const synth::GeneratedVideo a =
      synth::GenerateVideo(synth::QuickScript(81));
  const synth::GeneratedVideo b =
      synth::GenerateVideo(synth::QuickScript(82));

  const util::StatusOr<core::MiningResult> sa =
      core::MineVideo(a.video, a.audio);
  const util::StatusOr<core::MiningResult> sb =
      core::MineVideo(b.video, b.audio);
  ASSERT_TRUE(sa.ok());
  ASSERT_TRUE(sb.ok());

  const std::vector<core::MiningInput> inputs{{&a.video, &a.audio},
                                              {&b.video, &b.audio}};
  const util::StatusOr<std::vector<core::MiningResult>> batch =
      core::MineVideosParallel(inputs, core::MiningOptions(), 2);
  ASSERT_TRUE(batch.ok());
  const std::vector<core::MiningResult>& parallel = *batch;
  ASSERT_EQ(parallel.size(), 2u);

  auto expect_same = [](const core::MiningResult& serial,
                        const core::MiningResult& par) {
    EXPECT_EQ(par.shot_trace.cuts, serial.shot_trace.cuts);
    ASSERT_EQ(par.structure.shots.size(), serial.structure.shots.size());
    EXPECT_EQ(par.structure.groups.size(), serial.structure.groups.size());
    EXPECT_EQ(par.structure.scenes.size(), serial.structure.scenes.size());
    ASSERT_EQ(par.events.size(), serial.events.size());
    for (size_t i = 0; i < serial.events.size(); ++i) {
      EXPECT_EQ(par.events[i].type, serial.events[i].type);
    }
  };
  expect_same(*sa, parallel[0]);
  expect_same(*sb, parallel[1]);
}

TEST(ParallelMiningTest, BatchStatusResolvesPerVideo) {
  // One bad slot (null video) must not take down the batch: its status
  // fails, the healthy slots still mine, and only the first-error-wins
  // wrapper reports the aggregate failure.
  const synth::GeneratedVideo good =
      synth::GenerateVideo(synth::QuickScript(83));
  const std::vector<core::MiningInput> inputs{
      {&good.video, &good.audio},
      {nullptr, &good.audio},
      {&good.video, &good.audio}};

  const core::BatchMiningResult batch =
      core::MineVideosParallelWithStatus(inputs, core::MiningOptions(), 2);
  ASSERT_EQ(batch.results.size(), 3u);
  ASSERT_EQ(batch.statuses.size(), 3u);
  EXPECT_TRUE(batch.statuses[0].ok());
  EXPECT_EQ(batch.statuses[1].code(), util::StatusCode::kInvalidArgument);
  EXPECT_TRUE(batch.statuses[2].ok());
  EXPECT_EQ(batch.FirstError().code(), util::StatusCode::kInvalidArgument);

  // Healthy slots carry real results, bit-identical to a solo run.
  const util::StatusOr<core::MiningResult> solo =
      core::MineVideo(good.video, good.audio);
  ASSERT_TRUE(solo.ok());
  EXPECT_EQ(batch.results[0].shot_trace.cuts, solo->shot_trace.cuts);
  EXPECT_EQ(batch.results[2].shot_trace.cuts, solo->shot_trace.cuts);
  EXPECT_TRUE(batch.results[1].structure.shots.empty());

  // The wrapper refuses the whole batch on any per-video failure.
  EXPECT_FALSE(
      core::MineVideosParallel(inputs, core::MiningOptions(), 2).ok());
}

}  // namespace
}  // namespace classminer
