#ifndef CLASSMINER_UTIL_THREADPOOL_H_
#define CLASSMINER_UTIL_THREADPOOL_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace classminer::util {

// Minimal fixed-size thread pool. Runs the daemon's requests and, within
// one mine, the per-stage hot loops (feature extraction, scene-similarity
// matrices, per-shot audio analysis) and the stage-DAG scheduler; several
// mines may share one pool. Every parallel loop in the pipeline writes to
// pre-sized per-index slots and reduces serially, so results are
// bit-identical to a serial run.
//
// Nesting: callers that wait for their own work (ParallelFor, the stage-DAG
// runner) claim it. The caller and a few helper tasks take chunks (or
// stages) from that call's own shared counter or queue; the caller runs only
// what it claims, then blocks until the claims other threads hold are done.
// A waited-on item is therefore always running on some thread, so a pool
// task may fan out onto the same pool without self-deadlock, and a waiting
// caller never runs another loop's, stage's or video's work.
//
// Exception policy: a task that throws does NOT kill the worker. The
// exception is caught at the worker boundary, logged at Error severity, and
// counted (see exception_count()). ParallelFor and the stage-DAG runner
// never let a body's exception reach the pool: loops rethrow it on their
// caller, stages record it in the run's status sink. An exception escaping
// a raw Schedule() task is a survivable but loud programming error.
//
// The destructor runs every task still queued, then joins the workers.
class ThreadPool {
 public:
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues a task; runs as soon as a worker is free.
  void Schedule(std::function<void()> task);

  int thread_count() const { return static_cast<int>(workers_.size()); }

  // Number of tasks that escaped with an exception since construction.
  int exception_count() const {
    return exception_count_.load(std::memory_order_relaxed);
  }

  // A sensible default: hardware concurrency, at least 1.
  static int DefaultThreads();

 private:
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::deque<std::function<void()>> queue_;
  bool shutdown_ = false;
  std::atomic<int> exception_count_{0};
  std::vector<std::thread> workers_;
};

// Runs fn(i) for i in [0, count) and waits. A null `pool` (or a
// single-thread pool) runs the loop inline, so callers can thread an
// optional pool through without branching. `grain` batches consecutive
// indices into one chunk to amortise claiming overhead on cheap bodies;
// partitioning is fixed by (count, grain) alone, never by thread timing.
// The caller and at most min(thread_count, chunks - 1) helper tasks claim
// chunks from one atomic counter; the caller runs only this loop's chunks,
// then blocks until the chunks other threads claimed are done. So concurrent
// ParallelFor calls share the pool without waiting on each other, and
// calling from inside a task of the same pool is safe.
//
// Every chunk runs even when a body throws (a throwing chunk stops at the
// throwing index). The exception of the lowest throwing chunk is rethrown
// on the caller after the last chunk finishes; the inline path throws from
// the first throwing index, as a plain loop does.
void ParallelFor(ThreadPool* pool, int count,
                 const std::function<void(int)>& fn, int grain = 1);

}  // namespace classminer::util

#endif  // CLASSMINER_UTIL_THREADPOOL_H_
