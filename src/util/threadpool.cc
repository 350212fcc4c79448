#include "util/threadpool.h"

#include <algorithm>
#include <exception>
#include <memory>

#include "util/logging.h"

namespace classminer::util {

ThreadPool::ThreadPool(int threads) {
  const int n = std::max(1, threads);
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::Schedule(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (shutdown_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    try {
      task();
    } catch (const std::exception& e) {
      exception_count_.fetch_add(1, std::memory_order_relaxed);
      CM_LOG(Error) << "ThreadPool task threw: " << e.what();
    } catch (...) {
      exception_count_.fetch_add(1, std::memory_order_relaxed);
      CM_LOG(Error) << "ThreadPool task threw a non-std exception";
    }
  }
}

int ThreadPool::DefaultThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

namespace {

// Shared state of one pooled ParallelFor call. Helper tasks hold it by
// shared_ptr, so a helper that starts after the call returned finds every
// chunk claimed and leaves without touching `fn`, which the caller owns.
struct LoopState {
  LoopState(const std::function<void(int)>& f, int n, int s)
      : fn(&f), count(n), step(s), chunks((n + s - 1) / s) {}

  // Claims and runs chunks until none is left. A throwing chunk stops at
  // the throwing index; its exception is kept if it is the lowest so far.
  void RunChunks() {
    for (int c = next.fetch_add(1, std::memory_order_relaxed); c < chunks;
         c = next.fetch_add(1, std::memory_order_relaxed)) {
      std::exception_ptr thrown;
      try {
        const int begin = c * step;
        const int end = begin + std::min(step, count - begin);
        for (int i = begin; i < end; ++i) (*fn)(i);
      } catch (...) {
        thrown = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(mutex);
      if (thrown != nullptr && (error == nullptr || c < error_chunk)) {
        error = std::move(thrown);
        error_chunk = c;
      }
      if (++done == chunks) cv.notify_all();
    }
  }

  const std::function<void(int)>* fn;
  const int count;
  const int step;
  const int chunks;
  std::atomic<int> next{0};
  std::mutex mutex;
  std::condition_variable cv;
  int done = 0;
  std::exception_ptr error;
  int error_chunk = 0;
};

}  // namespace

void ParallelFor(ThreadPool* pool, int count,
                 const std::function<void(int)>& fn, int grain) {
  if (count <= 0) return;
  const int step = std::max(1, grain);
  if (pool == nullptr || pool->thread_count() <= 1 || count <= step) {
    for (int i = 0; i < count; ++i) fn(i);
    return;
  }

  const auto state = std::make_shared<LoopState>(fn, count, step);
  const int helpers = std::min(pool->thread_count(), state->chunks - 1);
  for (int h = 0; h < helpers; ++h) {
    pool->Schedule([state] { state->RunChunks(); });
  }
  state->RunChunks();
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(state->mutex);
    state->cv.wait(lock, [&state] { return state->done == state->chunks; });
    error = state->error;
  }
  if (error != nullptr) std::rethrow_exception(error);
}

}  // namespace classminer::util
