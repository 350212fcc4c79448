#ifndef CLASSMINER_UTIL_EXEC_CONTEXT_H_
#define CLASSMINER_UTIL_EXEC_CONTEXT_H_

#include <atomic>
#include <functional>
#include <mutex>
#include <utility>

#include "util/pipeline_metrics.h"
#include "util/status.h"
#include "util/threadpool.h"

namespace classminer::util {

class Arena;  // util/arena.h

// Cooperative cancellation flag shared between a pipeline run and its
// caller. Cancellation is checked at stage boundaries (and at the head of
// context-routed parallel loops); a cancelled run stops scheduling new work
// and reports StatusCode::kCancelled, it does not interrupt a stage body
// that is already executing.
class CancellationToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_release); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

// Thread-safe first-error-wins status collector. Pipeline stages and
// parallel-loop bodies run concurrently on pool workers; any of them can
// record a failure here and the pipeline run reports the first one instead
// of silently logging a swallowed exception. Later distinct errors are not
// silently lost: they are counted, and the count is surfaced through
// PipelineMetrics::suppressed_errors so operators can see that one video
// failed in more than one way.
class StatusSink {
 public:
  // Keeps the first non-OK status; later non-OK records bump the
  // suppressed-error count instead of vanishing.
  void Record(Status status);
  Status Get() const;
  bool ok() const;
  // Non-OK records dropped after the first error won.
  int suppressed_count() const;

 private:
  mutable std::mutex mutex_;
  Status status_;
  int suppressed_ = 0;
};

// The execution environment threaded through every pipeline layer: a shared
// thread pool, the per-run metrics registry, a cancellation token and a
// status sink. It is a non-owning view — a bundle of borrowed pointers —
// cheap to copy and valid only while its owners live:
//
//   * the ThreadPool is owned by whoever mines: the process (the CLI's one
//     pool, the daemon's worker pool, a bench's corpus pool) or, for the
//     `(..., options)` entry points, the call itself; it is shared by every
//     stage of every mine scheduled on it;
//   * the PipelineMetrics registry is owned by the MiningResult (or by the
//     CLI for database-side stages) it describes;
//   * the CancellationToken is owned by the caller requesting cancellation;
//   * the StatusSink is owned by the pipeline run collecting failures.
//
// Any pointer may be null: a default context means "serial, unobserved,
// never cancelled", so layers take `const ExecutionContext&` without
// branching on optional instrumentation.
class ExecutionContext {
 public:
  ExecutionContext() = default;
  // Adoption shim: lets a bare pool (or nullptr) flow into context-taking
  // signatures, so legacy ThreadPool* call sites keep working unchanged.
  ExecutionContext(ThreadPool* pool) : pool_(pool) {}  // NOLINT
  ExecutionContext(ThreadPool* pool, PipelineMetrics* metrics,
                   CancellationToken* cancel = nullptr,
                   StatusSink* sink = nullptr)
      : pool_(pool), metrics_(metrics), cancel_(cancel), sink_(sink) {}

  ThreadPool* pool() const { return pool_; }
  // Per-run bump arena for transient frame planes and feature scratch
  // (null when the run has none). Borrowed like every other member: owned
  // by the pipeline entry point and valid for the duration of the run.
  // Arena allocations are thread-safe, but anything placed in it must not
  // outlive the run (results must escape by copy to the heap).
  Arena* arena() const { return arena_; }
  int thread_count() const {
    return pool_ != nullptr ? pool_->thread_count() : 1;
  }
  PipelineMetrics* metrics() const { return metrics_; }
  CancellationToken* cancellation() const { return cancel_; }
  StatusSink* status_sink() const { return sink_; }

  bool cancelled() const { return cancel_ != nullptr && cancel_->cancelled(); }

  // Records a failure into the sink (first one wins); no-op without a sink.
  void RecordStatus(Status status) const {
    if (sink_ != nullptr && !status.ok()) sink_->Record(std::move(status));
  }
  Status status() const { return sink_ != nullptr ? sink_->Get() : Status(); }

  // Derived contexts: same pool/cancellation, different observers.
  ExecutionContext WithMetrics(PipelineMetrics* metrics) const {
    ExecutionContext ctx(pool_, metrics, cancel_, sink_);
    ctx.arena_ = arena_;
    return ctx;
  }
  ExecutionContext WithSink(StatusSink* sink) const {
    ExecutionContext ctx(pool_, metrics_, cancel_, sink);
    ctx.arena_ = arena_;
    return ctx;
  }
  ExecutionContext WithArena(Arena* arena) const {
    ExecutionContext ctx(pool_, metrics_, cancel_, sink_);
    ctx.arena_ = arena;
    return ctx;
  }

 private:
  ThreadPool* pool_ = nullptr;
  PipelineMetrics* metrics_ = nullptr;
  CancellationToken* cancel_ = nullptr;
  StatusSink* sink_ = nullptr;
  Arena* arena_ = nullptr;
};

// Context-routed ParallelFor: same fixed partitioning and claiming as the
// ThreadPool overload (bit-identical results), plus pipeline semantics —
// the whole loop is skipped when the context is already cancelled or
// failed, and an exception escaping `fn` is captured into the context's
// status sink (attributed to this run) instead of being rethrown on the
// caller. Without a sink it is rethrown, as the ThreadPool overload does.
void ParallelFor(const ExecutionContext& ctx, int count,
                 const std::function<void(int)>& fn, int grain = 1);

}  // namespace classminer::util

#endif  // CLASSMINER_UTIL_EXEC_CONTEXT_H_
