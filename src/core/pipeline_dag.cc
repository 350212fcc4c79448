#include "core/pipeline_dag.h"

#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <utility>

namespace classminer::core {

namespace {

double MsSince(std::chrono::steady_clock::time_point start) {
  const auto elapsed = std::chrono::steady_clock::now() - start;
  return std::chrono::duration_cast<
             std::chrono::duration<double, std::milli>>(elapsed)
      .count();
}

}  // namespace

util::Status StageDag::Add(std::string name, std::vector<std::string> deps,
                           StageFn fn) {
  if (name.empty()) {
    return util::Status::InvalidArgument("stage name must not be empty");
  }
  if (IndexOf(name) >= 0) {
    return util::Status::InvalidArgument("duplicate stage name: " + name);
  }
  Stage stage;
  stage.name = std::move(name);
  stage.fn = std::move(fn);
  for (const std::string& dep : deps) {
    const int d = IndexOf(dep);
    if (d < 0) {
      // Deps must be declared first, which makes declaration order a valid
      // topological order and rules out cycles by construction.
      return util::Status::InvalidArgument("stage '" + stage.name +
                                           "' depends on unknown stage '" +
                                           dep + "'");
    }
    stage.deps.push_back(d);
  }
  const int index = static_cast<int>(stages_.size());
  for (int d : stage.deps) stages_[static_cast<size_t>(d)].dependents.push_back(index);
  stages_.push_back(std::move(stage));
  return util::Status();
}

int StageDag::IndexOf(std::string_view name) const {
  for (size_t i = 0; i < stages_.size(); ++i) {
    if (stages_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

std::vector<std::string> StageDag::DependenciesOf(
    std::string_view name) const {
  std::vector<std::string> out;
  const int i = IndexOf(name);
  if (i < 0) return out;
  for (int d : stages_[static_cast<size_t>(i)].deps) {
    out.push_back(stages_[static_cast<size_t>(d)].name);
  }
  return out;
}

void StageDag::ExecuteStage(const Stage& stage,
                            const util::ExecutionContext& ctx,
                            RowSlot* slot) const {
  if (ctx.cancelled()) return;
  if (ctx.status_sink() != nullptr && !ctx.status_sink()->ok()) return;
  slot->row.name = stage.name;
  slot->row.threads = ctx.thread_count();
  const auto start = std::chrono::steady_clock::now();
  try {
    stage.fn(&slot->row);
  } catch (const std::exception& e) {
    ctx.RecordStatus(util::Status::Internal("stage '" + stage.name +
                                            "' threw: " + e.what()));
  } catch (...) {
    ctx.RecordStatus(util::Status::Internal("stage '" + stage.name +
                                            "' threw a non-std value"));
  }
  slot->row.wall_ms = MsSince(start);
  slot->executed = true;
}

void StageDag::AppendRows(util::PipelineMetrics* metrics,
                          std::vector<RowSlot>* slots) {
  if (metrics == nullptr) return;
  for (RowSlot& slot : *slots) {
    if (slot.executed) metrics->stages.push_back(std::move(slot.row));
  }
}

util::Status StageDag::RunStatus(const util::ExecutionContext& ctx) {
  util::Status status = ctx.status();
  if (!status.ok()) return status;
  if (ctx.cancelled()) return util::Status::Cancelled("pipeline cancelled");
  return util::Status();
}

util::Status StageDag::Run(const util::ExecutionContext& ctx) {
  util::StatusSink local_sink;
  const util::ExecutionContext run_ctx =
      ctx.status_sink() != nullptr ? ctx : ctx.WithSink(&local_sink);
  std::vector<RowSlot> slots(stages_.size());
  if (run_ctx.pool() == nullptr || run_ctx.pool()->thread_count() <= 1) {
    // No concurrency available: declaration order is a valid topological
    // order, so the stages simply run one after another.
    for (size_t i = 0; i < stages_.size(); ++i) {
      ExecuteStage(stages_[i], run_ctx, &slots[i]);
    }
  } else {
    RunOnPool(run_ctx, &slots);
  }
  AppendRows(run_ctx.metrics(), &slots);
  return RunStatus(run_ctx);
}

void StageDag::RunOnPool(const util::ExecutionContext& run_ctx,
                         std::vector<RowSlot>* slots) const {
  const int n = static_cast<int>(stages_.size());

  // Per-run scheduling state. `remaining[i]` counts unresolved deps of
  // stage i; a stage is enqueued on the pool the moment it hits zero.
  // Everything is guarded by one mutex — stage bodies dominate the cost,
  // the bookkeeping is a handful of integer ops per stage.
  struct RunState {
    std::mutex mutex;
    std::condition_variable cv;
    std::vector<int> remaining;
    int completed = 0;
  } state;
  state.remaining.resize(stages_.size());
  for (size_t i = 0; i < stages_.size(); ++i) {
    state.remaining[i] = static_cast<int>(stages_[i].deps.size());
  }

  // Runs stage i then releases its dependents. Skipped stages (cancelled /
  // failed run) still flow through here so the completion count reaches n
  // and dependents are drained rather than stranded.
  std::function<void(int)> run_stage = [&](int i) {
    ExecuteStage(stages_[static_cast<size_t>(i)], run_ctx,
                 &(*slots)[static_cast<size_t>(i)]);
    std::vector<int> ready;
    {
      std::lock_guard<std::mutex> lock(state.mutex);
      for (int d : stages_[static_cast<size_t>(i)].dependents) {
        if (--state.remaining[static_cast<size_t>(d)] == 0) ready.push_back(d);
      }
    }
    for (int d : ready) {
      run_ctx.pool()->Schedule([&run_stage, d] { run_stage(d); });
    }
    // Count completion after the newly-ready stages are queued, so a waiter
    // woken by this notification always finds them in the pool queue.
    {
      std::lock_guard<std::mutex> lock(state.mutex);
      ++state.completed;
      state.cv.notify_all();
    }
  };

  for (int i = 0; i < n; ++i) {
    if (stages_[static_cast<size_t>(i)].deps.empty()) {
      run_ctx.pool()->Schedule([&run_stage, i] { run_stage(i); });
    }
  }

  // Help while waiting (same discipline as util::ParallelFor): execute
  // queued tasks — our stages, their nested parallel-loop chunks, or other
  // videos' work — so calling Run from inside a pool task cannot deadlock.
  {
    std::unique_lock<std::mutex> lock(state.mutex);
    while (state.completed < n) {
      lock.unlock();
      const bool ran = run_ctx.pool()->TryRunOneTask();
      lock.lock();
      if (!ran && state.completed < n) state.cv.wait(lock);
    }
  }
}

}  // namespace classminer::core
