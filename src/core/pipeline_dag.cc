#include "core/pipeline_dag.h"

#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <memory>
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
  // Per-run scheduling state, shared with this run's helper tasks. Only a
  // thread holding a claimed stage touches the graph, the slots or the
  // context, and the caller does not return while a claim is running, so a
  // helper that starts after the run returned finds the queue empty and
  // leaves. One mutex guards it all: stage bodies dominate the cost, the
  // bookkeeping is a handful of integer ops per stage.
  struct RunState {
    const StageDag* dag;
    const util::ExecutionContext* ctx;
    std::vector<RowSlot>* slots;
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<int> ready;       // released, unclaimed stages (FIFO)
    std::vector<int> remaining;  // unresolved deps per stage
    int running = 0;             // claimed stages still executing

    // Claims and runs this run's ready stages until none is ready; the
    // caller (`wait`) then also blocks until no claimed stage is running.
    // Skipped stages (cancelled or failed run) flow through here too, so
    // dependents are still released.
    static void Claim(const std::shared_ptr<RunState>& state, bool wait) {
      std::unique_lock<std::mutex> lock(state->mutex);
      while (true) {
        if (state->ready.empty()) {
          if (!wait || state->running == 0) return;
          state->cv.wait(lock);
          continue;
        }
        const auto i = static_cast<size_t>(state->ready.front());
        state->ready.pop_front();
        ++state->running;
        lock.unlock();
        const Stage& stage = state->dag->stages_[i];
        state->dag->ExecuteStage(stage, *state->ctx, &(*state->slots)[i]);
        lock.lock();
        int released = 0;
        for (int d : stage.dependents) {
          if (--state->remaining[static_cast<size_t>(d)] == 0) {
            state->ready.push_back(d);
            ++released;
          }
        }
        // This thread keeps one released stage; each other gets a helper.
        for (int h = 1; h < released; ++h) {
          state->ctx->pool()->Schedule([state] { Claim(state, false); });
        }
        --state->running;
        if (released > 1 || state->running == 0) state->cv.notify_all();
      }
    }
  };

  const auto state = std::make_shared<RunState>();
  state->dag = this;
  state->ctx = &run_ctx;
  state->slots = slots;
  state->remaining.resize(stages_.size());
  for (size_t i = 0; i < stages_.size(); ++i) {
    state->remaining[i] = static_cast<int>(stages_[i].deps.size());
    if (stages_[i].deps.empty()) state->ready.push_back(static_cast<int>(i));
  }
  // Read before the first helper starts; the queue is shared from then on.
  const size_t roots = state->ready.size();
  for (size_t h = 1; h < roots; ++h) {
    run_ctx.pool()->Schedule([state] { RunState::Claim(state, false); });
  }
  RunState::Claim(state, true);
}

}  // namespace classminer::core
