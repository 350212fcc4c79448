#ifndef CLASSMINER_CORE_PIPELINE_DAG_H_
#define CLASSMINER_CORE_PIPELINE_DAG_H_

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "util/exec_context.h"
#include "util/pipeline_metrics.h"
#include "util/status.h"

namespace classminer::core {

// ---------------------------------------------------------------------------
// Declarative stage graph for the mining pipeline.
//
// A pipeline is a list of named stages with explicit dependencies. Every
// mining path declares its own front end (the pixel path a `shot` stage,
// the CMV fast path shot -> decode -> repframe) and then one shared tail:
// {audio, group -> scene -> cluster, cues} -> events. The graph executes
// two ways, both producing bit-identical results:
//
//   * serial — no pool or a 1-thread pool: stages in declaration order,
//              loops inline;
//   * DAG    — independent stages execute concurrently (on the caller and
//              pool helper tasks) the moment their dependencies resolve,
//              inner loops parallel on the same pool.
//
// Determinism holds because dependencies mirror the true data flow (a stage
// reads only outputs of its declared deps), every parallel inner loop writes
// per-index slots with fixed partitioning, and metrics rows are appended in
// declaration order after the run, never in completion order.
//
// Error/cancel semantics: a stage that throws records the first failure into
// the run's status sink; once the sink is non-OK (or the context's
// cancellation token fires) remaining stages are skipped, dependents are
// still released so the run drains, and the first error (or kCancelled) is
// returned. A skipped stage appends no metrics row.
class StageDag {
 public:
  // The stage body receives its metrics row (never null) to set `items`;
  // name/threads/wall_ms are filled by the runner.
  using StageFn = std::function<void(util::StageMetrics*)>;

  // Declares a stage. Every dependency must name an already-added stage, so
  // declaration order is forced to be a valid topological order and cycles
  // cannot be expressed. Duplicate names and unknown deps are errors.
  util::Status Add(std::string name, std::vector<std::string> deps,
                   StageFn fn);

  int size() const { return static_cast<int>(stages_.size()); }
  // Direct dependencies of `name` (empty for roots or unknown names).
  std::vector<std::string> DependenciesOf(std::string_view name) const;

  // Executes the graph with DAG scheduling on ctx.pool(). The calling
  // thread and helper tasks claim ready stages from this run's own queue;
  // the caller runs only this graph's stages and blocks only while none is
  // ready and a claimed one is still running. So Run may itself be invoked
  // from inside a pool task (the daemon runs each request's whole mine on
  // a worker of the mining pool) and never runs other runs' work while it
  // waits. Without a
  // multi-thread pool the stages run serially in declaration order.
  util::Status Run(const util::ExecutionContext& ctx);

 private:
  struct Stage {
    std::string name;
    std::vector<int> deps;        // indices of prerequisite stages
    std::vector<int> dependents;  // stages waiting on this one
    StageFn fn;
  };
  // Per-stage result slot for one run; rows are appended to the registry in
  // declaration order afterwards so concurrent completion cannot reorder
  // the metrics table.
  struct RowSlot {
    util::StageMetrics row;
    bool executed = false;
  };

  int IndexOf(std::string_view name) const;
  // Runs one stage body with timing + exception capture; skips (leaving
  // executed=false) when the context is already cancelled or failed.
  void ExecuteStage(const Stage& stage, const util::ExecutionContext& ctx,
                    RowSlot* slot) const;
  // Claim-based DAG scheduling of every stage on ctx.pool() (more than one
  // thread).
  void RunOnPool(const util::ExecutionContext& ctx,
                 std::vector<RowSlot>* slots) const;
  static void AppendRows(util::PipelineMetrics* metrics,
                         std::vector<RowSlot>* slots);
  // Final status of a run: first sink error, else kCancelled if the token
  // fired, else OK.
  static util::Status RunStatus(const util::ExecutionContext& ctx);

  std::vector<Stage> stages_;
};

}  // namespace classminer::core

#endif  // CLASSMINER_CORE_PIPELINE_DAG_H_
