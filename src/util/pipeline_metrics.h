#ifndef CLASSMINER_UTIL_PIPELINE_METRICS_H_
#define CLASSMINER_UTIL_PIPELINE_METRICS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace classminer::util {

// ---------------------------------------------------------------------------
// Per-stage pipeline observability. Each pipeline stage (shot -> audio ->
// group -> scene -> cluster -> cues -> events, plus the database-side
// index_build / browse / skim stages) records wall time, items processed and
// the thread count it ran with; the registry rides on MiningResult (and on
// database operations via ExecutionContext) so callers — CLI, benches,
// ingest services — can see where a video's cost went without instrumenting
// anything themselves. Lives in util so every layer below core can append
// rows through the shared ExecutionContext.

struct StageMetrics {
  std::string name;
  double wall_ms = 0.0;
  int64_t items = 0;   // stage-specific unit: frames, shots, groups, scenes
  int threads = 1;     // threads available to the stage (1 = serial)
  // Optional stage-specific counters rendered after the fixed columns
  // (e.g. the fast path's decode stage reports gops= and failed_gops=).
  std::vector<std::pair<std::string, int64_t>> counters;
  // Per-stage outcome under a degraded-mode run: OK for stages that
  // completed, the recorded failure for optional stages that did not
  // (strict runs abort instead of annotating). Rendered in ToString.
  Status status;

  // First counter with this name, or -1.
  int64_t Counter(std::string_view counter_name) const;
};

struct PipelineMetrics {
  std::vector<StageMetrics> stages;  // in pipeline declaration order

  // Distinct errors the run's StatusSink dropped after the first error won
  // (first-error-wins keeps one status; this records how many more there
  // were). Diagnostic only — does not affect the run's status.
  int suppressed_errors = 0;

  double TotalMs() const;
  // First stage with this name, or nullptr.
  const StageMetrics* Find(std::string_view name) const;
  // Aligned human-readable table, one line per stage plus a total row (and
  // a suppressed row when suppressed_errors is non-zero).
  std::string ToString() const;
};

// RAII stage timer: measures from construction to destruction on the
// steady clock and appends one row to the registry. A null registry makes
// the timer a no-op so instrumented code paths need no branching.
class StageTimer {
 public:
  StageTimer(PipelineMetrics* metrics, std::string name, int threads = 1);
  ~StageTimer();

  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

  void set_items(int64_t items) { row_.items = items; }

 private:
  PipelineMetrics* metrics_;
  StageMetrics row_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace classminer::util

#endif  // CLASSMINER_UTIL_PIPELINE_METRICS_H_
