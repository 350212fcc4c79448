#include "util/pipeline_metrics.h"

#include <algorithm>
#include <cstdio>

namespace classminer::util {

int64_t StageMetrics::Counter(std::string_view counter_name) const {
  for (const auto& [name_, value] : counters) {
    if (name_ == counter_name) return value;
  }
  return -1;
}

double PipelineMetrics::TotalMs() const {
  double total = 0.0;
  for (const StageMetrics& s : stages) total += s.wall_ms;
  return total;
}

const StageMetrics* PipelineMetrics::Find(std::string_view name) const {
  for (const StageMetrics& s : stages) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::string PipelineMetrics::ToString() const {
  std::string out;
  char line[128];
  std::snprintf(line, sizeof(line), "%-12s %10s %8s %8s\n", "stage",
                "wall_ms", "items", "threads");
  out += line;
  for (const StageMetrics& s : stages) {
    std::snprintf(line, sizeof(line), "%-12s %10.2f %8lld %8d",
                  s.name.c_str(), s.wall_ms, static_cast<long long>(s.items),
                  s.threads);
    out += line;
    for (const auto& [counter, value] : s.counters) {
      std::snprintf(line, sizeof(line), "  %s=%lld", counter.c_str(),
                    static_cast<long long>(value));
      out += line;
    }
    if (!s.status.ok()) {
      std::snprintf(line, sizeof(line), "  FAILED(%s)",
                    StatusCodeName(s.status.code()));
      out += line;
    }
    out += '\n';
  }
  std::snprintf(line, sizeof(line), "%-12s %10.2f\n", "total", TotalMs());
  out += line;
  if (suppressed_errors > 0) {
    std::snprintf(line, sizeof(line), "%-12s %10d\n", "suppressed",
                  suppressed_errors);
    out += line;
  }
  return out;
}

StageTimer::StageTimer(PipelineMetrics* metrics, std::string name,
                       int threads)
    : metrics_(metrics), start_(std::chrono::steady_clock::now()) {
  row_.name = std::move(name);
  row_.threads = std::max(1, threads);
}

StageTimer::~StageTimer() {
  if (metrics_ == nullptr) return;
  const auto elapsed = std::chrono::steady_clock::now() - start_;
  row_.wall_ms =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
          elapsed)
          .count();
  metrics_->stages.push_back(std::move(row_));
}

}  // namespace classminer::util
