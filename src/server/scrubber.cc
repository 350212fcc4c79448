#include "server/scrubber.h"

#include <chrono>
#include <utility>

#include "index/shard.h"

namespace classminer::server {

IntegrityScrubber::IntegrityScrubber(ScrubberOptions options)
    : options_(std::move(options)) {
  if (options_.max_yield_ms < 0) options_.max_yield_ms = 0;
}

IntegrityScrubber::~IntegrityScrubber() { Stop(); }

void IntegrityScrubber::Start() {
  if (!enabled() || thread_.joinable()) return;
  thread_ = std::thread([this] { Loop(); });
}

void IntegrityScrubber::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

ScrubberStats IntegrityScrubber::StatsSnapshot() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

void IntegrityScrubber::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait_for(lock, std::chrono::milliseconds(options_.interval_ms),
                 [this] { return stopping_; });
    if (stopping_) return;
    lock.unlock();
    YieldToTraffic();
    {
      std::lock_guard<std::mutex> guard(mu_);
      if (stopping_) return;
    }
    RunOnce();
    lock.lock();
  }
}

void IntegrityScrubber::YieldToTraffic() {
  if (!options_.busy) return;
  const auto give_up = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(options_.max_yield_ms);
  // Polite, not starvable: back off in small slices while clients are being
  // served, but once the grace period is spent the pass runs regardless —
  // a saturated daemon still gets its library audited.
  while (options_.busy() && std::chrono::steady_clock::now() < give_up) {
    std::unique_lock<std::mutex> lock(mu_);
    if (cv_.wait_for(lock, std::chrono::milliseconds(20),
                     [this] { return stopping_; })) {
      return;
    }
  }
}

void IntegrityScrubber::RunOnce() {
  index::VerifyReport report = index::VerifyDatabaseFile(options_.db_path);
  bool clean = report.clean();
  bool repaired = false, repair_failed = false;
  std::string repair_error;
  if (!clean) {
    // Dirty (or unreadable): run the re-mine repair through the ops layer,
    // then let a confirming verify render the verdict. Repair rewrites the
    // database only when something healed, so a clean re-verify means the
    // rot is actually gone, not merely unreported.
    const OpResult repair = RepairOp(options_.db_path, options_.env, nullptr);
    if (!repair.ok()) repair_error = repair.status.message();
    report = index::VerifyDatabaseFile(options_.db_path);
    clean = report.clean();
    if (clean) {
      repaired = true;
    } else {
      repair_failed = true;
    }
  }
  std::string error;
  if (!clean) {
    error = !report.error.empty()
                ? report.error
                : (!repair_error.empty() ? repair_error
                                         : "database not clean");
  }

  // With the library clean, fold any dead records out of its append logs.
  // Non-forced compaction skips pristine shards, so a quiet daemon settles
  // into all-skip passes that cost one parallel log parse each.
  bool compacted = false, compact_failed = false;
  uint64_t dropped = 0;
  if (options_.compact_logs && clean) {
    const util::StatusOr<
        std::vector<index::ShardedDatabase::CompactionReport>>
        folds = index::CompactDatabaseFile(options_.db_path);
    if (!folds.ok()) {
      compact_failed = true;
    } else {
      for (const index::ShardedDatabase::CompactionReport& fold : *folds) {
        if (fold.skipped) continue;
        compacted = true;
        dropped += fold.dead_dropped;
      }
    }
  }

  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.passes;
  if (repaired || repair_failed) ++stats_.dirty_found;
  if (repaired) ++stats_.repairs;
  if (repair_failed) ++stats_.repair_failures;
  stats_.last_clean = clean;
  stats_.ever_ran = true;
  stats_.last_degraded = static_cast<uint64_t>(
      report.degraded_videos > 0 ? report.degraded_videos : 0);
  stats_.last_error = std::move(error);
  if (compacted) ++stats_.compactions;
  if (compact_failed) ++stats_.compaction_failures;
  stats_.dead_dropped += dropped;
}

}  // namespace classminer::server
