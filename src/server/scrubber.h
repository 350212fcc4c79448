#ifndef CLASSMINER_SERVER_SCRUBBER_H_
#define CLASSMINER_SERVER_SCRUBBER_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

#include "server/ops.h"
#include "util/status.h"

namespace classminer::server {

// Background integrity scrubber: the daemon-resident half of the
// verify→repair cycle the CLI runs by hand. A long-lived library rots from
// underneath a running daemon (bad media, interrupted writes from other
// tools); the scrubber notices before a client does.
//
// A single low-priority thread periodically audits the configured database
// through the same ops layer the request path uses (`VerifyOp`), and when
// the audit finds degraded or damaged entries it schedules a re-mine repair
// (`RepairOp`, sourcing pristine containers from the media dir) followed by
// a confirming re-verify. Scrub work yields to client traffic: before each
// pass the scrubber waits for the server's admission queue and workers to
// go quiet, but only up to a bounded grace period — under sustained load it
// still makes progress, it just picks polite moments when it can.
//
// The scrubber never touches sockets or server internals; the server probes
// it for counters (StatsSnapshot, the `health` request kind) and it probes
// the server for load through the `busy` callback.
struct ScrubberOptions {
  std::string db_path;    // database file to audit (empty = scrubber off)
  int interval_ms = 0;    // pause between passes (0 = scrubber off)
  // How long one pass may defer to live traffic before running anyway.
  int max_yield_ms = 2000;
  // Load probe: true while client work is queued or executing. Polled
  // between yields; null = never busy.
  std::function<bool()> busy;
  // Also fold the library's append logs after each pass that left it
  // clean: dead records (superseded upserts, tombstones) are the normal
  // exhaust of the append-only tier, and the scrubber is the
  // daemon-resident janitor that keeps them from accumulating. Shards with
  // nothing dead are skipped.
  bool compact_logs = false;
  // Environment for the repair re-mine (mining options + media dir). Its
  // context is where the re-mine runs; the daemon leaves it serial.
  OpEnv env;
};

// Counters over the scrubber's lifetime plus the latest pass's verdict.
// Snapshot is internally consistent (taken under one lock).
struct ScrubberStats {
  uint64_t passes = 0;           // verify sweeps completed
  uint64_t dirty_found = 0;      // sweeps whose verify came back not clean
  uint64_t repairs = 0;          // repair runs that brought verify to clean
  uint64_t repair_failures = 0;  // repair runs that left the file dirty
  bool last_clean = false;       // verdict of the most recent pass
  bool ever_ran = false;         // at least one pass has completed
  uint64_t last_degraded = 0;    // degraded entries left after the last pass
  std::string last_error;        // first integrity failure of the last pass
  // Shard-log compaction (only moves when ScrubberOptions::compact_logs is
  // set and the database is sharded).
  uint64_t compactions = 0;          // passes that folded at least one shard
  uint64_t compaction_failures = 0;  // compaction attempts that errored
  uint64_t dead_dropped = 0;         // dead records reclaimed, lifetime
};

class IntegrityScrubber {
 public:
  explicit IntegrityScrubber(ScrubberOptions options);
  ~IntegrityScrubber();

  IntegrityScrubber(const IntegrityScrubber&) = delete;
  IntegrityScrubber& operator=(const IntegrityScrubber&) = delete;

  // Spawns the scrub thread. No-op (and no thread) when the options leave
  // the scrubber disabled.
  void Start();
  // Wakes and joins the thread; idempotent, also run by the destructor.
  void Stop();

  bool enabled() const {
    return !options_.db_path.empty() && options_.interval_ms > 0;
  }

  // One synchronous verify(→repair→verify) pass; updates the counters.
  // Exposed for tests and usable whether or not the thread runs.
  void RunOnce();

  ScrubberStats StatsSnapshot() const;

 private:
  void Loop();
  // Sleeps until the server looks idle or the yield budget runs out.
  void YieldToTraffic();

  ScrubberOptions options_;
  std::thread thread_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;

  mutable std::mutex stats_mu_;
  ScrubberStats stats_;
};

}  // namespace classminer::server

#endif  // CLASSMINER_SERVER_SCRUBBER_H_
