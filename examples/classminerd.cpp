// classminerd — the ClassMiner daemon. Serves mine/browse/skim/verify/
// repair over the CMQ2/CMS2 wire protocol (see DESIGN.md) so many clients
// can share one mining service:
//
//   classminerd [--host H] [--port N] [--threads N] [--queue N]
//               [--max-conn N] [--media DIR] [--pipeline N]
//               [--chunk BYTES] [--write-queue BYTES]
//               [--cache-bytes N] [--cache-entries N]
//               [--idle-timeout MS] [--max-errors N]
//               [--scrub-db PATH] [--scrub-interval MS] [--scrub-yield MS]
//               [--scrub-compact] [--chaos SITE=SPEC[,SITE=SPEC...]]
//               [--failpoints list]
//
// The bound port is printed to stdout as "listening on H:P" (useful with
// --port 0, which picks an ephemeral port). SIGTERM/SIGINT stop the daemon
// gracefully: the listener closes, in-flight requests drain and flush
// their responses, and the final stats line goes to stderr.
//
// Numeric values must be whole decimal numbers the option can hold; junk
// is a usage error (exit 2).
//
// --threads sizes the worker pool (default 4), which is also the mining
// pool: each request's mine fans its stages and loops out onto it, so the
// daemon runs the reactor plus that many threads whatever the load.
//
// --scrub-db / --scrub-interval run the background integrity scrubber: a
// low-priority thread that periodically verifies the named database and
// schedules a repair when the audit finds rot (see DESIGN.md).
//
// --chaos arms the named fault-injection sites for chaos testing; SPEC is
// `once`, `always`, `every:N`, or `p:PROB[:SEED]` (e.g.
// `--chaos server.wire.send.torn=p:0.05:7,server.accept.reset=every:20`).
// Only for test rigs — armed sites inject real faults into live traffic.

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include <unistd.h>

#include "parse_number.h"
#include "server/server.h"
#include "util/failpoint.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

int Usage() {
  std::fprintf(stderr,
               "usage: classminerd [--host H] [--port N] [--threads N] "
               "[--queue N] [--max-conn N] [--media DIR] [--pipeline N] "
               "[--chunk BYTES] [--write-queue BYTES] "
               "[--cache-bytes N] [--cache-entries N] [--idle-timeout MS] "
               "[--max-errors N] [--scrub-db PATH] [--scrub-interval MS] "
               "[--scrub-yield MS] [--scrub-compact] "
               "[--chaos SITE=SPEC[,...]] [--failpoints list]\n");
  return 2;
}

// Parses one `site=spec` chaos entry and arms the site. Returns false on a
// malformed entry.
bool ArmChaosEntry(const std::string& entry) {
  const size_t eq = entry.find('=');
  if (eq == std::string::npos || eq == 0) return false;
  const std::string site = entry.substr(0, eq);
  const std::string spec = entry.substr(eq + 1);
  using Spec = classminer::util::FailPoint::Spec;
  if (spec == "once") {
    classminer::util::FailPoint::Arm(site, Spec::Once());
    return true;
  }
  if (spec == "always") {
    classminer::util::FailPoint::Arm(site, Spec::Always());
    return true;
  }
  if (spec.rfind("every:", 0) == 0) {
    int n = 0;
    if (!classminer::ParseNumber(spec.substr(6), &n) || n < 1) return false;
    classminer::util::FailPoint::Arm(site, Spec::EveryN(n));
    return true;
  }
  if (spec.rfind("p:", 0) == 0) {
    const std::string rest = spec.substr(2);
    const size_t colon = rest.find(':');
    double p = 0.0;
    if (!classminer::ParseNumber(rest.substr(0, colon), &p)) return false;
    uint64_t seed = 1;
    if (colon != std::string::npos) {
      if (!classminer::ParseNumber(rest.substr(colon + 1), &seed)) {
        return false;
      }
      if (seed == 0) seed = 1;
    }
    if (p <= 0.0 || p > 1.0) return false;
    classminer::util::FailPoint::Arm(site, Spec::WithProbability(p, seed));
    return true;
  }
  return false;
}

bool ArmChaos(const std::string& list) {
  size_t start = 0;
  while (start <= list.size()) {
    size_t comma = list.find(',', start);
    if (comma == std::string::npos) comma = list.size();
    const std::string entry = list.substr(start, comma - start);
    if (!entry.empty() && !ArmChaosEntry(entry)) return false;
    start = comma + 1;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace classminer;

  server::ServerOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--host" && i + 1 < argc) {
      options.host = argv[++i];
    } else if (arg == "--port" && i + 1 < argc) {
      if (!ParseNumber(argv[++i], &options.port)) return Usage();
    } else if (arg == "--threads" && i + 1 < argc) {
      if (!ParseNumber(argv[++i], &options.worker_threads)) return Usage();
    } else if (arg == "--queue" && i + 1 < argc) {
      if (!ParseNumber(argv[++i], &options.max_queue)) return Usage();
    } else if (arg == "--max-conn" && i + 1 < argc) {
      if (!ParseNumber(argv[++i], &options.max_connections)) return Usage();
    } else if (arg == "--media" && i + 1 < argc) {
      options.media_dir = argv[++i];
    } else if (arg == "--pipeline" && i + 1 < argc) {
      if (!ParseNumber(argv[++i], &options.max_pipeline)) return Usage();
    } else if (arg == "--chunk" && i + 1 < argc) {
      if (!ParseNumber(argv[++i], &options.stream_chunk_bytes)) return Usage();
    } else if (arg == "--write-queue" && i + 1 < argc) {
      if (!ParseNumber(argv[++i], &options.max_write_queue_bytes)) {
        return Usage();
      }
    } else if (arg == "--cache-bytes" && i + 1 < argc) {
      if (!ParseNumber(argv[++i], &options.cache_max_bytes)) return Usage();
    } else if (arg == "--cache-entries" && i + 1 < argc) {
      if (!ParseNumber(argv[++i], &options.cache_max_entries)) return Usage();
    } else if (arg == "--idle-timeout" && i + 1 < argc) {
      if (!ParseNumber(argv[++i], &options.idle_timeout_ms)) return Usage();
    } else if (arg == "--max-errors" && i + 1 < argc) {
      if (!ParseNumber(argv[++i], &options.max_session_errors)) return Usage();
    } else if (arg == "--scrub-db" && i + 1 < argc) {
      options.scrub_db_path = argv[++i];
    } else if (arg == "--scrub-interval" && i + 1 < argc) {
      if (!ParseNumber(argv[++i], &options.scrub_interval_ms)) return Usage();
    } else if (arg == "--scrub-yield" && i + 1 < argc) {
      if (!ParseNumber(argv[++i], &options.scrub_max_yield_ms)) return Usage();
    } else if (arg == "--scrub-compact") {
      options.scrub_compact = true;
    } else if (arg == "--failpoints" && i + 1 < argc) {
      // `--failpoints list` prints the compiled-in fail-point catalogue —
      // what chaos rigs may pass to --chaos — and exits.
      const std::string sub = argv[++i];
      if (sub != "list") return Usage();
      for (const std::string& site : util::FailPoint::KnownSites()) {
        std::printf("%s\n", site.c_str());
      }
      return 0;
    } else if (arg == "--chaos" && i + 1 < argc) {
      if (!ArmChaos(argv[++i])) {
        std::fprintf(stderr, "classminerd: bad --chaos spec\n");
        return Usage();
      }
    } else {
      return Usage();
    }
  }

  server::ClassMinerServer daemon(options);
  const util::Status started = daemon.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "classminerd: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("listening on %s:%d\n", options.host.c_str(), daemon.port());
  std::fflush(stdout);

  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = HandleSignal;
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);

  while (g_stop == 0) pause();  // signals end the wait

  daemon.Stop();  // graceful: drains in-flight requests
  const server::ServerStats stats = daemon.StatsSnapshot();
  std::fprintf(stderr,
               "classminerd: served %llu request(s) on %llu connection(s) "
               "(%llu ok, %llu failed, %llu rejected, %llu deadline, "
               "%llu denied), %llu pipelined, %llu streamed, cache "
               "%llu hit / %llu joined / %llu miss, "
               "%llu connection(s) still active\n",
               static_cast<unsigned long long>(stats.requests_received),
               static_cast<unsigned long long>(stats.connections_accepted),
               static_cast<unsigned long long>(stats.requests_ok),
               static_cast<unsigned long long>(stats.requests_failed),
               static_cast<unsigned long long>(stats.rejected_admission),
               static_cast<unsigned long long>(stats.deadline_exceeded),
               static_cast<unsigned long long>(stats.permission_denied),
               static_cast<unsigned long long>(stats.requests_pipelined),
               static_cast<unsigned long long>(stats.responses_streamed),
               static_cast<unsigned long long>(stats.cache_hits),
               static_cast<unsigned long long>(stats.cache_joined),
               static_cast<unsigned long long>(stats.cache_misses),
               static_cast<unsigned long long>(stats.connections_active));
  std::fprintf(stderr,
               "classminerd: robustness: %llu idle-closed, %llu protocol "
               "error(s), %llu budget-closed, %llu duplicate id(s), "
               "idempotent %llu hit / %llu joined, scrub %llu pass(es) / "
               "%llu dirty / %llu repaired / %llu repair-failed\n",
               static_cast<unsigned long long>(stats.idle_closed),
               static_cast<unsigned long long>(stats.protocol_errors),
               static_cast<unsigned long long>(stats.error_budget_closed),
               static_cast<unsigned long long>(stats.duplicate_request_ids),
               static_cast<unsigned long long>(stats.idempotent_hits),
               static_cast<unsigned long long>(stats.idempotent_joined),
               static_cast<unsigned long long>(stats.scrub_passes),
               static_cast<unsigned long long>(stats.scrub_dirty),
               static_cast<unsigned long long>(stats.scrub_repairs),
               static_cast<unsigned long long>(stats.scrub_repair_failures));
  return stats.connections_active == 0 ? 0 : 1;
}
