#ifndef CLASSMINER_SERVER_OPS_H_
#define CLASSMINER_SERVER_OPS_H_

#include <cstddef>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "codec/container.h"
#include "core/classminer.h"
#include "index/access_control.h"
#include "util/exec_context.h"
#include "util/status.h"

namespace classminer::server {

// The operation layer shared by the classminer CLI and classminerd: one
// implementation of mine/browse/skim/verify/repair that renders a
// deterministic report. The CLI prints the report to stdout; the daemon
// ships it as the response body — so a server response is byte-identical to
// the equivalent CLI invocation by construction, at any thread count
// (mining is bit-identical across thread counts; see core/classminer.h).
//
// Everything non-deterministic — per-stage wall-clock tables, degradation
// and salvage notes — goes to OpDiagnostics instead; the CLI prints it to
// stderr, the daemon logs it.

// Report accumulator with an optional streaming tap. Every op writes its
// report through one of these; the full text is always accumulated (it is
// what the CLI prints and what the result cache stores), and when a sink is
// attached, completed fragments of at least `chunk_bytes` are forwarded as
// they close — the daemon ships them as non-final response chunks while
// the op is still running. The concatenation of the forwarded fragments
// plus the unsent tail is the accumulated report, byte for byte, so
// streaming can never change what a client reassembles.
class ReportStream {
 public:
  // Receives one report fragment; fragments arrive in order and never
  // overlap. May block (the daemon uses that for write-queue backpressure).
  using ChunkSink = std::function<void(const std::string& fragment)>;

  explicit ReportStream(ChunkSink sink = nullptr,
                        size_t chunk_bytes = 64u << 10)
      : sink_(std::move(sink)),
        chunk_bytes_(chunk_bytes > 0 ? chunk_bytes : 1) {}

  // Appends raw text to the report, forwarding any chunk it completes.
  void Append(const std::string& text);
  // printf-append (same formatter the report strings always used).
  void Appendf(const char* fmt, ...);

  // The full report accumulated so far (streamed prefix included).
  const std::string& report() const { return report_; }
  // Bytes already handed to the sink (a prefix of report()).
  size_t streamed_bytes() const { return streamed_; }

 private:
  void ForwardCompletedChunks();

  ChunkSink sink_;
  size_t chunk_bytes_;
  std::string report_;
  size_t streamed_ = 0;  // prefix of report_ already sent to sink_
};

// Execution environment for one operation.
struct OpEnv {
  // Failure policy and the mining parameters. Its thread_count is not read
  // (mines run on `ctx`), and its structure_only is ignored: which stages
  // to mine is each op's own choice (see SkimOp).
  core::MiningOptions mining;
  // Where every mine of the op runs: its pool (shared with whatever else
  // the owner runs on it) and its cancellation token. The default mines
  // serially and is never cancelled. The CLI hands every op one pool per
  // process; the daemon hands each request the worker pool it runs on.
  util::ExecutionContext ctx;
  std::string media_dir;       // where repair finds source containers
  // Optional streaming tap for the report-rendering ops (mine, browse,
  // skim). Null = accumulate only (CLI, verify/repair, cache fills).
  ReportStream::ChunkSink chunk_sink;
  size_t chunk_bytes = 64u << 10;  // fragment size when chunk_sink is set
};

// Advisory side channel: never part of the report body.
struct OpDiagnostics {
  std::vector<std::string> notes;  // degradation / salvage, one per line
  // Per-stage cost tables (timing — non-deterministic), pre-labelled.
  std::vector<std::string> metrics;
};

// What an operation produced. `report` is filled whenever the operation ran
// far enough to have something to say — verify and repair return their
// report text even when the status is non-OK (a dirty database is a
// finding, not a transport failure).
struct OpResult {
  util::Status status;
  std::string report;
  // Prefix of `report` already delivered through env.chunk_sink (0 when no
  // sink was attached). The daemon's final response chunk carries only
  // report.substr(streamed_bytes).
  size_t streamed_bytes = 0;

  bool ok() const { return status.ok(); }
};

// mine <path> [--fast] [--strict]: structure + event summary of one
// container.
OpResult MineOp(const std::string& path, bool fast, bool strict,
                const OpEnv& env, OpDiagnostics* diag);

// browse <path...> [--strict]: mines every container into an in-memory
// database and renders the browse tree visible to `user` (multilevel
// access control: clearance + denied subtrees filter scenes and videos).
OpResult BrowseOp(const std::vector<std::string>& paths, bool strict,
                  const index::UserCredential& user, const OpEnv& env,
                  OpDiagnostics* diag);

// skim <path> [level]: the four-level skim table with `level` marked.
// `file_out` / `result_out` (may be null) receive the loaded container and
// mining result so the CLI can build exports without re-mining. The table
// reads only the content structure, so without `result_out` the op mines
// structure only (MiningOptions::structure_only: no audio, cues or events);
// with it, the full pipeline runs. The report is the same either way.
OpResult SkimOp(const std::string& path, int level, const OpEnv& env,
                OpDiagnostics* diag, codec::CmvFile* file_out = nullptr,
                core::MiningResult* result_out = nullptr);

// verify <db>: integrity audit of one database file. Status is kOk only
// when the file is pristine (kDataLoss("database not clean") otherwise);
// the report is returned either way.
OpResult VerifyOp(const std::string& db_path);

// repair <db>: re-mines degraded entries from `env.media_dir` and rewrites
// the database when anything healed. Status is kOk when no entry was left
// unrepaired (kDataLoss otherwise); the report is returned either way.
OpResult RepairOp(const std::string& db_path, const OpEnv& env,
                  OpDiagnostics* diag);

// compact <db> [--shard K] [--force]: folds the library's append logs into
// pristine generations, dropping superseded records and tombstones
// (shard < 0 = every shard; force folds even shards with no dead records).
// The report lists each shard's verdict. A path that holds no library is
// refused untouched.
OpResult CompactOp(const std::string& db_path, int shard, bool force);

}  // namespace classminer::server

#endif  // CLASSMINER_SERVER_OPS_H_
