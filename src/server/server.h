#ifndef CLASSMINER_SERVER_SERVER_H_
#define CLASSMINER_SERVER_SERVER_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/classminer.h"
#include "index/concept.h"
#include "server/ops.h"
#include "server/protocol.h"
#include "server/result_cache.h"
#include "server/scrubber.h"
#include "util/status.h"
#include "util/threadpool.h"

namespace classminer::server {

// classminerd — the mining daemon, built as a readiness-driven reactor.
//
// One reactor thread owns every socket: it accepts, assembles request
// frames from partial reads on non-blocking fds (level-triggered epoll,
// so the daemon builds on Linux only), and drains per-connection write
// queues when sockets become writable. Operations execute on a shared
// util::ThreadPool, which is also the mining pool: a mine fans its stages
// and loops out onto the workers. Workers never touch a socket and share
// no lock with any session: each run hands its one finished response back
// to the reactor through an event queue. The thread footprint is fixed
// regardless of connection count and of how many mines run at once:
// reactor + worker pool, zero per-connection or per-request threads —
// thousands of idle sessions cost file descriptors, not stacks. The reactor
// also owns time: it fires request deadlines and reaps idle sessions
// between readiness waits.
//
// Every request carries a request_id tag (server/protocol.h); requests
// pipeline up to max_pipeline deep per session and complete out of order.
// A client with one request in flight at a time sees a strictly serial
// session. The reactor is the only code that turns a response body into
// tagged chunk frames: it chunks a finished body only while the session's
// write queue is under its bound, so a slow reader holds only its own
// queued bytes, never a worker.
//
// Mining-backed requests (mine, skim) share a single-flight result cache
// keyed by (container identity, canonical options): N sessions asking for
// the same run cost one pipeline execution, and a cache hit is byte-
// identical to a fresh run. Browse bypasses the cache (its report depends
// on the session's credential); verify/repair touch database files and
// always execute.
//
// Each connection opens with a kHello handshake binding an
// index::UserCredential; every later request is checked against it
// (clearance per request kind, denied subtrees through the browse tree)
// before it runs. Admission control bounds the number of requests queued
// behind the workers — past the bound a request is answered kUnavailable
// immediately, which util::Retry treats as transient. A request-level
// deadline cancels the run cooperatively and answers kDeadlineExceeded.
//
// Stop() drains gracefully: the listener closes, no further requests are
// read, every in-flight request finishes and flushes its response, and all
// threads are joined before Stop returns.
struct ServerOptions {
  std::string host = "127.0.0.1";
  int port = 0;  // 0 picks an ephemeral port; see ClassMinerServer::port()
  int worker_threads = 4;      // execution and mining pool size
  int max_queue = 16;          // admission bound: requests queued, not running
  int max_connections = 1024;  // concurrent sessions (idle ones are cheap)
  size_t max_frame_bytes = kMaxFrameBytes;

  // Pipelining depth per session: requests in flight beyond this stay
  // buffered until one completes.
  int max_pipeline = 32;
  // Response chunk size: report bodies ship in chunks of this many bytes.
  size_t stream_chunk_bytes = 64u << 10;
  // Per-connection write-queue bound. Past it, the reactor chunks no more
  // of that session's responses until the peer drains the socket.
  size_t max_write_queue_bytes = 256u << 10;

  // Single-flight mining-result cache (mine/skim).
  size_t cache_max_bytes = 64u << 20;
  size_t cache_max_entries = 256;

  // Per-connection idle timeout: a session with nothing in flight and no
  // wire activity (including a slow-loris peer parked on half a frame
  // header) for this long is closed by the reactor.
  // 0 disables the reaper — idle sessions then cost a file descriptor
  // forever, exactly the pre-timeout daemon.
  int idle_timeout_ms = 0;

  // Per-session protocol-error budget: after this many inline-answered
  // protocol errors (unparseable requests, duplicate request_ids) the
  // session stops being read and closes once its owed responses flush.
  // A peer that keeps sending damage gets a clean goodbye, not a wedge.
  int max_session_errors = 8;

  // Background integrity scrubber: periodically verify `scrub_db_path` and
  // re-mine-repair it when dirty, yielding to client traffic (see
  // server/scrubber.h). Disabled unless both are set.
  std::string scrub_db_path;
  int scrub_interval_ms = 0;
  int scrub_max_yield_ms = 2000;
  // Fold dead records out of the scrub library's logs after clean passes
  // (ScrubberOptions::compact_logs).
  bool scrub_compact = false;

  // Base mining options for every operation. Its thread_count is not
  // read: each request mines on the worker pool that runs it, so
  // worker_threads sizes mining too, and the request's deadline token
  // reaches the run through the op's context (OpEnv::ctx).
  core::MiningOptions mining;
  std::string media_dir;  // where repair finds source containers

  // Clearance a session needs per request kind, indexed by RequestKind.
  // Defaults follow the paper's multilevel model: browsing and skimming are
  // open, mining needs operator clearance, verify/repair are administrative.
  // health is clearance 0 and additionally answered before the hello
  // handshake, so an unauthenticated load balancer can probe liveness.
  std::array<int, kRequestKindCount> min_clearance = {0, 1, 0, 0, 2, 3, 0};

  // Test seam: runs on the worker the moment a request begins executing
  // (after admission, before the op). Cache hits and single-flight joiners
  // never execute, so the hook does not fire for them. Lets tests hold
  // workers busy to force deterministic queue-full and deadline outcomes.
  std::function<void(RequestKind)> request_started_hook;
};

// Monotonic counters over the server's lifetime (snapshot is consistent
// per-field, not across fields). write_queue_peak_bytes is a high-water
// gauge, not a counter.
struct ServerStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_rejected = 0;  // over max_connections
  uint64_t connections_active = 0;
  uint64_t requests_received = 0;
  uint64_t requests_admitted = 0;  // passed admission control (incl. running)
  uint64_t requests_ok = 0;        // answered kOk (executed or cache-served)
  uint64_t requests_failed = 0;    // answered non-OK (incl. op errors)
  uint64_t rejected_admission = 0;  // answered kUnavailable, never queued
  uint64_t deadline_exceeded = 0;
  uint64_t permission_denied = 0;
  // Reactor counters.
  uint64_t requests_pipelined = 0;  // dispatched while the session had
                                    // other requests in flight
  uint64_t responses_streamed = 0;  // responses delivered as 2+ chunks
  uint64_t cache_hits = 0;          // answered from a stored entry
  uint64_t cache_joined = 0;        // attached to an in-flight run
  uint64_t cache_misses = 0;        // led a run (pipeline executions)
  uint64_t write_queue_peak_bytes = 0;
  // Chaos-hardening counters.
  uint64_t idle_closed = 0;        // sessions reaped by the idle timeout
  uint64_t protocol_errors = 0;    // inline protocol-error answers
  uint64_t error_budget_closed = 0;  // sessions closed for repeat damage
  uint64_t duplicate_request_ids = 0;  // request_id collisions rejected
  uint64_t idempotent_hits = 0;    // keyed retries answered from the record
  uint64_t idempotent_joined = 0;  // keyed retries joined to the original
  // Scrubber mirror (see server/scrubber.h).
  uint64_t scrub_passes = 0;
  uint64_t scrub_dirty = 0;
  uint64_t scrub_repairs = 0;
  uint64_t scrub_repair_failures = 0;
  uint64_t scrub_compactions = 0;
  uint64_t scrub_dead_dropped = 0;
};

class ClassMinerServer {
 public:
  explicit ClassMinerServer(ServerOptions options);
  ~ClassMinerServer();

  ClassMinerServer(const ClassMinerServer&) = delete;
  ClassMinerServer& operator=(const ClassMinerServer&) = delete;

  // Binds, listens and spawns the reactor. Fails without side effects
  // (no thread runs) when the socket cannot be bound or the epoll instance
  // cannot be created.
  util::Status Start();

  // Graceful shutdown: stops accepting, stops reading, finishes in-flight
  // requests and flushes their responses, joins all threads. Idempotent;
  // also runs from the destructor.
  void Stop();

  // The port actually bound (useful with port = 0). -1 before Start().
  int port() const { return port_; }

  ServerStats StatsSnapshot() const;

 private:
  struct Connection;   // reactor-owned per-session state machine
  struct TaskCtx;      // everything a pool task needs, detached from conn
  class Poller;        // epoll readiness multiplexer

  // One parsed-but-not-dispatched request (or a pre-answered parse error
  // held in arrival order).
  struct PendingRequest {
    Request request;
    bool inline_error = false;
    Response error;  // when inline_error: answered without dispatch
    // This pending entry registered request.request_id in the session's
    // live-id set; its final response releases the id. False for inline
    // errors and duplicate-id rejections (the duplicate must not free the
    // original's id).
    bool owns_id = false;
    // Idempotency entry this request already leads (carried through a
    // cache redispatch so the request never re-joins its own entry).
    std::string idem_lead;
  };

  // Worker -> reactor handoff: one event per run or joined flight.
  struct WorkerEvent {
    enum class Kind {
      kFinal,       // the op's response; body is the full report
      kRedispatch,  // single-flight leader failed; run this request anew
    };
    Kind kind = Kind::kFinal;
    uint64_t conn_id = 0;
    uint32_t request_id = 0;
    Response response;          // kFinal
    Request request;            // kRedispatch
    bool owns_id = false;       // kFinal/kRedispatch: mirrors PendingRequest
    std::string idem_lead;      // kRedispatch: idempotency lead carried over
    // kFinal posted by WorkerRun: the run it ends, whose deadline entry
    // the reactor drops. Null for cache and idempotency joiners.
    std::shared_ptr<TaskCtx> task;
  };

  // Reactor side (all run on the reactor thread).
  void ReactorLoop();
  void HandleAccept();
  void HandleReadable(Connection* conn);
  void TryDispatch(Connection* conn);
  void DispatchRequest(Connection* conn, PendingRequest&& pending);
  // Queues an inline protocol-error answer, charging the session's error
  // budget (read side closes once the budget is spent).
  void PushInlineError(Connection* conn, PendingRequest error);
  std::string BuildHealthReport() const;
  void EnqueueFinal(Connection* conn, Response response, bool release_id);
  void EnqueueFrameBytes(Connection* conn, std::vector<uint8_t> frame);
  void FillStreaming(Connection* conn);
  void FlushConn(Connection* conn);
  void UpdateWriteInterest(Connection* conn);
  bool ConnDrained(const Connection& conn) const;
  void CloseConnection(uint64_t id);
  void ProcessEvents();
  void BeginDrain();

  // Worker side.
  void WorkerRun(const std::shared_ptr<TaskCtx>& ctx);
  void PostEvent(WorkerEvent event);
  void Wake();
  void CountOutcome(const Response& response);

  ServerOptions options_;
  index::ConceptHierarchy concepts_;
  ResultCache cache_;
  ResultCache idem_cache_;  // keyed request outcomes (reconnect-and-resume)
  std::unique_ptr<IntegrityScrubber> scrubber_;

  int listen_fd_ = -1;
  int port_ = -1;
  int wake_fds_[2] = {-1, -1};  // [0] read end watched by the reactor
  std::atomic<bool> stopping_{false};
  std::thread reactor_thread_;
  std::unique_ptr<Poller> poller_;
  std::unique_ptr<util::ThreadPool> pool_;
  std::atomic<int> queued_{0};  // admitted but not yet executing
  std::atomic<int> busy_workers_{0};  // requests currently executing

  // Reactor-thread-only session table (tag 0 = listener, 1 = wake pipe).
  uint64_t next_conn_id_ = 2;
  std::unordered_map<uint64_t, std::unique_ptr<Connection>> conns_;
  bool draining_ = false;  // Stop() observed; no more reads/accepts
  // Reactor-thread-only: dispatched runs whose deadline has not fired,
  // earliest first. An entry leaves when its token fires or its run's
  // kFinal arrives, whichever comes first.
  std::multimap<std::chrono::steady_clock::time_point,
                std::shared_ptr<TaskCtx>>
      deadlines_;

  std::mutex event_mutex_;
  std::deque<WorkerEvent> events_;

  mutable std::mutex stats_mutex_;
  ServerStats stats_;
};

}  // namespace classminer::server

#endif  // CLASSMINER_SERVER_SERVER_H_
