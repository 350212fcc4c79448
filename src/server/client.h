#ifndef CLASSMINER_SERVER_CLIENT_H_
#define CLASSMINER_SERVER_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "server/protocol.h"
#include "util/retry.h"
#include "util/status.h"

namespace classminer::server {

// Client side of the classminerd protocol: one TCP session whose requests
// carry client-assigned tags, so many can ride the wire at once and
// responses complete out of order. Connect() performs the hello handshake,
// so a constructed client is always an authenticated session. A dedicated
// reader thread reassembles each response from its tagged chunk frames —
// streamed report fragments concatenate back into the whole report — and
// resolves the matching future. One AsyncCall is cheap: the transport cost
// of an idle session is a blocked read, not a thread per request. Call() is
// the synchronous form: one request in flight at a time is a serial
// session.
class PipelinedClient {
 public:
  // Connects, performs the hello handshake, and starts the reader. Fails
  // with the server's status when the handshake is refused (e.g.
  // kUnavailable at connection capacity).
  static util::StatusOr<std::unique_ptr<PipelinedClient>> Connect(
      const std::string& host, int port, const SessionHello& hello,
      size_t max_frame_bytes = kMaxFrameBytes);

  PipelinedClient(const PipelinedClient&) = delete;
  PipelinedClient& operator=(const PipelinedClient&) = delete;
  ~PipelinedClient();

  // Sends one tagged request and returns the future of its reassembled
  // response. The request's request_id is overwritten with a session-unique
  // tag. Safe to call from any thread; responses resolve in whatever order
  // the server finishes them.
  std::future<util::StatusOr<Response>> AsyncCall(Request request);

  // Sends one request and waits for its response. A transport failure (the
  // daemon vanished, a torn frame) is the returned status; an operation
  // failure arrives inside the Response, whose body may still carry a
  // report (verify/repair on a dirty database).
  util::StatusOr<Response> Call(const Request& request);
  // Call() collapsing operation failures into the status — the response
  // body is returned only when the operation succeeded.
  util::StatusOr<std::string> CallForReport(RequestKind kind,
                                            std::vector<std::string> args,
                                            uint32_t deadline_ms = 0);

  // Fails every in-flight call with kUnavailable and joins the reader.
  void Close();
  bool connected() const;

 private:
  struct State;
  PipelinedClient() = default;

  std::shared_ptr<State> state_;
};

// Reconnecting, resumable session. Wraps a PipelinedClient and makes one
// logical call survive a dying transport: when the connection drops
// mid-call (daemon restart, reset, torn frame) the client redials, repeats
// the hello handshake, and re-offers the request through util::Retry's
// backoff schedule.
//
// Every stateful request (mine/browse/skim/verify/repair) is stamped with
// an idempotency key before its first send — a canonical fingerprint of
// the request (kind · deadline · args) scoped by a per-session nonce and a
// call sequence number, so resends of the SAME logical call repeat the key
// while distinct calls never collide. The server records the outcome under
// that key: a resend that raced the original's completion replays the
// recorded bytes, one that raced its execution joins the in-flight run.
// Either way the operation executes at most once — which is what makes
// retrying a `repair` safe.
//
// Thread-safe: concurrent Call()s share the underlying pipelined session
// (that is how to pipeline through this class — one thread per in-flight
// call); any of them may trigger the reconnect, the rest fail over onto
// the fresh session on their own next attempt.
class ResilientClient {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    int port = 0;
    SessionHello hello;
    size_t max_frame_bytes = kMaxFrameBytes;
    // Backoff schedule for re-offering a call: max_attempts bounds how
    // many times one logical call touches the wire. kUnavailable — from
    // the transport OR in a response (admission control) — is the only
    // code retried.
    util::RetryOptions retry;
    // Per-session component of generated idempotency keys. 0 = draw a
    // random nonce at construction; fix it only when a test needs
    // predictable keys.
    uint64_t session_nonce = 0;
  };

  struct Stats {
    uint64_t dials = 0;          // successful handshakes (first included)
    uint64_t resumed_calls = 0;  // attempts re-offered after a backoff
  };

  explicit ResilientClient(Options options);
  ~ResilientClient();

  ResilientClient(const ResilientClient&) = delete;
  ResilientClient& operator=(const ResilientClient&) = delete;

  // One resumable call. Dials lazily (the first call connects), stamps the
  // idempotency key if the request lacks one, retries kUnavailable with
  // backoff, reconnecting whenever the transport failed. Non-transient
  // outcomes — op errors, permission denials — return after one attempt.
  util::StatusOr<Response> Call(Request request);

  // Convenience matching PipelinedClient.
  util::StatusOr<std::string> CallForReport(RequestKind kind,
                                            std::vector<std::string> args,
                                            uint32_t deadline_ms = 0);

  void Close();
  bool connected() const;
  Stats StatsSnapshot() const;

 private:
  util::StatusOr<std::shared_ptr<PipelinedClient>> EnsureConnected();
  // Drops `conn` if it is still the current session, so the next attempt
  // redials instead of re-using a transport known to be broken.
  void Invalidate(const std::shared_ptr<PipelinedClient>& conn);
  std::string NextIdempotencyKey(const Request& request);

  Options options_;
  uint64_t nonce_ = 0;
  std::atomic<uint64_t> seq_{0};

  mutable std::mutex mu_;
  std::shared_ptr<PipelinedClient> conn_;  // null until first dial / after drop
  bool closed_ = false;
  Stats stats_;
};

}  // namespace classminer::server

#endif  // CLASSMINER_SERVER_CLIENT_H_
