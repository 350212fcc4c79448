#include "server/client.h"

#include <sys/socket.h>

#include <cstdio>
#include <functional>
#include <mutex>
#include <random>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "server/wire.h"

namespace classminer::server {

// ---------------------------------------------------------------------------
// PipelinedClient

struct PipelinedClient::State {
  std::mutex mu;
  int fd = -1;
  size_t max_frame = kMaxFrameBytes;
  uint32_t next_id = 1;
  struct Inflight {
    std::promise<util::StatusOr<Response>> promise;
    std::string body;  // fragments accumulated so far
  };
  std::unordered_map<uint32_t, Inflight> inflight;
  util::Status fail = util::Status::Ok();  // sticky transport failure
  std::thread reader;

  // Fails every in-flight call; idempotent per tag.
  void FailAllLocked(const util::Status& status) {
    for (auto& [id, call] : inflight) {
      call.promise.set_value(status);
    }
    inflight.clear();
    if (fail.ok()) fail = status;
  }

  static void ReaderLoop(const std::shared_ptr<State>& state);
};

// Reassembles tagged chunk streams into whole responses until the
// connection dies, then fails whatever is still pending.
void PipelinedClient::State::ReaderLoop(
    const std::shared_ptr<State>& state) {
  for (;;) {
    util::StatusOr<std::vector<uint8_t>> frame =
        ReadFrame(state->fd, kResponseMagicV2, state->max_frame);
    util::Status dead = util::Status::Ok();
    if (!frame.ok()) {
      dead = frame.status();
    } else {
      util::StatusOr<Response> chunk = Response::ParseChunk(*frame);
      if (!chunk.ok()) {
        dead = chunk.status();
      } else {
        std::lock_guard<std::mutex> lock(state->mu);
        auto it = state->inflight.find(chunk->request_id);
        if (it != state->inflight.end()) {  // unknown tags are dropped
          if (!chunk->final_chunk) {
            it->second.body.append(chunk->body);
          } else {
            Response whole = std::move(*chunk);
            whole.body = std::move(it->second.body) + whole.body;
            it->second.promise.set_value(std::move(whole));
            state->inflight.erase(it);
          }
        }
        continue;
      }
    }
    std::lock_guard<std::mutex> lock(state->mu);
    state->FailAllLocked(dead);
    return;
  }
}

util::StatusOr<std::unique_ptr<PipelinedClient>> PipelinedClient::Connect(
    const std::string& host, int port, const SessionHello& hello,
    size_t max_frame_bytes) {
  util::StatusOr<int> fd = ConnectTo(host, port);
  if (!fd.ok()) return fd.status();

  // Handshake synchronously, before the reader exists: one tagged hello,
  // one final chunk back (a capacity rejection is such a chunk too).
  util::StatusOr<std::string> credential = hello.Serialize();
  if (!credential.ok()) {
    CloseFd(*fd);
    return credential.status();
  }
  Request handshake;
  handshake.kind = RequestKind::kHello;
  handshake.args.push_back(std::move(*credential));
  handshake.request_id = 1;
  util::StatusOr<std::vector<uint8_t>> bytes = handshake.SerializeTagged();
  util::Status sent =
      bytes.ok() ? WriteFrame(*fd, kRequestMagicV2, *bytes, max_frame_bytes)
                 : bytes.status();
  if (!sent.ok()) {
    CloseFd(*fd);
    return sent;
  }
  util::StatusOr<std::vector<uint8_t>> frame =
      ReadFrame(*fd, kResponseMagicV2, max_frame_bytes);
  if (!frame.ok()) {
    CloseFd(*fd);
    return frame.status();
  }
  util::StatusOr<Response> response = Response::ParseChunk(*frame);
  if (!response.ok()) {
    CloseFd(*fd);
    return response.status();
  }
  if (!response->ok()) {
    CloseFd(*fd);
    return response->ToStatus();
  }

  auto client = std::unique_ptr<PipelinedClient>(new PipelinedClient());
  client->state_ = std::make_shared<State>();
  client->state_->fd = *fd;
  client->state_->max_frame = max_frame_bytes;
  client->state_->next_id = 2;  // 1 was the hello
  std::shared_ptr<State> state = client->state_;
  client->state_->reader =
      std::thread([state] { State::ReaderLoop(state); });
  return client;
}

PipelinedClient::~PipelinedClient() { Close(); }

std::future<util::StatusOr<Response>> PipelinedClient::AsyncCall(
    Request request) {
  std::promise<util::StatusOr<Response>> failed;
  std::future<util::StatusOr<Response>> future = failed.get_future();
  if (state_ == nullptr) {
    failed.set_value(util::Status::FailedPrecondition("client closed"));
    return future;
  }
  std::lock_guard<std::mutex> lock(state_->mu);
  if (state_->fd < 0 || !state_->fail.ok()) {
    failed.set_value(state_->fail.ok()
                         ? util::Status::FailedPrecondition("client closed")
                         : state_->fail);
    return future;
  }
  request.request_id = state_->next_id++;
  util::StatusOr<std::vector<uint8_t>> bytes = request.SerializeTagged();
  if (!bytes.ok()) {
    failed.set_value(bytes.status());
    return future;
  }
  // Register before sending: the response may race the send returning.
  State::Inflight& call = state_->inflight[request.request_id];
  future = call.promise.get_future();
  const util::Status sent =
      WriteFrame(state_->fd, kRequestMagicV2, *bytes, state_->max_frame);
  if (!sent.ok()) {
    call.promise.set_value(sent);
    state_->inflight.erase(request.request_id);
  }
  return future;
}

util::StatusOr<Response> PipelinedClient::Call(const Request& request) {
  return AsyncCall(request).get();
}

util::StatusOr<std::string> PipelinedClient::CallForReport(
    RequestKind kind, std::vector<std::string> args, uint32_t deadline_ms) {
  Request request;
  request.kind = kind;
  request.deadline_ms = deadline_ms;
  request.args = std::move(args);
  util::StatusOr<Response> response = Call(request);
  if (!response.ok()) return response.status();
  if (!response->ok()) return response->ToStatus();
  return std::move(response->body);
}

void PipelinedClient::Close() {
  if (state_ == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    if (state_->fd >= 0) {
      // Wakes the reader out of its blocking read; it fails any remaining
      // in-flight calls on the way out.
      shutdown(state_->fd, SHUT_RDWR);
    }
  }
  if (state_->reader.joinable()) state_->reader.join();
  std::lock_guard<std::mutex> lock(state_->mu);
  state_->FailAllLocked(util::Status::Unavailable("client closed"));
  CloseFd(state_->fd);
  state_->fd = -1;
}

bool PipelinedClient::connected() const {
  if (state_ == nullptr) return false;
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->fd >= 0 && state_->fail.ok();
}

// ---------------------------------------------------------------------------
// ResilientClient

namespace {

// Kinds whose calls are stamped with idempotency keys. Hello is handled by
// the session layer; health is a liveness probe whose answer must never be
// a replay of an older one.
bool WantsIdempotencyKey(RequestKind kind) {
  switch (kind) {
    case RequestKind::kMine:
    case RequestKind::kBrowse:
    case RequestKind::kSkim:
    case RequestKind::kVerify:
    case RequestKind::kRepair:
      return true;
    case RequestKind::kHello:
    case RequestKind::kHealth:
      return false;
  }
  return false;
}

}  // namespace

ResilientClient::ResilientClient(Options options)
    : options_(std::move(options)), nonce_(options_.session_nonce) {
  if (nonce_ == 0) {
    std::random_device rd;
    nonce_ = (static_cast<uint64_t>(rd()) << 32) ^ rd();
    if (nonce_ == 0) nonce_ = 1;
  }
}

ResilientClient::~ResilientClient() { Close(); }

std::string ResilientClient::NextIdempotencyKey(const Request& request) {
  // Canonical request fingerprint: the identity fields the server keys its
  // result cache on (kind · deadline · args) hashed for brevity. The
  // nonce+sequence pair already makes the key unique per logical call; the
  // fingerprint ties it to the request's content for debuggability.
  std::string canon = RequestKindName(request.kind);
  canon += '\x1f';
  canon += std::to_string(request.deadline_ms);
  for (const std::string& arg : request.args) {
    canon += '\x1f';
    canon += arg;
  }
  const uint64_t digest = std::hash<std::string>{}(canon);
  char key[64];
  std::snprintf(key, sizeof(key), "rc1-%016llx-%llu-%016llx",
                static_cast<unsigned long long>(nonce_),
                static_cast<unsigned long long>(
                    seq_.fetch_add(1, std::memory_order_relaxed)),
                static_cast<unsigned long long>(digest));
  return key;
}

util::StatusOr<std::shared_ptr<PipelinedClient>>
ResilientClient::EnsureConnected() {
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_) return util::Status::FailedPrecondition("client closed");
  if (conn_ != nullptr && conn_->connected()) return conn_;
  conn_.reset();
  util::StatusOr<std::unique_ptr<PipelinedClient>> dialed =
      PipelinedClient::Connect(options_.host, options_.port, options_.hello,
                               options_.max_frame_bytes);
  if (!dialed.ok()) return dialed.status();
  conn_ = std::shared_ptr<PipelinedClient>(std::move(*dialed));
  ++stats_.dials;
  return conn_;
}

void ResilientClient::Invalidate(
    const std::shared_ptr<PipelinedClient>& conn) {
  std::shared_ptr<PipelinedClient> dead;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (conn_ == conn) dead = std::move(conn_);
  }
  // `dead` (if any) destroys outside the lock: ~PipelinedClient joins the
  // reader thread, which must not happen under mu_.
}

util::StatusOr<Response> ResilientClient::Call(Request request) {
  if (request.idempotency_key.empty() && WantsIdempotencyKey(request.kind)) {
    request.idempotency_key = NextIdempotencyKey(request);
  }
  util::StatusOr<Response> result =
      util::Status::Unavailable("never attempted");
  util::RetryOptions retry = options_.retry;
  retry.on_retry = [this](int, const util::Status&) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.resumed_calls;
  };
  const util::Status status = util::Retry(retry, [&]() -> util::Status {
    util::StatusOr<std::shared_ptr<PipelinedClient>> conn = EnsureConnected();
    if (!conn.ok()) {
      // A dial can also die to a torn hello response; same rule as below —
      // transport damage on a resumable client is a transient condition.
      if (conn.status().code() == util::StatusCode::kDataLoss) {
        return util::Status::Unavailable("transport damaged: " +
                                         conn.status().message());
      }
      return conn.status();
    }
    result = (*conn)->Call(request);
    if (!result.ok()) {
      // Transport-level failure: this session is broken (or the server hung
      // up on it); drop it so the next attempt redials. A torn frame
      // surfaces as kDataLoss — for a resumable client that is the same
      // event as a hangup (the transport is dead either way), so map it to
      // the transient code the backoff schedule retries.
      Invalidate(*conn);
      if (result.status().code() == util::StatusCode::kDataLoss) {
        return util::Status::Unavailable("transport damaged: " +
                                         result.status().message());
      }
      return result.status();
    }
    // kUnavailable in a *response* rides a healthy connection — admission
    // control shedding load. Back off and re-offer; the server's
    // idempotency record was released (never executed), so the retry runs
    // for real.
    if (result->code == util::StatusCode::kUnavailable) {
      return result->ToStatus();
    }
    return util::Status::Ok();
  });
  // A final kUnavailable *response* still reaches the caller whole (body
  // and message intact); bare statuses mean we never got an answer.
  if (result.ok()) return result;
  return status;
}

util::StatusOr<std::string> ResilientClient::CallForReport(
    RequestKind kind, std::vector<std::string> args, uint32_t deadline_ms) {
  Request request;
  request.kind = kind;
  request.deadline_ms = deadline_ms;
  request.args = std::move(args);
  util::StatusOr<Response> response = Call(std::move(request));
  if (!response.ok()) return response.status();
  if (!response->ok()) return response->ToStatus();
  return std::move(response->body);
}

void ResilientClient::Close() {
  std::shared_ptr<PipelinedClient> dead;
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    dead = std::move(conn_);
  }
}

bool ResilientClient::connected() const {
  std::lock_guard<std::mutex> lock(mu_);
  return !closed_ && conn_ != nullptr && conn_->connected();
}

ResilientClient::Stats ResilientClient::StatsSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace classminer::server
