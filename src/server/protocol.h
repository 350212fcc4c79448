#ifndef CLASSMINER_SERVER_PROTOCOL_H_
#define CLASSMINER_SERVER_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "index/access_control.h"
#include "util/status.h"

namespace classminer::server {

// The classminerd wire protocol: length-prefixed binary frames over TCP,
// built on the same ByteWriter/ByteReader + CRC-32 idioms as the CMV and
// library on-disk formats (DESIGN.md documents the full layout).
//
// Every frame is
//   u32 magic      "CMQ2" (request) or "CMS2" (response)
//   u32 body size
//   u32 CRC-32 over the body bytes
//   body
// so a torn or bit-flipped frame is detected before its body is parsed,
// exactly like a CMVE database entry.
//
// Every request carries a client-chosen request_id tag, a session may have
// many requests in flight (pipelining), and responses carry the tag back
// and may complete out of order. A response arrives as a *sequence* of
// chunk frames sharing the tag: zero or more non-final chunks carrying body
// fragments, then exactly one final chunk carrying the status and the body
// tail. A client that keeps one request in flight at a time sees a strictly
// serial session (pipeline depth 1).
inline constexpr uint32_t kRequestMagicV2 = 0x32514d43;   // "CMQ2"
inline constexpr uint32_t kResponseMagicV2 = 0x32534d43;  // "CMS2"

// Upper bound on a frame body. Oversized frames are rejected before
// allocation on both sides (a hostile peer cannot make the server reserve
// gigabytes), and serializers refuse to emit one.
inline constexpr size_t kMaxFrameBytes = 64u << 20;

// What a session asks the daemon to do. kHello must be the first request
// of every connection: it binds the session's credential (the paper's
// multilevel access control, Sec. 3); every later kind is checked against
// that credential before it runs.
enum class RequestKind : uint8_t {
  kHello = 0,
  kMine = 1,
  kBrowse = 2,
  kSkim = 3,
  kVerify = 4,
  kRepair = 5,
  // Liveness/scrub probe: answered on the reactor thread, bypasses
  // admission control, requires clearance 0 and no prior hello, so load
  // balancers can probe a saturated or still-draining daemon.
  kHealth = 6,
};
inline constexpr int kRequestKindCount = 7;

// Stable lowercase name ("mine", "browse", ...).
const char* RequestKindName(RequestKind kind);
// Inverse of RequestKindName; kInvalidArgument for unknown names.
util::StatusOr<RequestKind> ParseRequestKind(const std::string& name);

// One request: the kind, an optional relative deadline (0 = none; the
// server cancels and answers kDeadlineExceeded once it elapses), and
// kind-specific string arguments:
//   hello   (none — the credential travels in the Hello body, see below)
//   mine    <path.cmv> [--fast] [--strict]
//   browse  <path.cmv> [more.cmv ...] [--strict]
//   skim    <path.cmv> [level]
//   verify  <library>
//   repair  <library>
struct Request {
  RequestKind kind = RequestKind::kHello;
  uint32_t deadline_ms = 0;
  std::vector<std::string> args;
  // The pipelining tag echoed by every response chunk. Client-chosen,
  // unique among the session's in-flight requests.
  uint32_t request_id = 0;
  // Opaque retry token. A client that loses its connection mid-call
  // reconnects and resends the request with the same key; the server
  // remembers the outcome of every keyed request it executed (and joins
  // keyed requests still in flight), so the retry observes the original
  // execution instead of running the work again. Empty = not idempotent.
  std::string idempotency_key;

  // Body: request_id u32 · kind u8 · deadline_ms u32 · arg_count u32 ·
  // args · idempotency_key string.
  util::StatusOr<std::vector<uint8_t>> SerializeTagged() const;
  static util::StatusOr<Request> ParseTagged(
      const std::vector<uint8_t>& bytes);
};

// Best-effort request_id of a (possibly malformed) request body, so an
// error response can still carry the tag the client is waiting on. 0 when
// the body is too short to hold one.
uint32_t PeekRequestId(const std::vector<uint8_t>& bytes);

// The session handshake payload, carried as args[0] (a binary string) of a
// kHello request: who is asking and with what clearance/denials. The server
// copies it into an index::UserCredential for every access decision the
// session makes.
struct SessionHello {
  std::string user;
  int32_t clearance = 0;
  std::vector<int32_t> denied_nodes;  // concept ids denied to this session

  util::StatusOr<std::string> Serialize() const;
  static util::StatusOr<SessionHello> Parse(const std::string& bytes);

  index::UserCredential ToCredential() const;
};

// One response: the operation's StatusCode (kOk on success; kUnavailable
// for admission-control rejection, kPermissionDenied for a clearance
// failure, kDeadlineExceeded for an elapsed deadline, the op's own code
// otherwise), its message, and the report body — byte-identical to what
// the equivalent classminer CLI invocation prints to stdout.
struct Response {
  util::StatusCode code = util::StatusCode::kOk;
  std::string message;
  std::string body;
  // The request tag this chunk answers, and whether it is the final chunk
  // of that response. Non-final chunks carry a body fragment with code kOk
  // and an empty message; the final chunk carries the real status plus the
  // body tail.
  uint32_t request_id = 0;
  bool final_chunk = true;

  bool ok() const { return code == util::StatusCode::kOk; }
  // Convenience: the response's status view (message included).
  util::Status ToStatus() const { return {code, message}; }

  // Body: request_id u32 · flags u8 (bit0 = final, others reserved 0) ·
  // code u32 · message string · body string.
  util::StatusOr<std::vector<uint8_t>> SerializeChunk() const;
  static util::StatusOr<Response> ParseChunk(
      const std::vector<uint8_t>& bytes);
};

// Builds a response carrying `status` and an optional report body.
Response MakeResponse(const util::Status& status, std::string body = {});

}  // namespace classminer::server

#endif  // CLASSMINER_SERVER_PROTOCOL_H_
