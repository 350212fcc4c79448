#include "server/protocol.h"

#include <utility>

#include "util/serial.h"

namespace classminer::server {
namespace {

// The protocol reuses the persistence serializer, so parse errors carry
// section names and byte offsets just like a corrupt container would.
util::Status CheckKind(uint8_t kind) {
  if (kind >= kRequestKindCount) {
    return util::Status::InvalidArgument("unknown request kind " +
                                         std::to_string(kind));
  }
  return util::Status::Ok();
}

util::Status CheckCode(uint32_t code) {
  if (code > static_cast<uint32_t>(util::StatusCode::kDeadlineExceeded)) {
    return util::Status::InvalidArgument("unknown status code " +
                                         std::to_string(code));
  }
  return util::Status::Ok();
}

}  // namespace

const char* RequestKindName(RequestKind kind) {
  switch (kind) {
    case RequestKind::kHello:
      return "hello";
    case RequestKind::kMine:
      return "mine";
    case RequestKind::kBrowse:
      return "browse";
    case RequestKind::kSkim:
      return "skim";
    case RequestKind::kVerify:
      return "verify";
    case RequestKind::kRepair:
      return "repair";
    case RequestKind::kHealth:
      return "health";
  }
  return "unknown";
}

util::StatusOr<RequestKind> ParseRequestKind(const std::string& name) {
  for (int k = 0; k < kRequestKindCount; ++k) {
    const RequestKind kind = static_cast<RequestKind>(k);
    if (name == RequestKindName(kind)) return kind;
  }
  return util::Status::InvalidArgument("unknown request kind '" + name + "'");
}

util::StatusOr<std::vector<uint8_t>> Request::SerializeTagged() const {
  CLASSMINER_RETURN_IF_ERROR(util::CheckU32Count(args.size(), "request arg"));
  CLASSMINER_RETURN_IF_ERROR(
      util::CheckU32Count(idempotency_key.size(), "idempotency key byte"));
  util::ByteWriter w;
  w.PutU32(request_id);
  w.PutU8(static_cast<uint8_t>(kind));
  w.PutU32(deadline_ms);
  w.PutU32(static_cast<uint32_t>(args.size()));
  for (const std::string& arg : args) {
    CLASSMINER_RETURN_IF_ERROR(
        util::CheckU32Count(arg.size(), "request arg byte"));
    w.PutString(arg);
  }
  w.PutString(idempotency_key);
  if (w.size() > kMaxFrameBytes) {
    return util::Status::InvalidArgument("request exceeds frame size limit");
  }
  return w.Release();
}

util::StatusOr<Request> Request::ParseTagged(
    const std::vector<uint8_t>& bytes) {
  util::ByteReader r(bytes);
  r.set_section("request");
  Request request;
  util::StatusOr<uint32_t> id = r.GetU32();
  if (!id.ok()) return id.status();
  request.request_id = *id;
  util::StatusOr<uint8_t> kind = r.GetU8();
  if (!kind.ok()) return kind.status();
  CLASSMINER_RETURN_IF_ERROR(CheckKind(*kind));
  request.kind = static_cast<RequestKind>(*kind);
  util::StatusOr<uint32_t> deadline = r.GetU32();
  if (!deadline.ok()) return deadline.status();
  request.deadline_ms = *deadline;
  util::StatusOr<uint32_t> arg_count = r.GetU32();
  if (!arg_count.ok()) return arg_count.status();
  // Each argument occupies at least its 4-byte length prefix.
  if (*arg_count > r.remaining() / 4) {
    return r.Corrupt("request arg count exceeds frame");
  }
  request.args.reserve(*arg_count);
  for (uint32_t i = 0; i < *arg_count; ++i) {
    util::StatusOr<std::string> arg = r.GetString();
    if (!arg.ok()) return arg.status();
    request.args.push_back(std::move(*arg));
  }
  util::StatusOr<std::string> key = r.GetString();
  if (!key.ok()) return key.status();
  request.idempotency_key = std::move(*key);
  if (r.remaining() > 0) return r.Corrupt("trailing bytes after request");
  return request;
}

uint32_t PeekRequestId(const std::vector<uint8_t>& bytes) {
  if (bytes.size() < 4) return 0;
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(bytes[i]) << (8 * i);
  return v;
}

util::StatusOr<std::string> SessionHello::Serialize() const {
  CLASSMINER_RETURN_IF_ERROR(util::CheckU32Count(user.size(), "hello user"));
  CLASSMINER_RETURN_IF_ERROR(
      util::CheckU32Count(denied_nodes.size(), "hello denied node"));
  util::ByteWriter w;
  w.PutString(user);
  w.PutI32(clearance);
  w.PutU32(static_cast<uint32_t>(denied_nodes.size()));
  for (int32_t node : denied_nodes) w.PutI32(node);
  const std::vector<uint8_t> bytes = w.Release();
  return std::string(reinterpret_cast<const char*>(bytes.data()),
                     bytes.size());
}

util::StatusOr<SessionHello> SessionHello::Parse(const std::string& bytes) {
  util::ByteReader r(reinterpret_cast<const uint8_t*>(bytes.data()),
                     bytes.size());
  r.set_section("hello");
  SessionHello hello;
  util::StatusOr<std::string> user = r.GetString();
  if (!user.ok()) return user.status();
  hello.user = std::move(*user);
  util::StatusOr<int32_t> clearance = r.GetI32();
  if (!clearance.ok()) return clearance.status();
  hello.clearance = *clearance;
  util::StatusOr<uint32_t> denied = r.GetU32();
  if (!denied.ok()) return denied.status();
  if (*denied > r.remaining() / 4) {
    return r.Corrupt("denied node count exceeds hello body");
  }
  hello.denied_nodes.reserve(*denied);
  for (uint32_t i = 0; i < *denied; ++i) {
    util::StatusOr<int32_t> node = r.GetI32();
    if (!node.ok()) return node.status();
    hello.denied_nodes.push_back(*node);
  }
  if (r.remaining() > 0) return r.Corrupt("trailing bytes after hello");
  return hello;
}

index::UserCredential SessionHello::ToCredential() const {
  index::UserCredential credential;
  credential.name = user;
  credential.clearance = clearance;
  for (int32_t node : denied_nodes) credential.denied_nodes.insert(node);
  return credential;
}

util::StatusOr<std::vector<uint8_t>> Response::SerializeChunk() const {
  CLASSMINER_RETURN_IF_ERROR(
      util::CheckU32Count(message.size(), "response message byte"));
  CLASSMINER_RETURN_IF_ERROR(
      util::CheckU32Count(body.size(), "response body byte"));
  util::ByteWriter w;
  w.PutU32(request_id);
  w.PutU8(final_chunk ? 1 : 0);
  w.PutU32(static_cast<uint32_t>(code));
  w.PutString(message);
  w.PutString(body);
  if (w.size() > kMaxFrameBytes) {
    return util::Status::InvalidArgument("response exceeds frame size limit");
  }
  return w.Release();
}

util::StatusOr<Response> Response::ParseChunk(
    const std::vector<uint8_t>& bytes) {
  util::ByteReader r(bytes);
  r.set_section("response");
  Response response;
  util::StatusOr<uint32_t> id = r.GetU32();
  if (!id.ok()) return id.status();
  response.request_id = *id;
  util::StatusOr<uint8_t> flags = r.GetU8();
  if (!flags.ok()) return flags.status();
  if ((*flags & ~uint8_t{1}) != 0) {
    return r.Corrupt("reserved response flags set");
  }
  response.final_chunk = (*flags & 1) != 0;
  util::StatusOr<uint32_t> code = r.GetU32();
  if (!code.ok()) return code.status();
  CLASSMINER_RETURN_IF_ERROR(CheckCode(*code));
  response.code = static_cast<util::StatusCode>(*code);
  util::StatusOr<std::string> message = r.GetString();
  if (!message.ok()) return message.status();
  response.message = std::move(*message);
  util::StatusOr<std::string> body = r.GetString();
  if (!body.ok()) return body.status();
  response.body = std::move(*body);
  if (r.remaining() > 0) return r.Corrupt("trailing bytes after response");
  return response;
}

Response MakeResponse(const util::Status& status, std::string body) {
  Response response;
  response.code = status.code();
  response.message = status.message();
  response.body = std::move(body);
  return response;
}

}  // namespace classminer::server
