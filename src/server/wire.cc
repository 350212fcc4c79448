#include "server/wire.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "util/crc32.h"
#include "util/failpoint.h"

namespace classminer::server {
namespace {

util::Status Errno(const std::string& what) {
  return util::Status::Unavailable(what + ": " + std::strerror(errno));
}

bool WouldBlock(int err) { return err == EAGAIN || err == EWOULDBLOCK; }

util::StatusOr<sockaddr_in> ResolveV4(const std::string& host, int port) {
  if (port < 0 || port > 65535) {
    return util::Status::InvalidArgument("port out of range: " +
                                         std::to_string(port));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return util::Status::InvalidArgument("not an IPv4 address: " + host);
  }
  return addr;
}

void PutU32LE(uint8_t* p, uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<uint8_t>((v >> (8 * i)) & 0xff);
}

uint32_t ReadU32LE(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[i]) << (8 * i);
  return v;
}

}  // namespace

util::StatusOr<int> ListenOn(const std::string& host, int port, int backlog) {
  util::StatusOr<sockaddr_in> addr = ResolveV4(host, port);
  if (!addr.ok()) return addr.status();
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  const int one = 1;
  (void)setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (bind(fd, reinterpret_cast<const sockaddr*>(&*addr), sizeof(*addr)) !=
      0) {
    const util::Status status = Errno("bind " + host + ":" + std::to_string(port));
    CloseFd(fd);
    return status;
  }
  if (listen(fd, backlog) != 0) {
    const util::Status status = Errno("listen");
    CloseFd(fd);
    return status;
  }
  return fd;
}

util::StatusOr<int> BoundPort(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return Errno("getsockname");
  }
  return static_cast<int>(ntohs(addr.sin_port));
}

util::StatusOr<int> ConnectTo(const std::string& host, int port) {
  util::StatusOr<sockaddr_in> addr = ResolveV4(host, port);
  if (!addr.ok()) return addr.status();
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  int rc;
  do {
    rc = connect(fd, reinterpret_cast<const sockaddr*>(&*addr),
                 sizeof(*addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    const util::Status status =
        Errno("connect " + host + ":" + std::to_string(port));
    CloseFd(fd);
    return status;
  }
  const int one = 1;
  (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

util::Status SetNonBlocking(int fd, bool enabled) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0) return Errno("fcntl(F_GETFL)");
  const int want = enabled ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (want != flags && fcntl(fd, F_SETFL, want) != 0) {
    return Errno("fcntl(F_SETFL)");
  }
  return util::Status::Ok();
}

util::StatusOr<int> TryAccept(int listen_fd) {
  for (;;) {
    const int fd = accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) return fd;
    if (errno == EINTR) continue;
    if (WouldBlock(errno) || errno == ECONNABORTED) return -1;
    return Errno("accept");
  }
}

util::Status SendAll(int fd, const uint8_t* data, size_t size) {
  size_t done = 0;
  while (done < size) {
    const ssize_t n = send(fd, data + done, size - done, MSG_NOSIGNAL);
    if (n > 0) {
      done += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;  // resume, do not restart
    if (n < 0 && WouldBlock(errno)) {
      // Not a transport failure: the caller handed a non-blocking fd to a
      // blocking-contract helper. Readiness-driven writers use TrySend.
      return util::Status::FailedPrecondition(
          "send would block on a non-blocking fd; use TrySend");
    }
    return Errno("send");
  }
  return util::Status::Ok();
}

util::Status RecvAll(int fd, uint8_t* data, size_t size) {
  size_t done = 0;
  while (done < size) {
    const ssize_t n = recv(fd, data + done, size - done, 0);
    if (n > 0) {
      done += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;  // resume, do not restart
    if (n < 0 && WouldBlock(errno)) {
      // Distinct from a real transport error: nothing is wrong with the
      // connection, the fd simply has no bytes ready and is non-blocking
      // (or carries a receive timeout). Readiness-driven readers use
      // TryRecv instead of looping here.
      return util::Status::FailedPrecondition(
          "recv would block on a non-blocking fd; use TryRecv");
    }
    if (n == 0) {
      return done == 0
                 ? util::Status::Unavailable("connection closed")
                 : util::Status::DataLoss("connection closed mid-frame");
    }
    return Errno("recv");
  }
  return util::Status::Ok();
}

util::StatusOr<size_t> TryRecv(int fd, uint8_t* data, size_t size) {
  // Chaos site: the reactor observes a connection reset on a healthy peer.
  // Only the server's readiness loop calls TryRecv, so arming this in a
  // test process does not perturb the (blocking) client helpers.
  if (const util::Status injected =
          util::FailPoint::Check("server.wire.recv.reset");
      !injected.ok()) {
    return injected;
  }
  for (;;) {
    const ssize_t n = recv(fd, data, size, 0);
    if (n > 0) return static_cast<size_t>(n);
    if (n == 0) return util::Status::Unavailable("connection closed");
    if (errno == EINTR) continue;
    if (WouldBlock(errno)) return static_cast<size_t>(0);
    return Errno("recv");
  }
}

util::StatusOr<size_t> TrySend(int fd, const uint8_t* data, size_t size) {
  // Chaos sites, checked in escalating order of damage:
  //   delay — the frame leaves late (stalled peer / congested link);
  //   short — the kernel accepts a prefix (exercises the resume loop);
  //   torn  — a prefix escapes to the wire, then the transport dies:
  //           the peer sees half a frame followed by FIN (mid-stream
  //           EPIPE from the writer's point of view).
  if (!util::FailPoint::Check("server.wire.send.delay").ok()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (size > 1 && !util::FailPoint::Check("server.wire.send.short").ok()) {
    size = std::max<size_t>(1, size / 4);
  }
  const bool tear = !util::FailPoint::Check("server.wire.send.torn").ok();
  if (tear) size = std::max<size_t>(1, size / 2);
  for (;;) {
    const ssize_t n = send(fd, data, size, MSG_NOSIGNAL);
    if (n >= 0) {
      if (tear) {
        return util::Status::Unavailable(
            "injected torn send: transport reset after " + std::to_string(n) +
            " of " + std::to_string(size) + " bytes");
      }
      return static_cast<size_t>(n);
    }
    if (errno == EINTR) continue;
    if (WouldBlock(errno)) return static_cast<size_t>(0);
    return Errno("send");
  }
}

util::StatusOr<std::vector<uint8_t>> EncodeFrame(
    uint32_t magic, const std::vector<uint8_t>& body,
    size_t max_frame_bytes) {
  if (body.size() > max_frame_bytes) {
    return util::Status::InvalidArgument(
        "frame body of " + std::to_string(body.size()) +
        " bytes exceeds the " + std::to_string(max_frame_bytes) +
        "-byte limit");
  }
  std::vector<uint8_t> frame(12 + body.size());
  PutU32LE(frame.data(), magic);
  PutU32LE(frame.data() + 4, static_cast<uint32_t>(body.size()));
  PutU32LE(frame.data() + 8, util::Crc32(body));
  std::copy(body.begin(), body.end(), frame.begin() + 12);
  return frame;
}

util::Status WriteFrame(int fd, uint32_t magic,
                        const std::vector<uint8_t>& body,
                        size_t max_frame_bytes) {
  util::StatusOr<std::vector<uint8_t>> frame =
      EncodeFrame(magic, body, max_frame_bytes);
  if (!frame.ok()) return frame.status();
  return SendAll(fd, frame->data(), frame->size());
}

util::StatusOr<std::vector<uint8_t>> ReadFrame(int fd, uint32_t magic,
                                               size_t max_frame_bytes) {
  uint8_t header[12];
  CLASSMINER_RETURN_IF_ERROR(RecvAll(fd, header, sizeof(header)));
  if (ReadU32LE(header) != magic) {
    return util::Status::DataLoss("bad frame magic");
  }
  const uint32_t size = ReadU32LE(header + 4);
  if (size > max_frame_bytes) {
    return util::Status::DataLoss(
        "frame body of " + std::to_string(size) + " bytes exceeds the " +
        std::to_string(max_frame_bytes) + "-byte limit");
  }
  std::vector<uint8_t> body(size);
  if (size > 0) {
    CLASSMINER_RETURN_IF_ERROR(RecvAll(fd, body.data(), body.size()));
  }
  if (util::Crc32(body) != ReadU32LE(header + 8)) {
    return util::Status::DataLoss("frame checksum mismatch");
  }
  return body;
}

FrameAssembler::FrameAssembler(uint32_t magic, size_t max_frame_bytes)
    : magic_(magic), max_frame_bytes_(max_frame_bytes) {}

util::Status FrameAssembler::Corrupt(const std::string& what) {
  error_ = util::Status::DataLoss(what);
  return error_;
}

util::Status FrameAssembler::Feed(const uint8_t* data, size_t size) {
  if (!error_.ok()) return error_;
  buffer_.insert(buffer_.end(), data, data + size);
  for (;;) {
    const size_t have = buffer_.size() - consumed_;
    if (have < 12) break;
    const uint8_t* header = buffer_.data() + consumed_;
    // Header checks run the moment the header closes, before the body
    // arrives: a hostile size is rejected without reserving it.
    if (ReadU32LE(header) != magic_) return Corrupt("bad frame magic");
    const uint32_t body_size = ReadU32LE(header + 4);
    if (body_size > max_frame_bytes_) {
      return Corrupt("frame body of " + std::to_string(body_size) +
                     " bytes exceeds the " +
                     std::to_string(max_frame_bytes_) + "-byte limit");
    }
    if (have < 12 + static_cast<size_t>(body_size)) break;
    std::vector<uint8_t> body(header + 12, header + 12 + body_size);
    if (util::Crc32(body) != ReadU32LE(header + 8)) {
      return Corrupt("frame checksum mismatch");
    }
    consumed_ += 12 + static_cast<size_t>(body_size);
    ready_.push_back(std::move(body));
  }
  // Compact once the parsed prefix dominates, keeping Feed amortised O(n).
  if (consumed_ > 4096 && consumed_ * 2 >= buffer_.size()) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  return util::Status::Ok();
}

bool FrameAssembler::PopFrame(std::vector<uint8_t>* body) {
  if (ready_.empty()) return false;
  *body = std::move(ready_.front());
  ready_.pop_front();
  return true;
}

void CloseFd(int fd) {
  if (fd < 0) return;
  int rc;
  do {
    rc = close(fd);
  } while (rc != 0 && errno == EINTR);
}

}  // namespace classminer::server
