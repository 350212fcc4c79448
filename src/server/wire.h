#ifndef CLASSMINER_SERVER_WIRE_H_
#define CLASSMINER_SERVER_WIRE_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "util/status.h"

namespace classminer::server {

// Socket plumbing for the classminerd protocol: EINTR-safe full-buffer
// transfers, non-blocking single-shot transfers for the reactor, and
// CRC-framed message exchange over file descriptors. Every loop resumes
// across signal interruptions and short reads/writes — a signal mid-frame
// must never surface as a torn frame.

// Creates a listening IPv4 TCP socket bound to host:port (port 0 picks an
// ephemeral port; BoundPort reads the choice back).
util::StatusOr<int> ListenOn(const std::string& host, int port, int backlog);

// The port a bound socket actually listens on.
util::StatusOr<int> BoundPort(int fd);

// Blocking connect to host:port.
util::StatusOr<int> ConnectTo(const std::string& host, int port);

// Switches O_NONBLOCK on `fd`.
util::Status SetNonBlocking(int fd, bool enabled);

// Accepts one pending connection from a non-blocking listener. Returns -1
// when no connection is pending (EAGAIN/EWOULDBLOCK) or the accept was
// aborted by the peer (ECONNABORTED); resumes across EINTR.
util::StatusOr<int> TryAccept(int listen_fd);

// Writes exactly `size` bytes, resuming across EINTR and partial sends.
// A closed peer surfaces as kUnavailable (never SIGPIPE). A non-blocking
// fd that would block is a caller contract violation and surfaces as
// kFailedPrecondition — use TrySend for readiness-driven writers.
util::Status SendAll(int fd, const uint8_t* data, size_t size);

// Reads exactly `size` bytes, resuming across EINTR and partial reads.
// End-of-stream before `size` bytes is kUnavailable("connection closed"),
// which connection loops treat as a normal hangup. EAGAIN/EWOULDBLOCK is
// kFailedPrecondition (blocking contract; see TryRecv), never conflated
// with a real transport error.
util::Status RecvAll(int fd, uint8_t* data, size_t size);

// Single recv() for readiness-driven readers: returns the number of bytes
// read (> 0), 0 when the socket would block (EAGAIN/EWOULDBLOCK — not an
// error), kUnavailable("connection closed") on a clean peer hangup, or the
// errno status on a real transport failure. Resumes across EINTR.
util::StatusOr<size_t> TryRecv(int fd, uint8_t* data, size_t size);

// Single send() counterpart: bytes written (> 0), 0 when the socket would
// block, kUnavailable when the peer vanished. Resumes across EINTR; never
// raises SIGPIPE.
util::StatusOr<size_t> TrySend(int fd, const uint8_t* data, size_t size);

// Serializes one frame — magic, body size, CRC-32 of the body, body — into
// a byte buffer without touching a socket (the reactor queues these on
// per-connection write queues). Bodies larger than `max_frame_bytes` are
// refused (kInvalidArgument).
util::StatusOr<std::vector<uint8_t>> EncodeFrame(
    uint32_t magic, const std::vector<uint8_t>& body, size_t max_frame_bytes);

// Sends one frame (EncodeFrame + SendAll) on a blocking fd.
util::Status WriteFrame(int fd, uint32_t magic,
                        const std::vector<uint8_t>& body,
                        size_t max_frame_bytes);

// Receives one frame and returns its body after verifying the magic, the
// size bound and the CRC-32. A peer hangup before the first header byte is
// kUnavailable("connection closed"); a checksum or framing violation is
// kDataLoss.
util::StatusOr<std::vector<uint8_t>> ReadFrame(int fd, uint32_t magic,
                                               size_t max_frame_bytes);

// Incremental frame assembly for non-blocking readers: feed whatever bytes
// recv produced, pop complete frame bodies. The assembler validates the
// magic and the size bound as soon as the 12-byte header is complete — a
// hostile size never allocates past the bound — and the CRC once the body
// is in. Any violation is a sticky kDataLoss: the byte stream cannot be
// trusted afterwards, so the connection must close.
class FrameAssembler {
 public:
  FrameAssembler(uint32_t magic, size_t max_frame_bytes);

  // Appends raw socket bytes and extracts every complete frame they close.
  // Returns the sticky kDataLoss on framing damage.
  util::Status Feed(const uint8_t* data, size_t size);

  // Pops the next complete frame body in arrival order; false when none is
  // ready.
  bool PopFrame(std::vector<uint8_t>* body);

  // Bytes of a partially assembled frame still waiting for their tail
  // (0 at a frame boundary).
  size_t partial_bytes() const { return buffer_.size() - consumed_; }

 private:
  util::Status Corrupt(const std::string& what);

  const uint32_t magic_;
  const size_t max_frame_bytes_;
  std::vector<uint8_t> buffer_;
  size_t consumed_ = 0;  // parsed prefix of buffer_
  std::deque<std::vector<uint8_t>> ready_;
  util::Status error_;  // sticky framing damage
};

// Closes `fd`, resuming across EINTR; no-op for fd < 0.
void CloseFd(int fd);

}  // namespace classminer::server

#endif  // CLASSMINER_SERVER_WIRE_H_
