// classminerd end-to-end: wire framing, the session handshake, the
// per-session permission matrix, admission control, deadlines, graceful
// drain, and byte-identity between server responses and the shared
// operation layer the CLI prints from.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/cmv_pipeline.h"
#include "gtest/gtest.h"
#include "index/database.h"
#include "index/shard.h"
#include "server/client.h"
#include "server/ops.h"
#include "server/protocol.h"
#include "server/scrubber.h"
#include "server/server.h"
#include "server/wire.h"
#include "synth/corpus.h"
#include "util/crc32.h"
#include "util/failpoint.h"
#include "util/retry.h"
#include "util/serial.h"

namespace classminer::server {
namespace {

using util::Status;
using util::StatusCode;
using ClientOr = util::StatusOr<std::unique_ptr<PipelinedClient>>;

std::string TestContainer(const std::string& name, uint64_t seed) {
  const std::string path = ::testing::TempDir() + "/" + name;
  const synth::GeneratedVideo g = synth::GenerateVideo(synth::QuickScript(seed));
  const codec::CmvFile file = core::PackGeneratedVideo(g);
  EXPECT_TRUE(file.SaveToFile(path).ok());
  return path;
}

// A byte copy of `path` under a new name: the same report, its own result
// cache key (the cache keys containers by path).
std::string CopyContainer(const std::string& path, const std::string& name) {
  const std::string copy = ::testing::TempDir() + "/" + name;
  std::error_code error;
  std::filesystem::copy_file(
      path, copy, std::filesystem::copy_options::overwrite_existing, error);
  EXPECT_FALSE(error) << error.message();
  return copy;
}

SessionHello MakeHello(const std::string& user, int clearance) {
  SessionHello hello;
  hello.user = user;
  hello.clearance = clearance;
  return hello;
}

// Raw-session helpers: one tagged request frame out, one chunk frame in.
Status SendRequest(int fd, const Request& request) {
  util::StatusOr<std::vector<uint8_t>> body = request.SerializeTagged();
  if (!body.ok()) return body.status();
  return WriteFrame(fd, kRequestMagicV2, *body, kMaxFrameBytes);
}

util::StatusOr<Response> ReadChunk(int fd) {
  util::StatusOr<std::vector<uint8_t>> frame =
      ReadFrame(fd, kResponseMagicV2, kMaxFrameBytes);
  if (!frame.ok()) return frame.status();
  return Response::ParseChunk(*frame);
}

// Connects to the loopback port with the smallest receive buffer the
// kernel allows, set before connect so the advertised window stays small
// too: unread response bytes then back up into the server after a few KB.
util::StatusOr<int> ConnectSmallWindow(int port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Internal("socket failed");
  const int one = 1;
  (void)setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    CloseFd(fd);
    return Status::Unavailable("connect failed");
  }
  return fd;
}

// The server runs in this process, so a test can reach the server end of
// a loopback session: the socket whose local and peer addresses mirror the
// client's. Returns -1 when no such descriptor is open.
int ServerEndOf(int client_fd) {
  sockaddr_in client_local{};
  sockaddr_in client_peer{};
  socklen_t len = sizeof(client_local);
  if (getsockname(client_fd, reinterpret_cast<sockaddr*>(&client_local),
                  &len) != 0) {
    return -1;
  }
  len = sizeof(client_peer);
  if (getpeername(client_fd, reinterpret_cast<sockaddr*>(&client_peer),
                  &len) != 0) {
    return -1;
  }
  const auto same = [](const sockaddr_in& a, const sockaddr_in& b) {
    return a.sin_family == b.sin_family && a.sin_port == b.sin_port &&
           a.sin_addr.s_addr == b.sin_addr.s_addr;
  };
  for (int fd = 0; fd < 4096; ++fd) {
    if (fd == client_fd) continue;
    sockaddr_in local{};
    sockaddr_in peer{};
    len = sizeof(local);
    if (getsockname(fd, reinterpret_cast<sockaddr*>(&local), &len) != 0 ||
        len != sizeof(local)) {
      continue;
    }
    len = sizeof(peer);
    if (getpeername(fd, reinterpret_cast<sockaddr*>(&peer), &len) != 0 ||
        len != sizeof(peer)) {
      continue;
    }
    if (same(local, client_peer) && same(peer, client_local)) return fd;
  }
  return -1;
}

// Opens a raw session and completes the hello handshake under tag 1,
// reading its response through the final chunk. A small receive window
// (ConnectSmallWindow) is opt-in.
util::StatusOr<int> RawSession(int port, const SessionHello& hello,
                               bool small_window = false) {
  util::StatusOr<int> fd = small_window ? ConnectSmallWindow(port)
                                        : ConnectTo("127.0.0.1", port);
  if (!fd.ok()) return fd.status();
  Request handshake;
  handshake.kind = RequestKind::kHello;
  handshake.args = {*hello.Serialize()};
  handshake.request_id = 1;
  const Status sent = SendRequest(*fd, handshake);
  if (!sent.ok()) {
    CloseFd(*fd);
    return sent;
  }
  for (;;) {
    util::StatusOr<Response> response = ReadChunk(*fd);
    if (!response.ok() || !response->ok()) {
      CloseFd(*fd);
      return response.ok() ? response->ToStatus() : response.status();
    }
    if (response->final_chunk) return fd;
  }
}

// Waits for the server to hang up. False when it sends more bytes or
// neither answers nor closes within 10 s (a wedged session).
bool ServerHangsUp(int fd) {
  const timeval timeout{10, 0};
  (void)setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  uint8_t byte;
  ssize_t n;
  do {
    n = recv(fd, &byte, 1, 0);
  } while (n < 0 && errno == EINTR);
  return n == 0;
}

// ---------------------------------------------------------------------------
// Protocol serialization

TEST(ProtocolTest, RequestRoundTrip) {
  Request request;
  request.kind = RequestKind::kMine;
  request.deadline_ms = 1500;
  request.args = {"clip.cmv", "--fast"};
  request.request_id = 9;
  util::StatusOr<std::vector<uint8_t>> bytes = request.SerializeTagged();
  ASSERT_TRUE(bytes.ok());
  util::StatusOr<Request> parsed = Request::ParseTagged(*bytes);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->request_id, 9u);
  EXPECT_EQ(parsed->kind, RequestKind::kMine);
  EXPECT_EQ(parsed->deadline_ms, 1500u);
  EXPECT_EQ(parsed->args, request.args);
}

TEST(ProtocolTest, ResponseRoundTripIncludingNewCode) {
  Response response;
  response.code = StatusCode::kDeadlineExceeded;
  response.message = "too slow";
  response.body = "partial report\n";
  util::StatusOr<std::vector<uint8_t>> bytes = response.SerializeChunk();
  ASSERT_TRUE(bytes.ok());
  util::StatusOr<Response> parsed = Response::ParseChunk(*bytes);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->final_chunk);
  EXPECT_EQ(parsed->code, StatusCode::kDeadlineExceeded);
  EXPECT_EQ(parsed->message, "too slow");
  EXPECT_EQ(parsed->body, "partial report\n");
}

TEST(ProtocolTest, HelloRoundTripCarriesCredential) {
  SessionHello hello = MakeHello("dr_lee", 2);
  hello.denied_nodes = {4, 9};
  util::StatusOr<std::string> bytes = hello.Serialize();
  ASSERT_TRUE(bytes.ok());
  util::StatusOr<SessionHello> parsed = SessionHello::Parse(*bytes);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->user, "dr_lee");
  EXPECT_EQ(parsed->clearance, 2);
  const index::UserCredential credential = parsed->ToCredential();
  EXPECT_EQ(credential.name, "dr_lee");
  EXPECT_EQ(credential.clearance, 2);
  EXPECT_EQ(credential.denied_nodes.count(4), 1u);
  EXPECT_EQ(credential.denied_nodes.count(9), 1u);
}

TEST(ProtocolTest, ParseRejectsDamage) {
  Request request;
  request.kind = RequestKind::kSkim;
  request.args = {"a.cmv"};
  std::vector<uint8_t> bytes = *request.SerializeTagged();
  ASSERT_TRUE(Request::ParseTagged(bytes).ok());
  // Unknown kind byte (offset: request_id 4).
  std::vector<uint8_t> bad_kind = bytes;
  bad_kind[4] = 0x7f;
  EXPECT_FALSE(Request::ParseTagged(bad_kind).ok());
  // Truncation inside the argument list (past the 4-byte empty key).
  std::vector<uint8_t> truncated(bytes.begin(), bytes.end() - 6);
  EXPECT_FALSE(Request::ParseTagged(truncated).ok());
  // Trailing junk after a well-formed request.
  std::vector<uint8_t> trailing = bytes;
  trailing.push_back(0);
  EXPECT_FALSE(Request::ParseTagged(trailing).ok());
  // An arg count claiming more entries than the frame could hold.
  std::vector<uint8_t> lying = bytes;
  lying[9] = 0xff;  // arg count low byte (id 4 + kind 1 + deadline 4)
  EXPECT_FALSE(Request::ParseTagged(lying).ok());

  std::vector<uint8_t> resp_bytes =
      *MakeResponse(Status::Ok()).SerializeChunk();
  ASSERT_TRUE(Response::ParseChunk(resp_bytes).ok());
  resp_bytes[5] = 0xee;  // out-of-range status code (id 4 + flags 1)
  EXPECT_FALSE(Response::ParseChunk(resp_bytes).ok());
}

TEST(ProtocolTest, RequestKindNamesRoundTrip) {
  for (int k = 0; k < kRequestKindCount; ++k) {
    const RequestKind kind = static_cast<RequestKind>(k);
    util::StatusOr<RequestKind> parsed =
        ParseRequestKind(RequestKindName(kind));
    ASSERT_TRUE(parsed.ok()) << RequestKindName(kind);
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(ParseRequestKind("reboot").ok());
}

// ---------------------------------------------------------------------------
// Wire framing over a socketpair: short reads/writes must resume.

TEST(WireTest, FrameSurvivesDribbledDelivery) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);

  Request request;
  request.kind = RequestKind::kBrowse;
  request.args = {std::string(10000, 'x'), "--strict"};
  std::vector<uint8_t> body = *request.SerializeTagged();

  // Frame bytes trickled a few at a time across many send() calls: the
  // reader's RecvAll must resume across every short read.
  std::thread writer([&] {
    uint8_t header[12];
    const uint32_t size = static_cast<uint32_t>(body.size());
    const uint32_t crc = util::Crc32(body);
    for (int i = 0; i < 4; ++i) {
      header[i] = static_cast<uint8_t>((kRequestMagicV2 >> (8 * i)) & 0xff);
      header[4 + i] = static_cast<uint8_t>((size >> (8 * i)) & 0xff);
      header[8 + i] = static_cast<uint8_t>((crc >> (8 * i)) & 0xff);
    }
    std::vector<uint8_t> frame(header, header + 12);
    frame.insert(frame.end(), body.begin(), body.end());
    for (size_t off = 0; off < frame.size(); off += 7) {
      const size_t n = std::min<size_t>(7, frame.size() - off);
      ASSERT_TRUE(SendAll(fds[1], frame.data() + off, n).ok());
    }
    close(fds[1]);
  });

  util::StatusOr<std::vector<uint8_t>> got =
      ReadFrame(fds[0], kRequestMagicV2, kMaxFrameBytes);
  writer.join();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, body);
  close(fds[0]);
}

TEST(WireTest, CorruptFrameIsDataLossAndHangupIsUnavailable) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::vector<uint8_t> body = {1, 2, 3, 4};
  ASSERT_TRUE(WriteFrame(fds[1], kRequestMagicV2, body, kMaxFrameBytes).ok());
  // Wrong expected magic -> kDataLoss.
  util::StatusOr<std::vector<uint8_t>> got =
      ReadFrame(fds[0], kResponseMagicV2, kMaxFrameBytes);
  EXPECT_EQ(got.status().code(), StatusCode::kDataLoss);
  close(fds[0]);
  close(fds[1]);

  // Peer hangup before any byte -> kUnavailable (normal close); hangup
  // mid-frame -> kDataLoss (a torn frame is damage, not a clean goodbye).
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  close(fds[1]);
  got = ReadFrame(fds[0], kRequestMagicV2, kMaxFrameBytes);
  EXPECT_EQ(got.status().code(), StatusCode::kUnavailable);
  close(fds[0]);

  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const uint8_t partial[3] = {0x43, 0x4d, 0x51};  // first bytes of "CMQ2"
  ASSERT_TRUE(SendAll(fds[1], partial, sizeof(partial)).ok());
  close(fds[1]);
  got = ReadFrame(fds[0], kRequestMagicV2, kMaxFrameBytes);
  EXPECT_EQ(got.status().code(), StatusCode::kDataLoss);
  close(fds[0]);
}

TEST(WireTest, OversizedFrameRefusedBothSides) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::vector<uint8_t> big(1024);
  EXPECT_EQ(WriteFrame(fds[1], kRequestMagicV2, big, 512).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(WriteFrame(fds[1], kRequestMagicV2, big, 4096).ok());
  EXPECT_EQ(ReadFrame(fds[0], kRequestMagicV2, 512).status().code(),
            StatusCode::kDataLoss);
  close(fds[0]);
  close(fds[1]);
}

// ---------------------------------------------------------------------------
// Operation layer

TEST(OpsTest, ReportLinesLongerThanTheFormatBufferAreKeptWhole) {
  codec::CmvFile file = core::PackGeneratedVideo(
      synth::GenerateVideo(synth::QuickScript(7)));
  const std::string short_path = ::testing::TempDir() + "/short_name.cmv";
  ASSERT_TRUE(file.SaveToFile(short_path).ok());
  const std::string short_name = file.name;
  file.name = std::string(600, 'n');
  const std::string long_path = ::testing::TempDir() + "/long_name.cmv";
  ASSERT_TRUE(file.SaveToFile(long_path).ok());

  const OpEnv env;
  const OpResult want = MineOp(short_path, /*fast=*/true, /*strict=*/false,
                               env, nullptr);
  const OpResult got = MineOp(long_path, /*fast=*/true, /*strict=*/false,
                              env, nullptr);
  ASSERT_TRUE(want.ok()) << want.status.ToString();
  ASSERT_TRUE(got.ok()) << got.status.ToString();
  // The header line carries the whole name, then the shot, group and
  // scene counts and the CRF, and ends in its own newline.
  const std::string header = got.report.substr(0, got.report.find('\n') + 1);
  EXPECT_EQ(header.rfind(file.name + ": ", 0), 0u);
  EXPECT_NE(header.find(" shots, "), std::string::npos);
  EXPECT_NE(header.find("(CRF "), std::string::npos);
  EXPECT_EQ(header.back(), '\n');
  ASSERT_EQ(want.report.rfind(short_name + ": ", 0), 0u);
  EXPECT_EQ(got.report, file.name + want.report.substr(short_name.size()));

  // A database path longer than the buffer is reported whole.
  std::string db_path = ::testing::TempDir();
  for (const char c : {'a', 'b', 'c'}) db_path += "/" + std::string(200, c);
  db_path += "/library.cmdb";
  ASSERT_GT(db_path.size(), 600u);
  const OpResult verify = VerifyOp(db_path);
  EXPECT_FALSE(verify.ok());
  EXPECT_EQ(verify.report.rfind(db_path + ": ", 0), 0u);
  EXPECT_EQ(verify.report.find('\n'), verify.report.size() - 1);
}

// Which stages to mine is each op's choice: a structure_only left in the
// environment (as a server's options could carry) never strips the events
// from a mine or browse report.
TEST(OpsTest, MineAndBrowseIgnoreStructureOnlyInTheEnvironment) {
  const std::string cmv = TestContainer("env_structure_only.cmv", 7);
  OpEnv lean_env;
  lean_env.mining.structure_only = true;
  const OpEnv env;
  index::UserCredential user;
  user.name = "reader";
  user.clearance = 3;
  for (const bool fast : {false, true}) {
    const OpResult want = MineOp(cmv, fast, /*strict=*/false, env, nullptr);
    const OpResult got =
        MineOp(cmv, fast, /*strict=*/false, lean_env, nullptr);
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok());
    EXPECT_NE(want.report.find("  scene  0: "), std::string::npos);
    EXPECT_EQ(got.report, want.report);
  }
  const OpResult want = BrowseOp({cmv}, /*strict=*/false, user, env, nullptr);
  const OpResult got =
      BrowseOp({cmv}, /*strict=*/false, user, lean_env, nullptr);
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.report, want.report);
}

// The rows of a labelled cost table ("<label>:", a header, one row per
// stage, then total), by stage name.
std::vector<std::string> StageNamesOf(const std::string& table) {
  std::vector<std::string> names;
  size_t pos = table.find('\n');  // past the label line
  bool in_rows = false;
  while (pos != std::string::npos && pos + 1 < table.size()) {
    const size_t end = table.find('\n', pos + 1);
    const std::string line = table.substr(pos + 1, end - pos - 1);
    const std::string name = line.substr(0, line.find(' '));
    if (name == "total") break;
    if (in_rows) names.push_back(name);
    in_rows = in_rows || name == "stage";
    pos = end;
  }
  return names;
}

// A skim that takes no mining result (the daemon's form) mines the content
// structure only; its report must equal the full mine's, byte for byte, at
// every level, on the five corpus titles (small frames keep the 108 mines
// quick) and on a torn container.
class SkimStructureOnlyTest : public ::testing::TestWithParam<int> {};

TEST_P(SkimStructureOnlyTest, ReportDoesNotDependOnTheSkippedStages) {
  synth::CorpusOptions corpus;
  corpus.scale = 0.25;
  corpus.width = 48;
  corpus.height = 36;
  // Per-parameter file names: the instances may run as parallel processes.
  const std::string prefix =
      ::testing::TempDir() + "/skim_t" + std::to_string(GetParam()) + "_";
  std::vector<std::string> paths;
  for (const synth::VideoScript& script :
       synth::MedicalCorpusScripts(corpus)) {
    const std::string path = prefix + script.name + ".cmv";
    ASSERT_TRUE(core::PackGeneratedVideo(synth::GenerateVideo(script))
                    .SaveToFile(path)
                    .ok());
    paths.push_back(path);
  }
  ASSERT_EQ(paths.size(), 5u);
  // A torn copy of the first title, mined in degraded mode (skims always
  // salvage).
  util::StatusOr<std::vector<uint8_t>> bytes = util::ReadFile(paths[0]);
  ASSERT_TRUE(bytes.ok());
  bytes->resize(bytes->size() * 9 / 10);
  const std::string torn = prefix + "torn.cmv";
  ASSERT_TRUE(util::WriteFile(torn, *bytes).ok());
  paths.push_back(torn);

  // The ops mine on the context's pool.
  util::ThreadPool pool(GetParam());
  OpEnv env;
  env.ctx = &pool;
  for (const std::string& path : paths) {
    SCOPED_TRACE(path);
    for (int level = 1; level <= 4; ++level) {
      SCOPED_TRACE("level " + std::to_string(level));
      const OpResult lean = SkimOp(path, level, env, nullptr);
      OpDiagnostics diag;
      codec::CmvFile file;
      core::MiningResult result;
      const OpResult full = SkimOp(path, level, env, &diag, &file, &result);
      ASSERT_TRUE(lean.ok()) << lean.status.ToString();
      ASSERT_TRUE(full.ok()) << full.status.ToString();
      EXPECT_EQ(lean.report, full.report);
      EXPECT_EQ(result.shot_audio.size(), result.structure.shots.size());
      EXPECT_EQ(result.degraded, path == torn);
    }
    OpDiagnostics diag;
    ASSERT_TRUE(SkimOp(path, 3, env, &diag).ok());
    ASSERT_EQ(diag.metrics.size(), 1u);
    EXPECT_EQ(StageNamesOf(diag.metrics[0]),
              (std::vector<std::string>{"decode", "shot", "group", "scene",
                                        "cluster", "skim"}));
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, SkimStructureOnlyTest,
                         ::testing::Values(1, 4));

// ---------------------------------------------------------------------------
// Server end-to-end

class ServerTest : public ::testing::Test {
 protected:
  // Starts a server with `options` (host/port forced to loopback/ephemeral).
  void StartServer(ServerOptions options = {}) {
    options.host = "127.0.0.1";
    options.port = 0;
    server_ = std::make_unique<ClassMinerServer>(std::move(options));
    ASSERT_TRUE(server_->Start().ok());
  }

  ClientOr Connect(const SessionHello& hello) {
    return PipelinedClient::Connect("127.0.0.1", server_->port(), hello);
  }

  std::unique_ptr<ClassMinerServer> server_;
};

TEST_F(ServerTest, HelloRequiredBeforeAnyRequest) {
  StartServer();
  util::StatusOr<int> fd = ConnectTo("127.0.0.1", server_->port());
  ASSERT_TRUE(fd.ok());
  Request request;
  request.kind = RequestKind::kVerify;
  request.args = {"whatever.cmdb"};
  request.request_id = 5;
  ASSERT_TRUE(SendRequest(*fd, request).ok());
  util::StatusOr<Response> response = ReadChunk(*fd);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->request_id, 5u);
  EXPECT_EQ(response->code, StatusCode::kFailedPrecondition);
  CloseFd(*fd);
}

TEST_F(ServerTest, PermissionMatrixOverAllRequestKinds) {
  const std::string cmv = TestContainer("perm.cmv", 3);
  StartServer();
  // Default clearance floor per kind: mine 1, browse 0, skim 0,
  // verify 2, repair 3.
  const struct {
    RequestKind kind;
    int required;
    std::vector<std::string> args;
  } kCases[] = {
      {RequestKind::kMine, 1, {cmv}},
      {RequestKind::kBrowse, 0, {cmv}},
      {RequestKind::kSkim, 0, {cmv}},
      {RequestKind::kVerify, 2, {"absent.cmdb"}},
      {RequestKind::kRepair, 3, {"absent.cmdb"}},
  };
  for (int clearance = 0; clearance <= 3; ++clearance) {
    ClientOr client =
        Connect(MakeHello("matrix", clearance));
    ASSERT_TRUE(client.ok());
    for (const auto& c : kCases) {
      Request request;
      request.kind = c.kind;
      request.args = c.args;
      util::StatusOr<Response> response = (*client)->Call(request);
      ASSERT_TRUE(response.ok()) << RequestKindName(c.kind);
      if (clearance < c.required) {
        EXPECT_EQ(response->code, StatusCode::kPermissionDenied)
            << RequestKindName(c.kind) << " at clearance " << clearance;
      } else {
        EXPECT_NE(response->code, StatusCode::kPermissionDenied)
            << RequestKindName(c.kind) << " at clearance " << clearance;
      }
    }
  }
  const ServerStats stats = server_->StatsSnapshot();
  // clearance 0 denies mine+verify+repair, 1 denies verify+repair,
  // 2 denies repair, 3 denies nothing.
  EXPECT_EQ(stats.permission_denied, 6u);
}

TEST_F(ServerTest, RootDenialDisablesTheAccount) {
  const std::string cmv = TestContainer("denied.cmv", 4);
  StartServer();
  SessionHello hello = MakeHello("blocked", 3);
  hello.denied_nodes = {0};  // denied the concept root
  ClientOr client = Connect(hello);
  ASSERT_TRUE(client.ok());
  util::StatusOr<std::string> report =
      (*client)->CallForReport(RequestKind::kBrowse, {cmv});
  EXPECT_EQ(report.status().code(), StatusCode::kPermissionDenied);
}

TEST_F(ServerTest, ResponsesByteIdenticalToOpsLayerAcross8Clients) {
  const std::string cmv = TestContainer("identity.cmv", 7);
  StartServer();

  // The expected bytes are what the CLI prints: the shared ops layer.
  const OpEnv env;
  const OpResult mine = MineOp(cmv, /*fast=*/false, /*strict=*/false, env,
                               nullptr);
  ASSERT_TRUE(mine.ok());
  const OpResult skim = SkimOp(cmv, 3, env, nullptr);
  ASSERT_TRUE(skim.ok());
  index::UserCredential user;
  user.name = "reader";
  user.clearance = 3;
  const OpResult browse = BrowseOp({cmv}, /*strict=*/false, user, env,
                                   nullptr);
  ASSERT_TRUE(browse.ok());

  constexpr int kClients = 8;
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      ClientOr client = Connect(MakeHello("reader", 3));
      if (!client.ok()) {
        ++mismatches;
        return;
      }
      const struct {
        RequestKind kind;
        std::vector<std::string> args;
        const std::string* want;
      } kCalls[] = {
          {RequestKind::kMine, {cmv}, &mine.report},
          {RequestKind::kSkim, {cmv, "3"}, &skim.report},
          {RequestKind::kBrowse, {cmv}, &browse.report},
      };
      // Stagger which call each client starts with, so all five kinds are
      // in flight together.
      for (int j = 0; j < 3; ++j) {
        const auto& call = kCalls[(i + j) % 3];
        util::StatusOr<std::string> got =
            (*client)->CallForReport(call.kind, call.args);
        if (!got.ok() || *got != *call.want) ++mismatches;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  const ServerStats stats = server_->StatsSnapshot();
  // Hellos are answered before dispatch; the 3 ops per client all succeed.
  EXPECT_EQ(stats.requests_ok, static_cast<uint64_t>(kClients * 3));
}

TEST_F(ServerTest, AdmissionControlRejectsPastTheQueueBound) {
  // Each client skims its own copy of the container, so B and C cannot
  // join A's single flight and must face admission control.
  const std::string cmv_a = TestContainer("admission.cmv", 9);
  const std::string cmv_b = CopyContainer(cmv_a, "admission_b.cmv");
  const std::string cmv_c = CopyContainer(cmv_a, "admission_c.cmv");

  std::promise<void> first_started;
  std::promise<void> release_first;
  std::shared_future<void> release(release_first.get_future());
  std::atomic<int> started{0};

  ServerOptions options;
  options.worker_threads = 1;
  options.max_queue = 1;
  options.request_started_hook = [&](RequestKind) {
    if (started.fetch_add(1) == 0) {
      first_started.set_value();
      release.wait();  // holds the only worker busy
    }
  };
  StartServer(std::move(options));

  // Request A occupies the worker.
  ClientOr a = Connect(MakeHello("a", 3));
  ASSERT_TRUE(a.ok());
  std::thread blocked([&] {
    (void)(*a)->CallForReport(RequestKind::kSkim, {cmv_a});
  });
  first_started.get_future().wait();

  // Request B fills the queue slot of 1.
  ClientOr b = Connect(MakeHello("b", 3));
  ASSERT_TRUE(b.ok());
  std::thread queued([&] {
    (void)(*b)->CallForReport(RequestKind::kSkim, {cmv_b});
  });
  // B must be admitted (queued) before C can be rejected deterministically.
  while (server_->StatsSnapshot().requests_admitted < 2) {  // A + B
    std::this_thread::yield();
  }

  // Request C finds the queue full -> kUnavailable, immediately.
  ClientOr c = Connect(MakeHello("c", 3));
  ASSERT_TRUE(c.ok());
  util::StatusOr<std::string> rejected =
      (*c)->CallForReport(RequestKind::kSkim, {cmv_c});
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);

  // kUnavailable is exactly what util::Retry retries: once the worker is
  // released, the same request goes through.
  release_first.set_value();
  util::RetryOptions retry;
  retry.max_attempts = 50;
  retry.initial_backoff_ms = 5.0;
  retry.max_backoff_ms = 50.0;
  util::StatusOr<std::string> report = util::RetryOr<std::string>(
      retry, [&]() -> util::StatusOr<std::string> {
        return (*c)->CallForReport(RequestKind::kSkim, {cmv_c});
      });
  EXPECT_TRUE(report.ok()) << report.status().ToString();

  blocked.join();
  queued.join();
  EXPECT_GE(server_->StatsSnapshot().rejected_admission, 1u);
}

TEST_F(ServerTest, DeadlineExpiredInQueueNeverExecutes) {
  // B skims its own copy of A's container: joining A's flight would bypass
  // the queue (and its deadline check) entirely.
  const std::string cmv = TestContainer("deadline.cmv", 11);
  const std::string cmv_b = CopyContainer(cmv, "deadline_b.cmv");

  std::promise<void> first_started;
  std::promise<void> release_first;
  std::shared_future<void> release(release_first.get_future());
  std::atomic<int> started{0};

  ServerOptions options;
  options.worker_threads = 1;
  options.max_queue = 4;
  options.request_started_hook = [&](RequestKind) {
    if (started.fetch_add(1) == 0) {
      first_started.set_value();
      release.wait();
    }
  };
  StartServer(std::move(options));

  ClientOr a = Connect(MakeHello("a", 3));
  ASSERT_TRUE(a.ok());
  std::thread blocked([&] {
    (void)(*a)->CallForReport(RequestKind::kSkim, {cmv});
  });
  first_started.get_future().wait();

  // Queued behind the blocked worker with a 1 ms deadline: by the time the
  // worker frees, the deadline has long passed.
  ClientOr b = Connect(MakeHello("b", 3));
  ASSERT_TRUE(b.ok());
  std::thread waiter([&] {
    util::StatusOr<std::string> report =
        (*b)->CallForReport(RequestKind::kSkim, {cmv_b}, /*deadline_ms=*/1);
    EXPECT_EQ(report.status().code(), StatusCode::kDeadlineExceeded);
  });
  while (server_->StatsSnapshot().requests_admitted < 2) {  // A + B
    std::this_thread::yield();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  release_first.set_value();
  blocked.join();
  waiter.join();
  EXPECT_GE(server_->StatsSnapshot().deadline_exceeded, 1u);
}

TEST_F(ServerTest, DeadlineFiringDuringExecutionCancelsTheRun) {
  const std::string cmv = TestContainer("deadline_running.cmv", 19);

  // A serial pixel-path mine of this container takes about 70 ms (one
  // worker, so the request mines on a one-thread pool); the idle worker
  // starts it at once, so the 20 ms deadline falls due mid-run and the
  // pipeline stops at its next stage boundary.
  ServerOptions options;
  options.worker_threads = 1;
  StartServer(std::move(options));

  ClientOr client = Connect(MakeHello("hurried", 3));
  ASSERT_TRUE(client.ok());
  const uint64_t exceeded_before = server_->StatsSnapshot().deadline_exceeded;
  util::StatusOr<std::string> report =
      (*client)->CallForReport(RequestKind::kMine, {cmv}, /*deadline_ms=*/20);
  EXPECT_EQ(report.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(report.status().message(), "deadline of 20 ms exceeded");
  EXPECT_GT(server_->StatsSnapshot().deadline_exceeded, exceeded_before);

  // The cancelled run leaves the session usable.
  util::StatusOr<std::string> skim =
      (*client)->CallForReport(RequestKind::kSkim, {cmv});
  ASSERT_TRUE(skim.ok()) << skim.status().ToString();
  EXPECT_FALSE(skim->empty());
}

TEST_F(ServerTest, GracefulStopDrainsInFlightRequests) {
  const std::string cmv = TestContainer("drain.cmv", 13);

  std::promise<void> started_promise;
  std::promise<void> release_promise;
  std::shared_future<void> release(release_promise.get_future());
  std::atomic<int> started{0};

  ServerOptions options;
  options.worker_threads = 2;
  options.request_started_hook = [&](RequestKind) {
    if (started.fetch_add(1) == 0) {
      started_promise.set_value();
      release.wait();
    }
  };
  StartServer(std::move(options));

  ClientOr client = Connect(MakeHello("drain", 3));
  ASSERT_TRUE(client.ok());
  util::StatusOr<std::string> report = Status::Internal("never ran");
  std::thread in_flight([&] {
    report = (*client)->CallForReport(RequestKind::kSkim, {cmv});
  });
  started_promise.get_future().wait();

  // Stop while the request is mid-flight: it must still complete and flush
  // its response before Stop returns.
  std::thread stopper([&] { server_->Stop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  release_promise.set_value();
  stopper.join();
  in_flight.join();

  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const ServerStats stats = server_->StatsSnapshot();
  EXPECT_EQ(stats.connections_active, 0u);  // no leaked connections
  EXPECT_GE(stats.requests_ok, 1u);
}

TEST_F(ServerTest, ConnectionCapacityRefusesTheExtraSession) {
  ServerOptions options;
  options.max_connections = 1;
  StartServer(std::move(options));

  ClientOr first = Connect(MakeHello("one", 1));
  ASSERT_TRUE(first.ok());
  ClientOr second = Connect(MakeHello("two", 1));
  EXPECT_EQ(second.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(server_->StatsSnapshot().connections_rejected, 1u);
}

TEST_F(ServerTest, VerifyCarriesItsReportEvenWhenDirty) {
  StartServer();
  ClientOr client = Connect(MakeHello("admin", 3));
  ASSERT_TRUE(client.ok());
  Request request;
  request.kind = RequestKind::kVerify;
  request.args = {::testing::TempDir() + "/no_such.cmdb"};
  util::StatusOr<Response> response = (*client)->Call(request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->code, StatusCode::kDataLoss);
  // The body is the same report the CLI prints before exiting non-zero.
  const OpResult expected = VerifyOp(request.args[0]);
  EXPECT_EQ(response->body, expected.report);
  EXPECT_FALSE(response->body.empty());
}

// ---------------------------------------------------------------------------
// Pipelining, streaming, the shared result cache.

TEST(ProtocolTest, TaggedRequestAndChunkRoundTrip) {
  Request request;
  request.kind = RequestKind::kSkim;
  request.deadline_ms = 250;
  request.args = {"a.cmv", "2"};
  request.request_id = 0xdeadbeef;
  util::StatusOr<std::vector<uint8_t>> bytes = request.SerializeTagged();
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(PeekRequestId(*bytes), 0xdeadbeefu);
  util::StatusOr<Request> parsed = Request::ParseTagged(*bytes);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->request_id, 0xdeadbeefu);
  EXPECT_EQ(parsed->kind, RequestKind::kSkim);
  EXPECT_EQ(parsed->args, request.args);

  Response chunk;
  chunk.request_id = 7;
  chunk.final_chunk = false;
  chunk.body = "fragment";
  util::StatusOr<std::vector<uint8_t>> cb = chunk.SerializeChunk();
  ASSERT_TRUE(cb.ok());
  util::StatusOr<Response> back = Response::ParseChunk(*cb);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->request_id, 7u);
  EXPECT_FALSE(back->final_chunk);
  EXPECT_EQ(back->body, "fragment");
  // Reserved flag bits must be zero.
  (*cb)[4] |= 0x02;
  EXPECT_FALSE(Response::ParseChunk(*cb).ok());
}

TEST_F(ServerTest, PipelinedResponsesCompleteOutOfOrder) {
  std::promise<void> first_started;
  std::promise<void> release_first;
  std::shared_future<void> release(release_first.get_future());
  std::atomic<int> started{0};

  ServerOptions options;
  options.worker_threads = 2;
  options.request_started_hook = [&](RequestKind) {
    if (started.fetch_add(1) == 0) {
      first_started.set_value();
      release.wait();
    }
  };
  StartServer(std::move(options));

  ClientOr client = Connect(MakeHello("pipeline", 3));
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  // A enters the worker first and blocks there; B, sent after, overtakes it.
  Request a;
  a.kind = RequestKind::kVerify;
  a.args = {::testing::TempDir() + "/oo_a.cmdb"};
  std::future<util::StatusOr<Response>> fa = (*client)->AsyncCall(a);
  first_started.get_future().wait();

  Request b;
  b.kind = RequestKind::kVerify;
  b.args = {::testing::TempDir() + "/oo_b.cmdb"};
  std::future<util::StatusOr<Response>> fb = (*client)->AsyncCall(b);

  ASSERT_EQ(fb.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  EXPECT_EQ(fa.wait_for(std::chrono::milliseconds(0)),
            std::future_status::timeout);  // A is still held in the hook
  release_first.set_value();

  util::StatusOr<Response> ra = fa.get();
  util::StatusOr<Response> rb = fb.get();
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  // Both carry their own database path: tags kept request<->response pairing
  // intact across the reordering.
  EXPECT_NE(ra->body.find("oo_a.cmdb"), std::string::npos);
  EXPECT_NE(rb->body.find("oo_b.cmdb"), std::string::npos);
  EXPECT_GE(server_->StatsSnapshot().requests_pipelined, 1u);
}

TEST_F(ServerTest, StreamedPipelinedResponsesReassembleByteIdentical) {
  const std::string cmv_a = TestContainer("stream_a.cmv", 17);
  const std::string cmv_b = TestContainer("stream_b.cmv", 19);

  ServerOptions options;
  options.worker_threads = 2;
  options.stream_chunk_bytes = 32;  // force many chunks per response
  StartServer(std::move(options));

  const OpEnv env;
  const OpResult want_a = SkimOp(cmv_a, 3, env, nullptr);
  const OpResult want_b = SkimOp(cmv_b, 3, env, nullptr);
  ASSERT_TRUE(want_a.ok());
  ASSERT_TRUE(want_b.ok());

  ClientOr client = Connect(MakeHello("streams", 3));
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  Request a;
  a.kind = RequestKind::kSkim;
  a.args = {cmv_a};
  Request b;
  b.kind = RequestKind::kSkim;
  b.args = {cmv_b};
  std::future<util::StatusOr<Response>> fa = (*client)->AsyncCall(a);
  std::future<util::StatusOr<Response>> fb = (*client)->AsyncCall(b);
  util::StatusOr<Response> ra = fa.get();
  util::StatusOr<Response> rb = fb.get();
  ASSERT_TRUE(ra.ok()) << ra.status().ToString();
  ASSERT_TRUE(rb.ok()) << rb.status().ToString();
  ASSERT_TRUE(ra->ok()) << ra->message;
  ASSERT_TRUE(rb->ok()) << rb->message;
  // Chunked delivery of two in-flight requests on one session reassembles
  // to exactly the ops-layer bytes. The reactor sends all of one
  // response's chunks before it starts the next, so chunks of the two do
  // not interleave; the client still routes each chunk by its tag.
  EXPECT_EQ(ra->body, want_a.report);
  EXPECT_EQ(rb->body, want_b.report);
  const ServerStats stats = server_->StatsSnapshot();
  EXPECT_GE(stats.responses_streamed, 2u);
}

TEST_F(ServerTest, SingleFlightCacheRunsTheMiningPipelineOnce) {
  const std::string cmv = TestContainer("cache.cmv", 23);

  std::promise<void> leader_started;
  std::promise<void> release_leader;
  std::shared_future<void> release(release_leader.get_future());
  std::atomic<int> started{0};

  ServerOptions options;
  options.request_started_hook = [&](RequestKind) {
    if (started.fetch_add(1) == 0) {
      leader_started.set_value();
      release.wait();  // holds the leader mid-flight so others can join
    }
  };
  StartServer(std::move(options));

  const OpEnv env;
  const OpResult want = MineOp(cmv, /*fast=*/true, /*strict=*/false, env,
                               nullptr);
  ASSERT_TRUE(want.ok());

  constexpr int kSessions = 4;
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int i = 0; i < kSessions; ++i) {
    threads.emplace_back([&, i] {
      ClientOr client =
          Connect(MakeHello("joiner" + std::to_string(i), 3));
      if (!client.ok()) {
        ++mismatches;
        return;
      }
      util::StatusOr<std::string> got =
          (*client)->CallForReport(RequestKind::kMine, {cmv, "--fast"});
      if (!got.ok() || *got != want.report) ++mismatches;
    });
  }
  leader_started.get_future().wait();
  // Everyone else must have attached to the leader's flight before it runs.
  while (server_->StatsSnapshot().cache_joined <
         static_cast<uint64_t>(kSessions - 1)) {
    std::this_thread::yield();
  }
  release_leader.set_value();
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);

  // A later identical request answers from the stored entry.
  ClientOr late = Connect(MakeHello("late", 3));
  ASSERT_TRUE(late.ok());
  util::StatusOr<std::string> cached =
      (*late)->CallForReport(RequestKind::kMine, {cmv, "--fast"});
  ASSERT_TRUE(cached.ok());
  EXPECT_EQ(*cached, want.report);

  const ServerStats stats = server_->StatsSnapshot();
  EXPECT_EQ(started.load(), 1);  // the pipeline executed exactly once
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_joined, static_cast<uint64_t>(kSessions - 1));
  EXPECT_GE(stats.cache_hits, 1u);
  // Cache-served answers still count as served requests.
  EXPECT_EQ(stats.requests_ok, static_cast<uint64_t>(kSessions + 1));
}

TEST_F(ServerTest, BadOpArgumentsAreRefusedTheSameWayEveryTime) {
  // Every refusal comes before the container is loaded, so any file will
  // do; it must exist so that the out-of-range skim gets a result-cache key
  // (the key stats the path) and leads a flight whose failure is not kept.
  const std::string cmv = ::testing::TempDir() + "/bad_args.cmv";
  std::ofstream(cmv) << "not a container";
  StartServer();
  ClientOr client = Connect(MakeHello("careless", 3));
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  const struct {
    RequestKind kind;
    std::vector<std::string> args;
    std::string message;
  } kCases[] = {
      {RequestKind::kMine,
       {cmv, "--bogus"},
       "unknown mine argument '--bogus'"},
      {RequestKind::kSkim, {cmv, "abc"}, "bad skim level 'abc'"},
      {RequestKind::kSkim, {cmv, "9"}, "skim level must be in [1, 4], got 9"},
  };
  // Each bad request twice: the repeat must get the same refusal, never a
  // stored answer.
  for (int round = 0; round < 2; ++round) {
    for (const auto& c : kCases) {
      Request request;
      request.kind = c.kind;
      request.args = c.args;
      util::StatusOr<Response> response = (*client)->Call(request);
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      EXPECT_EQ(response->code, StatusCode::kInvalidArgument)
          << c.message << " (round " << round << ")";
      EXPECT_EQ(response->message, c.message) << "round " << round;
      EXPECT_TRUE(response->body.empty()) << c.message;
    }
  }
  const ServerStats stats = server_->StatsSnapshot();
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_misses, 2u);  // the out-of-range skim, both times
  EXPECT_EQ(stats.requests_failed, 6u);
  EXPECT_EQ(stats.requests_ok, 0u);
}

TEST_F(ServerTest, SlowReaderBackpressureBoundsTheWriteQueue) {
  const std::string cmv = TestContainer("slow.cmv", 29);
  const std::string other_cmv = CopyContainer(cmv, "slow_other.cmv");

  ServerOptions options;
  // One worker: a stalled reader must not hold it, or the second session
  // below could never be served.
  options.worker_threads = 1;
  // One report byte per chunk frame: the ~300 B report goes out as ~9 KB of
  // ~30 B frames, more than the minimum-size kernel buffers on both ends
  // (the server's send buffer, the client's receive window) hold between
  // them (~5 KB on Linux).
  options.stream_chunk_bytes = 1;
  options.max_write_queue_bytes = 64;  // tiny: the stream must stall
  StartServer(std::move(options));

  const OpEnv env;
  const OpResult want = SkimOp(cmv, 3, env, nullptr);
  ASSERT_TRUE(want.ok());
  ASSERT_GT(want.report.size(), 128u);  // big enough to trip the bound

  util::StatusOr<int> fd =
      RawSession(server_->port(), MakeHello("slow", 3), /*small_window=*/true);
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  // Shrink the session's kernel send buffer to its floor; autotuned, it
  // would absorb the whole response and the write queue would never fill.
  const int server_end = ServerEndOf(*fd);
  ASSERT_GE(server_end, 0);
  const int one = 1;
  ASSERT_EQ(setsockopt(server_end, SOL_SOCKET, SO_SNDBUF, &one, sizeof(one)),
            0);

  Request skim;
  skim.kind = RequestKind::kSkim;
  skim.args = {cmv};
  skim.request_id = 2;
  ASSERT_TRUE(SendRequest(*fd, skim).ok());

  // Do not read. Once the response's first chunks reach the client, they
  // fill the socket and the write queue to the bound; the reactor chunks
  // no more of the body until the peer drains, so the response cannot
  // finish.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (;;) {
    int unread = 0;
    ASSERT_EQ(ioctl(*fd, FIONREAD, &unread), 0);
    if (unread > 0) break;
    ASSERT_LT(std::chrono::steady_clock::now(), give_up)
        << "the skim never started streaming";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  // The stalled reader holds only its own queued bytes, not the worker: a
  // second session's skim of another container runs on the one worker and
  // completes while the first response is still stuck. (The wait is
  // bounded and the check is an EXPECT: were the worker held, the drain
  // below would free it, and the future could still be joined.)
  ClientOr other = Connect(MakeHello("other", 3));
  ASSERT_TRUE(other.ok()) << other.status().ToString();
  std::future<util::StatusOr<std::string>> other_report =
      std::async(std::launch::async, [&] {
        return (*other)->CallForReport(RequestKind::kSkim, {other_cmv});
      });
  EXPECT_EQ(other_report.wait_for(std::chrono::seconds(30)),
            std::future_status::ready)
      << "a stalled reader holds the only worker";
  // The queue never ran away: bound + one chunk frame, with room to spare.
  EXPECT_LE(server_->StatsSnapshot().write_queue_peak_bytes,
            options.max_write_queue_bytes + 512);

  // Now drain like a healthy reader: the stream completes byte-identical.
  std::string body;
  for (;;) {
    util::StatusOr<Response> chunk = ReadChunk(*fd);
    ASSERT_TRUE(chunk.ok()) << chunk.status().ToString();
    ASSERT_EQ(chunk->request_id, 2u);
    body.append(chunk->body);
    if (chunk->final_chunk) {
      EXPECT_EQ(chunk->code, StatusCode::kOk) << chunk->message;
      break;
    }
  }
  EXPECT_EQ(body, want.report);
  util::StatusOr<std::string> other_body = other_report.get();
  ASSERT_TRUE(other_body.ok()) << other_body.status().ToString();
  EXPECT_EQ(*other_body, want.report);
  EXPECT_EQ(server_->StatsSnapshot().requests_ok, 2u);
  CloseFd(*fd);
}

// Threads: line of /proc/self/status; -1 when unreadable.
int ProcessThreadCount() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

TEST_F(ServerTest, HoldsAThousandIdleConnectionsWithoutReaderThreads) {
  // With the scrubber off, the daemon's threads are its worker pool and
  // the reactor, nothing else.
  ServerOptions options;
  options.max_connections = 1100;
  const int workers = options.worker_threads;
  const int threads_unstarted = ProcessThreadCount();
  StartServer(std::move(options));
  const int threads_before = ProcessThreadCount();
  ASSERT_GT(threads_unstarted, 0);
  EXPECT_EQ(threads_before - threads_unstarted, workers + 1);

  constexpr int kIdle = 1024;
  std::vector<int> idle;
  idle.reserve(kIdle);
  for (int i = 0; i < kIdle; ++i) {
    util::StatusOr<int> fd = ConnectTo("127.0.0.1", server_->port());
    ASSERT_TRUE(fd.ok()) << "connection " << i << ": "
                         << fd.status().ToString();
    idle.push_back(*fd);
  }
  // All idle sessions are registered (accepts are processed before the
  // active session below is admitted, but give the reactor a moment).
  while (server_->StatsSnapshot().connections_active <
         static_cast<uint64_t>(kIdle)) {
    std::this_thread::yield();
  }

  // The daemon still serves, and holding 1024 open sockets cost zero
  // additional threads — idle connections are file descriptors, not stacks.
  // The active session is raw, so the count holds only the daemon's
  // threads and this test's (a PipelinedClient would add its reader).
  util::StatusOr<int> active =
      RawSession(server_->port(), MakeHello("worker", 3));
  ASSERT_TRUE(active.ok()) << active.status().ToString();
  Request request;
  request.kind = RequestKind::kVerify;
  request.args = {::testing::TempDir() + "/idle_probe.cmdb"};
  request.request_id = 2;
  ASSERT_TRUE(SendRequest(*active, request).ok());
  util::StatusOr<Response> response = ReadChunk(*active);
  ASSERT_TRUE(response.ok()) << response.status().ToString();

  const int threads_after = ProcessThreadCount();
  ASSERT_GT(threads_before, 0);
  EXPECT_EQ(threads_after, threads_before);
  const ServerStats stats = server_->StatsSnapshot();
  EXPECT_EQ(stats.connections_active, static_cast<uint64_t>(kIdle + 1));

  for (int fd : idle) CloseFd(fd);
  CloseFd(*active);
}

TEST_F(ServerTest, ConcurrentMinesAddNoThreads) {
  const std::string cmv = TestContainer("footprint.cmv", 29);
  const OpResult want = MineOp(cmv, false, false, OpEnv(), nullptr);
  ASSERT_TRUE(want.ok()) << want.status.ToString();

  // Every worker holds its mine at a barrier until all of them have
  // started, so the mines then run at once. Each session mines its own
  // copy of the container, so each request executes instead of joining
  // one run.
  ServerOptions options;
  const int workers = options.worker_threads;
  std::mutex mu;
  std::condition_variable cv;
  int started = 0;
  options.request_started_hook = [&](RequestKind) {
    std::unique_lock<std::mutex> lock(mu);
    if (++started == workers) cv.notify_all();
    cv.wait_for(lock, std::chrono::seconds(30),
                [&] { return started >= workers; });
  };
  const int threads_unstarted = ProcessThreadCount();
  ASSERT_GT(threads_unstarted, 0);
  StartServer(std::move(options));

  // Raw sessions: no client reader threads join the count.
  std::vector<int> sessions;
  for (int i = 0; i < workers; ++i) {
    util::StatusOr<int> fd =
        RawSession(server_->port(), MakeHello("miner", 3));
    ASSERT_TRUE(fd.ok()) << fd.status().ToString();
    sessions.push_back(*fd);
    Request request;
    request.kind = RequestKind::kMine;
    request.args = {
        CopyContainer(cmv, "footprint_" + std::to_string(i) + ".cmv")};
    request.request_id = 2;
    ASSERT_TRUE(SendRequest(*fd, request).ok());
  }
  // Sample while the mines run, until every one has answered.
  int peak = 0;
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  while (std::chrono::steady_clock::now() < give_up) {
    peak = std::max(peak, ProcessThreadCount());
    const ServerStats stats = server_->StatsSnapshot();
    if (stats.requests_ok + stats.requests_failed >=
        static_cast<uint64_t>(workers)) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(started, workers);
  }
  EXPECT_EQ(peak, threads_unstarted + workers + 1);

  for (int fd : sessions) {
    util::StatusOr<Response> response = ReadChunk(fd);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_TRUE(response->final_chunk);
    EXPECT_EQ(response->code, StatusCode::kOk) << response->message;
    EXPECT_EQ(response->body, want.report);
    CloseFd(fd);
  }
}

TEST_F(ServerTest, LostWakeUpsStillDeliverResponsesAndReapIdleSessions) {
  const std::string cmv = TestContainer("wake_drop.cmv", 31);
  const OpResult want = MineOp(cmv, false, false, OpEnv(), nullptr);
  ASSERT_TRUE(want.ok()) << want.status.ToString();

  // Every wake-pipe byte is lost, so worker events reach the reactor only
  // on its 100 ms heartbeat.
  util::FailPoint::Scoped drop("server.wake.drop",
                               util::FailPoint::Spec::Always());
  ServerOptions options;
  options.idle_timeout_ms = 150;
  StartServer(std::move(options));

  util::StatusOr<int> fd = RawSession(server_->port(), MakeHello("late", 3));
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  // A reactor that never picked the response up fails the read, not the
  // run's time budget.
  const timeval timeout{30, 0};
  ASSERT_EQ(setsockopt(*fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                       sizeof(timeout)),
            0);
  Request request;
  request.kind = RequestKind::kMine;
  request.args = {cmv};
  request.request_id = 2;
  ASSERT_TRUE(SendRequest(*fd, request).ok());
  std::string body;
  for (;;) {
    util::StatusOr<Response> chunk = ReadChunk(*fd);
    ASSERT_TRUE(chunk.ok()) << chunk.status().ToString();
    ASSERT_EQ(chunk->request_id, 2u);
    body.append(chunk->body);
    if (chunk->final_chunk) {
      EXPECT_EQ(chunk->code, StatusCode::kOk) << chunk->message;
      break;
    }
  }
  EXPECT_EQ(body, want.report);

  // The session is quiet now, and the reaper still closes it.
  EXPECT_TRUE(ServerHangsUp(*fd));
  CloseFd(*fd);
  EXPECT_GE(server_->StatsSnapshot().idle_closed, 1u);
}

TEST_F(ServerTest, MalformedRequestFrameGetsAnErrorResponse) {
  StartServer();
  util::StatusOr<int> fd = ConnectTo("127.0.0.1", server_->port());
  ASSERT_TRUE(fd.ok());
  // A CRC-valid frame whose body is not a parseable request: its tag is
  // readable, its kind byte is not.
  const std::vector<uint8_t> junk = {0x05, 0x00, 0x00, 0x00, 0x7f};
  ASSERT_TRUE(WriteFrame(*fd, kRequestMagicV2, junk, kMaxFrameBytes).ok());
  util::StatusOr<Response> response = ReadChunk(*fd);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->final_chunk);
  EXPECT_EQ(response->request_id, 5u);
  EXPECT_EQ(response->code, StatusCode::kInvalidArgument);
  CloseFd(*fd);
}

// Framing damage ends the session with one final CMS2 chunk carrying
// kDataLoss (tag 0: the damaged frame's tag cannot be trusted), then EOF.
TEST_F(ServerTest, CorruptFrameGetsATaggedGoodbyeThenEof) {
  StartServer();
  util::StatusOr<int> fd = RawSession(server_->port(), MakeHello("crc", 3));
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  Request verify;
  verify.kind = RequestKind::kVerify;
  verify.args = {"whatever.cmdb"};
  verify.request_id = 2;
  util::StatusOr<std::vector<uint8_t>> frame = EncodeFrame(
      kRequestMagicV2, *verify.SerializeTagged(), kMaxFrameBytes);
  ASSERT_TRUE(frame.ok());
  (*frame)[8] ^= 0xff;  // CRC field
  ASSERT_TRUE(SendAll(*fd, frame->data(), frame->size()).ok());

  util::StatusOr<Response> goodbye = ReadChunk(*fd);
  ASSERT_TRUE(goodbye.ok()) << goodbye.status().ToString();
  EXPECT_TRUE(goodbye->final_chunk);
  EXPECT_EQ(goodbye->code, StatusCode::kDataLoss);
  EXPECT_TRUE(ServerHangsUp(*fd));
  EXPECT_EQ(server_->StatsSnapshot().protocol_errors, 1u);
  CloseFd(*fd);
}

// A client still speaking the retired CMRQ framing gets the same goodbye,
// not a hang and not a reply in a framing nobody reads any more.
TEST_F(ServerTest, LegacyCmrqFrameGetsTheSameGoodbye) {
  StartServer();
  util::StatusOr<int> fd = ConnectTo("127.0.0.1", server_->port());
  ASSERT_TRUE(fd.ok());
  constexpr uint32_t kLegacyRequestMagic = 0x51524d43;  // "CMRQ"
  // A legacy hello body: kind 0 · deadline 0 · no args.
  const std::vector<uint8_t> body(9, 0);
  ASSERT_TRUE(
      WriteFrame(*fd, kLegacyRequestMagic, body, kMaxFrameBytes).ok());

  util::StatusOr<Response> goodbye = ReadChunk(*fd);
  ASSERT_TRUE(goodbye.ok()) << goodbye.status().ToString();
  EXPECT_TRUE(goodbye->final_chunk);
  EXPECT_EQ(goodbye->code, StatusCode::kDataLoss);
  EXPECT_TRUE(ServerHangsUp(*fd));
  const ServerStats stats = server_->StatsSnapshot();
  EXPECT_EQ(stats.protocol_errors, 1u);
  EXPECT_EQ(stats.requests_received, 0u);
  CloseFd(*fd);
}

// ---------------------------------------------------------------------------
// Chaos hardening: idempotency keys, duplicate-tag rejection, idle reaping,
// error budgets, the health kind, fault-injected transports, the scrubber.

TEST(ProtocolTest, TaggedRequestCarriesIdempotencyKey) {
  Request request;
  request.kind = RequestKind::kRepair;
  request.deadline_ms = 0;
  request.args = {"library.cmdb"};
  request.request_id = 42;
  request.idempotency_key = "rc1-00ff-3-abc";
  util::StatusOr<std::vector<uint8_t>> bytes = request.SerializeTagged();
  ASSERT_TRUE(bytes.ok());
  util::StatusOr<Request> parsed = Request::ParseTagged(*bytes);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->idempotency_key, "rc1-00ff-3-abc");
  EXPECT_EQ(parsed->request_id, 42u);
  EXPECT_EQ(parsed->args, request.args);

  // An absent key round-trips as empty, and trailing junk after the key is
  // still rejected (the strict framing did not move).
  request.idempotency_key.clear();
  bytes = request.SerializeTagged();
  ASSERT_TRUE(bytes.ok());
  parsed = Request::ParseTagged(*bytes);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->idempotency_key.empty());
  std::vector<uint8_t> trailing = *bytes;
  trailing.push_back(0);
  EXPECT_FALSE(Request::ParseTagged(trailing).ok());
}

TEST_F(ServerTest, DuplicateInFlightRequestIdIsRejected) {
  std::promise<void> first_started;
  std::promise<void> release_first;
  std::shared_future<void> release(release_first.get_future());
  std::atomic<int> started{0};

  ServerOptions options;
  options.worker_threads = 2;
  options.request_started_hook = [&](RequestKind) {
    if (started.fetch_add(1) == 0) {
      first_started.set_value();
      release.wait();
    }
  };
  StartServer(std::move(options));

  util::StatusOr<int> fd = RawSession(server_->port(), MakeHello("dup", 3));
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();

  // Original request under tag 2 is held in the worker...
  Request verify;
  verify.kind = RequestKind::kVerify;
  verify.args = {::testing::TempDir() + "/dup_orig.cmdb"};
  verify.request_id = 2;
  ASSERT_TRUE(SendRequest(*fd, verify).ok());
  first_started.get_future().wait();

  // ...so a second request reusing tag 2 is a protocol error, answered
  // immediately without touching the original.
  ASSERT_TRUE(SendRequest(*fd, verify).ok());
  util::StatusOr<Response> rejected = ReadChunk(*fd);
  ASSERT_TRUE(rejected.ok()) << rejected.status().ToString();
  EXPECT_EQ(rejected->request_id, 2u);
  EXPECT_EQ(rejected->code, StatusCode::kInvalidArgument);
  EXPECT_NE(rejected->message.find("duplicate request_id"),
            std::string::npos);

  // The original still answers once released: the rejection did not free
  // or corrupt its tag.
  release_first.set_value();
  std::string body;
  for (;;) {
    util::StatusOr<Response> chunk = ReadChunk(*fd);
    ASSERT_TRUE(chunk.ok()) << chunk.status().ToString();
    EXPECT_EQ(chunk->request_id, 2u);
    body.append(chunk->body);
    if (chunk->final_chunk) break;
  }
  EXPECT_NE(body.find("dup_orig.cmdb"), std::string::npos);

  // Tag 2's lifetime ended with its final answer: reuse is legal now.
  verify.args = {::testing::TempDir() + "/dup_reuse.cmdb"};
  ASSERT_TRUE(SendRequest(*fd, verify).ok());
  util::StatusOr<Response> reused = ReadChunk(*fd);
  ASSERT_TRUE(reused.ok()) << reused.status().ToString();
  EXPECT_NE(reused->code, StatusCode::kInvalidArgument);

  EXPECT_EQ(server_->StatsSnapshot().duplicate_request_ids, 1u);
  CloseFd(*fd);
}

TEST_F(ServerTest, IdleTimeoutReapsSlowLorisButNotBusySessions) {
  std::promise<void> started_promise;
  std::promise<void> release_promise;
  std::shared_future<void> release(release_promise.get_future());
  std::atomic<int> started{0};

  ServerOptions options;
  options.idle_timeout_ms = 150;
  options.request_started_hook = [&](RequestKind) {
    if (started.fetch_add(1) == 0) {
      started_promise.set_value();
      release.wait();  // holds a request in flight well past the timeout
    }
  };
  StartServer(std::move(options));

  // A session with an executing request is busy, not idle — it must
  // survive the reaper even though no bytes move while the worker is held.
  ClientOr busy = Connect(MakeHello("busy", 3));
  ASSERT_TRUE(busy.ok());
  util::StatusOr<std::string> report = Status::Internal("never ran");
  std::thread in_flight([&] {
    report = (*busy)->CallForReport(
        RequestKind::kVerify, {::testing::TempDir() + "/not_idle.cmdb"});
  });
  started_promise.get_future().wait();

  // The slow loris: three bytes of a frame header, then silence. The
  // reactor must reap it once the idle timeout passes.
  util::StatusOr<int> loris = ConnectTo("127.0.0.1", server_->port());
  ASSERT_TRUE(loris.ok());
  const uint8_t partial[3] = {0x43, 0x4d, 0x51};
  ASSERT_TRUE(SendAll(*loris, partial, sizeof(partial)).ok());
  EXPECT_TRUE(ServerHangsUp(*loris));  // EOF: reaped, not answered
  CloseFd(*loris);

  // The held request was never reaped; it completes normally.
  release_promise.set_value();
  in_flight.join();
  EXPECT_TRUE(report.status().code() == StatusCode::kDataLoss ||
              report.ok());  // verify on a missing db is kDataLoss
  const ServerStats stats = server_->StatsSnapshot();
  EXPECT_GE(stats.idle_closed, 1u);
}

TEST_F(ServerTest, ErrorBudgetClosesSessionsThatKeepSendingGarbage) {
  ServerOptions options;
  options.max_session_errors = 3;
  StartServer(std::move(options));

  util::StatusOr<int> fd = ConnectTo("127.0.0.1", server_->port());
  ASSERT_TRUE(fd.ok());
  // Each junk frame is CRC-valid but unparseable (tag 1, kind 0x7f): an
  // inline error answer, charged against the session's budget.
  const std::vector<uint8_t> junk = {0x01, 0x00, 0x00, 0x00, 0x7f};
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(WriteFrame(*fd, kRequestMagicV2, junk, kMaxFrameBytes).ok());
  }
  // All three owed error responses still flush before the close.
  for (int i = 0; i < 3; ++i) {
    util::StatusOr<Response> response = ReadChunk(*fd);
    ASSERT_TRUE(response.ok()) << "error " << i << ": "
                               << response.status().ToString();
    EXPECT_EQ(response->code, StatusCode::kInvalidArgument);
  }
  // Past the budget the server hangs up instead of absorbing more abuse.
  EXPECT_TRUE(ServerHangsUp(*fd));
  const ServerStats stats = server_->StatsSnapshot();
  EXPECT_EQ(stats.protocol_errors, 3u);
  EXPECT_EQ(stats.error_budget_closed, 1u);
  CloseFd(*fd);
}

TEST_F(ServerTest, HealthAnswersBeforeHelloAtClearanceZero) {
  StartServer();

  // Health needs no hello and no clearance: it must work on a raw
  // session as the very first frame (that is what a load balancer probe
  // looks like).
  util::StatusOr<int> fd = ConnectTo("127.0.0.1", server_->port());
  ASSERT_TRUE(fd.ok());
  Request probe;
  probe.kind = RequestKind::kHealth;
  probe.request_id = 1;
  ASSERT_TRUE(SendRequest(*fd, probe).ok());
  util::StatusOr<Response> response = ReadChunk(*fd);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->code, StatusCode::kOk) << response->message;
  EXPECT_NE(response->body.find("classminerd health"), std::string::npos);
  EXPECT_NE(response->body.find("status: serving"), std::string::npos);
  EXPECT_NE(response->body.find("scrub: disabled"), std::string::npos);
  CloseFd(*fd);

  // And through an authenticated clearance-0 session, for completeness.
  ClientOr probe_client = Connect(MakeHello("probe", 0));
  ASSERT_TRUE(probe_client.ok());
  util::StatusOr<std::string> body =
      (*probe_client)->CallForReport(RequestKind::kHealth, {});
  ASSERT_TRUE(body.ok()) << body.status().ToString();
  EXPECT_NE(body->find("status: serving"), std::string::npos);
}

TEST_F(ServerTest, ResilientClientRunsRepairAtMostOnceAcrossTornSend) {
  // A degraded database entry with its pristine container next to it.
  const std::string dir = ::testing::TempDir() + "/torn_repair_media";
  (void)::mkdir(dir.c_str(), 0755);
  const std::string name = "torn_repair";
  synth::VideoScript script = synth::QuickScript(41);
  script.name = name;
  const synth::GeneratedVideo g = synth::GenerateVideo(script);
  const codec::CmvFile container = core::PackGeneratedVideo(g);
  ASSERT_TRUE(container.SaveToFile(dir + "/" + name + ".cmv").ok());
  const std::string db_path = dir + "/library.cmdb";
  {
    util::StatusOr<core::MiningResult> mined =
        core::MineCmvFileFast(container, core::MiningOptions());
    ASSERT_TRUE(mined.ok());
    index::VideoDatabase db;
    db.AddVideo(name, std::move(mined->structure), std::move(mined->events),
                /*degraded=*/true);
    ASSERT_TRUE(index::SaveDatabase(db, db_path).ok());
  }
  ASSERT_FALSE(index::VerifyDatabaseFile(db_path).clean());

  std::atomic<int> repairs_started{0};
  ServerOptions options;
  options.media_dir = dir;
  options.request_started_hook = [&](RequestKind kind) {
    if (kind == RequestKind::kRepair) ++repairs_started;
  };
  StartServer(std::move(options));

  ResilientClient::Options ropts;
  ropts.port = server_->port();
  ropts.hello = MakeHello("fixer", 3);
  ropts.retry.max_attempts = 6;
  ropts.retry.initial_backoff_ms = 5.0;
  ropts.retry.max_backoff_ms = 50.0;
  ropts.session_nonce = 77;
  ResilientClient client(std::move(ropts));

  // Establish the session first so the torn send hits the repair response,
  // not the hello.
  util::StatusOr<Response> health = client.Call([] {
    Request r;
    r.kind = RequestKind::kHealth;
    return r;
  }());
  ASSERT_TRUE(health.ok()) << health.status().ToString();

  util::FailPoint::Scoped torn("server.wire.send.torn",
                               util::FailPoint::Spec::Once());
  Request repair;
  repair.kind = RequestKind::kRepair;
  repair.args = {db_path};
  util::StatusOr<Response> response = client.Call(repair);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->code, StatusCode::kOk) << response->message;
  EXPECT_NE(response->body.find(db_path), std::string::npos);

  // The side effects ran exactly once: the resumed call replayed the
  // recorded outcome instead of repairing a second time.
  EXPECT_EQ(repairs_started.load(), 1);
  EXPECT_EQ(util::FailPoint::FailureCount("server.wire.send.torn"), 1);
  EXPECT_TRUE(index::VerifyDatabaseFile(db_path).clean());
  const ServerStats stats = server_->StatsSnapshot();
  EXPECT_GE(stats.idempotent_hits + stats.idempotent_joined, 1u);
  const ResilientClient::Stats cstats = client.StatsSnapshot();
  EXPECT_EQ(cstats.dials, 2u);          // original session + the redial
  EXPECT_GE(cstats.resumed_calls, 1u);  // the repair was re-offered
}

TEST_F(ServerTest, ResilientClientSurvivesAcceptTimeConnectionReset) {
  StartServer();

  util::FailPoint::Scoped reset("server.accept.reset",
                                util::FailPoint::Spec::Once());
  ResilientClient::Options ropts;
  ropts.port = server_->port();
  ropts.hello = MakeHello("reconnector", 3);
  ropts.retry.max_attempts = 6;
  ropts.retry.initial_backoff_ms = 5.0;
  ropts.retry.max_backoff_ms = 50.0;
  ResilientClient client(std::move(ropts));

  // First dial is reset the moment it is accepted; the retry redials.
  Request probe;
  probe.kind = RequestKind::kHealth;
  util::StatusOr<Response> response = client.Call(probe);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->code, StatusCode::kOk);
  EXPECT_EQ(util::FailPoint::FailureCount("server.accept.reset"), 1);
  EXPECT_EQ(client.StatsSnapshot().dials, 1u);  // one successful handshake
  EXPECT_GE(client.StatsSnapshot().resumed_calls, 1u);
}

TEST(ScrubberTest, RunOnceHealsADegradedDatabase) {
  const std::string dir = ::testing::TempDir() + "/scrub_media";
  (void)::mkdir(dir.c_str(), 0755);
  const std::string name = "scrubbable";
  synth::VideoScript script = synth::QuickScript(43);
  script.name = name;
  const synth::GeneratedVideo g = synth::GenerateVideo(script);
  const codec::CmvFile container = core::PackGeneratedVideo(g);
  ASSERT_TRUE(container.SaveToFile(dir + "/" + name + ".cmv").ok());
  const std::string db_path = dir + "/scrub.cmdb";
  {
    util::StatusOr<core::MiningResult> mined =
        core::MineCmvFileFast(container, core::MiningOptions());
    ASSERT_TRUE(mined.ok());
    index::VideoDatabase db;
    db.AddVideo(name, std::move(mined->structure), std::move(mined->events),
                /*degraded=*/true);
    ASSERT_TRUE(index::SaveDatabase(db, db_path).ok());
  }
  ASSERT_FALSE(index::VerifyDatabaseFile(db_path).clean());

  ScrubberOptions options;
  options.db_path = db_path;
  options.env.media_dir = dir;
  IntegrityScrubber scrubber(std::move(options));
  scrubber.RunOnce();

  ScrubberStats stats = scrubber.StatsSnapshot();
  EXPECT_EQ(stats.passes, 1u);
  EXPECT_EQ(stats.dirty_found, 1u);
  EXPECT_EQ(stats.repairs, 1u);
  EXPECT_EQ(stats.repair_failures, 0u);
  EXPECT_TRUE(stats.last_clean);
  EXPECT_TRUE(stats.ever_ran);
  EXPECT_TRUE(index::VerifyDatabaseFile(db_path).clean());

  // A second pass finds a clean library and repairs nothing.
  scrubber.RunOnce();
  stats = scrubber.StatsSnapshot();
  EXPECT_EQ(stats.passes, 2u);
  EXPECT_EQ(stats.repairs, 1u);
  EXPECT_TRUE(stats.last_clean);
}

TEST_F(ServerTest, BackgroundScrubberHealsWhileServingAndReportsInHealth) {
  const std::string dir = ::testing::TempDir() + "/bg_scrub_media";
  (void)::mkdir(dir.c_str(), 0755);
  const std::string name = "bg_scrub";
  synth::VideoScript script = synth::QuickScript(47);
  script.name = name;
  const synth::GeneratedVideo g = synth::GenerateVideo(script);
  const codec::CmvFile container = core::PackGeneratedVideo(g);
  ASSERT_TRUE(container.SaveToFile(dir + "/" + name + ".cmv").ok());
  const std::string db_path = dir + "/bg.cmdb";
  {
    util::StatusOr<core::MiningResult> mined =
        core::MineCmvFileFast(container, core::MiningOptions());
    ASSERT_TRUE(mined.ok());
    index::VideoDatabase db;
    db.AddVideo(name, std::move(mined->structure), std::move(mined->events),
                /*degraded=*/true);
    ASSERT_TRUE(index::SaveDatabase(db, db_path).ok());
  }

  ServerOptions options;
  options.media_dir = dir;
  options.scrub_db_path = db_path;
  options.scrub_interval_ms = 25;
  options.scrub_max_yield_ms = 100;
  StartServer(std::move(options));

  // Client traffic in parallel with the scrub: the daemon keeps serving.
  ClientOr client = Connect(MakeHello("reader", 3));
  ASSERT_TRUE(client.ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (server_->StatsSnapshot().scrub_repairs < 1) {
    util::StatusOr<Response> poke = (*client)->Call([] {
      Request r;
      r.kind = RequestKind::kHealth;
      return r;
    }());
    ASSERT_TRUE(poke.ok());
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "scrubber never repaired the database";
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(index::VerifyDatabaseFile(db_path).clean());

  // Wait for the confirming pass to publish, then health reflects it.
  while (!server_->StatsSnapshot().scrub_repairs ||
         server_->StatsSnapshot().scrub_passes < 2) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  util::StatusOr<std::string> body =
      (*client)->CallForReport(RequestKind::kHealth, {});
  ASSERT_TRUE(body.ok());
  EXPECT_NE(body->find("scrub: enabled"), std::string::npos);
  EXPECT_NE(body->find("last scrub: clean"), std::string::npos);
  const ServerStats stats = server_->StatsSnapshot();
  EXPECT_GE(stats.scrub_passes, 1u);
  EXPECT_EQ(stats.scrub_dirty, 1u);
  EXPECT_EQ(stats.scrub_repairs, 1u);
  EXPECT_EQ(stats.scrub_repair_failures, 0u);
}

}  // namespace
}  // namespace classminer::server
