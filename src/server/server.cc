#include "server/server.h"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <unordered_set>
#include <utility>

#include "index/access_control.h"
#include "server/wire.h"
#include "util/exec_context.h"
#include "util/failpoint.h"

namespace classminer::server {
namespace {

// Parses a base-10 integer argument; kInvalidArgument on junk.
util::StatusOr<int> ParseIntArg(const std::string& text,
                                const std::string& what) {
  char* end = nullptr;
  errno = 0;
  const long value = std::strtol(text.c_str(), &end, 10);
  if (errno != 0 || end == text.c_str() || *end != '\0' || value < -1000000 ||
      value > 1000000) {
    return util::Status::InvalidArgument("bad " + what + " '" + text + "'");
  }
  return static_cast<int>(value);
}

// Steady-clock milliseconds for idle-timeout bookkeeping: monotonic and
// cheap to stamp on every read and write.
int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Derives the cache identity of a request, when it has one. Only mine and
// skim are cacheable: their reports depend solely on (container bytes,
// options, flags). Browse renders through the session's credential and
// verify/repair mutate database files, so they always execute. Requests
// whose arguments would be rejected by the op bypass the cache too — the
// op's own error message is the answer.
bool CacheSignature(const Request& request, std::string* path,
                    std::string* signature) {
  switch (request.kind) {
    case RequestKind::kMine: {
      if (request.args.empty()) return false;
      bool fast = false, strict = false;
      for (size_t i = 1; i < request.args.size(); ++i) {
        if (request.args[i] == "--fast") {
          fast = true;
        } else if (request.args[i] == "--strict") {
          strict = true;
        } else {
          return false;
        }
      }
      *path = request.args[0];
      *signature = std::string("mine:fast=") + (fast ? "1" : "0") +
                   ",strict=" + (strict ? "1" : "0");
      return true;
    }
    case RequestKind::kSkim: {
      if (request.args.empty() || request.args.size() > 2) return false;
      int level = 3;
      if (request.args.size() == 2) {
        util::StatusOr<int> parsed =
            ParseIntArg(request.args[1], "skim level");
        if (!parsed.ok()) return false;
        level = *parsed;
      }
      *path = request.args[0];
      *signature = "skim:level=" + std::to_string(level);
      return true;
    }
    default:
      return false;
  }
}

}  // namespace

// The slice of per-connection state a worker thread may touch. Everything
// else about a connection lives on the reactor thread; workers see only
// this mirror, used to block a streaming op until the peer drains its
// socket (backpressure) and to unblock it for good when the session dies.
struct ClassMinerServer::ConnShared {
  std::mutex mu;
  std::condition_variable cv;
  size_t queued_bytes = 0;  // reactor's write_queue_bytes, mirrored
  // Chunk frame bytes ops have posted that the reactor has not queued yet.
  // Counted against the bound too, so an op that outruns the reactor
  // cannot post past it.
  size_t transit_bytes = 0;
  bool dead = false;        // connection closed; stop waiting, drop output
};

// Reactor-owned per-session state machine.
struct ClassMinerServer::Connection {
  uint64_t id = 0;
  int fd = -1;
  FrameAssembler assembler;

  bool authenticated = false;
  index::UserCredential user;

  // Requests read off the wire but not yet dispatched (pipeline depth
  // holding them back). Parse errors ride along as inline_error entries in
  // arrival order.
  std::deque<PendingRequest> pending;
  int executing = 0;  // responses still owed by workers/leaders

  // Write side: fully encoded frames; the front one is sent up to
  // write_offset. write_queue_bytes counts unsent bytes across the queue.
  std::deque<std::vector<uint8_t>> write_queue;
  size_t write_queue_bytes = 0;
  size_t write_offset = 0;

  // Finished responses whose bodies still chunk out as the queue
  // drains (bounded memory: at most ~one chunk past the bound is encoded).
  struct Streaming {
    uint32_t request_id = 0;
    Response response;  // body holds the unsent remainder from `offset`
    size_t offset = 0;
    bool multi = false;  // delivered as 2+ chunks (live-streamed or split)
  };
  std::deque<Streaming> streaming;

  bool read_closed = false;  // EOF seen, framing damage, or drain begun
  bool want_write = false;   // current poller write-interest registration
  std::shared_ptr<ConnShared> shared;

  // request_ids currently in flight on this session (registered at parse,
  // released when the final response is enqueued). A second request reusing
  // a live id is rejected — chunk reassembly would be ambiguous.
  std::unordered_set<uint32_t> live_ids;
  // Inline protocol-error answers charged against max_session_errors.
  int inline_errors = 0;
  // Last wire activity (NowMs): accept, read and write progress.
  int64_t last_activity_ms = 0;

  explicit Connection(size_t max_frame)
      : assembler(kRequestMagicV2, max_frame) {}
};

// Everything a pool task needs, detached from the Connection so the
// session can die while the op still runs.
struct ClassMinerServer::TaskCtx {
  uint64_t conn_id = 0;
  Request request;
  index::UserCredential user;
  bool has_deadline = false;
  std::chrono::steady_clock::time_point deadline;
  util::CancellationToken cancel;  // the reactor fires it at the deadline
  std::string lead_key;  // non-empty: this run leads a single-flight entry
  std::string idem_key;  // non-empty: this run leads an idempotency record
  bool owns_id = false;  // final response releases the session's live id
  std::shared_ptr<ConnShared> shared;
};

// Readiness multiplexer over epoll (level-triggered). Watches are tagged
// with the connection id (0 = listener, 1 = wake pipe).
class ClassMinerServer::Poller {
 public:
  struct Ready {
    uint64_t tag = 0;
    bool readable = false;
    bool writable = false;
    bool hangup = false;  // peer fully closed (EPOLLHUP)
    bool error = false;
  };

  Poller() = default;
  ~Poller() { CloseFd(epfd_); }

  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  // Creates the epoll instance; its failure is the server's Start() error.
  util::Status Open() {
    epfd_ = epoll_create1(EPOLL_CLOEXEC);
    if (epfd_ < 0) {
      return util::Status::Unavailable(std::string("epoll_create1: ") +
                                       std::strerror(errno));
    }
    return util::Status::Ok();
  }

  util::Status Add(int fd, uint64_t tag, bool read, bool write) {
    return Ctl(EPOLL_CTL_ADD, fd, tag, read, write);
  }

  util::Status Mod(int fd, uint64_t tag, bool read, bool write) {
    return Ctl(EPOLL_CTL_MOD, fd, tag, read, write);
  }

  void Del(int fd) {
    epoll_event ev{};
    (void)epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, &ev);
  }

  // Blocks until at least one watched fd is ready or `timeout_ms` elapses
  // (-1 = forever); fills `out` (empty on timeout). The reactor passes a
  // finite heartbeat so a lost wake-pipe byte delays worker events instead
  // of stranding them.
  util::Status Wait(std::vector<Ready>* out, int timeout_ms) {
    out->clear();
    epoll_event events[128];
    int n;
    do {
      n = epoll_wait(epfd_, events, 128, timeout_ms);
    } while (n < 0 && errno == EINTR);
    if (n < 0) {
      return util::Status::Internal(std::string("epoll_wait: ") +
                                    std::strerror(errno));
    }
    for (int i = 0; i < n; ++i) {
      Ready r;
      r.tag = events[i].data.u64;
      r.readable = (events[i].events & EPOLLIN) != 0;
      r.writable = (events[i].events & EPOLLOUT) != 0;
      r.hangup = (events[i].events & EPOLLHUP) != 0;
      r.error = (events[i].events & EPOLLERR) != 0;
      out->push_back(r);
    }
    return util::Status::Ok();
  }

 private:
  util::Status Ctl(int op, int fd, uint64_t tag, bool read, bool write) {
    epoll_event ev{};
    ev.events = (read ? EPOLLIN : 0u) | (write ? EPOLLOUT : 0u);
    ev.data.u64 = tag;
    if (epoll_ctl(epfd_, op, fd, &ev) != 0) {
      return util::Status::Internal(std::string("epoll_ctl: ") +
                                    std::strerror(errno));
    }
    return util::Status::Ok();
  }

  int epfd_ = -1;
};

ClassMinerServer::ClassMinerServer(ServerOptions options)
    : options_(std::move(options)),
      concepts_(index::ConceptHierarchy::MedicalDefault()),
      cache_(ResultCache::Options{
          options_.cache_max_bytes > 0 ? options_.cache_max_bytes : 1,
          options_.cache_max_entries > 0 ? options_.cache_max_entries : 1}),
      idem_cache_(ResultCache::Options{
          options_.idem_cache_max_bytes > 0 ? options_.idem_cache_max_bytes
                                            : 1,
          options_.idem_cache_max_entries > 0 ? options_.idem_cache_max_entries
                                              : 1}) {
  if (options_.worker_threads < 1) options_.worker_threads = 1;
  if (options_.max_queue < 0) options_.max_queue = 0;
  if (options_.max_connections < 1) options_.max_connections = 1;
  if (options_.max_pipeline < 1) options_.max_pipeline = 1;
  if (options_.stream_chunk_bytes == 0) options_.stream_chunk_bytes = 1;
  if (options_.idle_timeout_ms < 0) options_.idle_timeout_ms = 0;
  if (options_.max_session_errors < 0) options_.max_session_errors = 0;
  if (options_.scrub_interval_ms < 0) options_.scrub_interval_ms = 0;
}

ClassMinerServer::~ClassMinerServer() { Stop(); }

util::Status ClassMinerServer::Start() {
  util::StatusOr<int> fd =
      ListenOn(options_.host, options_.port, options_.backlog);
  if (!fd.ok()) return fd.status();
  util::StatusOr<int> port = BoundPort(*fd);
  if (!port.ok()) {
    CloseFd(*fd);
    return port.status();
  }
  if (pipe(wake_fds_) != 0) {
    CloseFd(*fd);
    return util::Status::Unavailable(std::string("pipe: ") +
                                     std::strerror(errno));
  }
  auto poller = std::make_unique<Poller>();
  util::Status setup = poller->Open();
  if (setup.ok()) setup = SetNonBlocking(*fd, true);
  if (setup.ok()) setup = SetNonBlocking(wake_fds_[0], true);
  if (setup.ok()) setup = SetNonBlocking(wake_fds_[1], true);
  if (setup.ok()) setup = poller->Add(*fd, 0, /*read=*/true, /*write=*/false);
  if (setup.ok()) {
    setup = poller->Add(wake_fds_[0], 1, /*read=*/true, /*write=*/false);
  }
  if (!setup.ok()) {
    CloseFd(*fd);
    CloseFd(wake_fds_[0]);
    CloseFd(wake_fds_[1]);
    wake_fds_[0] = wake_fds_[1] = -1;
    return setup;
  }
  listen_fd_ = *fd;
  port_ = *port;
  poller_ = std::move(poller);
  pool_ = std::make_unique<util::ThreadPool>(options_.worker_threads);
  if (!options_.scrub_db_path.empty() && options_.scrub_interval_ms > 0) {
    ScrubberOptions scrub;
    scrub.db_path = options_.scrub_db_path;
    scrub.interval_ms = options_.scrub_interval_ms;
    scrub.max_yield_ms = options_.scrub_max_yield_ms;
    scrub.compact_logs = options_.scrub_compact;
    scrub.busy = [this] {
      return queued_.load(std::memory_order_acquire) > 0 ||
             busy_workers_.load(std::memory_order_acquire) > 0;
    };
    // The scrubber re-mines serially on its own thread (the default
    // context): it yields to traffic, so its work stays off the workers.
    scrub.env.mining = options_.mining;
    scrub.env.media_dir = options_.media_dir;
    scrubber_ = std::make_unique<IntegrityScrubber>(std::move(scrub));
    scrubber_->Start();
  }
  reactor_thread_ = std::thread([this] { ReactorLoop(); });
  return util::Status::Ok();
}

void ClassMinerServer::Stop() {
  if (stopping_.exchange(true)) {
    // A second Stop simply returns; the destructor is the only other caller
    // and runs after the first Stop by construction.
    return;
  }
  if (scrubber_ != nullptr) scrubber_->Stop();
  Wake();
  if (reactor_thread_.joinable()) reactor_thread_.join();
  if (listen_fd_ >= 0) {
    // Start() succeeded but the reactor never ran (or drain already closed
    // it, leaving -1).
    CloseFd(listen_fd_);
    listen_fd_ = -1;
  }
  // Workers may still be finishing ops for sessions that died; they post
  // events nobody reads and Wake() a pipe that is still open. Only after
  // the pool drains is it safe to tear the pipe down.
  pool_.reset();
  CloseFd(wake_fds_[0]);
  CloseFd(wake_fds_[1]);
  wake_fds_[0] = wake_fds_[1] = -1;
  poller_.reset();
}

ServerStats ClassMinerServer::StatsSnapshot() const {
  ServerStats out;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    out = stats_;
  }
  const ResultCache::Stats cache = cache_.stats();
  out.cache_hits = cache.hits;
  out.cache_joined = cache.joined;
  out.cache_misses = cache.misses;
  if (scrubber_ != nullptr) {
    const ScrubberStats scrub = scrubber_->StatsSnapshot();
    out.scrub_passes = scrub.passes;
    out.scrub_dirty = scrub.dirty_found;
    out.scrub_repairs = scrub.repairs;
    out.scrub_repair_failures = scrub.repair_failures;
    out.scrub_compactions = scrub.compactions;
    out.scrub_dead_dropped = scrub.dead_dropped;
  }
  return out;
}

std::string ClassMinerServer::BuildHealthReport() const {
  const ServerStats stats = StatsSnapshot();
  std::string out;
  out += "classminerd health\n";
  out += "status: ";
  out += draining_ ? "draining" : "serving";
  out += "\n";
  out += "connections: " + std::to_string(stats.connections_active) + "\n";
  out += "requests ok: " + std::to_string(stats.requests_ok) + "\n";
  out += "requests failed: " + std::to_string(stats.requests_failed) + "\n";
  if (scrubber_ != nullptr && scrubber_->enabled()) {
    const ScrubberStats scrub = scrubber_->StatsSnapshot();
    out += "scrub: enabled\n";
    out += "scrub passes: " + std::to_string(scrub.passes) + "\n";
    out += "scrub dirty: " + std::to_string(scrub.dirty_found) + "\n";
    out += "scrub repaired: " + std::to_string(scrub.repairs) + "\n";
    out += "scrub repair failures: " +
           std::to_string(scrub.repair_failures) + "\n";
    if (options_.scrub_compact) {
      out += "scrub compactions: " + std::to_string(scrub.compactions) + "\n";
      out += "scrub dead records dropped: " +
             std::to_string(scrub.dead_dropped) + "\n";
    }
    if (!scrub.ever_ran) {
      out += "last scrub: never\n";
    } else if (scrub.last_clean) {
      out += "last scrub: clean\n";
    } else {
      out += "last scrub: dirty";
      if (!scrub.last_error.empty()) out += " (" + scrub.last_error + ")";
      out += "\n";
    }
    out += "degraded entries: " + std::to_string(scrub.last_degraded) + "\n";
  } else {
    out += "scrub: disabled\n";
  }
  return out;
}

void ClassMinerServer::Wake() {
  if (wake_fds_[1] < 0) return;
  // Chaos site: the wake byte is lost. Worker events then ride the
  // reactor's heartbeat wait timeout instead of a prompt wake-up — slower,
  // never stranded.
  if (!util::FailPoint::Check("server.wake.drop").ok()) return;
  const uint8_t byte = 1;
  ssize_t n;
  do {
    n = write(wake_fds_[1], &byte, 1);
  } while (n < 0 && errno == EINTR);
  // EAGAIN means the pipe is full: a wake-up is already pending.
}

void ClassMinerServer::PostEvent(WorkerEvent event) {
  {
    std::lock_guard<std::mutex> lock(event_mutex_);
    events_.push_back(std::move(event));
  }
  Wake();
}

void ClassMinerServer::CountOutcome(const Response& response) {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  if (response.ok()) {
    ++stats_.requests_ok;
  } else {
    ++stats_.requests_failed;
    if (response.code == util::StatusCode::kDeadlineExceeded) {
      ++stats_.deadline_exceeded;
    }
  }
}

// ---------------------------------------------------------------------------
// Reactor thread.

void ClassMinerServer::ReactorLoop() {
  std::vector<Poller::Ready> ready;
  for (;;) {
    if (stopping_.load(std::memory_order_acquire) && !draining_) BeginDrain();
    // An unfired deadline keeps the loop alive through a drain, so a run
    // whose session has gone is still cancelled on time.
    if (draining_ && conns_.empty() && deadlines_.empty()) break;
    // Finite heartbeat: a dropped wake-pipe byte (chaos, or a full pipe
    // racing teardown) delays event pickup by at most one beat, and idle
    // sessions are reaped on the same beat. The earliest deadline cuts the
    // wait short, rounded up so that it has fallen due when the wait ends.
    int timeout_ms = 100;
    if (!deadlines_.empty()) {
      const auto until = std::chrono::ceil<std::chrono::milliseconds>(
          deadlines_.begin()->first - std::chrono::steady_clock::now());
      timeout_ms = static_cast<int>(
          std::clamp<int64_t>(until.count(), 0, timeout_ms));
    }
    if (!poller_->Wait(&ready, timeout_ms).ok()) {
      break;  // unrecoverable multiplexer loss
    }
    const auto now = std::chrono::steady_clock::now();
    while (!deadlines_.empty() && deadlines_.begin()->first <= now) {
      deadlines_.begin()->second->cancel.Cancel();  // -> kDeadlineExceeded
      deadlines_.erase(deadlines_.begin());
    }
    for (const Poller::Ready& r : ready) {
      if (r.tag == 1 && r.readable) {
        uint8_t buf[256];
        for (;;) {
          const ssize_t n = read(wake_fds_[0], buf, sizeof(buf));
          if (n < 0 && errno == EINTR) continue;
          if (n < static_cast<ssize_t>(sizeof(buf))) break;
        }
      }
    }
    if (stopping_.load(std::memory_order_acquire) && !draining_) BeginDrain();
    for (const Poller::Ready& r : ready) {
      if (r.tag == 0) {
        if (!draining_) HandleAccept();
        continue;
      }
      if (r.tag == 1) continue;
      auto it = conns_.find(r.tag);
      if (it == conns_.end()) continue;
      Connection* conn = it->second.get();
      if (r.error || (r.hangup && conn->read_closed)) {
        // The socket is gone (or the peer fully closed after we stopped
        // reading — nothing we queue can reach it).
        CloseConnection(conn->id);
        continue;
      }
      if (r.readable && !conn->read_closed) HandleReadable(conn);
      it = conns_.find(r.tag);  // HandleReadable may close on hard errors
      if (it == conns_.end()) continue;
      conn = it->second.get();
      if (r.writable) FlushConn(conn);
    }
    ProcessEvents();
    // Close sessions that have said everything they are going to say, and,
    // unless draining, sessions with nothing owed and no wire activity for
    // the idle timeout (a slow-loris peer parked on half a frame header
    // would otherwise hold its connection forever).
    const bool reap = options_.idle_timeout_ms > 0 && !draining_;
    const int64_t now_ms = NowMs();
    std::vector<uint64_t> done;
    uint64_t idle = 0;
    for (const auto& [id, conn] : conns_) {
      if (!ConnDrained(*conn)) continue;
      if (conn->read_closed) {
        done.push_back(id);
      } else if (reap && now_ms - conn->last_activity_ms >=
                             options_.idle_timeout_ms) {
        done.push_back(id);
        ++idle;
      }
    }
    if (idle > 0) {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      stats_.idle_closed += idle;
    }
    for (uint64_t id : done) CloseConnection(id);
  }
}

void ClassMinerServer::BeginDrain() {
  draining_ = true;
  if (listen_fd_ >= 0) {
    poller_->Del(listen_fd_);
    CloseFd(listen_fd_);
    listen_fd_ = -1;
  }
  for (auto& [id, conn] : conns_) {
    // Mirror the old daemon's SHUT_RD drain: in-flight requests finish and
    // flush their responses; requests still sitting unread (or undispatched)
    // are dropped.
    conn->read_closed = true;
    conn->pending.clear();
    shutdown(conn->fd, SHUT_RD);
    (void)poller_->Mod(conn->fd, id, /*read=*/false, conn->want_write);
  }
}

void ClassMinerServer::HandleAccept() {
  for (;;) {
    util::StatusOr<int> fd = TryAccept(listen_fd_);
    if (!fd.ok() || *fd < 0) break;
    // Chaos site: the connection dies the moment it is accepted — the peer
    // sees its handshake read fail (kUnavailable) and retries.
    if (!util::FailPoint::Check("server.accept.reset").ok()) {
      CloseFd(*fd);
      continue;
    }
    if (static_cast<int>(conns_.size()) >= options_.max_connections) {
      // Counted before the peer can observe the refusal, so a caller that
      // has seen it also sees the counter.
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.connections_rejected;
      }
      // The peer's first read (its hello response) reports the rejection
      // as a final chunk. The fresh fd is still blocking, so one synchronous
      // frame is fine.
      const Response busy = MakeResponse(
          util::Status::Unavailable("server at connection capacity"));
      util::StatusOr<std::vector<uint8_t>> bytes = busy.SerializeChunk();
      if (bytes.ok()) {
        (void)WriteFrame(*fd, kResponseMagicV2, *bytes,
                         options_.max_frame_bytes);
      }
      CloseFd(*fd);
      continue;
    }
    if (!SetNonBlocking(*fd, true).ok()) {
      CloseFd(*fd);
      continue;
    }
    const uint64_t id = next_conn_id_++;
    auto conn = std::make_unique<Connection>(options_.max_frame_bytes);
    conn->id = id;
    conn->fd = *fd;
    conn->shared = std::make_shared<ConnShared>();
    conn->last_activity_ms = NowMs();
    if (!poller_->Add(*fd, id, /*read=*/true, /*write=*/false).ok()) {
      CloseFd(*fd);
      continue;
    }
    conns_.emplace(id, std::move(conn));
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.connections_accepted;
    ++stats_.connections_active;
  }
}

void ClassMinerServer::HandleReadable(Connection* conn) {
  uint8_t buf[64 * 1024];
  for (;;) {
    util::StatusOr<size_t> n = TryRecv(conn->fd, buf, sizeof(buf));
    if (!n.ok()) {
      if (n.status().code() == util::StatusCode::kUnavailable) {
        // Clean hangup. A torn frame at EOF still gets a "closed
        // mid-frame" answer before the goodbye.
        if (conn->assembler.partial_bytes() > 0) {
          PendingRequest p;
          p.inline_error = true;
          p.error = MakeResponse(
              util::Status::DataLoss("connection closed mid-frame"));
          PushInlineError(conn, std::move(p));
        }
        conn->read_closed = true;
        (void)poller_->Mod(conn->fd, conn->id, /*read=*/false,
                           conn->want_write);
      } else {
        CloseConnection(conn->id);
        return;
      }
      break;
    }
    if (*n == 0) break;  // would block; the poller re-arms us
    conn->last_activity_ms = NowMs();
    const util::Status fed = conn->assembler.Feed(buf, *n);
    std::vector<uint8_t> frame;
    while (conn->assembler.PopFrame(&frame)) {
      PendingRequest p;
      util::StatusOr<Request> request = Request::ParseTagged(frame);
      if (request.ok() && !conn->live_ids.insert(request->request_id).second) {
        // The tag is still answering an earlier request: a second stream
        // of chunks under the same id would reassemble ambiguously on the
        // client. Reject the newcomer; the original keeps its id.
        {
          std::lock_guard<std::mutex> lock(stats_mutex_);
          ++stats_.duplicate_request_ids;
        }
        p.inline_error = true;
        p.error = MakeResponse(util::Status::InvalidArgument(
            "duplicate request_id " + std::to_string(request->request_id) +
            " already in flight on this session"));
        p.error.request_id = request->request_id;
      } else if (request.ok()) {
        p.owns_id = true;
        p.request = std::move(*request);
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.requests_received;
      } else {
        // The frame boundary held (CRC passed), so the stream stays usable;
        // the error answer carries whatever tag the body still shows.
        p.inline_error = true;
        p.error = MakeResponse(request.status());
        p.error.request_id = PeekRequestId(frame);
      }
      if (p.inline_error) {
        PushInlineError(conn, std::move(p));
        if (conn->read_closed) break;  // error budget spent mid-batch
      } else {
        conn->pending.push_back(std::move(p));
      }
    }
    if (conn->read_closed) break;
    if (!fed.ok()) {
      // Framing damage: the stream cannot be trusted past this point. A
      // best-effort error response queues behind whatever was already owed,
      // then the connection closes once flushed.
      PendingRequest p;
      p.inline_error = true;
      p.error = MakeResponse(fed);
      PushInlineError(conn, std::move(p));
      conn->read_closed = true;
      (void)poller_->Mod(conn->fd, conn->id, /*read=*/false,
                         conn->want_write);
      break;
    }
    if (*n < sizeof(buf)) break;  // likely drained; LT polling re-reports
  }
  TryDispatch(conn);
}

void ClassMinerServer::PushInlineError(Connection* conn,
                                       PendingRequest error) {
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.protocol_errors;
  }
  ++conn->inline_errors;
  conn->pending.push_back(std::move(error));
  if (options_.max_session_errors > 0 &&
      conn->inline_errors >= options_.max_session_errors &&
      !conn->read_closed) {
    // Error budget spent: a peer that keeps sending damage stops being
    // read. Every answer already owed (including this one) still flushes,
    // then the connection closes cleanly instead of wedging half-alive.
    conn->read_closed = true;
    (void)poller_->Mod(conn->fd, conn->id, /*read=*/false, conn->want_write);
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.error_budget_closed;
  }
}

void ClassMinerServer::TryDispatch(Connection* conn) {
  while (!conn->pending.empty()) {
    // Inline errors cost no execution slot, so they never wait for one.
    if (!conn->pending.front().inline_error &&
        conn->executing >= options_.max_pipeline) {
      break;
    }
    PendingRequest pending = std::move(conn->pending.front());
    conn->pending.pop_front();
    DispatchRequest(conn, std::move(pending));
  }
}

void ClassMinerServer::DispatchRequest(Connection* conn,
                                       PendingRequest&& pending) {
  if (pending.inline_error) {
    // Inline errors never registered a live id (a duplicate-id rejection
    // must not free the original's), so nothing is released here.
    EnqueueFinal(conn, std::move(pending.error), 0, /*release_id=*/false);
    return;
  }
  const bool owns_id = pending.owns_id;
  Request& request = pending.request;

  if (request.kind == RequestKind::kHealth) {
    // Liveness probe: clearance 0, allowed before hello, answered on the
    // reactor without admission control — a saturated or draining daemon
    // can still tell a load balancer how it is doing.
    Response response = MakeResponse(util::Status::Ok(), BuildHealthReport());
    response.request_id = request.request_id;
    EnqueueFinal(conn, std::move(response), 0, owns_id);
    return;
  }

  if (request.kind == RequestKind::kHello) {
    Response response;
    if (request.args.size() != 1) {
      response = MakeResponse(util::Status::InvalidArgument(
          "hello carries exactly one credential argument"));
    } else {
      util::StatusOr<SessionHello> hello =
          SessionHello::Parse(request.args[0]);
      if (!hello.ok()) {
        response = MakeResponse(hello.status());
      } else {
        conn->user = hello->ToCredential();
        conn->authenticated = true;
        response = MakeResponse(util::Status::Ok(),
                                "session " + hello->user + " clearance " +
                                    std::to_string(hello->clearance) + "\n");
      }
    }
    response.request_id = request.request_id;
    EnqueueFinal(conn, std::move(response), 0, owns_id);
    return;
  }
  if (!conn->authenticated) {
    Response response = MakeResponse(util::Status::FailedPrecondition(
        "session not established; send hello first"));
    response.request_id = request.request_id;
    EnqueueFinal(conn, std::move(response), 0, owns_id);
    return;
  }

  // Multilevel access control: the session's clearance must cover the
  // request kind, and the account must not be denied the concept root
  // (a root denial disables the account outright).
  const index::AccessController access(&concepts_);
  const int required =
      options_.min_clearance[static_cast<size_t>(request.kind)];
  if (conn->user.clearance < required ||
      !access.CanAccessNode(conn->user, concepts_.root())) {
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.permission_denied;
    }
    Response response = MakeResponse(util::Status::PermissionDenied(
        std::string(RequestKindName(request.kind)) + " requires clearance " +
        std::to_string(required) + "; session '" + conn->user.name +
        "' has " + std::to_string(conn->user.clearance)));
    response.request_id = request.request_id;
    EnqueueFinal(conn, std::move(response), 0, owns_id);
    return;
  }

  // Idempotent resume: a keyed request whose connection died
  // mid-call is resent with the same key after a reconnect. Recorded
  // outcomes replay byte-for-byte; a key still executing is joined — either
  // way the work runs at most once per key. A key is scoped to the user so
  // sessions cannot replay each other's outcomes.
  std::string idem_lead = std::move(pending.idem_lead);
  if (idem_lead.empty() && !request.idempotency_key.empty()) {
    std::string key = std::string("idem\x1f") + conn->user.name + "\x1f" +
                      request.idempotency_key;
    CachedResult recorded;
    const uint64_t conn_id = conn->id;
    const Request request_copy = request;
    const ResultCache::Admission admission = idem_cache_.JoinOrLead(
        key, &recorded,
        [this, conn_id, owns_id, request_copy](const CachedResult* result) {
          WorkerEvent event;
          event.conn_id = conn_id;
          event.owns_id = owns_id;
          event.request_id = request_copy.request_id;
          if (result != nullptr) {
            event.kind = WorkerEvent::Kind::kFinal;
            event.response.code = result->code;
            event.response.message = result->message;
            event.response.body = result->body;
            event.response.request_id = request_copy.request_id;
            CountOutcome(event.response);
          } else {
            // The original attempt never executed (admission rejection,
            // shutdown); this retry runs its own copy.
            event.kind = WorkerEvent::Kind::kRedispatch;
            event.request = request_copy;
          }
          PostEvent(std::move(event));
        });
    if (admission == ResultCache::Admission::kHit) {
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.idempotent_hits;
      }
      Response response;
      response.code = recorded.code;
      response.message = std::move(recorded.message);
      response.body = std::move(recorded.body);
      response.request_id = request.request_id;
      CountOutcome(response);
      EnqueueFinal(conn, std::move(response), 0, owns_id);
      return;
    }
    if (admission == ResultCache::Admission::kJoined) {
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.idempotent_joined;
      }
      ++conn->executing;
      return;
    }
    idem_lead = std::move(key);
  }

  // Single-flight result cache: identical concurrent runs collapse onto one
  // leader; identical later runs answer from the stored entry, byte for
  // byte what a fresh execution would have said.
  std::string lead_key;
  if (options_.enable_result_cache) {
    std::string path, signature;
    if (CacheSignature(request, &path, &signature)) {
      util::StatusOr<std::string> key =
          MiningCacheKey(path, signature, options_.mining);
      if (key.ok()) {
        CachedResult cached;
        const uint64_t conn_id = conn->id;
        const Request request_copy = request;
        const ResultCache::Admission admission = cache_.JoinOrLead(
            *key, &cached,
            [this, conn_id, owns_id, idem_lead,
             request_copy](const CachedResult* result) {
              // Runs on the leader's worker thread when it completes.
              if (result != nullptr && !idem_lead.empty()) {
                // The joined result is also this request's recorded
                // outcome: a keyed retry after reconnect must replay it,
                // not recompute it.
                idem_cache_.Complete(idem_lead, *result, /*cacheable=*/true);
              }
              WorkerEvent event;
              event.conn_id = conn_id;
              event.owns_id = owns_id;
              event.request_id = request_copy.request_id;
              if (result != nullptr) {
                event.kind = WorkerEvent::Kind::kFinal;
                event.response.code = result->code;
                event.response.message = result->message;
                event.response.body = result->body;
                event.response.request_id = request_copy.request_id;
                CountOutcome(event.response);
              } else {
                // The leader finished without a shareable result; run our
                // own copy of the request from scratch.
                event.kind = WorkerEvent::Kind::kRedispatch;
                event.request = request_copy;
                event.idem_lead = idem_lead;
              }
              PostEvent(std::move(event));
            });
        if (admission == ResultCache::Admission::kHit) {
          if (!idem_lead.empty()) {
            idem_cache_.Complete(idem_lead, cached, /*cacheable=*/true);
          }
          Response response;
          response.code = cached.code;
          response.message = std::move(cached.message);
          response.body = std::move(cached.body);
          response.request_id = request.request_id;
          CountOutcome(response);
          EnqueueFinal(conn, std::move(response), 0, owns_id);
          return;
        }
        if (admission == ResultCache::Admission::kJoined) {
          ++conn->executing;
          return;
        }
        lead_key = std::move(*key);
      }
    }
  }

  // Admission control: bound the number of admitted-but-not-executing
  // requests. Past the bound the client hears kUnavailable immediately —
  // the transient code util::Retry backs off on — instead of queueing
  // without bound.
  int queued = queued_.load(std::memory_order_acquire);
  bool rejected = false;
  do {
    if (queued >= options_.max_queue) {
      rejected = true;
      break;
    }
  } while (!queued_.compare_exchange_weak(queued, queued + 1,
                                          std::memory_order_acq_rel));
  if (rejected) {
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.rejected_admission;
    }
    if (!lead_key.empty()) {
      // Waiters joined a flight that will never run; send them back out.
      cache_.Complete(lead_key, CachedResult{}, /*cacheable=*/false);
    }
    if (!idem_lead.empty()) {
      // Never executed, so nothing to replay: the retry runs for real.
      idem_cache_.Complete(idem_lead, CachedResult{}, /*cacheable=*/false);
    }
    Response response = MakeResponse(util::Status::Unavailable(
        "server queue full (" + std::to_string(queued) +
        " requests waiting); retry"));
    response.request_id = request.request_id;
    EnqueueFinal(conn, std::move(response), 0, owns_id);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.requests_admitted;
    if (conn->executing > 0) ++stats_.requests_pipelined;
  }

  auto ctx = std::make_shared<TaskCtx>();
  ctx->conn_id = conn->id;
  ctx->user = conn->user;
  ctx->has_deadline = request.deadline_ms > 0;
  ctx->deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(request.deadline_ms);
  ctx->lead_key = std::move(lead_key);
  ctx->idem_key = std::move(idem_lead);
  ctx->owns_id = owns_id;
  ctx->shared = conn->shared;
  ctx->request = std::move(request);
  if (ctx->has_deadline) deadlines_.emplace(ctx->deadline, ctx);

  ++conn->executing;
  pool_->Schedule([this, ctx] { WorkerRun(ctx); });
}

void ClassMinerServer::EnqueueFinal(Connection* conn, Response response,
                                    size_t streamed_bytes, bool release_id) {
  if (release_id) {
    // The tagged id's lifetime ends with its final answer; the client may
    // legitimately reuse it for a fresh request after this frame.
    conn->live_ids.erase(response.request_id);
  }
  // The body past what the op already streamed ships as chunk frames,
  // paced by FillStreaming so a huge report never sits encoded in memory
  // ahead of a slow reader.
  if (streamed_bytes > 0 && streamed_bytes <= response.body.size()) {
    response.body.erase(0, streamed_bytes);
  }
  response.final_chunk = true;
  Connection::Streaming s;
  s.request_id = response.request_id;
  s.multi = streamed_bytes > 0;
  s.response = std::move(response);
  conn->streaming.push_back(std::move(s));
  FillStreaming(conn);
}

void ClassMinerServer::FillStreaming(Connection* conn) {
  while (!conn->streaming.empty() &&
         conn->write_queue_bytes <= options_.max_write_queue_bytes) {
    Connection::Streaming& s = conn->streaming.front();
    const std::string& body = s.response.body;
    const size_t remaining = body.size() - s.offset;
    Response piece;
    piece.request_id = s.request_id;
    bool last;
    if (remaining > options_.stream_chunk_bytes) {
      piece.final_chunk = false;
      piece.body = body.substr(s.offset, options_.stream_chunk_bytes);
      s.offset += options_.stream_chunk_bytes;
      s.multi = true;
      last = false;
    } else {
      piece.final_chunk = true;
      piece.code = s.response.code;
      piece.message = s.response.message;
      piece.body = body.substr(s.offset);
      last = true;
    }
    util::StatusOr<std::vector<uint8_t>> bytes = piece.SerializeChunk();
    if (bytes.ok()) {
      util::StatusOr<std::vector<uint8_t>> frame =
          EncodeFrame(kResponseMagicV2, *bytes, options_.max_frame_bytes);
      if (frame.ok()) EnqueueFrameBytes(conn, std::move(*frame));
    }
    if (last) {
      if (s.multi) {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.responses_streamed;
      }
      conn->streaming.pop_front();
    }
  }
}

void ClassMinerServer::EnqueueFrameBytes(Connection* conn,
                                         std::vector<uint8_t> frame,
                                         bool in_transit) {
  const size_t frame_bytes = frame.size();
  // Fault injection: duplicate a final chunk on the wire, modelling a
  // retransmit-after-ack. Only FINAL chunks are duplicated — the client
  // forgets the tag once the final frame lands, so the copy exercises the
  // unknown-tag drop path; duplicating a middle chunk would instead corrupt
  // reassembly, which no real transport does under TCP.
  bool dup = false;
  if (frame.size() >= 17 && (frame[16] & 1) != 0) {  // flags: final bit
    dup = !util::FailPoint::Check("server.wire.frame.dup").ok();
  }
  for (int copies = dup ? 2 : 1; copies > 0; --copies) {
    std::vector<uint8_t> bytes = copies > 1 ? frame : std::move(frame);
    conn->write_queue_bytes += bytes.size();
    conn->write_queue.push_back(std::move(bytes));
  }
  {
    std::lock_guard<std::mutex> lock(conn->shared->mu);
    conn->shared->queued_bytes = conn->write_queue_bytes;
    // An op's posted chunk moves from transit to the queue; the sum the op
    // waits on never drops here, so no waiter needs waking.
    if (in_transit) conn->shared->transit_bytes -= frame_bytes;
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    if (conn->write_queue_bytes > stats_.write_queue_peak_bytes) {
      stats_.write_queue_peak_bytes = conn->write_queue_bytes;
    }
  }
  UpdateWriteInterest(conn);
}

void ClassMinerServer::FlushConn(Connection* conn) {
  for (;;) {
    if (conn->write_queue.empty()) {
      FillStreaming(conn);
      if (conn->write_queue.empty()) break;
    }
    std::vector<uint8_t>& front = conn->write_queue.front();
    util::StatusOr<size_t> n =
        TrySend(conn->fd, front.data() + conn->write_offset,
                front.size() - conn->write_offset);
    if (!n.ok()) {
      // Peer vanished; whatever was owed can never be delivered.
      CloseConnection(conn->id);
      return;
    }
    if (*n == 0) break;  // socket buffer full; EPOLLOUT re-arms us
    conn->last_activity_ms = NowMs();
    conn->write_offset += *n;
    conn->write_queue_bytes -= *n;
    if (conn->write_offset == front.size()) {
      conn->write_queue.pop_front();
      conn->write_offset = 0;
    }
  }
  {
    std::lock_guard<std::mutex> lock(conn->shared->mu);
    conn->shared->queued_bytes = conn->write_queue_bytes;
  }
  conn->shared->cv.notify_all();  // unblock ops waiting out backpressure
  UpdateWriteInterest(conn);
}

void ClassMinerServer::UpdateWriteInterest(Connection* conn) {
  const bool want =
      !conn->write_queue.empty() || !conn->streaming.empty();
  if (want == conn->want_write) return;
  conn->want_write = want;
  (void)poller_->Mod(conn->fd, conn->id, /*read=*/!conn->read_closed, want);
}

bool ClassMinerServer::ConnDrained(const Connection& conn) const {
  return conn.pending.empty() && conn.executing == 0 &&
         conn.write_queue.empty() && conn.streaming.empty();
}

void ClassMinerServer::CloseConnection(uint64_t id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  Connection* conn = it->second.get();
  poller_->Del(conn->fd);
  CloseFd(conn->fd);
  {
    std::lock_guard<std::mutex> lock(conn->shared->mu);
    conn->shared->dead = true;
  }
  conn->shared->cv.notify_all();  // release any op blocked on backpressure
  conns_.erase(it);
  std::lock_guard<std::mutex> lock(stats_mutex_);
  --stats_.connections_active;
}

void ClassMinerServer::ProcessEvents() {
  std::deque<WorkerEvent> batch;
  {
    std::lock_guard<std::mutex> lock(event_mutex_);
    batch.swap(events_);
  }
  for (WorkerEvent& event : batch) {
    if (event.task != nullptr && event.task->has_deadline) {
      // The run is over, whether or not its session survived: its deadline
      // entry goes unless it already fired.
      const auto range = deadlines_.equal_range(event.task->deadline);
      const auto entry =
          std::find_if(range.first, range.second,
                       [&](const auto& e) { return e.second == event.task; });
      if (entry != range.second) deadlines_.erase(entry);
    }
    auto it = conns_.find(event.conn_id);
    if (it == conns_.end()) {
      // Session died; drop the output. A redispatch this request was
      // leading in the idempotency cache must still resolve, or keyed
      // retries after reconnect would join a flight that never completes.
      if (!event.idem_lead.empty()) {
        idem_cache_.Complete(event.idem_lead, CachedResult{},
                             /*cacheable=*/false);
      }
      continue;
    }
    Connection* conn = it->second.get();
    switch (event.kind) {
      case WorkerEvent::Kind::kChunk:
        EnqueueFrameBytes(conn, std::move(event.frame), /*in_transit=*/true);
        break;
      case WorkerEvent::Kind::kFinal: {
        --conn->executing;
        event.response.request_id = event.request_id;
        EnqueueFinal(conn, std::move(event.response), event.streamed_bytes,
                     event.owns_id);
        TryDispatch(conn);
        break;
      }
      case WorkerEvent::Kind::kRedispatch: {
        --conn->executing;
        if (draining_) {
          // The run this request had joined evaporated during shutdown.
          if (!event.idem_lead.empty()) {
            idem_cache_.Complete(event.idem_lead, CachedResult{},
                                 /*cacheable=*/false);
          }
          Response response =
              MakeResponse(util::Status::Unavailable("server stopping"));
          response.request_id = event.request_id;
          EnqueueFinal(conn, std::move(response), 0, event.owns_id);
        } else {
          PendingRequest pending;
          pending.owns_id = event.owns_id;
          pending.idem_lead = std::move(event.idem_lead);
          pending.request = std::move(event.request);
          DispatchRequest(conn, std::move(pending));
        }
        TryDispatch(conn);
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Worker side.

void ClassMinerServer::WorkerRun(const std::shared_ptr<TaskCtx>& ctx) {
  queued_.fetch_sub(1, std::memory_order_acq_rel);
  busy_workers_.fetch_add(1, std::memory_order_acq_rel);
  if (options_.request_started_hook) {
    options_.request_started_hook(ctx->request.kind);
  }
  Response response;
  size_t streamed = 0;
  bool executed = true;
  if (ctx->has_deadline &&
      std::chrono::steady_clock::now() >= ctx->deadline) {
    // Expired while waiting in the queue: never start the op.
    executed = false;
    response = MakeResponse(util::Status::DeadlineExceeded(
        "deadline expired before execution"));
    CountOutcome(response);
  } else {
    // The worker pool is the mining pool: the op's loops and stages fan
    // out onto the pool this task runs on. A waiting mine claims only its
    // own chunks and stages, so it never runs another request's work.
    OpEnv env;
    env.mining = options_.mining;
    env.ctx = util::ExecutionContext(pool_.get(), nullptr, &ctx->cancel);
    env.media_dir = options_.media_dir;
    if (ctx->request.kind == RequestKind::kMine ||
        ctx->request.kind == RequestKind::kBrowse ||
        ctx->request.kind == RequestKind::kSkim) {
      env.chunk_bytes = options_.stream_chunk_bytes;
      env.chunk_sink = [this, ctx](const std::string& fragment) {
        // The worker encodes the chunk frame, so it knows the exact wire
        // size it puts in transit; the reactor only queues it.
        Response chunk;
        chunk.request_id = ctx->request.request_id;
        chunk.final_chunk = false;
        chunk.body = fragment;
        util::StatusOr<std::vector<uint8_t>> bytes = chunk.SerializeChunk();
        if (!bytes.ok()) return;
        util::StatusOr<std::vector<uint8_t>> frame =
            EncodeFrame(kResponseMagicV2, *bytes, options_.max_frame_bytes);
        if (!frame.ok()) return;
        WorkerEvent event;
        event.kind = WorkerEvent::Kind::kChunk;
        event.conn_id = ctx->conn_id;
        event.request_id = ctx->request.request_id;
        {
          std::lock_guard<std::mutex> lock(ctx->shared->mu);
          ctx->shared->transit_bytes += frame->size();
        }
        event.frame = std::move(*frame);
        PostEvent(std::move(event));
        // Backpressure: the op pauses until the peer drains its socket
        // below the write-queue bound (or the session dies). A slow reader
        // stalls only its own op, never the reactor or other sessions.
        std::unique_lock<std::mutex> lock(ctx->shared->mu);
        ctx->shared->cv.wait(lock, [&] {
          return ctx->shared->dead ||
                 ctx->shared->queued_bytes + ctx->shared->transit_bytes <=
                     options_.max_write_queue_bytes;
        });
      };
    }
    response = ExecuteRequest(ctx->user, ctx->request, env, &streamed);
    if (response.code == util::StatusCode::kCancelled && ctx->has_deadline &&
        std::chrono::steady_clock::now() >= ctx->deadline) {
      // The cancellation was the deadline firing, not a client abort.
      response.code = util::StatusCode::kDeadlineExceeded;
      response.message = "deadline of " +
                         std::to_string(ctx->request.deadline_ms) +
                         " ms exceeded";
      response.body.clear();
      streamed = 0;
    }
    CountOutcome(response);
  }
  if (!ctx->lead_key.empty()) {
    // Leader hand-in: store only clean results (and only un-streamed ones —
    // a partially shipped body is still byte-complete here, so it caches
    // fine; the *next* asker gets it in one piece).
    CachedResult result;
    result.code = response.code;
    result.message = response.message;
    result.body = response.body;
    cache_.Complete(ctx->lead_key, result, /*cacheable=*/response.ok());
  }
  if (!ctx->idem_key.empty()) {
    if (executed) {
      // Record the outcome — errors included. The op RAN; a keyed retry
      // must replay what happened, never run the side effects twice
      // (at-most-once is the whole point for `repair`).
      CachedResult result;
      result.code = response.code;
      result.message = response.message;
      result.body = response.body;
      idem_cache_.Complete(ctx->idem_key, result, /*cacheable=*/true);
    } else {
      // Expired in the queue before running: nothing happened, so a keyed
      // retry is entitled to a fresh execution.
      idem_cache_.Complete(ctx->idem_key, CachedResult{},
                           /*cacheable=*/false);
    }
  }
  busy_workers_.fetch_sub(1, std::memory_order_acq_rel);
  WorkerEvent event;
  event.kind = WorkerEvent::Kind::kFinal;
  event.conn_id = ctx->conn_id;
  event.owns_id = ctx->owns_id;
  event.request_id = ctx->request.request_id;
  event.response = std::move(response);
  event.streamed_bytes = streamed;
  event.task = ctx;
  PostEvent(std::move(event));
}

Response ClassMinerServer::ExecuteRequest(const index::UserCredential& user,
                                          const Request& request,
                                          const OpEnv& env,
                                          size_t* streamed_bytes) {
  OpResult result;
  switch (request.kind) {
    case RequestKind::kHello:
      return MakeResponse(
          util::Status::Internal("hello handled before dispatch"));
    case RequestKind::kMine: {
      if (request.args.empty()) {
        return MakeResponse(
            util::Status::InvalidArgument("mine needs a container path"));
      }
      bool fast = false, strict = false;
      for (size_t i = 1; i < request.args.size(); ++i) {
        if (request.args[i] == "--fast") {
          fast = true;
        } else if (request.args[i] == "--strict") {
          strict = true;
        } else {
          return MakeResponse(util::Status::InvalidArgument(
              "unknown mine argument '" + request.args[i] + "'"));
        }
      }
      result = MineOp(request.args[0], fast, strict, env, nullptr);
      break;
    }
    case RequestKind::kBrowse: {
      bool strict = false;
      std::vector<std::string> paths;
      for (const std::string& arg : request.args) {
        if (arg == "--strict") {
          strict = true;
        } else {
          paths.push_back(arg);
        }
      }
      if (paths.empty()) {
        return MakeResponse(util::Status::InvalidArgument(
            "browse needs at least one container path"));
      }
      result = BrowseOp(paths, strict, user, env, nullptr);
      break;
    }
    case RequestKind::kSkim: {
      if (request.args.empty() || request.args.size() > 2) {
        return MakeResponse(util::Status::InvalidArgument(
            "skim needs a container path and an optional level"));
      }
      int level = 3;
      if (request.args.size() == 2) {
        util::StatusOr<int> parsed =
            ParseIntArg(request.args[1], "skim level");
        if (!parsed.ok()) return MakeResponse(parsed.status());
        level = *parsed;
      }
      result = SkimOp(request.args[0], level, env, nullptr);
      break;
    }
    case RequestKind::kVerify: {
      if (request.args.size() != 1) {
        return MakeResponse(
            util::Status::InvalidArgument("verify needs a database path"));
      }
      result = VerifyOp(request.args[0]);
      break;
    }
    case RequestKind::kRepair: {
      if (request.args.size() != 1) {
        return MakeResponse(
            util::Status::InvalidArgument("repair needs a database path"));
      }
      result = RepairOp(request.args[0], env, nullptr);
      break;
    }
    case RequestKind::kHealth:
      return MakeResponse(
          util::Status::Internal("health handled before dispatch"));
  }
  if (streamed_bytes != nullptr) *streamed_bytes = result.streamed_bytes;
  // Verify/repair carry their report even on a dirty outcome: the body is
  // the finding, the status says whether it was clean.
  return MakeResponse(result.status, std::move(result.report));
}

}  // namespace classminer::server
