#include "index/shard.h"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <functional>
#include <thread>
#include <unordered_map>
#include <utility>

#include "index/persist.h"
#include "util/crc32.h"
#include "util/failpoint.h"
#include "util/serial.h"

namespace classminer::index {
namespace {

constexpr uint32_t kShardManifestMagic = 0x4d534d43;  // "CMSM"
constexpr uint32_t kShardLogMagic = 0x4c534d43;       // "CMSL"
constexpr uint32_t kTombstoneMagic = 0x54564d43;      // "CMVT"
constexpr uint32_t kManifestVersion = 1;
constexpr uint32_t kLogVersion = 1;
constexpr int kMaxShards = 4096;
constexpr size_t kLogHeaderSize = 4 + 4 + 4 + 4 + 8;

uint32_t ReadU32LE(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[i]) << (8 * i);
  return v;
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

std::string Errno() { return std::string(std::strerror(errno)); }

util::Status WriteSpan(FILE* f, const uint8_t* data, size_t size) {
  size_t done = 0;
  while (done < size) {
    const size_t n = fwrite(data + done, 1, size - done, f);
    if (n == 0) {
      if (ferror(f) != 0 && errno == EINTR) {
        clearerr(f);
        continue;
      }
      return util::Status::Unavailable("short write to shard file: " +
                                       Errno());
    }
    done += n;
  }
  return util::Status::Ok();
}

util::Status FlushAndSync(FILE* f) {
  if (fflush(f) != 0) {
    return util::Status::Unavailable("fflush of shard file failed: " +
                                     Errno());
  }
  int rc = 0;
  do {
    rc = fsync(fileno(f));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    return util::Status::Unavailable("fsync of shard file failed: " + Errno());
  }
  return util::Status::Ok();
}

util::Status TruncateTo(const std::string& path, uint64_t size) {
  int rc = 0;
  do {
    rc = ::truncate(path.c_str(), static_cast<off_t>(size));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    return util::Status::Unavailable("truncate of " + path + " failed: " +
                                     Errno());
  }
  return util::Status::Ok();
}

// -------------------------------------------------------------------------
// Shard log records.

struct LogRecord {
  bool tombstone = false;
  VideoEntry entry;  // when !tombstone
  std::string name;  // when tombstone
};

struct ShardLogContents {
  uint32_t shard_index = 0;
  uint32_t shard_count = 0;
  uint64_t generation = 0;
  std::vector<LogRecord> records;
};

void PutLogHeader(util::ByteWriter* w, uint32_t shard_index,
                  uint32_t shard_count, uint64_t generation) {
  w->PutU32(kShardLogMagic);
  w->PutU32(kLogVersion);
  w->PutU32(shard_index);
  w->PutU32(shard_count);
  w->PutU64(generation);
}

util::Status ParseLogHeader(util::ByteReader* r, ShardLogContents* out) {
  r->set_section("shard header");
  util::StatusOr<uint32_t> magic = r->GetU32();
  if (!magic.ok()) return magic.status();
  if (*magic != kShardLogMagic) return r->Corrupt("bad CMSL magic");
  util::StatusOr<uint32_t> version = r->GetU32();
  if (!version.ok()) return version.status();
  if (*version != kLogVersion) {
    return r->Corrupt("unsupported CMSL version " + std::to_string(*version));
  }
  util::StatusOr<uint32_t> index = r->GetU32();
  if (!index.ok()) return index.status();
  out->shard_index = *index;
  util::StatusOr<uint32_t> count = r->GetU32();
  if (!count.ok()) return count.status();
  if (*count < 1 || *count > static_cast<uint32_t>(kMaxShards)) {
    return r->Corrupt("implausible shard count " + std::to_string(*count));
  }
  out->shard_count = *count;
  util::StatusOr<uint64_t> generation = r->GetU64();
  if (!generation.ok()) return generation.status();
  out->generation = *generation;
  return util::Status::Ok();
}

std::vector<uint8_t> BuildEntryFrame(const VideoEntry& entry) {
  util::ByteWriter w;
  internal::PutFramedEntry(&w, entry);
  return w.Release();
}

std::vector<uint8_t> BuildTombstoneFrame(const std::string& name) {
  util::ByteWriter body;
  body.PutString(name);
  util::ByteWriter w;
  w.PutU32(kTombstoneMagic);
  w.PutU32(static_cast<uint32_t>(body.size()));
  w.PutU32(util::Crc32(body.bytes()));
  w.PutBytes(body.bytes().data(), body.size());
  return w.Release();
}

// Parses a tombstone frame with the cursor just past the magic: body size,
// CRC-32, then a single length-prefixed name that must consume the body
// exactly.
util::Status ParseTombstoneBody(util::ByteReader* r, std::string* name) {
  util::StatusOr<uint32_t> body_size = r->GetU32();
  if (!body_size.ok()) return body_size.status();
  util::StatusOr<uint32_t> stored = r->GetU32();
  if (!stored.ok()) return stored.status();
  if (*body_size > r->remaining()) {
    return r->Corrupt("tombstone body exceeds shard log size");
  }
  const size_t body_start = r->position();
  if (util::Crc32(r->data() + body_start, *body_size) != *stored) {
    return r->Corrupt("tombstone checksum mismatch");
  }
  util::StatusOr<std::string> n = r->GetString();
  if (!n.ok()) return n.status();
  *name = *n;
  if (r->position() != body_start + *body_size) {
    return r->Corrupt("tombstone body size mismatch");
  }
  return util::Status::Ok();
}

// One record at the cursor: a CMVE entry frame or a CMVT tombstone.
util::Status ParseOneRecord(util::ByteReader* r, LogRecord* rec) {
  const size_t start = r->position();
  util::StatusOr<uint32_t> magic = r->GetU32();
  if (!magic.ok()) return magic.status();
  if (*magic == internal::kEntryFrameMagic) {
    CLASSMINER_RETURN_IF_ERROR(r->SeekTo(start));
    return internal::GetFramedEntry(r, &rec->entry);
  }
  if (*magic == kTombstoneMagic) {
    rec->tombstone = true;
    return ParseTombstoneBody(r, &rec->name);
  }
  return r->Corrupt("bad shard record magic");
}

util::StatusOr<ShardLogContents> ParseShardLog(
    const std::vector<uint8_t>& bytes) {
  util::ByteReader r(bytes);
  ShardLogContents log;
  CLASSMINER_RETURN_IF_ERROR(ParseLogHeader(&r, &log));
  size_t i = 0;
  while (r.remaining() > 0) {
    r.set_section("records[" + std::to_string(i) + "]");
    LogRecord rec;
    CLASSMINER_RETURN_IF_ERROR(ParseOneRecord(&r, &rec));
    log.records.push_back(std::move(rec));
    ++i;
  }
  return log;
}

// True when a complete, checksum-confirmed record frame (entry or
// tombstone) starts at `pos` — the salvage scanner's resynchronisation
// probe: a false positive on arbitrary bytes needs a CRC-32 collision
// (~2^-32).
bool ConfirmedFrameAt(const uint8_t* data, size_t size, size_t pos) {
  if (pos + 12 > size) return false;
  const uint32_t magic = ReadU32LE(data + pos);
  if (magic != internal::kEntryFrameMagic && magic != kTombstoneMagic) {
    return false;
  }
  const uint32_t body_size = ReadU32LE(data + pos + 4);
  if (body_size > size - pos - 12) return false;
  return util::Crc32(data + pos + 12, body_size) == ReadU32LE(data + pos + 8);
}

struct ShardSalvage {
  ShardLogContents log;
  size_t clean_prefix = 0;  // strict-parseable from the start up to here
  bool tail_torn = false;   // bytes beyond the last confirmed frame dropped
  int resyncs = 0;          // mid-log tears scanned past
};

// Best-effort parse: keeps every record in front of a tear, scans past
// damage for the next checksum-confirmed frame, and records a torn tail
// when nothing confirmable follows. Fails only when the header is
// unreadable.
util::StatusOr<ShardSalvage> ParseShardLogSalvage(
    const std::vector<uint8_t>& bytes, util::SalvageReport* report) {
  util::ByteReader r(bytes);
  ShardSalvage res;
  CLASSMINER_RETURN_IF_ERROR(ParseLogHeader(&r, &res.log));
  res.clean_prefix = bytes.size();
  size_t i = 0;
  while (r.remaining() > 0) {
    r.set_section("records[" + std::to_string(i) + "]");
    const size_t start = r.position();
    LogRecord rec;
    const util::Status record = ParseOneRecord(&r, &rec);
    if (record.ok()) {
      res.log.records.push_back(std::move(rec));
      ++i;
      continue;
    }
    report->AddNote("shard log: " + record.message());
    if (res.clean_prefix == bytes.size()) res.clean_prefix = start;
    bool resynced = false;
    for (size_t scan = start + 1; scan + 12 <= bytes.size(); ++scan) {
      if (!ConfirmedFrameAt(bytes.data(), bytes.size(), scan)) continue;
      (void)r.SeekTo(scan);
      LogRecord recovered;
      if (!ParseOneRecord(&r, &recovered).ok()) continue;
      report->bytes_dropped += scan - start;
      report->resync_points += 1;
      res.resyncs += 1;
      report->AddNote(
          "shard log: resynchronised onto checksum-confirmed frame at byte "
          "offset " +
          std::to_string(scan) + " (dropped " + std::to_string(scan - start) +
          " bytes)");
      res.log.records.push_back(std::move(recovered));
      ++i;
      resynced = true;
      break;
    }
    if (!resynced) {
      report->bytes_dropped += bytes.size() - start;
      res.tail_torn = true;
      report->AddNote("shard log: torn tail at byte offset " +
                      std::to_string(start) + " (dropped " +
                      std::to_string(bytes.size() - start) + " bytes)");
      break;
    }
  }
  if (res.clean_prefix != bytes.size()) report->salvaged = true;
  report->items_recovered += static_cast<int>(res.log.records.size());
  return res;
}

// Replays records in log order: the last record per name wins, tombstones
// erase. Insertion order of surviving entries is preserved (deterministic
// snapshots).
struct Replay {
  std::vector<VideoEntry> live;
  std::unordered_map<std::string, size_t> by_name;
  uint64_t tombstones = 0;

  void EraseAt(size_t idx) {
    by_name.erase(live[idx].name);
    live.erase(live.begin() + static_cast<ptrdiff_t>(idx));
    for (auto& [name, pos] : by_name) {
      if (pos > idx) --pos;
    }
  }

  void Apply(LogRecord&& rec) {
    if (rec.tombstone) {
      ++tombstones;
      auto it = by_name.find(rec.name);
      if (it != by_name.end()) EraseAt(it->second);
      return;
    }
    auto it = by_name.find(rec.entry.name);
    if (it != by_name.end()) {
      live[it->second] = std::move(rec.entry);
    } else {
      by_name.emplace(rec.entry.name, live.size());
      live.push_back(std::move(rec.entry));
    }
  }
};

// Stages a complete next generation of one shard log: tmp write → fsync →
// rotate current aside → rename into place, one fail-point site per step
// ("index.shard.compact.{write,fsync,rename}"). A crash at any step leaves
// the old generation reachable (directly or at .prev) or the new one
// complete — never a torn log.
util::Status WriteShardGenerationFile(
    const std::string& root, int shard, int shard_count, uint64_t generation,
    const std::vector<const VideoEntry*>& entries) {
  CLASSMINER_RETURN_IF_ERROR(
      util::FailPoint::Check("index.shard.compact.write"));
  util::ByteWriter w;
  PutLogHeader(&w, static_cast<uint32_t>(shard),
               static_cast<uint32_t>(shard_count), generation);
  for (const VideoEntry* entry : entries) {
    internal::PutFramedEntry(&w, *entry);
  }

  const std::string cur = ShardPath(root, shard);
  const std::string tmp = cur + ".tmp";
  const std::string prev = ShardBackupPath(root, shard);

  FILE* f = fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return util::Status::Unavailable("cannot stage shard generation at " +
                                     tmp + ": " + Errno());
  }
  util::Status st = WriteSpan(f, w.bytes().data(), w.size());
  if (st.ok()) st = util::FailPoint::Check("index.shard.compact.fsync");
  if (st.ok()) st = FlushAndSync(f);
  fclose(f);
  if (st.ok()) st = util::FailPoint::Check("index.shard.compact.rename");
  if (!st.ok()) {
    (void)std::remove(tmp.c_str());
    return st;
  }
  // Rotate the old generation aside before the new one lands: a crash
  // between the two renames leaves no current file, and the open path falls
  // back to .prev — the pre-compaction state.
  if (FileExists(cur) && std::rename(cur.c_str(), prev.c_str()) != 0) {
    const util::Status rotate = util::Status::Unavailable(
        "cannot rotate " + cur + " to " + prev + ": " + Errno());
    (void)std::remove(tmp.c_str());
    return rotate;
  }
  if (std::rename(tmp.c_str(), cur.c_str()) != 0) {
    const util::Status finish = util::Status::Unavailable(
        "cannot rename " + tmp + " into place: " + Errno());
    (void)std::remove(tmp.c_str());
    return finish;
  }
  return util::Status::Ok();
}

// Runs fn(0..count-1) across up to hardware_concurrency threads (shard
// opens and strict loads parse logs in parallel).
void ForEachShard(int count, const std::function<void(int)>& fn) {
  int workers = static_cast<int>(std::thread::hardware_concurrency());
  workers = std::max(1, std::min(workers, count));
  if (workers <= 1 || count <= 1) {
    for (int k = 0; k < count; ++k) fn(k);
    return;
  }
  std::atomic<int> next{0};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&next, count, &fn] {
      for (int k = next.fetch_add(1); k < count; k = next.fetch_add(1)) {
        fn(k);
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

util::StatusOr<ShardLogContents> ReadLogHeaderOf(const std::string& path) {
  FILE* f = fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return util::Status::NotFound("cannot open " + path + ": " + Errno());
  }
  uint8_t buf[kLogHeaderSize];
  const size_t n = fread(buf, 1, sizeof(buf), f);
  fclose(f);
  util::ByteReader r(buf, n);
  ShardLogContents log;
  CLASSMINER_RETURN_IF_ERROR(ParseLogHeader(&r, &log));
  return log;
}

}  // namespace

std::string ShardPath(const std::string& path, int shard) {
  return path + ".shard" + std::to_string(shard);
}

std::string ShardBackupPath(const std::string& path, int shard) {
  return ShardPath(path, shard) + ".prev";
}

int ShardOfName(const std::string& name, int shard_count) {
  if (shard_count <= 1) return 0;
  const uint32_t h = util::Crc32(
      reinterpret_cast<const uint8_t*>(name.data()), name.size());
  return static_cast<int>(h % static_cast<uint32_t>(shard_count));
}

std::vector<uint8_t> SerializeShardManifest(const ShardManifest& manifest) {
  util::ByteWriter w;
  w.PutU32(kShardManifestMagic);
  w.PutU32(kManifestVersion);
  w.PutU32(manifest.shard_count);
  w.PutU64(manifest.epoch);
  for (const ShardManifest::Shard& s : manifest.shards) {
    w.PutU64(s.generation);
    w.PutU64(s.live);
    w.PutU64(s.tombstones);
  }
  w.PutU32(util::Crc32(w.bytes()));
  return w.Release();
}

util::StatusOr<ShardManifest> ParseShardManifest(
    const std::vector<uint8_t>& bytes) {
  util::ByteReader r(bytes);
  r.set_section("shard manifest");
  if (bytes.size() < 4) return r.Corrupt("shard manifest too short");
  // The trailing CRC-32 covers everything before it; a bit-flip anywhere in
  // the manifest fails here and the open path reconstructs from shard
  // headers instead of trusting damaged counts.
  const uint32_t stored = ReadU32LE(bytes.data() + bytes.size() - 4);
  if (util::Crc32(bytes.data(), bytes.size() - 4) != stored) {
    return r.Corrupt("shard manifest checksum mismatch");
  }
  util::StatusOr<uint32_t> magic = r.GetU32();
  if (!magic.ok()) return magic.status();
  if (*magic != kShardManifestMagic) return r.Corrupt("bad CMSM magic");
  util::StatusOr<uint32_t> version = r.GetU32();
  if (!version.ok()) return version.status();
  if (*version != kManifestVersion) {
    return r.Corrupt("unsupported CMSM version " + std::to_string(*version));
  }
  ShardManifest m;
  util::StatusOr<uint32_t> count = r.GetU32();
  if (!count.ok()) return count.status();
  if (*count < 1 || *count > static_cast<uint32_t>(kMaxShards)) {
    return r.Corrupt("implausible shard count " + std::to_string(*count));
  }
  m.shard_count = *count;
  util::StatusOr<uint64_t> epoch = r.GetU64();
  if (!epoch.ok()) return epoch.status();
  m.epoch = *epoch;
  m.shards.resize(m.shard_count);
  for (ShardManifest::Shard& s : m.shards) {
    util::StatusOr<uint64_t> generation = r.GetU64();
    if (!generation.ok()) return generation.status();
    s.generation = *generation;
    util::StatusOr<uint64_t> live = r.GetU64();
    if (!live.ok()) return live.status();
    s.live = *live;
    util::StatusOr<uint64_t> tombstones = r.GetU64();
    if (!tombstones.ok()) return tombstones.status();
    s.tombstones = *tombstones;
  }
  if (r.remaining() != 4) {
    return r.Corrupt("trailing bytes after shard manifest");
  }
  return m;
}

namespace {

// Shard count of an existing library, from the manifest or (when the
// manifest is unreadable) from a shard-0 log header.
util::StatusOr<int> ShardCountOf(const std::string& path) {
  util::StatusOr<std::vector<uint8_t>> bytes = util::ReadFile(path);
  if (bytes.ok()) {
    util::StatusOr<ShardManifest> m = ParseShardManifest(*bytes);
    if (m.ok()) return static_cast<int>(m->shard_count);
  }
  for (const std::string& candidate :
       {ShardPath(path, 0), ShardBackupPath(path, 0)}) {
    util::StatusOr<ShardLogContents> header = ReadLogHeaderOf(candidate);
    if (header.ok()) return static_cast<int>(header->shard_count);
  }
  return util::Status::DataLoss("cannot determine shard count of " + path +
                                " (no loadable manifest or shard log header)");
}

}  // namespace

// -------------------------------------------------------------------------
// ShardedDatabase.

struct ShardedDatabase::ShardState {
  mutable std::mutex mu;
  Replay view;
  uint64_t generation = 0;
  uint64_t records = 0;  // records in the current log (live + dead)
  // Set when the log on disk is not a clean image of `view` (loaded from
  // backup, mid-log salvage, or lost): the shard is folded into a pristine
  // next generation before its next append.
  bool needs_rewrite = false;
};

bool ShardedDatabase::OpenReport::any_backup() const {
  return std::any_of(shards.begin(), shards.end(),
                     [](const ShardStatus& s) { return s.used_backup; });
}

bool ShardedDatabase::OpenReport::any_salvaged() const {
  return std::any_of(shards.begin(), shards.end(),
                     [](const ShardStatus& s) { return s.salvaged; });
}

bool ShardedDatabase::OpenReport::any_lost() const {
  return std::any_of(shards.begin(), shards.end(),
                     [](const ShardStatus& s) { return s.lost; });
}

std::string ShardedDatabase::CompactionReport::ToString() const {
  std::string s = "shard " + std::to_string(shard) + ": ";
  if (skipped) {
    s += "skipped (no dead records), generation " +
         std::to_string(generation) + ", " + std::to_string(live) + " live";
    return s;
  }
  s += "folded to generation " + std::to_string(generation) + ", " +
       std::to_string(live) + " live, " + std::to_string(dead_dropped) +
       " dead dropped";
  return s;
}

ShardedDatabase::ShardedDatabase(std::string path, int shard_count,
                                 bool sync_appends)
    : path_(std::move(path)),
      shard_count_(shard_count),
      sync_appends_(sync_appends),
      manifest_mu_(std::make_unique<std::mutex>()),
      epoch_(std::make_unique<std::atomic<uint64_t>>(0)) {
  shards_.reserve(static_cast<size_t>(shard_count));
  for (int k = 0; k < shard_count; ++k) {
    shards_.push_back(std::make_unique<ShardState>());
  }
}

ShardedDatabase::~ShardedDatabase() = default;

uint64_t ShardedDatabase::epoch() const { return epoch_->load(); }

int ShardedDatabase::live_count() const {
  int total = 0;
  for (const auto& s : shards_) {
    std::lock_guard<std::mutex> lock(s->mu);
    total += static_cast<int>(s->view.live.size());
  }
  return total;
}

uint64_t ShardedDatabase::dead_records() const {
  uint64_t total = 0;
  for (const auto& s : shards_) {
    std::lock_guard<std::mutex> lock(s->mu);
    total += s->records - s->view.live.size();
  }
  return total;
}

bool ShardedDatabase::Contains(const std::string& name) const {
  const ShardState& s = *shards_[static_cast<size_t>(
      ShardOfName(name, shard_count_))];
  std::lock_guard<std::mutex> lock(s.mu);
  return s.view.by_name.count(name) > 0;
}

VideoDatabase ShardedDatabase::Snapshot() const {
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (const auto& s : shards_) locks.emplace_back(s->mu);
  VideoDatabase db;
  for (const auto& s : shards_) {
    for (const VideoEntry& entry : s->view.live) {
      db.AddVideo(entry.name, entry.structure, entry.events, entry.degraded);
    }
  }
  return db;
}

util::Status ShardedDatabase::SelfHealLocked(ShardState& s, int shard) {
  std::vector<const VideoEntry*> live;
  live.reserve(s.view.live.size());
  for (const VideoEntry& entry : s.view.live) live.push_back(&entry);
  CLASSMINER_RETURN_IF_ERROR(WriteShardGenerationFile(
      path_, shard, shard_count_, s.generation + 1, live));
  s.generation += 1;
  s.records = s.view.live.size();
  s.view.tombstones = 0;
  s.needs_rewrite = false;
  return util::Status::Ok();
}

util::Status ShardedDatabase::RewriteManifest() {
  std::lock_guard<std::mutex> manifest_lock(*manifest_mu_);
  ShardManifest m;
  m.shard_count = static_cast<uint32_t>(shard_count_);
  m.epoch = epoch_->load() + 1;
  m.shards.resize(static_cast<size_t>(shard_count_));
  for (int k = 0; k < shard_count_; ++k) {
    ShardState& s = *shards_[static_cast<size_t>(k)];
    std::lock_guard<std::mutex> lock(s.mu);
    m.shards[static_cast<size_t>(k)].generation = s.generation;
    m.shards[static_cast<size_t>(k)].live = s.view.live.size();
    m.shards[static_cast<size_t>(k)].tombstones = s.view.tombstones;
  }
  CLASSMINER_RETURN_IF_ERROR(
      util::FailPoint::Check("index.shard.compact.manifest"));
  CLASSMINER_RETURN_IF_ERROR(
      util::AtomicWriteFile(path_, SerializeShardManifest(m)));
  epoch_->store(m.epoch);
  return util::Status::Ok();
}

namespace {

// Appends one pre-built frame to the shard log with write+fsync discipline.
// Fail-point "index.shard.append.write" simulates the torn write it stands
// for — half the frame reaches the log before the failure — and the append
// path then rolls the file back to its pre-append size, so an in-process
// failure leaves the pre-append state. (A crash that outruns the rollback
// leaves the torn tail instead; the next open truncates it away after the
// CRC scan confirms where the intact log ends.)
util::Status AppendFrame(const std::string& log_path, bool sync,
                         const std::vector<uint8_t>& frame) {
  FILE* f = fopen(log_path.c_str(), "ab");
  if (f == nullptr) {
    return util::Status::Unavailable("cannot open shard log " + log_path +
                                     ": " + Errno());
  }
  struct stat st;
  if (fstat(fileno(f), &st) != 0) {
    fclose(f);
    return util::Status::Unavailable("cannot stat shard log " + log_path +
                                     ": " + Errno());
  }
  const uint64_t old_size = static_cast<uint64_t>(st.st_size);

  util::Status status = util::FailPoint::Check("index.shard.append.write");
  if (!status.ok()) {
    (void)WriteSpan(f, frame.data(), frame.size() / 2);
    (void)fflush(f);
  } else {
    status = WriteSpan(f, frame.data(), frame.size());
    if (status.ok()) {
      status = util::FailPoint::Check("index.shard.append.fsync");
    }
    if (status.ok() && sync) status = FlushAndSync(f);
  }
  fclose(f);
  if (!status.ok()) {
    (void)TruncateTo(log_path, old_size);
    return status;
  }
  return util::Status::Ok();
}

}  // namespace

util::Status ShardedDatabase::Upsert(std::string name,
                                     structure::ContentStructure structure,
                                     std::vector<events::EventRecord> events,
                                     bool degraded) {
  VideoEntry entry;
  entry.name = std::move(name);
  entry.structure = std::move(structure);
  entry.events = std::move(events);
  entry.degraded = degraded;
  CLASSMINER_RETURN_IF_ERROR(
      internal::ValidateEntry(entry, "shard upsert \"" + entry.name + "\""));
  const std::vector<uint8_t> frame = BuildEntryFrame(entry);

  const int k = ShardOfName(entry.name, shard_count_);
  ShardState& s = *shards_[static_cast<size_t>(k)];
  bool manifest_dirty = false;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    if (s.needs_rewrite) {
      CLASSMINER_RETURN_IF_ERROR(SelfHealLocked(s, k));
      manifest_dirty = true;
    }
    CLASSMINER_RETURN_IF_ERROR(
        AppendFrame(ShardPath(path_, k), sync_appends_, frame));
    LogRecord rec;
    rec.entry = std::move(entry);
    s.view.Apply(std::move(rec));
    s.records += 1;
  }
  if (manifest_dirty) CLASSMINER_RETURN_IF_ERROR(RewriteManifest());
  return util::Status::Ok();
}

util::Status ShardedDatabase::Remove(const std::string& name) {
  const int k = ShardOfName(name, shard_count_);
  ShardState& s = *shards_[static_cast<size_t>(k)];
  bool manifest_dirty = false;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    if (s.view.by_name.count(name) == 0) {
      return util::Status::NotFound("no entry named \"" + name + "\"");
    }
    if (s.needs_rewrite) {
      CLASSMINER_RETURN_IF_ERROR(SelfHealLocked(s, k));
      manifest_dirty = true;
    }
    CLASSMINER_RETURN_IF_ERROR(AppendFrame(ShardPath(path_, k), sync_appends_,
                                           BuildTombstoneFrame(name)));
    LogRecord rec;
    rec.tombstone = true;
    rec.name = name;
    s.view.Apply(std::move(rec));
    s.records += 1;
  }
  if (manifest_dirty) CLASSMINER_RETURN_IF_ERROR(RewriteManifest());
  return util::Status::Ok();
}

util::StatusOr<ShardedDatabase::CompactionReport> ShardedDatabase::CompactShard(
    int shard, bool force) {
  if (shard < 0 || shard >= shard_count_) {
    return util::Status::InvalidArgument("no shard " + std::to_string(shard) +
                                         " (shard count " +
                                         std::to_string(shard_count_) + ")");
  }
  CompactionReport report;
  report.shard = shard;
  ShardState& s = *shards_[static_cast<size_t>(shard)];
  {
    std::lock_guard<std::mutex> lock(s.mu);
    const uint64_t live = s.view.live.size();
    const uint64_t dead = s.records - live;
    if (!force && dead == 0 && !s.needs_rewrite) {
      report.skipped = true;
      report.generation = s.generation;
      report.live = live;
      return report;
    }
    CLASSMINER_RETURN_IF_ERROR(SelfHealLocked(s, shard));
    report.generation = s.generation;
    report.live = live;
    report.dead_dropped = dead;
  }
  CLASSMINER_RETURN_IF_ERROR(RewriteManifest());
  return report;
}

util::StatusOr<std::vector<ShardedDatabase::CompactionReport>>
ShardedDatabase::CompactAll(bool force) {
  std::vector<CompactionReport> reports;
  reports.reserve(static_cast<size_t>(shard_count_));
  bool any_folded = false;
  for (int k = 0; k < shard_count_; ++k) {
    CompactionReport report;
    report.shard = k;
    ShardState& s = *shards_[static_cast<size_t>(k)];
    {
      std::lock_guard<std::mutex> lock(s.mu);
      const uint64_t live = s.view.live.size();
      const uint64_t dead = s.records - live;
      if (!force && dead == 0 && !s.needs_rewrite) {
        report.skipped = true;
        report.generation = s.generation;
        report.live = live;
        reports.push_back(report);
        continue;
      }
      CLASSMINER_RETURN_IF_ERROR(SelfHealLocked(s, k));
      report.generation = s.generation;
      report.live = live;
      report.dead_dropped = dead;
      any_folded = true;
    }
    reports.push_back(report);
  }
  if (any_folded) CLASSMINER_RETURN_IF_ERROR(RewriteManifest());
  return reports;
}

util::StatusOr<std::unique_ptr<ShardedDatabase>> ShardedDatabase::Create(
    const std::string& path, const Options& options) {
  if (options.shard_count < 1 || options.shard_count > kMaxShards) {
    return util::Status::InvalidArgument(
        "shard count must be in [1, " + std::to_string(kMaxShards) +
        "], got " + std::to_string(options.shard_count));
  }
  if (FileExists(path)) {
    return util::Status::InvalidArgument(
        "refusing to overwrite existing file at " + path +
        " (delete it or pick a new path)");
  }
  CLASSMINER_RETURN_IF_ERROR(
      SaveDatabase(VideoDatabase(), path, options.shard_count));
  util::StatusOr<std::unique_ptr<ShardedDatabase>> db = Open(path);
  if (db.ok()) (*db)->sync_appends_ = options.sync_appends;
  return db;
}

util::StatusOr<std::unique_ptr<ShardedDatabase>> ShardedDatabase::Open(
    const std::string& path, util::SalvageReport* report,
    OpenReport* open_report, bool read_only) {
  util::SalvageReport local;
  if (report == nullptr) report = &local;

  ShardManifest manifest;
  bool manifest_ok = false;
  {
    util::StatusOr<std::vector<uint8_t>> bytes = util::ReadFile(path);
    if (bytes.ok()) {
      util::StatusOr<ShardManifest> m = ParseShardManifest(*bytes);
      if (m.ok()) {
        manifest = *m;
        manifest_ok = true;
      } else {
        report->AddNote("shard manifest: " + m.status().message());
      }
    } else {
      report->AddNote("shard manifest: " + bytes.status().message());
    }
  }
  if (!manifest_ok) {
    // The manifest is advisory: shard count lives redundantly in every log
    // header, so a damaged root reconstructs instead of failing the open.
    util::StatusOr<int> count = ShardCountOf(path);
    if (!count.ok()) {
      return util::Status::DataLoss(
          "no loadable shard manifest or shard logs at " + path);
    }
    manifest.shard_count = static_cast<uint32_t>(*count);
    manifest.shards.resize(manifest.shard_count);
    report->salvaged = true;
    report->AddNote("shard manifest: reconstructed shard count " +
                    std::to_string(*count) + " from shard log headers");
  }
  const int count = static_cast<int>(manifest.shard_count);
  if (manifest.shards.size() < static_cast<size_t>(count)) {
    manifest.shards.resize(static_cast<size_t>(count));
  }

  std::unique_ptr<ShardedDatabase> db(
      new ShardedDatabase(path, count, /*sync_appends=*/true));
  db->epoch_->store(manifest.epoch);

  std::vector<ShardStatus> statuses(static_cast<size_t>(count));
  std::vector<util::SalvageReport> reports(static_cast<size_t>(count));

  ForEachShard(count, [&](int k) {
    ShardState& s = *db->shards_[static_cast<size_t>(k)];
    ShardStatus& st = statuses[static_cast<size_t>(k)];
    util::SalvageReport& rep = reports[static_cast<size_t>(k)];
    const std::string cur = ShardPath(path, k);
    const std::string prev = ShardBackupPath(path, k);
    const std::string label = "shard " + std::to_string(k);

    auto header_ok = [&](const ShardLogContents& log,
                         const std::string& which) {
      if (log.shard_index == static_cast<uint32_t>(k) &&
          log.shard_count == static_cast<uint32_t>(count)) {
        return true;
      }
      rep.AddNote(label + ": " + which + " header names shard " +
                  std::to_string(log.shard_index) + " of " +
                  std::to_string(log.shard_count) + ", expected " +
                  std::to_string(k) + " of " + std::to_string(count));
      return false;
    };
    auto apply = [&](ShardLogContents&& log) {
      s.generation = log.generation;
      st.generation = log.generation;
      for (LogRecord& rec : log.records) {
        s.view.Apply(std::move(rec));
        s.records += 1;
      }
    };

    // "index.shard.open" injects an unreadable current generation,
    // exercising the per-shard fallback without touching the disk.
    util::StatusOr<std::vector<uint8_t>> cur_bytes = [&]()
        -> util::StatusOr<std::vector<uint8_t>> {
      const util::Status fault = util::FailPoint::Check("index.shard.open");
      if (!fault.ok()) return fault;
      return util::ReadFile(cur);
    }();
    if (!cur_bytes.ok()) {
      rep.AddNote(label + ": " + cur_bytes.status().message());
    }

    // 1. Strict current generation.
    if (cur_bytes.ok()) {
      util::StatusOr<ShardLogContents> log = ParseShardLog(*cur_bytes);
      if (log.ok() && header_ok(*log, "current")) {
        apply(std::move(*log));
        return;
      }
      if (!log.ok()) rep.AddNote(label + ": " + log.status().message());
    }

    // 2. Strict previous generation.
    util::StatusOr<std::vector<uint8_t>> prev_bytes = util::ReadFile(prev);
    if (prev_bytes.ok()) {
      util::StatusOr<ShardLogContents> log = ParseShardLog(*prev_bytes);
      if (log.ok() && header_ok(*log, "previous")) {
        apply(std::move(*log));
        st.used_backup = true;
        s.needs_rewrite = true;
        rep.AddNote(label + ": fell back to previous generation " + prev);
        return;
      }
      if (!log.ok()) rep.AddNote(label + ": " + log.status().message());
    }

    // 3. Salvage the current generation.
    if (cur_bytes.ok()) {
      util::SalvageReport srep;
      util::StatusOr<ShardSalvage> sal =
          ParseShardLogSalvage(*cur_bytes, &srep);
      if (sal.ok() && header_ok(sal->log, "current")) {
        rep.Merge(srep);
        rep.salvaged = true;
        st.salvaged = true;
        const bool tail_only = sal->resyncs == 0 && sal->tail_torn;
        const size_t clean_prefix = sal->clean_prefix;
        apply(std::move(sal->log));
        if (tail_only && !read_only) {
          // The only damage is a torn tail: truncating back to the last
          // confirmed frame leaves a strictly clean log that appends can
          // extend directly.
          const util::Status cut = TruncateTo(cur, clean_prefix);
          if (cut.ok()) {
            rep.AddNote(label + ": truncated torn tail to " +
                        std::to_string(clean_prefix) + " bytes");
          } else {
            rep.AddNote(label + ": " + cut.message());
            s.needs_rewrite = true;
          }
        } else if (!tail_only) {
          s.needs_rewrite = true;
        }
        return;
      }
    }

    // 4. Salvage the previous generation.
    if (prev_bytes.ok()) {
      util::SalvageReport srep;
      util::StatusOr<ShardSalvage> sal =
          ParseShardLogSalvage(*prev_bytes, &srep);
      if (sal.ok() && header_ok(sal->log, "previous")) {
        rep.Merge(srep);
        rep.salvaged = true;
        apply(std::move(sal->log));
        st.used_backup = true;
        st.salvaged = true;
        s.needs_rewrite = true;
        rep.AddNote(label + ": salvaged previous generation " + prev);
        return;
      }
    }

    // 5. Both generations dead: the shard's entries are lost, but the rest
    // of the library still opens.
    st.lost = true;
    rep.salvaged = true;
    s.generation = manifest.shards[static_cast<size_t>(k)].generation;
    st.generation = s.generation;
    s.needs_rewrite = true;
    rep.AddNote(label + ": no loadable generation; opened empty");
  });

  for (const util::SalvageReport& rep : reports) report->Merge(rep);
  if (open_report != nullptr) open_report->shards = std::move(statuses);

  // A crash between a compaction's log rotation and its manifest write
  // leaves the manifest recording a superseded generation. Staleness is
  // advisory, but a read-write open is the natural place to heal it: if any
  // shard loaded a generation the manifest does not record (or the manifest
  // itself had to be reconstructed), refresh it best-effort.
  bool manifest_stale = !manifest_ok;
  if (!manifest_stale) {
    for (int k = 0; k < count; ++k) {
      if (db->shards_[static_cast<size_t>(k)]->generation !=
          manifest.shards[static_cast<size_t>(k)].generation) {
        manifest_stale = true;
        break;
      }
    }
  }
  if (manifest_stale && !read_only) {
    const util::Status refreshed = db->RewriteManifest();
    if (!refreshed.ok()) {
      report->AddNote("shard manifest: rewrite failed: " +
                      refreshed.message());
    }
  }
  return db;
}

// -------------------------------------------------------------------------
// File-level helpers.

util::Status SaveDatabase(const VideoDatabase& db, const std::string& path,
                          int shard_count) {
  if (shard_count < 1 || shard_count > kMaxShards) {
    return util::Status::InvalidArgument(
        "shard count must be in [1, " + std::to_string(kMaxShards) +
        "], got " + std::to_string(shard_count));
  }
  CLASSMINER_RETURN_IF_ERROR(ValidateForSerialize(db));

  std::vector<std::vector<const VideoEntry*>> parts(
      static_cast<size_t>(shard_count));
  for (int i = 0; i < db.video_count(); ++i) {
    const VideoEntry& v = db.video(i);
    parts[static_cast<size_t>(ShardOfName(v.name, shard_count))].push_back(&v);
  }

  // Advance every shard one generation past whatever the old manifest
  // records (fresh databases start at generation 1, epoch 1).
  ShardManifest manifest;
  manifest.shard_count = static_cast<uint32_t>(shard_count);
  manifest.epoch = 1;
  manifest.shards.resize(static_cast<size_t>(shard_count));
  {
    util::StatusOr<std::vector<uint8_t>> bytes = util::ReadFile(path);
    if (bytes.ok()) {
      util::StatusOr<ShardManifest> previous = ParseShardManifest(*bytes);
      if (previous.ok()) {
        manifest.epoch = previous->epoch + 1;
        for (size_t k = 0; k < manifest.shards.size(); ++k) {
          if (k < previous->shards.size()) {
            manifest.shards[k].generation = previous->shards[k].generation;
          }
        }
      }
    }
  }
  for (int k = 0; k < shard_count; ++k) {
    ShardManifest::Shard& s = manifest.shards[static_cast<size_t>(k)];
    s.generation += 1;
    s.live = parts[static_cast<size_t>(k)].size();
    s.tombstones = 0;
    CLASSMINER_RETURN_IF_ERROR(WriteShardGenerationFile(
        path, k, shard_count, s.generation, parts[static_cast<size_t>(k)]));
  }
  CLASSMINER_RETURN_IF_ERROR(
      util::FailPoint::Check("index.shard.compact.manifest"));
  return util::AtomicWriteFile(path, SerializeShardManifest(manifest));
}

util::Status SaveDatabase(const VideoDatabase& db, const std::string& path) {
  const util::StatusOr<int> shards = ShardCountOf(path);
  return SaveDatabase(db, path, shards.ok() ? *shards : 1);
}

util::StatusOr<VideoDatabase> LoadDatabase(const std::string& path) {
  util::StatusOr<std::vector<uint8_t>> bytes = util::ReadFile(path);
  if (!bytes.ok()) return bytes.status();
  util::StatusOr<ShardManifest> manifest = ParseShardManifest(*bytes);
  if (!manifest.ok()) return manifest.status();
  const int count = static_cast<int>(manifest->shard_count);

  std::vector<util::StatusOr<ShardLogContents>> logs(
      static_cast<size_t>(count), util::Status::Internal("shard not parsed"));
  ForEachShard(count, [&](int k) {
    util::StatusOr<std::vector<uint8_t>> log_bytes =
        util::ReadFile(ShardPath(path, k));
    if (!log_bytes.ok()) {
      logs[static_cast<size_t>(k)] = log_bytes.status();
      return;
    }
    logs[static_cast<size_t>(k)] = ParseShardLog(*log_bytes);
  });

  VideoDatabase db;
  for (int k = 0; k < count; ++k) {
    util::StatusOr<ShardLogContents>& log = logs[static_cast<size_t>(k)];
    if (!log.ok()) {
      return util::Status(log.status().code(),
                          "shard " + std::to_string(k) + ": " +
                              log.status().message());
    }
    if (log->shard_index != static_cast<uint32_t>(k) ||
        log->shard_count != static_cast<uint32_t>(count)) {
      return util::Status::DataLoss(
          "shard " + std::to_string(k) + ": header names shard " +
          std::to_string(log->shard_index) + " of " +
          std::to_string(log->shard_count));
    }
    Replay replay;
    for (LogRecord& rec : log->records) replay.Apply(std::move(rec));
    for (VideoEntry& entry : replay.live) {
      db.AddVideo(std::move(entry.name), std::move(entry.structure),
                  std::move(entry.events), entry.degraded);
    }
  }
  return db;
}

util::StatusOr<std::vector<ShardedDatabase::CompactionReport>>
CompactDatabaseFile(const std::string& path, int shard, bool force) {
  util::SalvageReport report;
  util::StatusOr<std::unique_ptr<ShardedDatabase>> db =
      ShardedDatabase::Open(path, &report);
  if (!db.ok()) return db.status();
  if (shard >= 0) {
    util::StatusOr<ShardedDatabase::CompactionReport> one =
        (*db)->CompactShard(shard, force);
    if (!one.ok()) return one.status();
    return std::vector<ShardedDatabase::CompactionReport>{*one};
  }
  return (*db)->CompactAll(force);
}

std::string VerifyReport::ToString() const {
  std::string s = loadable ? "loadable" : "unloadable";
  if (shards > 0) s += " shards=" + std::to_string(shards);
  s += " videos=" + std::to_string(videos);
  s += " degraded=" + std::to_string(degraded_videos);
  if (shards > 0) {
    s += " generation=" + std::to_string(generation);
    if (manifest_matches) {
      s += " manifest=ok";
    } else {
      s += " manifest=stale";
      if (!stale_detail.empty()) s += "(" + stale_detail + ")";
    }
  }
  if (!error.empty()) s += " error=\"" + error + "\"";
  return s;
}

VerifyReport VerifyDatabaseFile(const std::string& path) {
  VerifyReport report;
  util::StatusOr<std::vector<uint8_t>> bytes = util::ReadFile(path);
  if (!bytes.ok()) {
    report.error = bytes.status().message();
    return report;
  }
  util::StatusOr<ShardManifest> manifest = ParseShardManifest(*bytes);
  if (!manifest.ok()) {
    report.error = manifest.status().message();
    return report;
  }
  report.manifest_matches = true;
  report.generation = manifest->epoch;
  report.shards = static_cast<int>(manifest->shard_count);
  const int count = report.shards;

  struct ShardCheck {
    util::Status status = util::Status::Ok();
    uint64_t generation = 0;
    int live = 0;
    int degraded = 0;
  };
  std::vector<ShardCheck> checks(static_cast<size_t>(count));
  ForEachShard(count, [&](int k) {
    ShardCheck& check = checks[static_cast<size_t>(k)];
    util::StatusOr<std::vector<uint8_t>> log_bytes =
        util::ReadFile(ShardPath(path, k));
    if (!log_bytes.ok()) {
      check.status = log_bytes.status();
      return;
    }
    util::StatusOr<ShardLogContents> log = ParseShardLog(*log_bytes);
    if (!log.ok()) {
      check.status = log.status();
      return;
    }
    if (log->shard_index != static_cast<uint32_t>(k) ||
        log->shard_count != static_cast<uint32_t>(count)) {
      check.status = util::Status::DataLoss(
          "header names shard " + std::to_string(log->shard_index) + " of " +
          std::to_string(log->shard_count));
      return;
    }
    check.generation = log->generation;
    Replay replay;
    for (LogRecord& rec : log->records) replay.Apply(std::move(rec));
    check.live = static_cast<int>(replay.live.size());
    for (const VideoEntry& entry : replay.live) {
      if (entry.degraded) ++check.degraded;
    }
  });

  report.loadable = true;
  for (int k = 0; k < count; ++k) {
    const ShardCheck& check = checks[static_cast<size_t>(k)];
    if (!check.status.ok()) {
      report.loadable = false;
      if (report.error.empty()) {
        report.error =
            "shard " + std::to_string(k) + ": " + check.status.message();
      }
      continue;
    }
    report.videos += check.live;
    report.degraded_videos += check.degraded;
    const uint64_t expected =
        manifest->shards[static_cast<size_t>(k)].generation;
    if (check.generation != expected) {
      report.manifest_matches = false;
      if (!report.stale_detail.empty()) report.stale_detail += "; ";
      report.stale_detail += "shard " + std::to_string(k) +
                             " log generation " +
                             std::to_string(check.generation) +
                             ", manifest records " + std::to_string(expected);
    }
  }
  return report;
}

}  // namespace classminer::index
