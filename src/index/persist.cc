#include "index/persist.h"

#include <string>
#include <utility>

#include "util/crc32.h"
#include "util/serial.h"

namespace classminer::index {
namespace {

constexpr uint32_t kMagic = internal::kLegacyDatabaseMagic;
// v1: no per-video degraded flag. v2: one u8 degraded flag per video.
// v3: every video entry framed as (kEntryMagic, body size, CRC-32, body).
constexpr uint32_t kVersion = 3;
constexpr uint32_t kEntryMagic = internal::kEntryFrameMagic;

uint32_t ReadU32LE(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[i]) << (8 * i);
  return v;
}

void PutFeatures(util::ByteWriter* w, const features::ShotFeatures& f) {
  for (double v : f.histogram) w->PutF64(v);
  for (double v : f.tamura) w->PutF64(v);
}

util::Status GetFeatures(util::ByteReader* r, features::ShotFeatures* f) {
  for (double& v : f->histogram) {
    util::StatusOr<double> x = r->GetF64();
    if (!x.ok()) return x.status();
    v = *x;
  }
  for (double& v : f->tamura) {
    util::StatusOr<double> x = r->GetF64();
    if (!x.ok()) return x.status();
    v = *x;
  }
  return util::Status::Ok();
}

void PutIntVector(util::ByteWriter* w, const std::vector<int>& v) {
  w->PutU32(static_cast<uint32_t>(v.size()));
  for (int x : v) w->PutI32(x);
}

util::Status GetIntVector(util::ByteReader* r, std::vector<int>* v) {
  util::StatusOr<uint32_t> n = r->GetU32();
  if (!n.ok()) return n.status();
  v->resize(*n);
  for (int& x : *v) {
    util::StatusOr<int32_t> i = r->GetI32();
    if (!i.ok()) return i.status();
    x = *i;
  }
  return util::Status::Ok();
}

void PutVideo(util::ByteWriter* w, const VideoEntry& v) {
  w->PutString(v.name);

  const structure::ContentStructure& cs = v.structure;
  w->PutU32(static_cast<uint32_t>(cs.shots.size()));
  for (const shot::Shot& s : cs.shots) {
    w->PutI32(s.index);
    w->PutI32(s.start_frame);
    w->PutI32(s.end_frame);
    w->PutI32(s.rep_frame);
    PutFeatures(w, s.features);
  }

  w->PutU32(static_cast<uint32_t>(cs.groups.size()));
  for (const structure::Group& g : cs.groups) {
    w->PutI32(g.index);
    w->PutI32(g.start_shot);
    w->PutI32(g.end_shot);
    w->PutU8(g.temporally_related ? 1 : 0);
    w->PutU32(static_cast<uint32_t>(g.clusters.size()));
    for (const structure::ShotCluster& c : g.clusters) {
      PutIntVector(w, c.shot_indices);
      w->PutI32(c.rep_shot);
    }
    PutIntVector(w, g.rep_shots);
  }

  w->PutU32(static_cast<uint32_t>(cs.scenes.size()));
  for (const structure::Scene& s : cs.scenes) {
    w->PutI32(s.index);
    w->PutI32(s.start_group);
    w->PutI32(s.end_group);
    w->PutI32(s.rep_group);
    w->PutU8(s.eliminated ? 1 : 0);
  }

  w->PutU32(static_cast<uint32_t>(cs.clustered_scenes.size()));
  for (const structure::SceneCluster& c : cs.clustered_scenes) {
    PutIntVector(w, c.scene_indices);
    w->PutI32(c.rep_group);
  }

  w->PutU32(static_cast<uint32_t>(v.events.size()));
  for (const events::EventRecord& e : v.events) {
    w->PutI32(e.scene_index);
    w->PutI32(static_cast<int32_t>(e.type));
    w->PutU8(e.has_slide ? 1 : 0);
    w->PutU8(e.has_face_closeup ? 1 : 0);
    w->PutU8(e.has_temporal_group ? 1 : 0);
    w->PutU8(e.any_speaker_change ? 1 : 0);
    w->PutU8(e.dialog_speaker_duplicated ? 1 : 0);
    w->PutU8(e.has_skin_closeup ? 1 : 0);
    w->PutU8(e.has_blood ? 1 : 0);
    w->PutI32(e.skin_shot_count);
    w->PutI32(e.shot_count);
  }

  w->PutU8(v.degraded ? 1 : 0);  // v2
}

util::Status GetVideo(util::ByteReader* r, uint32_t version,
                      VideoEntry* out) {
  util::StatusOr<std::string> name = r->GetString();
  if (!name.ok()) return name.status();
  out->name = *name;

  auto get_i32 = [r](int* v) -> util::Status {
    util::StatusOr<int32_t> x = r->GetI32();
    if (!x.ok()) return x.status();
    *v = *x;
    return util::Status::Ok();
  };
  auto get_u8 = [r](bool* v) -> util::Status {
    util::StatusOr<uint8_t> x = r->GetU8();
    if (!x.ok()) return x.status();
    *v = *x != 0;
    return util::Status::Ok();
  };

  structure::ContentStructure& cs = out->structure;
  util::StatusOr<uint32_t> shot_count = r->GetU32();
  if (!shot_count.ok()) return shot_count.status();
  // Every serialised shot carries 4 ints + 266 doubles; reject counts the
  // remaining buffer cannot hold (guards hostile resize sizes).
  if (*shot_count > r->remaining() / (16 + 266 * 8)) {
    return r->Corrupt("shot count exceeds database size");
  }
  cs.shots.resize(*shot_count);
  for (shot::Shot& s : cs.shots) {
    CLASSMINER_RETURN_IF_ERROR(get_i32(&s.index));
    CLASSMINER_RETURN_IF_ERROR(get_i32(&s.start_frame));
    CLASSMINER_RETURN_IF_ERROR(get_i32(&s.end_frame));
    CLASSMINER_RETURN_IF_ERROR(get_i32(&s.rep_frame));
    CLASSMINER_RETURN_IF_ERROR(GetFeatures(r, &s.features));
  }

  util::StatusOr<uint32_t> group_count = r->GetU32();
  if (!group_count.ok()) return group_count.status();
  cs.groups.resize(*group_count);
  for (structure::Group& g : cs.groups) {
    CLASSMINER_RETURN_IF_ERROR(get_i32(&g.index));
    CLASSMINER_RETURN_IF_ERROR(get_i32(&g.start_shot));
    CLASSMINER_RETURN_IF_ERROR(get_i32(&g.end_shot));
    CLASSMINER_RETURN_IF_ERROR(get_u8(&g.temporally_related));
    util::StatusOr<uint32_t> clusters = r->GetU32();
    if (!clusters.ok()) return clusters.status();
    g.clusters.resize(*clusters);
    for (structure::ShotCluster& c : g.clusters) {
      CLASSMINER_RETURN_IF_ERROR(GetIntVector(r, &c.shot_indices));
      CLASSMINER_RETURN_IF_ERROR(get_i32(&c.rep_shot));
    }
    CLASSMINER_RETURN_IF_ERROR(GetIntVector(r, &g.rep_shots));
  }

  util::StatusOr<uint32_t> scene_count = r->GetU32();
  if (!scene_count.ok()) return scene_count.status();
  cs.scenes.resize(*scene_count);
  for (structure::Scene& s : cs.scenes) {
    CLASSMINER_RETURN_IF_ERROR(get_i32(&s.index));
    CLASSMINER_RETURN_IF_ERROR(get_i32(&s.start_group));
    CLASSMINER_RETURN_IF_ERROR(get_i32(&s.end_group));
    CLASSMINER_RETURN_IF_ERROR(get_i32(&s.rep_group));
    CLASSMINER_RETURN_IF_ERROR(get_u8(&s.eliminated));
  }

  util::StatusOr<uint32_t> cluster_count = r->GetU32();
  if (!cluster_count.ok()) return cluster_count.status();
  cs.clustered_scenes.resize(*cluster_count);
  for (structure::SceneCluster& c : cs.clustered_scenes) {
    CLASSMINER_RETURN_IF_ERROR(GetIntVector(r, &c.scene_indices));
    CLASSMINER_RETURN_IF_ERROR(get_i32(&c.rep_group));
  }

  util::StatusOr<uint32_t> event_count = r->GetU32();
  if (!event_count.ok()) return event_count.status();
  out->events.resize(*event_count);
  for (events::EventRecord& e : out->events) {
    CLASSMINER_RETURN_IF_ERROR(get_i32(&e.scene_index));
    int type = 0;
    CLASSMINER_RETURN_IF_ERROR(get_i32(&type));
    if (type < 0 || type > 3) {
      return r->Corrupt("invalid event type in database");
    }
    e.type = static_cast<events::EventType>(type);
    CLASSMINER_RETURN_IF_ERROR(get_u8(&e.has_slide));
    CLASSMINER_RETURN_IF_ERROR(get_u8(&e.has_face_closeup));
    CLASSMINER_RETURN_IF_ERROR(get_u8(&e.has_temporal_group));
    CLASSMINER_RETURN_IF_ERROR(get_u8(&e.any_speaker_change));
    CLASSMINER_RETURN_IF_ERROR(get_u8(&e.dialog_speaker_duplicated));
    CLASSMINER_RETURN_IF_ERROR(get_u8(&e.has_skin_closeup));
    CLASSMINER_RETURN_IF_ERROR(get_u8(&e.has_blood));
    CLASSMINER_RETURN_IF_ERROR(get_i32(&e.skin_shot_count));
    CLASSMINER_RETURN_IF_ERROR(get_i32(&e.shot_count));
  }

  if (version >= 2) {
    CLASSMINER_RETURN_IF_ERROR(get_u8(&out->degraded));
  }
  return util::Status::Ok();
}

// Writes one v3 framed entry: entry magic, body size, CRC-32 over the
// body bytes, then the body itself.
void PutFramedVideo(util::ByteWriter* w, const VideoEntry& v) {
  util::ByteWriter body;
  PutVideo(&body, v);
  w->PutU32(kEntryMagic);
  w->PutU32(static_cast<uint32_t>(body.size()));
  w->PutU32(util::Crc32(body.bytes()));
  w->PutBytes(body.bytes().data(), body.size());
}

// Reads one v3 framed entry, verifying the stored CRC-32 against the body
// bytes before parsing them (so a bit-flip surfaces as a checksum mismatch
// at this entry, not as a structural error somewhere downstream). The body
// must consume exactly its declared size.
util::Status GetFramedVideo(util::ByteReader* r, uint32_t version,
                            VideoEntry* out) {
  util::StatusOr<uint32_t> magic = r->GetU32();
  if (!magic.ok()) return magic.status();
  if (*magic != kEntryMagic) return r->Corrupt("bad video entry magic");
  util::StatusOr<uint32_t> body_size = r->GetU32();
  if (!body_size.ok()) return body_size.status();
  util::StatusOr<uint32_t> stored = r->GetU32();
  if (!stored.ok()) return stored.status();
  if (*body_size > r->remaining()) {
    return r->Corrupt("video entry body exceeds database size");
  }
  const size_t body_start = r->position();
  if (util::Crc32(r->data() + body_start, *body_size) != *stored) {
    return r->Corrupt("video entry checksum mismatch");
  }
  CLASSMINER_RETURN_IF_ERROR(GetVideo(r, version, out));
  if (r->position() != body_start + *body_size) {
    return r->Corrupt("video entry body size mismatch");
  }
  return util::Status::Ok();
}

// Dispatches on the format generation: v3 entries are framed + checksummed,
// v1/v2 bodies sit back to back.
util::Status GetVideoEntry(util::ByteReader* r, uint32_t version,
                           VideoEntry* out) {
  if (version >= 3) return GetFramedVideo(r, version, out);
  return GetVideo(r, version, out);
}

// True when a complete, checksum-confirmed v3 entry frame starts at `pos`.
// The CRC makes a false positive on arbitrary bytes ~2^-32, so the salvage
// scanner can treat a hit as a confirmed resynchronisation point.
bool PlausibleEntryAt(const std::vector<uint8_t>& bytes, size_t pos) {
  if (pos + 12 > bytes.size()) return false;
  if (ReadU32LE(bytes.data() + pos) != kEntryMagic) return false;
  const uint32_t body_size = ReadU32LE(bytes.data() + pos + 4);
  if (body_size > bytes.size() - pos - 12) return false;
  return util::Crc32(bytes.data() + pos + 12, body_size) ==
         ReadU32LE(bytes.data() + pos + 8);
}

// Reads the CMDB header (magic, version, video count).
util::Status ParseDatabaseHeader(util::ByteReader* r, uint32_t* version,
                                 uint32_t* video_count) {
  r->set_section("header");
  util::StatusOr<uint32_t> magic = r->GetU32();
  if (!magic.ok()) return magic.status();
  if (*magic != kMagic) return r->Corrupt("bad CMDB magic");
  util::StatusOr<uint32_t> v = r->GetU32();
  if (!v.ok()) return v.status();
  if (*v < 1 || *v > kVersion) {
    return r->Corrupt("unsupported CMDB version " + std::to_string(*v));
  }
  *version = *v;
  util::StatusOr<uint32_t> videos = r->GetU32();
  if (!videos.ok()) return videos.status();
  *video_count = *videos;
  return util::Status::Ok();
}

// Exact serialized body size of one entry, mirroring PutVideo's layout
// (string = 4 + length, shot = 4 i32 + feature doubles, scene = 4 i32 +
// flag, event = 4 i32 + 7 flags). Counted in 64 bits so an entry too large
// to frame is detected instead of wrapped.
uint64_t SerializedBodySize(const VideoEntry& v) {
  const structure::ContentStructure& cs = v.structure;
  uint64_t size = 4 + v.name.size();
  size += 4;
  for (const shot::Shot& s : cs.shots) {
    size += 16 + 8ull * (s.features.histogram.size() + s.features.tamura.size());
  }
  size += 4;
  for (const structure::Group& g : cs.groups) {
    size += 13 + 4;
    for (const structure::ShotCluster& c : g.clusters) {
      size += 4 + 4ull * c.shot_indices.size() + 4;
    }
    size += 4 + 4ull * g.rep_shots.size();
  }
  size += 4 + 17ull * cs.scenes.size();
  size += 4;
  for (const structure::SceneCluster& c : cs.clustered_scenes) {
    size += 4 + 4ull * c.scene_indices.size() + 4;
  }
  size += 4 + 23ull * v.events.size();
  size += 1;  // degraded flag
  return size;
}

}  // namespace

util::Status ValidateForSerialize(const VideoDatabase& db) {
  CLASSMINER_RETURN_IF_ERROR(util::CheckU32Count(
      static_cast<size_t>(db.video_count()), "CMDB video"));
  for (int i = 0; i < db.video_count(); ++i) {
    CLASSMINER_RETURN_IF_ERROR(internal::ValidateEntry(
        db.video(i), "CMDB videos[" + std::to_string(i) + "]"));
  }
  return util::Status::Ok();
}

namespace internal {

void PutFramedEntry(util::ByteWriter* w, const VideoEntry& v) {
  PutFramedVideo(w, v);
}

util::Status GetFramedEntry(util::ByteReader* r, VideoEntry* out) {
  return GetFramedVideo(r, kVersion, out);
}

util::Status ValidateEntry(const VideoEntry& v, const std::string& at) {
  const structure::ContentStructure& cs = v.structure;
  CLASSMINER_RETURN_IF_ERROR(
      util::CheckU32Count(v.name.size(), at + " name byte"));
  CLASSMINER_RETURN_IF_ERROR(
      util::CheckU32Count(cs.shots.size(), at + " shot"));
  CLASSMINER_RETURN_IF_ERROR(
      util::CheckU32Count(cs.groups.size(), at + " group"));
  for (const structure::Group& g : cs.groups) {
    CLASSMINER_RETURN_IF_ERROR(
        util::CheckU32Count(g.clusters.size(), at + " shot cluster"));
    for (const structure::ShotCluster& c : g.clusters) {
      CLASSMINER_RETURN_IF_ERROR(util::CheckU32Count(
          c.shot_indices.size(), at + " cluster shot index"));
    }
    CLASSMINER_RETURN_IF_ERROR(
        util::CheckU32Count(g.rep_shots.size(), at + " rep shot"));
  }
  CLASSMINER_RETURN_IF_ERROR(
      util::CheckU32Count(cs.scenes.size(), at + " scene"));
  CLASSMINER_RETURN_IF_ERROR(util::CheckU32Count(
      cs.clustered_scenes.size(), at + " scene cluster"));
  for (const structure::SceneCluster& c : cs.clustered_scenes) {
    CLASSMINER_RETURN_IF_ERROR(util::CheckU32Count(
        c.scene_indices.size(), at + " scene cluster index"));
  }
  CLASSMINER_RETURN_IF_ERROR(
      util::CheckU32Count(v.events.size(), at + " event"));
  return util::CheckU32Count(static_cast<size_t>(SerializedBodySize(v)),
                             at + " entry body byte");
}

}  // namespace internal

std::vector<uint8_t> SerializeDatabase(const VideoDatabase& db) {
  util::ByteWriter w;
  w.PutU32(kMagic);
  w.PutU32(kVersion);
  w.PutU32(static_cast<uint32_t>(db.video_count()));
  for (int v = 0; v < db.video_count(); ++v) {
    PutFramedVideo(&w, db.video(v));
  }
  return w.Release();
}

util::StatusOr<VideoDatabase> ParseDatabase(
    const std::vector<uint8_t>& bytes) {
  util::ByteReader r(bytes);
  uint32_t version = 0;
  uint32_t videos = 0;
  CLASSMINER_RETURN_IF_ERROR(ParseDatabaseHeader(&r, &version, &videos));

  VideoDatabase db;
  for (uint32_t i = 0; i < videos; ++i) {
    r.set_section("videos[" + std::to_string(i) + "]");
    VideoEntry entry;
    CLASSMINER_RETURN_IF_ERROR(GetVideoEntry(&r, version, &entry));
    db.AddVideo(std::move(entry.name), std::move(entry.structure),
                std::move(entry.events), entry.degraded);
  }
  if (r.remaining() > 0) {
    return r.Corrupt("trailing bytes after last video entry");
  }
  return db;
}

util::StatusOr<VideoDatabase> ParseDatabaseSalvage(
    const std::vector<uint8_t>& bytes, util::SalvageReport* report) {
  util::SalvageReport local;
  if (report == nullptr) report = &local;
  util::ByteReader r(bytes);
  uint32_t version = 0;
  uint32_t videos = 0;
  // Nothing precedes the header, so a damaged header is unrecoverable.
  CLASSMINER_RETURN_IF_ERROR(ParseDatabaseHeader(&r, &version, &videos));

  VideoDatabase db;
  uint32_t parsed = 0;
  for (uint32_t i = 0; i < videos; ++i) {
    r.set_section("videos[" + std::to_string(i) + "]");
    const size_t entry_start = r.position();
    VideoEntry entry;
    const util::Status video = GetVideoEntry(&r, version, &entry);
    if (video.ok()) {
      db.AddVideo(std::move(entry.name), std::move(entry.structure),
                  std::move(entry.events), entry.degraded);
      ++parsed;
      continue;
    }
    report->AddNote("videos: " + video.message());
    if (version < 3) {
      // v1/v2 entries are written back to back with no framing: a torn
      // entry makes everything behind it unframed bytes. Keep the prefix.
      report->bytes_dropped += bytes.size() - entry_start;
      break;
    }
    // v3: scan forward for the next checksum-confirmed entry frame and
    // resynchronise there; the suffix behind the tear is recoverable.
    bool resynced = false;
    for (size_t scan = entry_start + 1; scan < bytes.size(); ++scan) {
      if (!PlausibleEntryAt(bytes, scan)) continue;
      (void)r.SeekTo(scan);
      VideoEntry recovered;
      if (!GetFramedVideo(&r, version, &recovered).ok()) {
        // CRC-confirmed frame whose body still refuses to parse (in
        // practice only hostile bytes); keep scanning behind it.
        continue;
      }
      report->bytes_dropped += scan - entry_start;
      report->resync_points += 1;
      report->AddNote(
          "videos: resynchronised onto checksum-confirmed entry at byte "
          "offset " +
          std::to_string(scan) + " (dropped " +
          std::to_string(scan - entry_start) + " bytes)");
      db.AddVideo(std::move(recovered.name), std::move(recovered.structure),
                  std::move(recovered.events), recovered.degraded);
      ++parsed;
      resynced = true;
      break;
    }
    if (!resynced) {
      // No confirmed entry frame behind the tear; the rest is lost.
      report->bytes_dropped += bytes.size() - entry_start;
      break;
    }
  }
  if (parsed < videos) {
    report->items_dropped += static_cast<int>(videos - parsed);
  }
  report->items_recovered += db.video_count();
  return db;
}

}  // namespace classminer::index
