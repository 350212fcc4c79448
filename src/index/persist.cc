#include "index/persist.h"

#include <string>
#include <utility>

#include "util/crc32.h"
#include "util/serial.h"

namespace classminer::index {
namespace {

// SerializeDatabase's header: "CMDB", version 3 (the version whose
// entries are framed).
constexpr uint32_t kDatabaseMagic = 0x42444d43;
constexpr uint32_t kDatabaseVersion = 3;

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

// Reads a u32 item count and rejects one whose items, at least `min_bytes`
// each, cannot fit in the rest of the buffer (guards hostile resize sizes).
util::StatusOr<size_t> GetCount(util::ByteReader* r, size_t min_bytes,
                                const char* what) {
  util::StatusOr<uint32_t> n = r->GetU32();
  if (!n.ok()) return n.status();
  if (*n > r->remaining() / min_bytes) {
    return r->Corrupt(std::string(what) + " count exceeds database size");
  }
  return static_cast<size_t>(*n);
}

util::Status GetIntVector(util::ByteReader* r, std::vector<int>* v) {
  util::StatusOr<size_t> n = GetCount(r, 4, "index");
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

  w->PutU8(v.degraded ? 1 : 0);
}

util::Status GetVideo(util::ByteReader* r, VideoEntry* out) {
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
  // Every serialised shot carries 4 ints + 266 doubles.
  util::StatusOr<size_t> shot_count = GetCount(r, 16 + 266 * 8, "shot");
  if (!shot_count.ok()) return shot_count.status();
  cs.shots.resize(*shot_count);
  for (shot::Shot& s : cs.shots) {
    CLASSMINER_RETURN_IF_ERROR(get_i32(&s.index));
    CLASSMINER_RETURN_IF_ERROR(get_i32(&s.start_frame));
    CLASSMINER_RETURN_IF_ERROR(get_i32(&s.end_frame));
    CLASSMINER_RETURN_IF_ERROR(get_i32(&s.rep_frame));
    CLASSMINER_RETURN_IF_ERROR(GetFeatures(r, &s.features));
  }

  // A group: 3 ints, a flag and two counts.
  util::StatusOr<size_t> group_count = GetCount(r, 21, "group");
  if (!group_count.ok()) return group_count.status();
  cs.groups.resize(*group_count);
  for (structure::Group& g : cs.groups) {
    CLASSMINER_RETURN_IF_ERROR(get_i32(&g.index));
    CLASSMINER_RETURN_IF_ERROR(get_i32(&g.start_shot));
    CLASSMINER_RETURN_IF_ERROR(get_i32(&g.end_shot));
    CLASSMINER_RETURN_IF_ERROR(get_u8(&g.temporally_related));
    util::StatusOr<size_t> clusters = GetCount(r, 8, "shot cluster");
    if (!clusters.ok()) return clusters.status();
    g.clusters.resize(*clusters);
    for (structure::ShotCluster& c : g.clusters) {
      CLASSMINER_RETURN_IF_ERROR(GetIntVector(r, &c.shot_indices));
      CLASSMINER_RETURN_IF_ERROR(get_i32(&c.rep_shot));
    }
    CLASSMINER_RETURN_IF_ERROR(GetIntVector(r, &g.rep_shots));
  }

  util::StatusOr<size_t> scene_count = GetCount(r, 17, "scene");
  if (!scene_count.ok()) return scene_count.status();
  cs.scenes.resize(*scene_count);
  for (structure::Scene& s : cs.scenes) {
    CLASSMINER_RETURN_IF_ERROR(get_i32(&s.index));
    CLASSMINER_RETURN_IF_ERROR(get_i32(&s.start_group));
    CLASSMINER_RETURN_IF_ERROR(get_i32(&s.end_group));
    CLASSMINER_RETURN_IF_ERROR(get_i32(&s.rep_group));
    CLASSMINER_RETURN_IF_ERROR(get_u8(&s.eliminated));
  }

  util::StatusOr<size_t> cluster_count = GetCount(r, 8, "scene cluster");
  if (!cluster_count.ok()) return cluster_count.status();
  cs.clustered_scenes.resize(*cluster_count);
  for (structure::SceneCluster& c : cs.clustered_scenes) {
    CLASSMINER_RETURN_IF_ERROR(GetIntVector(r, &c.scene_indices));
    CLASSMINER_RETURN_IF_ERROR(get_i32(&c.rep_group));
  }

  util::StatusOr<size_t> event_count = GetCount(r, 23, "event");
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

  return get_u8(&out->degraded);
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

// Writes one framed entry: entry magic, body size, CRC-32 over the
// body bytes, then the body itself.
void PutFramedEntry(util::ByteWriter* w, const VideoEntry& v) {
  util::ByteWriter body;
  PutVideo(&body, v);
  w->PutU32(kEntryFrameMagic);
  w->PutU32(static_cast<uint32_t>(body.size()));
  w->PutU32(util::Crc32(body.bytes()));
  w->PutBytes(body.bytes().data(), body.size());
}

// Reads one framed entry, verifying the stored CRC-32 against the body
// bytes before parsing them (so a bit-flip surfaces as a checksum mismatch
// at this entry, not as a structural error somewhere downstream). The body
// must consume exactly its declared size.
util::Status GetFramedEntry(util::ByteReader* r, VideoEntry* out) {
  util::StatusOr<uint32_t> magic = r->GetU32();
  if (!magic.ok()) return magic.status();
  if (*magic != kEntryFrameMagic) return r->Corrupt("bad video entry magic");
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
  CLASSMINER_RETURN_IF_ERROR(GetVideo(r, out));
  if (r->position() != body_start + *body_size) {
    return r->Corrupt("video entry body size mismatch");
  }
  return util::Status::Ok();
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
  w.PutU32(kDatabaseMagic);
  w.PutU32(kDatabaseVersion);
  w.PutU32(static_cast<uint32_t>(db.video_count()));
  for (int v = 0; v < db.video_count(); ++v) {
    internal::PutFramedEntry(&w, db.video(v));
  }
  return w.Release();
}

}  // namespace classminer::index
