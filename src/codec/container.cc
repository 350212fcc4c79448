#include "codec/container.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "util/crc32.h"
#include "util/failpoint.h"
#include "util/serial.h"

namespace classminer::codec {
namespace {

// The checksum a frame record carries: CRC-32 over the type byte and
// the payload (the size field is implied by the framing; a corrupted size
// misaligns the payload read and fails the checksum anyway).
uint32_t RecordCrc(FrameType type, const std::vector<uint8_t>& payload) {
  const uint8_t t = static_cast<uint8_t>(type);
  return util::Crc32(payload.data(), payload.size(), util::Crc32(&t, 1));
}

// A frame record's fixed framing: type u8, size u32, CRC-32 u32.
constexpr size_t kMinRecordBytes = 9;

// Serialized size of one frame record including framing.
size_t RecordBytes(const FrameRecord& rec) {
  return kMinRecordBytes + rec.payload.size();
}

uint32_t ReadU32LE(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[i]) << (8 * i);
  return v;
}

// Decodes `count` little-endian IEEE-754 samples at p. On little-endian
// hosts the stored words are the host's floats, so this is one copy.
void DecodePcm(const uint8_t* p, size_t count, float* out) {
  if constexpr (std::endian::native == std::endian::little) {
    if (count > 0) std::memcpy(out, p, sizeof(float) * count);
  } else {
    for (size_t i = 0; i < count; ++i) {
      const uint32_t bits = ReadU32LE(p + 4 * i);
      std::memcpy(out + i, &bits, sizeof(float));
    }
  }
}

// Reads the fixed header (magic .. gop_size) into *file. Shared by the
// strict and best-effort parsers; there is nothing to salvage before the
// header, so both fail identically when it is damaged.
util::Status ParseHeader(util::ByteReader* r, CmvFile* file) {
  r->set_section("header");
  util::StatusOr<uint32_t> magic = r->GetU32();
  if (!magic.ok()) return magic.status();
  if (*magic != CmvFile::kMagicV2) return r->Corrupt("bad CMV magic");

  util::StatusOr<std::string> name = r->GetString();
  if (!name.ok()) return name.status();
  file->name = *name;

  auto get_i32 = [r](int* out) -> util::Status {
    util::StatusOr<int32_t> v = r->GetI32();
    if (!v.ok()) return v.status();
    *out = *v;
    return util::Status::Ok();
  };
  CLASSMINER_RETURN_IF_ERROR(get_i32(&file->width));
  CLASSMINER_RETURN_IF_ERROR(get_i32(&file->height));
  if (file->width < 0 || file->height < 0 || file->width > 16384 ||
      file->height > 16384) {
    return r->Corrupt("implausible CMV dimensions");
  }
  util::StatusOr<double> fps = r->GetF64();
  if (!fps.ok()) return fps.status();
  file->fps = *fps;
  CLASSMINER_RETURN_IF_ERROR(get_i32(&file->quality));
  CLASSMINER_RETURN_IF_ERROR(get_i32(&file->gop_size));
  return util::Status::Ok();
}

// Reads one frame record and verifies its trailing CRC-32 against the
// bytes just read.
util::Status ParseFrameRecord(util::ByteReader* r, FrameRecord* rec) {
  util::StatusOr<uint8_t> type = r->GetU8();
  if (!type.ok()) return type.status();
  if (*type > 1) return r->Corrupt("unknown frame type");
  rec->type = static_cast<FrameType>(*type);
  util::StatusOr<uint32_t> size = r->GetU32();
  if (!size.ok()) return size.status();
  if (*size + size_t{4} > r->remaining()) {
    return r->Corrupt("frame payload exceeds container");
  }
  rec->payload.resize(*size);
  CLASSMINER_RETURN_IF_ERROR(r->GetBytes(rec->payload.data(), *size));
  util::StatusOr<uint32_t> stored = r->GetU32();
  if (!stored.ok()) return stored.status();
  if (*stored != RecordCrc(rec->type, rec->payload)) {
    return r->Corrupt("frame record checksum mismatch");
  }
  return util::Status::Ok();
}

// Attempts to read one frame record starting at `pos` of the
// raw buffer. True only when the framing is plausible AND the stored CRC
// matches the bytes — a false positive on arbitrary garbage is ~2^-32, so
// the salvage scanner can treat a hit as a confirmed sync point.
bool TryRecordAt(const std::vector<uint8_t>& bytes, size_t pos,
                 FrameRecord* rec, size_t* end) {
  if (pos + 9 > bytes.size()) return false;
  const uint8_t type = bytes[pos];
  if (type > 1) return false;
  const uint32_t size = ReadU32LE(bytes.data() + pos + 1);
  if (size > bytes.size() - pos - 9) return false;
  const uint8_t* payload = bytes.data() + pos + 5;
  const uint32_t stored = ReadU32LE(payload + size);
  if (stored != util::Crc32(payload, size, util::Crc32(&type, 1))) {
    return false;
  }
  rec->type = static_cast<FrameType>(type);
  rec->payload.assign(payload, payload + size);
  *end = pos + 9 + size;
  return true;
}

// Attempts to interpret bytes[pos..end) as a complete trailer: the audio
// section, optionally followed by a GOP-index section, consuming the
// buffer exactly. Validation is structural only (after a resynchronisation
// the stored seek index cannot match the gap-ridden record list, so the
// caller drops it); the exact-length requirement makes a false positive
// at a random scan offset ~2^-32. Commits the audio track on success.
bool TryTrailerAt(const std::vector<uint8_t>& bytes, size_t pos,
                  CmvFile* file) {
  if (pos + 8 > bytes.size()) return false;
  const size_t remaining = bytes.size() - pos;
  const uint32_t sample_count = ReadU32LE(bytes.data() + pos + 4);
  if (sample_count > (remaining - 8) / 4) return false;
  const size_t audio_end = pos + 8 + 4 * static_cast<size_t>(sample_count);
  const size_t left = bytes.size() - audio_end;
  if (left != 0) {
    // Whatever follows the audio must be exactly one GOP-index section.
    if (left < 8) return false;
    if (ReadU32LE(bytes.data() + audio_end) != CmvFile::kGopIndexMagic) {
      return false;
    }
    const uint32_t gops = ReadU32LE(bytes.data() + audio_end + 4);
    if (left != 8 + 24ull * gops) return false;
  }
  file->audio_sample_rate =
      static_cast<int32_t>(ReadU32LE(bytes.data() + pos));
  file->audio_pcm.resize(sample_count);
  DecodePcm(bytes.data() + pos + 8, sample_count, file->audio_pcm.data());
  return true;
}

// Reads the audio section (sample rate + PCM) into *file.
util::Status ParseAudio(util::ByteReader* r, CmvFile* file) {
  r->set_section("audio");
  util::StatusOr<int32_t> rate = r->GetI32();
  if (!rate.ok()) return rate.status();
  file->audio_sample_rate = *rate;
  util::StatusOr<uint32_t> sample_count = r->GetU32();
  if (!sample_count.ok()) return sample_count.status();
  if (*sample_count > r->remaining() / 4) {
    return r->Corrupt("audio sample count exceeds container");
  }
  const uint8_t* pcm = r->data() + r->position();
  CLASSMINER_RETURN_IF_ERROR(r->Skip(4 * static_cast<size_t>(*sample_count)));
  file->audio_pcm.resize(*sample_count);
  DecodePcm(pcm, *sample_count, file->audio_pcm.data());
  return util::Status::Ok();
}

// Reads the trailing GOP-index section and checks it against the index the
// frame records derive; any short read or disagreement is corruption.
util::Status ParseGopIndex(util::ByteReader* r,
                           const std::vector<FrameRecord>& frames) {
  r->set_section("gop_index");
  util::StatusOr<uint32_t> index_magic = r->GetU32();
  if (!index_magic.ok()) return index_magic.status();
  if (*index_magic != CmvFile::kGopIndexMagic) {
    return r->Corrupt("bad GOP index magic");
  }
  util::StatusOr<uint32_t> gop_count = r->GetU32();
  if (!gop_count.ok()) return gop_count.status();
  // Each entry occupies 24 bytes.
  if (*gop_count > r->remaining() / 24) {
    return r->Corrupt("truncated GOP index");
  }
  std::vector<GopIndexEntry> stored;
  stored.reserve(*gop_count);
  for (uint32_t i = 0; i < *gop_count; ++i) {
    GopIndexEntry entry;
    util::StatusOr<int32_t> start = r->GetI32();
    if (!start.ok()) return start.status();
    entry.start_frame = *start;
    util::StatusOr<int32_t> count = r->GetI32();
    if (!count.ok()) return count.status();
    entry.frame_count = *count;
    util::StatusOr<uint64_t> off = r->GetU64();
    if (!off.ok()) return off.status();
    entry.byte_offset = *off;
    util::StatusOr<uint64_t> size = r->GetU64();
    if (!size.ok()) return size.status();
    entry.byte_size = *size;
    stored.push_back(entry);
  }
  util::StatusOr<std::vector<GopIndexEntry>> derived =
      CmvFile::DeriveGopIndex(frames);
  if (!derived.ok() || *derived != stored) {
    return r->Corrupt("GOP index inconsistent with frame records");
  }
  return util::Status::Ok();
}

}  // namespace

size_t CmvFile::VideoPayloadBytes() const {
  size_t total = 0;
  for (const FrameRecord& f : frames) total += f.payload.size();
  return total;
}

util::StatusOr<std::vector<GopIndexEntry>> CmvFile::DeriveGopIndex(
    const std::vector<FrameRecord>& frames) {
  std::vector<GopIndexEntry> index;
  uint64_t offset = 0;
  for (size_t i = 0; i < frames.size(); ++i) {
    const FrameRecord& rec = frames[i];
    if (rec.type == FrameType::kIntra) {
      GopIndexEntry entry;
      entry.start_frame = static_cast<int>(i);
      entry.byte_offset = offset;
      index.push_back(entry);
    } else if (index.empty()) {
      return util::Status::DataLoss("stream starts with P-frame");
    }
    index.back().frame_count += 1;
    index.back().byte_size += rec.payload.size();
    offset += rec.payload.size();
  }
  return index;
}

util::Status CmvFile::ValidateForSerialize() const {
  CLASSMINER_RETURN_IF_ERROR(util::CheckU32Count(name.size(), "CMV name"));
  CLASSMINER_RETURN_IF_ERROR(
      util::CheckU32Count(frames.size(), "CMV frame"));
  for (const FrameRecord& f : frames) {
    CLASSMINER_RETURN_IF_ERROR(
        util::CheckU32Count(f.payload.size(), "CMV frame payload"));
  }
  return util::CheckU32Count(audio_pcm.size(), "CMV audio sample");
}

std::vector<uint8_t> CmvFile::Serialize() const {
  util::ByteWriter w;
  w.PutU32(kMagicV2);
  w.PutString(name);
  w.PutI32(width);
  w.PutI32(height);
  w.PutF64(fps);
  w.PutI32(quality);
  w.PutI32(gop_size);

  w.PutU32(static_cast<uint32_t>(frames.size()));
  for (const FrameRecord& f : frames) {
    w.PutU8(static_cast<uint8_t>(f.type));
    w.PutU32(static_cast<uint32_t>(f.payload.size()));
    w.PutBytes(f.payload.data(), f.payload.size());
    w.PutU32(RecordCrc(f.type, f.payload));
  }

  w.PutI32(audio_sample_rate);
  w.PutU32(static_cast<uint32_t>(audio_pcm.size()));
  for (float s : audio_pcm) {
    uint32_t bits;
    std::memcpy(&bits, &s, sizeof(bits));
    w.PutU32(bits);
  }

  // Trailing GOP-index section, derived from the frame records; Parse
  // checks a stored one against the same derivation. Omitted when the
  // records derive no index.
  const util::StatusOr<std::vector<GopIndexEntry>> gops =
      DeriveGopIndex(frames);
  if (gops.ok() && !gops->empty()) {
    w.PutU32(kGopIndexMagic);
    w.PutU32(static_cast<uint32_t>(gops->size()));
    for (const GopIndexEntry& g : *gops) {
      w.PutI32(g.start_frame);
      w.PutI32(g.frame_count);
      w.PutU64(g.byte_offset);
      w.PutU64(g.byte_size);
    }
  }
  return w.Release();
}

util::StatusOr<CmvFile> CmvFile::Parse(const std::vector<uint8_t>& bytes) {
  CLASSMINER_RETURN_IF_ERROR(util::FailPoint::Check("codec.container.parse"));
  util::ByteReader r(bytes);
  CmvFile file;
  CLASSMINER_RETURN_IF_ERROR(ParseHeader(&r, &file));

  r.set_section("frames");
  util::StatusOr<uint32_t> frame_count = r.GetU32();
  if (!frame_count.ok()) return frame_count.status();
  // Each frame record occupies at least kMinRecordBytes; a larger claim
  // cannot be satisfied by the remaining buffer (guards hostile reserve
  // sizes).
  if (*frame_count > r.remaining() / kMinRecordBytes) {
    return r.Corrupt("frame count exceeds container size");
  }
  file.frames.reserve(*frame_count);
  for (uint32_t i = 0; i < *frame_count; ++i) {
    r.set_section("frames[" + std::to_string(i) + "]");
    FrameRecord rec;
    CLASSMINER_RETURN_IF_ERROR(ParseFrameRecord(&r, &rec));
    file.frames.push_back(std::move(rec));
  }

  CLASSMINER_RETURN_IF_ERROR(ParseAudio(&r, &file));
  // A container without the index section holds nothing to check; every
  // decode derives its GOPs from the frame records.
  if (r.remaining() > 0) {
    CLASSMINER_RETURN_IF_ERROR(ParseGopIndex(&r, file.frames));
  }
  return file;
}

util::StatusOr<CmvFile> CmvFile::ParseBestEffort(
    const std::vector<uint8_t>& bytes, util::SalvageReport* report) {
  util::SalvageReport local;
  if (report == nullptr) report = &local;
  util::ByteReader r(bytes);
  CmvFile file;
  // Nothing precedes the header, so a damaged header is unrecoverable.
  CLASSMINER_RETURN_IF_ERROR(ParseHeader(&r, &file));

  r.set_section("frames");
  util::StatusOr<uint32_t> frame_count = r.GetU32();
  if (!frame_count.ok()) return frame_count.status();
  // The declared count is untrusted; reserve only what could possibly fit.
  const uint32_t plausible = static_cast<uint32_t>(
      std::min<size_t>(*frame_count, r.remaining() / kMinRecordBytes));
  file.frames.reserve(plausible);
  bool truncated = false;       // at least one record span was lost
  bool trailer_parsed = false;  // audio (+ index length) recovered via resync
  uint32_t parsed = 0;
  for (uint32_t i = 0; i < *frame_count && !trailer_parsed; ++i) {
    r.set_section("frames[" + std::to_string(i) + "]");
    const size_t record_start = r.position();
    FrameRecord rec;
    const util::Status record = ParseFrameRecord(&r, &rec);
    if (record.ok()) {
      file.frames.push_back(std::move(rec));
      ++parsed;
      continue;
    }
    // The cursor may in fact be sitting on the trailer: an earlier resync
    // skipped records, so the declared count overshoots (or the count field
    // itself was corrupted upward). The exact-length structural check makes
    // a false positive here as unlikely as a CRC collision.
    if (TryTrailerAt(bytes, record_start, &file)) {
      trailer_parsed = true;
      break;
    }
    // Genuine tear: everything from record_start until the next confirmed
    // sync point is unframed bytes.
    truncated = true;
    report->AddNote("frames: " + record.message());
    // Scan forward for the next checksum-confirmed I-frame record
    // (a P-frame could not decode without its reference, so keep scanning
    // past those) or for the trailer, and resynchronise there.
    bool resynced = false;
    for (size_t scan = record_start + 1; scan < bytes.size(); ++scan) {
      FrameRecord candidate;
      size_t end = 0;
      if (TryRecordAt(bytes, scan, &candidate, &end) &&
          candidate.type == FrameType::kIntra) {
        report->bytes_dropped += scan - record_start;
        report->resync_points += 1;
        report->AddNote("frames: resynchronised onto checksum-confirmed "
                        "I-frame at byte offset " +
                        std::to_string(scan) + " (dropped " +
                        std::to_string(scan - record_start) + " bytes)");
        file.frames.push_back(std::move(candidate));
        ++parsed;
        (void)r.SeekTo(end);
        resynced = true;
        break;
      }
      if (TryTrailerAt(bytes, scan, &file)) {
        report->bytes_dropped += scan - record_start;
        report->resync_points += 1;
        report->AddNote("frames: resynchronised onto trailer at byte "
                        "offset " +
                        std::to_string(scan) + " (dropped " +
                        std::to_string(scan - record_start) + " bytes)");
        trailer_parsed = true;
        resynced = true;
        break;
      }
    }
    if (!resynced) {
      // No confirmed sync point behind the tear; the rest is lost.
      report->bytes_dropped += bytes.size() - record_start;
      break;
    }
  }
  if (parsed < *frame_count) {
    report->items_dropped += static_cast<int>(*frame_count - parsed);
  }

  // A stream must open with an I-frame to decode; drop any leading P-run
  // (an isolated corruption can fake one by flipping the first type byte —
  // that case surfaces as a torn record above instead).
  size_t leading_p = 0;
  while (leading_p < file.frames.size() &&
         file.frames[leading_p].type != FrameType::kIntra) {
    ++leading_p;
  }
  if (leading_p > 0) {
    uint64_t dropped_bytes = 0;
    for (size_t i = 0; i < leading_p; ++i) {
      dropped_bytes += RecordBytes(file.frames[i]);
    }
    file.frames.erase(file.frames.begin(),
                      file.frames.begin() + static_cast<ptrdiff_t>(leading_p));
    report->bytes_dropped += dropped_bytes;
    report->items_dropped += static_cast<int>(leading_p);
    report->AddNote("frames: dropped " + std::to_string(leading_p) +
                    " leading P-frame(s) with no opening I-frame");
  }
  if (file.frames.empty() && (truncated || leading_p > 0)) {
    return util::Status::DataLoss(
        "no decodable GOP survives salvage (every frame record lost)");
  }

  if (trailer_parsed) {
    // A resynchronisation landed on the trailer: TryTrailerAt committed the
    // audio track. The stored seek index (if the file carried one) cannot
    // match a gap-ridden record list, so it is dropped.
    report->index_rebuilt = true;
  } else if (truncated) {
    file.audio_sample_rate = 0;
    file.audio_pcm.clear();
    report->audio_dropped = true;
    report->index_rebuilt = true;
    report->AddNote(
        "audio/gop_index: sections unreachable behind truncated frames");
  } else {
    const size_t audio_start = r.position();
    const util::Status audio = ParseAudio(&r, &file);
    if (!audio.ok()) {
      // The audio track is optional for mining; drop it rather than the
      // whole container. The index section behind it is gone too.
      file.audio_sample_rate = 0;
      file.audio_pcm.clear();
      report->bytes_dropped += bytes.size() - audio_start;
      report->audio_dropped = true;
      report->index_rebuilt = true;
      report->AddNote("audio: " + audio.message());
    } else if (r.remaining() > 0) {
      const size_t index_start = r.position();
      const util::Status index = ParseGopIndex(&r, file.frames);
      if (!index.ok()) {
        report->bytes_dropped += bytes.size() - index_start;
        report->index_rebuilt = true;
        report->AddNote("gop_index: " + index.message());
      }
    }
  }

  // The recovered records open with an I-frame (leading P-run dropped
  // above), so each I-frame opens one GOP.
  report->items_recovered += file.frame_count();
  report->gops_recovered += static_cast<int>(
      std::count_if(file.frames.begin(), file.frames.end(),
                    [](const FrameRecord& f) {
                      return f.type == FrameType::kIntra;
                    }));
  return file;
}

util::Status CmvFile::SaveToFile(const std::string& path) const {
  CLASSMINER_RETURN_IF_ERROR(ValidateForSerialize());
  return util::WriteFile(path, Serialize());
}

util::StatusOr<CmvFile> CmvFile::LoadFromFile(const std::string& path) {
  util::StatusOr<std::vector<uint8_t>> bytes = util::ReadFile(path);
  if (!bytes.ok()) return bytes.status();
  return Parse(*bytes);
}

util::StatusOr<CmvFile> CmvFile::LoadFromFileBestEffort(
    const std::string& path, util::SalvageReport* report) {
  util::StatusOr<std::vector<uint8_t>> bytes = util::ReadFile(path);
  if (!bytes.ok()) return bytes.status();
  return ParseBestEffort(*bytes, report);
}

}  // namespace classminer::codec
