#ifndef CLASSMINER_INDEX_PERSIST_H_
#define CLASSMINER_INDEX_PERSIST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "index/database.h"
#include "util/salvage.h"
#include "util/serial.h"
#include "util/status.h"

namespace classminer::index {

// Entry codec of the mined database (features + structure + events; raw
// media stays in CMV containers), plus the legacy whole-file "CMDB" codec.
//
// The on-disk library is the CMSL shard tier (index/shard.h); its upsert
// records are the framed entries below. CMDB is the older monolithic
// format, kept only as a read-only import:
//   v1  bodies written back to back, no per-video degraded flag
//   v2  appends a per-video degraded flag to each body
//   v3  frames every video entry as (entry magic "CMVE", body size u32,
//       CRC-32 u32, body) so a bit-flip is detected at the entry that took
//       it and a salvage parse can resynchronise onto the next
//       checksum-confirmed entry after a tear
// OpenDatabaseAnyGeneration (index/shard.h) is the one place that parses a
// CMDB root; the next rewrite of that path migrates it to a 1-shard CMSL
// library. SerializeDatabase emits v3 bytes, which no library path writes
// to disk: it measures entry sizes and builds legacy fixtures.

// Serializability guard: every count SerializeDatabase writes behind a u32
// length prefix (video count, per-entry shot/group/scene/cluster/event
// counts, string lengths) and every framed entry body size must fit 32
// bits, or the narrowing cast would silently truncate it into a
// corrupt-but-checksum-valid file. Returns kInvalidArgument naming the
// offending entry and field; SaveDatabase checks it before writing.
util::Status ValidateForSerialize(const VideoDatabase& db);

std::vector<uint8_t> SerializeDatabase(const VideoDatabase& db);
// Strict parse: any structural damage — including a v3 entry whose stored
// CRC-32 does not match its body — fails with DataLoss (messages carry the
// section name and byte offset of the damage).
util::StatusOr<VideoDatabase> ParseDatabase(const std::vector<uint8_t>& bytes);

// Best-effort parse for a damaged database file: recovers the valid video
// prefix, and for v3 files scans past a torn entry for the next
// checksum-confirmed entry frame and recovers the suffix behind the damage
// too (dropped spans itemised in `report`, tears crossed counted in
// `report->resync_points`). Fails only when the header is unreadable.
util::StatusOr<VideoDatabase> ParseDatabaseSalvage(
    const std::vector<uint8_t>& bytes, util::SalvageReport* report);

namespace internal {

// The magic that opens a legacy CMDB file, "CMDB".
inline constexpr uint32_t kLegacyDatabaseMagic = 0x42444d43;

// The entry-frame magic "CMVE": a shard log's upsert record, and the
// framing of every entry in a CMDB v3 file.
inline constexpr uint32_t kEntryFrameMagic = 0x45564d43;

// Serializes one framed v3 entry (magic, body size u32, CRC-32 u32, body).
void PutFramedEntry(util::ByteWriter* w, const VideoEntry& v);
// Parses one framed v3 entry at the cursor, verifying the stored CRC-32
// before touching the body and requiring exact body consumption.
util::Status GetFramedEntry(util::ByteReader* r, VideoEntry* out);
// u32-narrowing guard for a single entry (every count PutFramedEntry writes
// behind a u32 prefix, plus the framed body size itself); `at` labels the
// entry in error messages.
util::Status ValidateEntry(const VideoEntry& v, const std::string& at);

}  // namespace internal

}  // namespace classminer::index

#endif  // CLASSMINER_INDEX_PERSIST_H_
