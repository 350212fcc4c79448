#ifndef CLASSMINER_INDEX_PERSIST_H_
#define CLASSMINER_INDEX_PERSIST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "index/database.h"
#include "util/serial.h"
#include "util/status.h"

namespace classminer::index {

// Entry codec of the mined database (features + structure + events; raw
// media stays in CMV containers).
//
// The on-disk library is the CMSL shard tier (index/shard.h); its upsert
// records are the framed entries below: entry magic "CMVE", body size u32,
// CRC-32 u32 over the body, body. The body ends with the per-video degraded
// flag. A bit-flip is detected at the entry that took it, and the shard
// log's salvage scan resynchronises onto the next checksum-confirmed frame.

// Serializability guard: every count SerializeDatabase writes behind a u32
// length prefix (video count, per-entry shot/group/scene/cluster/event
// counts, string lengths) and every framed entry body size must fit 32
// bits, or the narrowing cast would silently truncate it into a
// corrupt-but-checksum-valid file. Returns kInvalidArgument naming the
// offending entry and field; SaveDatabase checks it before writing.
util::Status ValidateForSerialize(const VideoDatabase& db);

// The whole database as one byte string: header "CMDB", version 3, video
// count, then one framed entry per video. Nothing parses these bytes and
// no library path writes them to disk; they are a deterministic digest and
// size measure of mined entries (golden CRCs, perfbench's mined_digest and
// entry sizes).
std::vector<uint8_t> SerializeDatabase(const VideoDatabase& db);

namespace internal {

// The entry-frame magic "CMVE": a shard log's upsert record.
inline constexpr uint32_t kEntryFrameMagic = 0x45564d43;

// Serializes one framed entry (magic, body size u32, CRC-32 u32, body).
void PutFramedEntry(util::ByteWriter* w, const VideoEntry& v);
// Parses one framed entry at the cursor, verifying the stored CRC-32
// before touching the body and requiring exact body consumption.
util::Status GetFramedEntry(util::ByteReader* r, VideoEntry* out);
// u32-narrowing guard for a single entry (every count PutFramedEntry writes
// behind a u32 prefix, plus the framed body size itself); `at` labels the
// entry in error messages.
util::Status ValidateEntry(const VideoEntry& v, const std::string& at);

}  // namespace internal

}  // namespace classminer::index

#endif  // CLASSMINER_INDEX_PERSIST_H_
