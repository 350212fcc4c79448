#ifndef CLASSMINER_CODEC_CONTAINER_H_
#define CLASSMINER_CODEC_CONTAINER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/salvage.h"
#include "util/status.h"

namespace classminer::codec {

enum class FrameType : uint8_t { kIntra = 0, kPredicted = 1 };

// One encoded frame: type + entropy-coded payload.
struct FrameRecord {
  FrameType type = FrameType::kIntra;
  std::vector<uint8_t> payload;
};

// One entry of the per-GOP random-access index: each GOP starts at an
// I-frame and covers the run of P-frames up to (excluding) the next
// I-frame. Byte offsets address the concatenated video payload stream (the
// frame payloads in order, headers excluded). The index is a function of
// the frame records (DeriveGopIndex); the container stores it for readers
// that seek without scanning the records.
struct GopIndexEntry {
  int start_frame = 0;      // index of the GOP's opening I-frame
  int frame_count = 0;      // frames in this GOP (the I-frame + its P-run)
  uint64_t byte_offset = 0; // offset of the I-frame payload in the stream
  uint64_t byte_size = 0;   // total payload bytes of the GOP's frames

  friend bool operator==(const GopIndexEntry&, const GopIndexEntry&) =
      default;
};

// The "CMV2" container: sequence header, GOP-structured frame records, an
// optional mono PCM audio track and a trailing per-GOP seek index ("GIDX").
// This is the at-rest representation of a video in the database (the
// stand-in for the paper's MPEG-I files).
//
// Every frame record is (type u8, size u32, payload, CRC-32 u32 over
// type+payload), so a bit-flip is detected at the record that took it and
// the best-effort parser can resynchronise onto a checksum-confirmed record
// after a tear. This is the only container layout the code reads; any
// other magic is refused.
struct CmvFile {
  static constexpr uint32_t kMagicV2 = 0x32564d43;    // "CMV2"
  static constexpr uint32_t kGopIndexMagic = 0x58444947;  // "GIDX"

  std::string name;
  int width = 0;
  int height = 0;
  double fps = 25.0;
  int quality = 8;    // quantiser scale used at encode time
  int gop_size = 12;  // I-frame period

  std::vector<FrameRecord> frames;

  int audio_sample_rate = 0;       // 0 = no audio track
  std::vector<float> audio_pcm;    // mono samples in [-1, 1]

  int frame_count() const { return static_cast<int>(frames.size()); }

  // Total encoded video payload size in bytes (excludes header/audio).
  size_t VideoPayloadBytes() const;

  // Derives the GOP index from the frame records (I-frame positions and
  // payload sizes). Fails when the stream does not open with an I-frame.
  static util::StatusOr<std::vector<GopIndexEntry>> DeriveGopIndex(
      const std::vector<FrameRecord>& frames);

  // Serializability guard: every collection Serialize() writes behind a u32
  // length prefix (frame count, per-frame payload size, audio samples, the
  // name) must actually fit one, or the narrowing cast
  // would silently truncate the count into a corrupt-but-checksum-valid
  // file. Returns kInvalidArgument naming the offending field. SaveToFile
  // checks it before writing.
  util::Status ValidateForSerialize() const;

  // Writes the GIDX section from DeriveGopIndex(frames); a stream that
  // derives no index (no frames, or a leading P-frame) gets no section.
  std::vector<uint8_t> Serialize() const;
  // Strict parse: any structural damage — truncation, bad magic, a stored
  // index that disagrees with the one the frame records derive — fails
  // with DataLoss (messages carry the section name and byte offset of the
  // damage). A container without the GIDX section parses.
  static util::StatusOr<CmvFile> Parse(const std::vector<uint8_t>& bytes);

  // Best-effort parse for damaged containers: recovers the valid frame
  // prefix from a truncated or bit-flipped stream (dropping a torn trailing
  // record), drops leading undecodable P-frames and survives a corrupt
  // audio track by dropping it. After a tear it scans forward for the next
  // checksum-confirmed I-frame record (or the audio/GIDX trailer) and
  // recovers the suffix behind the damage too, itemising every dropped
  // span in `report` (resync_points counts the tears crossed). A stored
  // index that is damaged, unreachable or stale is dropped and counted as
  // rebuilt (`index_rebuilt`); `gops_recovered` counts the GOPs the
  // recovered records derive. Pass nullptr for `report` to discard it.
  // Fails only when the header is unreadable or no decodable GOP survives.
  static util::StatusOr<CmvFile> ParseBestEffort(
      const std::vector<uint8_t>& bytes, util::SalvageReport* report);

  util::Status SaveToFile(const std::string& path) const;
  static util::StatusOr<CmvFile> LoadFromFile(const std::string& path);
  static util::StatusOr<CmvFile> LoadFromFileBestEffort(
      const std::string& path, util::SalvageReport* report);
};

}  // namespace classminer::codec

#endif  // CLASSMINER_CODEC_CONTAINER_H_
