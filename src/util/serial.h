#ifndef CLASSMINER_UTIL_SERIAL_H_
#define CLASSMINER_UTIL_SERIAL_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

namespace classminer::util {

// Little-endian binary writer into an owned byte buffer. Used by the codec
// container and database persistence.
class ByteWriter {
 public:
  void PutU8(uint8_t v);
  void PutU16(uint16_t v);
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI32(int32_t v);
  void PutF64(double v);
  void PutBytes(const uint8_t* data, size_t size);
  void PutString(const std::string& s);  // u32 length prefix + bytes

  const std::vector<uint8_t>& bytes() const { return bytes_; }
  std::vector<uint8_t> Release() { return std::move(bytes_); }
  size_t size() const { return bytes_.size(); }

 private:
  std::vector<uint8_t> bytes_;
};

// Little-endian binary reader over a borrowed byte buffer. Reads past the
// end return DATA_LOSS rather than aborting, so corrupt files surface as
// Status errors. Error messages carry the byte offset and — when the parser
// labels the region it is walking via set_section() — the section name, so
// a salvage report can say exactly where a container went bad.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit ByteReader(const std::vector<uint8_t>& bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  // Labels the region subsequent reads belong to ("header", "frames[3]",
  // "gop_index", ...); included in every short-read error until relabelled.
  void set_section(std::string section) { section_ = std::move(section); }
  const std::string& section() const { return section_; }

  StatusOr<uint8_t> GetU8();
  StatusOr<uint16_t> GetU16();
  StatusOr<uint32_t> GetU32();
  StatusOr<uint64_t> GetU64();
  StatusOr<int32_t> GetI32();
  StatusOr<double> GetF64();
  Status GetBytes(uint8_t* out, size_t size);
  StatusOr<std::string> GetString();

  size_t position() const { return pos_; }
  size_t remaining() const { return size_ - pos_; }
  // Raw access to the underlying buffer (checksummed formats hash a span
  // before parsing it; salvage scanners probe candidate sync points).
  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  Status Skip(size_t n);
  // Repositions the cursor absolutely (salvage parsers use it to jump onto
  // a resynchronisation point found by scanning the raw buffer).
  Status SeekTo(size_t pos);

  // DATA_LOSS status carrying `what`, the current offset and the section
  // label (if any). Parsers use it for their own structural errors so those
  // are as locatable as short reads.
  Status Corrupt(const std::string& what) const;

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  std::string section_;
};

// Guards the u32 length prefixes used throughout the on-disk and wire
// formats: a size_t count that does not fit in 32 bits would be silently
// truncated by `static_cast<uint32_t>` at write time and produce a
// corrupt-but-checksum-valid file. Returns kInvalidArgument naming `what`
// when `count` exceeds UINT32_MAX; serializers call it before narrowing.
Status CheckU32Count(size_t count, const std::string& what);

// Whole-file helpers. Both run through util::Retry (bounded attempts,
// exponential backoff) so transient failures — injected through the
// "serial.read_file" / "serial.write_file" fail points, or genuine
// kUnavailable conditions — are absorbed instead of failing the caller.
// Short reads/writes interrupted by a signal (EINTR) are resumed in place,
// so a signal mid-transfer never surfaces as a spurious I/O error that the
// retry layer would re-run from scratch.
// WriteFile writes through the atomic path below, so a failed (or retried)
// attempt never exposes a partially written destination to a concurrent
// reader and never destroys the previous contents of `path`.
Status WriteFile(const std::string& path, const std::vector<uint8_t>& bytes);
StatusOr<std::vector<uint8_t>> ReadFile(const std::string& path);

// Crash-consistent whole-file write: the bytes are staged in
// `path + ".tmp"`, flushed and fsync'ed, then renamed over `path` in one
// atomic step. A crash (or injected failure) at any point leaves either
// the complete old file or the complete new one at `path` — never a torn
// mixture; a failed attempt unlinks the temp file. Honours fail-point
// sites "serial.atomic_write.{tmp_write,fsync,rename}" (one per step) and
// retries transient failures like WriteFile.
Status AtomicWriteFile(const std::string& path,
                       const std::vector<uint8_t>& bytes);

}  // namespace classminer::util

#endif  // CLASSMINER_UTIL_SERIAL_H_
