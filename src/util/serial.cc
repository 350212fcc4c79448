#include "util/serial.h"

#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "util/failpoint.h"
#include "util/retry.h"

namespace classminer::util {

void ByteWriter::PutU8(uint8_t v) { bytes_.push_back(v); }

void ByteWriter::PutU16(uint16_t v) {
  PutU8(static_cast<uint8_t>(v & 0xff));
  PutU8(static_cast<uint8_t>(v >> 8));
}

void ByteWriter::PutU32(uint32_t v) {
  for (int i = 0; i < 4; ++i) PutU8(static_cast<uint8_t>((v >> (8 * i)) & 0xff));
}

void ByteWriter::PutU64(uint64_t v) {
  for (int i = 0; i < 8; ++i) PutU8(static_cast<uint8_t>((v >> (8 * i)) & 0xff));
}

void ByteWriter::PutI32(int32_t v) { PutU32(static_cast<uint32_t>(v)); }

void ByteWriter::PutF64(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits);
}

void ByteWriter::PutBytes(const uint8_t* data, size_t size) {
  bytes_.insert(bytes_.end(), data, data + size);
}

void ByteWriter::PutString(const std::string& s) {
  PutU32(static_cast<uint32_t>(s.size()));
  PutBytes(reinterpret_cast<const uint8_t*>(s.data()), s.size());
}

Status ByteReader::Corrupt(const std::string& what) const {
  std::string message = what + " (";
  if (!section_.empty()) message += "section '" + section_ + "', ";
  message += "byte offset " + std::to_string(pos_) + " of " +
             std::to_string(size_) + ")";
  return Status::DataLoss(std::move(message));
}

StatusOr<uint8_t> ByteReader::GetU8() {
  if (pos_ >= size_) return Corrupt("read past end of buffer");
  return data_[pos_++];
}

StatusOr<uint16_t> ByteReader::GetU16() {
  if (pos_ + 2 > size_) return Corrupt("read past end of buffer");
  uint16_t v = static_cast<uint16_t>(data_[pos_]) |
               static_cast<uint16_t>(data_[pos_ + 1]) << 8;
  pos_ += 2;
  return v;
}

StatusOr<uint32_t> ByteReader::GetU32() {
  if (pos_ + 4 > size_) return Corrupt("read past end of buffer");
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 4;
  return v;
}

StatusOr<uint64_t> ByteReader::GetU64() {
  if (pos_ + 8 > size_) return Corrupt("read past end of buffer");
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 8;
  return v;
}

StatusOr<int32_t> ByteReader::GetI32() {
  StatusOr<uint32_t> v = GetU32();
  if (!v.ok()) return v.status();
  return static_cast<int32_t>(*v);
}

StatusOr<double> ByteReader::GetF64() {
  StatusOr<uint64_t> bits = GetU64();
  if (!bits.ok()) return bits.status();
  double v;
  uint64_t b = *bits;
  std::memcpy(&v, &b, sizeof(v));
  return v;
}

Status ByteReader::GetBytes(uint8_t* out, size_t size) {
  if (pos_ + size > size_) return Corrupt("read past end of buffer");
  if (size > 0) std::memcpy(out, data_ + pos_, size);  // out may be null when empty
  pos_ += size;
  return Status::Ok();
}

StatusOr<std::string> ByteReader::GetString() {
  StatusOr<uint32_t> len = GetU32();
  if (!len.ok()) return len.status();
  if (pos_ + *len > size_) return Corrupt("string exceeds buffer");
  std::string s(reinterpret_cast<const char*>(data_ + pos_), *len);
  pos_ += *len;
  return s;
}

Status ByteReader::Skip(size_t n) {
  if (pos_ + n > size_) return Corrupt("skip past end of buffer");
  pos_ += n;
  return Status::Ok();
}

Status ByteReader::SeekTo(size_t pos) {
  if (pos > size_) return Corrupt("seek past end of buffer");
  pos_ = pos;
  return Status::Ok();
}

Status CheckU32Count(size_t count, const std::string& what) {
  if (count > 0xffffffffull) {
    return Status::InvalidArgument(what + " count " + std::to_string(count) +
                                   " does not fit a u32 length prefix");
  }
  return Status::Ok();
}

namespace {

// Resume loop around fwrite: a transfer interrupted by a signal (EINTR)
// continues where it stopped instead of failing the whole operation. Any
// other short write is a genuine error.
bool WriteFully(std::FILE* f, const uint8_t* data, size_t size) {
  size_t done = 0;
  while (done < size) {
    const size_t n = std::fwrite(data + done, 1, size - done, f);
    done += n;
    if (done == size) break;
    if (std::ferror(f) != 0 && errno == EINTR) {
      std::clearerr(f);
      continue;
    }
    if (n == 0) return false;
  }
  return true;
}

// Resume loop around fread, same EINTR semantics; end-of-file before `size`
// bytes is a genuine short read.
bool ReadFully(std::FILE* f, uint8_t* data, size_t size) {
  size_t done = 0;
  while (done < size) {
    const size_t n = std::fread(data + done, 1, size - done, f);
    done += n;
    if (done == size) break;
    if (std::ferror(f) != 0 && errno == EINTR) {
      std::clearerr(f);
      continue;
    }
    if (n == 0) return false;
  }
  return true;
}

// fsync restarted across signal interruptions.
int FsyncRetry(int fd) {
  int rc;
  do {
    rc = fsync(fd);
  } while (rc != 0 && errno == EINTR);
  return rc;
}

// One staged attempt of the atomic write sequence:
//   stage bytes in `path + ".tmp"` → flush + fsync → rename the temp over
//   `path`.
// Each step is preceded by its fail-point site so crash tests can tear the
// sequence at any point; any failure unlinks the temp file, leaving the
// destination exactly as the crash would.
Status AtomicWriteFileOnce(const std::string& path,
                           const std::vector<uint8_t>& bytes) {
  const std::string tmp = path + ".tmp";
  Status status = [&]() -> Status {
    CLASSMINER_RETURN_IF_ERROR(
        FailPoint::Check("serial.atomic_write.tmp_write"));
    std::FILE* f = std::fopen(tmp.c_str(), "wb");
    if (f == nullptr) return Status::NotFound("cannot open for write: " + tmp);
    if (!bytes.empty() && !WriteFully(f, bytes.data(), bytes.size())) {
      std::fclose(f);
      return Status::DataLoss("short write: " + tmp);
    }
    Status synced = FailPoint::Check("serial.atomic_write.fsync");
    if (synced.ok() && (std::fflush(f) != 0 || FsyncRetry(fileno(f)) != 0)) {
      synced = Status::Unavailable("fsync failed: " + tmp);
    }
    std::fclose(f);
    CLASSMINER_RETURN_IF_ERROR(synced);
    CLASSMINER_RETURN_IF_ERROR(FailPoint::Check("serial.atomic_write.rename"));
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
      return Status::Unavailable("cannot rename " + tmp + " to " + path);
    }
    return Status::Ok();
  }();
  if (!status.ok()) std::remove(tmp.c_str());
  return status;
}

Status WriteFileOnce(const std::string& path,
                     const std::vector<uint8_t>& bytes) {
  CLASSMINER_RETURN_IF_ERROR(FailPoint::Check("serial.write_file"));
  return AtomicWriteFileOnce(path, bytes);
}

StatusOr<std::vector<uint8_t>> ReadFileOnce(const std::string& path) {
  CLASSMINER_RETURN_IF_ERROR(FailPoint::Check("serial.read_file"));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::NotFound("cannot open for read: " + path);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<uint8_t> bytes(static_cast<size_t>(size));
  const bool read_ok =
      bytes.empty() || ReadFully(f, bytes.data(), bytes.size());
  std::fclose(f);
  if (!read_ok) return Status::DataLoss("short read: " + path);
  return bytes;
}

// Cheap defaults for local file I/O: three quick attempts absorb injected /
// momentary kUnavailable conditions without noticeable latency on the
// deterministic failure paths (which return after the first attempt).
RetryOptions FileRetryOptions() {
  RetryOptions options;
  options.max_attempts = 3;
  options.initial_backoff_ms = 0.5;
  options.max_backoff_ms = 8.0;
  return options;
}

}  // namespace

Status WriteFile(const std::string& path, const std::vector<uint8_t>& bytes) {
  return Retry(FileRetryOptions(),
               [&path, &bytes] { return WriteFileOnce(path, bytes); });
}

Status AtomicWriteFile(const std::string& path,
                       const std::vector<uint8_t>& bytes) {
  return Retry(FileRetryOptions(), [&path, &bytes] {
    return AtomicWriteFileOnce(path, bytes);
  });
}

StatusOr<std::vector<uint8_t>> ReadFile(const std::string& path) {
  return RetryOr<std::vector<uint8_t>>(
      FileRetryOptions(), [&path] { return ReadFileOnce(path); });
}

}  // namespace classminer::util
