#ifndef CLASSMINER_UTIL_ARENA_H_
#define CLASSMINER_UTIL_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory_resource>
#include <mutex>
#include <vector>

namespace classminer::util {

// Chunked bump allocator for per-run scratch: frame planes, residual
// buffers and feature vectors that live exactly as long as one mining run
// (or one decoded GOP). Allocation is a pointer bump inside the current
// chunk; deallocation is a no-op; Reset() recycles the chunks for the next
// run without returning them to the OS. This kills the per-frame
// malloc/free churn the pipeline metrics attribute to decode and feature
// stages.
//
// The arena is a std::pmr::memory_resource, so standard containers opt in
// via std::pmr::vector<T> (see codec::Plane): an arena-backed container
// *moves* within the run keeping arena storage, while *copies* fall back to
// the default heap resource — which is what makes escaping a value out of a
// run safe by default.
//
// Thread safety: concurrent Allocate calls are serialised by an internal
// mutex (stages of one run share the arena across pool workers). Reset()
// and destruction must be externally quiesced: no other thread may hold or
// use memory from the arena once Reset begins — the run barrier at the end
// of MineVideo / a GOP decode provides exactly that.
//
// Under AddressSanitizer the recycled chunks are poisoned on Reset and
// unpoisoned allocation-by-allocation, so use-after-reset is caught as a
// use-after-poison instead of silently reading the next run's bytes.
class Arena final : public std::pmr::memory_resource {
 public:
  static constexpr size_t kDefaultChunkBytes = size_t{64} << 10;  // 64 KiB
  static constexpr size_t kMaxChunkBytes = size_t{8} << 20;       // 8 MiB

  explicit Arena(size_t initial_chunk_bytes = kDefaultChunkBytes);
  ~Arena() override;

  Arena(Arena&& other) noexcept;
  Arena& operator=(Arena&& other) noexcept;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  // Bump-allocates `bytes` aligned to `align` (a power of two). Never
  // returns null; grows a new (geometrically larger) chunk when the current
  // one is exhausted. Zero-byte requests return a unique non-null pointer.
  void* Allocate(size_t bytes, size_t align = alignof(std::max_align_t));

  // Recycles every chunk for reuse: chunks are kept, cursors rewind, and
  // the reclaimed spans are poisoned under ASan. Callers must guarantee no
  // live references into the arena survive the call.
  void Reset();

  // Bytes handed out since construction/Reset (sum of aligned requests).
  size_t bytes_allocated() const;
  // Bytes of chunk capacity currently owned (survives Reset).
  size_t bytes_reserved() const;
  // Allocation calls since construction/Reset.
  size_t allocation_count() const;

 private:
  struct Chunk {
    uint8_t* base = nullptr;
    size_t capacity = 0;
    size_t used = 0;
  };

  void* AllocateLocked(size_t bytes, size_t align);

  void* do_allocate(size_t bytes, size_t align) override {
    return Allocate(bytes, align);
  }
  void do_deallocate(void*, size_t, size_t) override {}  // bulk-freed
  bool do_is_equal(
      const std::pmr::memory_resource& other) const noexcept override {
    return this == &other;
  }

  mutable std::mutex mutex_;
  std::vector<Chunk> chunks_;
  size_t current_ = 0;  // index of the chunk being bumped
  size_t next_chunk_bytes_;
  size_t allocated_ = 0;
  size_t allocations_ = 0;
};

}  // namespace classminer::util

#endif  // CLASSMINER_UTIL_ARENA_H_
