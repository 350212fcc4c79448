#ifndef CLASSMINER_SERVER_RESULT_CACHE_H_
#define CLASSMINER_SERVER_RESULT_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/classminer.h"
#include "util/status.h"

namespace classminer::server {

// Shared mining-result cache with single-flight deduplication: N sessions
// asking classminerd to mine the same container with the same options cost
// one pipeline run. The first asker leads (runs the op and hands the result
// in), everyone who arrives while the run is in flight joins and is woken
// with the leader's bytes, and later askers hit the stored entry. A cache
// hit is byte-identical to a fresh run by construction — the entry stores
// the exact status + report the leader produced, and mining is
// deterministic for a fixed (container bytes, canonical options) pair.
//
// Keys incorporate the container's mtime and size, so touching or rewriting
// a file naturally invalidates its entries (the stale key is simply never
// asked for again and ages out of the LRU).

// Canonical fingerprint of the MiningOptions fields that influence mined
// *output*. Execution shape — thread_count, and the pool and cancellation
// token a run takes from its context — is deliberately excluded: mining is
// bit-identical across it (core/classminer.h), so two requests differing
// only there must share a cache entry. structure_only is excluded too: the ops set it themselves,
// never from the server's options, and only where the report (the cached
// bytes) does not depend on it (see server/ops.cc LoadAndMine).
std::string CanonicalMiningFingerprint(const core::MiningOptions& options);

// Cache key for one mining-backed request: container identity (path +
// mtime + size) · op signature (kind + flags, e.g. "mine:fast=0,strict=1")
// · options fingerprint. Fails when the container cannot be stat'ed; the
// caller then bypasses the cache and lets the op report the real error.
util::StatusOr<std::string> MiningCacheKey(
    const std::string& path, const std::string& op_signature,
    const core::MiningOptions& options);

// Exactly what a fresh run would answer: the op's status and report body.
struct CachedResult {
  util::StatusCode code = util::StatusCode::kOk;
  std::string message;
  std::string body;

  size_t bytes() const { return message.size() + body.size(); }
};

class ResultCache {
 public:
  struct Options {
    size_t max_bytes = 64u << 20;  // sum of cached entry payloads
    size_t max_entries = 256;
  };

  struct Stats {
    uint64_t hits = 0;        // answered from a stored entry
    uint64_t joined = 0;      // attached to an in-flight leader
    uint64_t misses = 0;      // became the leader (one pipeline run each)
    uint64_t insertions = 0;  // entries stored
    uint64_t evictions = 0;   // entries LRU-evicted
  };

  // Wakes one joined waiter when its leader completes. `result` is the
  // leader's answer, valid only for the duration of the call; nullptr means
  // the leader finished without a shareable result (cancelled, deadline
  // expired) — the waiter must redispatch its own run. Waiters fire outside
  // the cache lock, on the leader's thread.
  using Waiter = std::function<void(const CachedResult* result)>;

  enum class Admission {
    kHit,     // *out filled from the cache
    kLead,    // caller runs the op and must call Complete(key, ...)
    kJoined,  // waiter retained; it fires when the leader completes
  };

  explicit ResultCache(Options options) : options_(options) {}

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  // Single-flight admission for `key`.
  Admission JoinOrLead(const std::string& key, CachedResult* out,
                       Waiter waiter);

  // Leader hand-in. When `cacheable`, the result is stored (subject to the
  // LRU bounds) and every joined waiter receives it; otherwise the waiters
  // receive nullptr and redispatch. Exactly one Complete per kLead.
  void Complete(const std::string& key, const CachedResult& result,
                bool cacheable);

  Stats stats() const;

 private:
  struct Entry {
    std::string key;
    CachedResult result;
  };

  void EvictOverflowLocked();

  const Options options_;
  mutable std::mutex mu_;
  // LRU: front = most recent. The map points into the list.
  std::list<Entry> lru_;
  std::unordered_map<std::string, std::list<Entry>::iterator> by_key_;
  size_t cached_bytes_ = 0;
  std::unordered_map<std::string, std::vector<Waiter>> inflight_;
  Stats stats_;
};

}  // namespace classminer::server

#endif  // CLASSMINER_SERVER_RESULT_CACHE_H_
