#include "util/failpoint.h"

#include <iterator>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "util/rng.h"

namespace classminer::util {
namespace {

struct SiteState {
  FailPoint::Spec spec;
  Rng rng{1};
  int64_t checks = 0;
  int64_t failures = 0;
};

struct Registry {
  std::mutex mutex;
  std::unordered_map<std::string, SiteState> sites;
};

Registry& GetRegistry() {
  static Registry* registry = new Registry();
  return *registry;
}

// Fast-path gate: number of armed sites. Check() bails on zero with one
// relaxed load, so unarmed builds never touch the registry mutex.
std::atomic<int> g_armed_count{0};

// Every site name passed to FailPoint::Check anywhere in the library,
// sorted. The registry only tracks armed sites, so this static catalogue is
// what lets chaos rigs discover what they can arm.
constexpr const char* kKnownSites[] = {
    "codec.container.parse",
    "codec.decode_video",
    "codec.gop_reader.decode_gop",
    "core.stage.audio",
    "core.stage.cues",
    "core.stage.events",
    "index.shard.append.fsync",
    "index.shard.append.write",
    "index.shard.compact.fsync",
    "index.shard.compact.manifest",
    "index.shard.compact.rename",
    "index.shard.compact.write",
    "index.shard.open",
    "serial.atomic_write.fsync",
    "serial.atomic_write.rename",
    "serial.atomic_write.tmp_write",
    "serial.read_file",
    "serial.write_file",
    "server.accept.reset",
    "server.wake.drop",
    "server.wire.frame.dup",
    "server.wire.recv.reset",
    "server.wire.send.delay",
    "server.wire.send.short",
    "server.wire.send.torn",
};

}  // namespace

void FailPoint::Arm(std::string_view site, Spec spec) {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  SiteState state;
  state.rng = Rng(spec.seed);
  state.spec = std::move(spec);
  auto [it, inserted] =
      registry.sites.insert_or_assign(std::string(site), std::move(state));
  (void)it;
  if (inserted) g_armed_count.fetch_add(1, std::memory_order_relaxed);
}

void FailPoint::Disarm(std::string_view site) {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  if (registry.sites.erase(std::string(site)) > 0) {
    g_armed_count.fetch_sub(1, std::memory_order_relaxed);
  }
}

void FailPoint::DisarmAll() {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  g_armed_count.fetch_sub(static_cast<int>(registry.sites.size()),
                          std::memory_order_relaxed);
  registry.sites.clear();
}

bool FailPoint::AnyArmed() {
  return g_armed_count.load(std::memory_order_relaxed) > 0;
}

std::vector<std::string> FailPoint::KnownSites() {
  return std::vector<std::string>(std::begin(kKnownSites),
                                  std::end(kKnownSites));
}

Status FailPoint::Check(std::string_view site) {
  if (!AnyArmed()) return Status();
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  auto it = registry.sites.find(std::string(site));
  if (it == registry.sites.end()) return Status();
  SiteState& state = it->second;
  const Spec& spec = state.spec;
  ++state.checks;
  if (spec.max_failures >= 0 && state.failures >= spec.max_failures) {
    return Status();
  }
  if (spec.every_n > 1 && state.checks % spec.every_n != 0) return Status();
  if (spec.probability < 1.0 && !state.rng.Bernoulli(spec.probability)) {
    return Status();
  }
  ++state.failures;
  std::string message = "failpoint '" + std::string(site) + "' fired";
  if (!spec.message.empty()) {
    message += ": ";
    message += spec.message;
  }
  return Status(spec.code, std::move(message));
}

int64_t FailPoint::CheckCount(std::string_view site) {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  auto it = registry.sites.find(std::string(site));
  return it == registry.sites.end() ? 0 : it->second.checks;
}

int64_t FailPoint::FailureCount(std::string_view site) {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  auto it = registry.sites.find(std::string(site));
  return it == registry.sites.end() ? 0 : it->second.failures;
}

}  // namespace classminer::util
