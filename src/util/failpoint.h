#ifndef CLASSMINER_UTIL_FAILPOINT_H_
#define CLASSMINER_UTIL_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace classminer::util {

// ---------------------------------------------------------------------------
// Deterministic fault injection for robustness tests.
//
// Production code marks fallible sites with a named check:
//
//   CLASSMINER_RETURN_IF_ERROR(util::FailPoint::Check("serial.read_file"));
//
// Tests arm a site with a trigger spec (fail once, fail every Nth check,
// fail with probability p under a fixed seed, with a chosen error code) and
// the site starts returning the injected Status. Nothing is armed in normal
// runs: Check first reads one relaxed atomic and returns OK without taking
// any lock, so the instrumented hot paths pay (almost) nothing.
//
// Site naming convention: "<layer>.<component>[.<operation>]", e.g.
// "serial.read_file", "codec.container.parse", "codec.gop_reader.decode",
// "index.shard.append.write", "core.stage.audio". See DESIGN.md ("Failure
// taxonomy & degraded mode") for the catalogue of instrumented sites.
class FailPoint {
 public:
  // How an armed site decides to fire. The checks composing one Spec are
  // evaluated in order: only every `every_n`-th check is a candidate, a
  // candidate fires with `probability` (drawn from a deterministic
  // seeded generator), and at most `max_failures` total triggers fire
  // (-1 = unlimited). Defaults fire on every check, forever.
  struct Spec {
    StatusCode code = StatusCode::kUnavailable;
    std::string message;      // appended to the site name in the Status
    int every_n = 1;          // fire only on check #N, #2N, ... (1 = all)
    double probability = 1.0; // chance a candidate check fires
    uint64_t seed = 1;        // seeds the per-site deterministic RNG
    int max_failures = -1;    // total triggers before the site goes quiet

    static Spec Once(StatusCode code = StatusCode::kUnavailable) {
      Spec spec;
      spec.code = code;
      spec.max_failures = 1;
      return spec;
    }
    static Spec Always(StatusCode code = StatusCode::kUnavailable) {
      Spec spec;
      spec.code = code;
      return spec;
    }
    static Spec EveryN(int n, StatusCode code = StatusCode::kUnavailable) {
      Spec spec;
      spec.code = code;
      spec.every_n = n;
      return spec;
    }
    static Spec WithProbability(double p, uint64_t seed,
                                StatusCode code = StatusCode::kUnavailable) {
      Spec spec;
      spec.code = code;
      spec.probability = p;
      spec.seed = seed;
      return spec;
    }
  };

  // Arms (or re-arms, resetting counters) a site. Thread-safe.
  static void Arm(std::string_view site, Spec spec);
  static void Disarm(std::string_view site);
  static void DisarmAll();

  // OK when the site is unarmed or the spec decides not to fire; the
  // injected Status otherwise. This is the only call production code makes.
  static Status Check(std::string_view site);

  // Observability for tests: checks observed / failures injected at an
  // armed site (0 for unknown sites).
  static int64_t CheckCount(std::string_view site);
  static int64_t FailureCount(std::string_view site);

  // True when at least one site is armed (the fast-path gate, exposed for
  // tests).
  static bool AnyArmed();

  // The compiled-in catalogue of every fail-point site name in the binary
  // (armed or not), sorted and duplicate-free. Chaos rigs enumerate this
  // (`classminerd --failpoints list`, `classminer failpoints`) instead of
  // hardcoding site names that drift out of date. Adding a Check() call to
  // production code means adding its site here.
  static std::vector<std::string> KnownSites();

  // RAII arming for tests: disarms the site (only this one) on scope exit.
  class Scoped {
   public:
    Scoped(std::string_view site, Spec spec) : site_(site) {
      Arm(site_, std::move(spec));
    }
    ~Scoped() { Disarm(site_); }
    Scoped(const Scoped&) = delete;
    Scoped& operator=(const Scoped&) = delete;

   private:
    std::string site_;
  };
};

}  // namespace classminer::util

#endif  // CLASSMINER_UTIL_FAILPOINT_H_
