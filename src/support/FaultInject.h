//===- FaultInject.h - Deterministic fault-injection points ----*- C++ -*--===//
//
// Named, seeded fault points compiled into the hot paths that are supposed
// to degrade gracefully (disk-cache IO, program deserialization, arena
// allocation, worker-task dispatch), so the graceful-degradation claims in
// docs/robustness.md are tested rather than asserted.
//
// Two determinism disciplines, matching the two kinds of call site:
//
//   * shouldFail(Site, Key): pure hash of (site seed, caller key) — no
//     state. Call sites that run concurrently (worker tasks) pass their
//     serial item index as the key, so exactly the same items fault at
//     NumWorkers 1, 2, and 8.
//   * shouldFailNext(Site): hashes a per-site monotonic counter —
//     deterministic for serial call sites (the cache talks to disk under
//     its own lock) or at rate 1.0.
//
// Activation is via TAWA_FAULTS="site:rate:seed[,site:rate:seed...]"
// (rate in [0,1], seed a nonnegative integer; see docs/robustness.md), or
// configure() from tests. When nothing is armed the per-call cost is one
// relaxed atomic load of a bool — enabled() is checked before any hashing
// — so the framework stays compiled into release builds.
//
//===----------------------------------------------------------------------===//

#ifndef TAWA_SUPPORT_FAULTINJECT_H
#define TAWA_SUPPORT_FAULTINJECT_H

#include <atomic>
#include <cstdint>
#include <string>

namespace tawa {
namespace faults {

enum class Site {
  CacheRead,   ///< ProgramCache disk load: simulated read-IO failure.
  CacheWrite,  ///< ProgramCache disk save: simulated write-IO failure.
  Deserialize, ///< Serialized program bytes corrupted before decoding.
  ArenaAlloc,  ///< TileArena::alloc throws std::bad_alloc.
  WorkerTask,  ///< CTA execution task throws (crash-containment drill).
  SandboxSpawn,      ///< Supervisor fails to spawn a sandbox process.
  SandboxKill,       ///< Sandbox child raises SIGKILL on itself mid-request.
  SandboxHang,       ///< Sandbox child freezes (heartbeat stops) mid-request.
  ServeResponseWrite,///< Socket response write fails after execution.
};
constexpr int NumSites = 9;

/// Stable site name used in the TAWA_FAULTS grammar ("cache-read", ...).
const char *siteName(Site S);

namespace detail {
extern std::atomic<bool> Armed;
}

/// True iff any site is armed. The only cost on hot paths when fault
/// injection is idle.
inline bool enabled() {
  return detail::Armed.load(std::memory_order_relaxed);
}

/// Stateless decision: true iff \p S is armed and hash(seed, Key) lands
/// under the site's rate. Same (spec, Key) -> same answer, regardless of
/// thread or call order.
bool shouldFail(Site S, uint64_t Key);

/// Stateful decision for serial call sites: like shouldFail keyed by a
/// per-site counter that increments on every call while the site is armed.
bool shouldFailNext(Site S);

/// (Re)configures from \p Spec, replacing any previous configuration.
/// Empty spec disarms everything. Returns false (and sets \p Err) on a
/// malformed spec, leaving all sites disarmed. Tests use this directly;
/// TAWA_FAULTS feeds it at process start.
bool configure(const std::string &Spec, std::string *Err = nullptr);

/// Disarms every site and resets the shouldFailNext counters.
void reset();

/// The spec string the last successful configure() accepted ("" when
/// disarmed). The sandbox supervisor forwards it to child processes with
/// every request frame, so the process-wide spec (TAWA_FAULTS, or a test's
/// configure()) faults identically out of process — and a reset() in the
/// parent disarms children on their next request rather than leaving stale
/// faults armed. A serve request never arms a spec: the daemon refuses
/// `fuzz.faults`.
std::string currentSpec();

} // namespace faults
} // namespace tawa

#endif // TAWA_SUPPORT_FAULTINJECT_H
