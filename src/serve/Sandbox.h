//===- Sandbox.h - Out-of-process execution supervisor ----------*- C++ -*-===//
//
// The supervision layer over support/Subprocess (docs/serving.md): a warm
// pool of tawa-sandbox runner processes, one request in flight per
// process. A request routed here is written as one frame
//
//   req <remaining-ms> <max-steps> <exec-workers> <fault-spec|-> <json>\n
//
// carrying the attempt's whole serve::ExecEnv (deadline budget, default
// step budget, workers per simulation) so the child executes it exactly
// as the parent would, and answered with exactly one tawa-serve-resp-v1
// line; while executing, the child emits `hb` heartbeat lines. The
// supervisor classifies every way a child can die:
//
//   * exit/signal (waitpid)            -> "sandbox crash: signal 9 (SIGKILL)"
//   * heartbeat silence past timeout   -> "sandbox timeout: heartbeat lost"
//   * total budget + grace exceeded    -> "sandbox timeout: deadline exceeded"
//   * spawn/exec failure               -> "sandbox spawn: ..."
//
// Dead sandboxes are NOT respawned inline — the next request routed to
// that slot respawns, gated by exponential backoff on consecutive
// failures, so a crash-looping binary cannot spin fork(). The fault spec
// forwarded per-frame (faults::currentSpec) keeps the deterministic
// fault-injection framework working across the process boundary: the
// child runs each request under the parent's process-wide spec
// (TAWA_FAULTS, or faults::configure in tests), and arming or resetting
// it in the parent takes effect on the child's next request, never
// mid-flight.
//
//===----------------------------------------------------------------------===//

#ifndef TAWA_SERVE_SANDBOX_H
#define TAWA_SERVE_SANDBOX_H

#include "serve/Execute.h"
#include "support/Subprocess.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace tawa {
namespace serve {

/// The period of the `hb` lines the runner (tools/tawa_sandbox.cpp)
/// emits while a request executes; HeartbeatTimeoutMs stays well above it.
constexpr int64_t SandboxHeartbeatMs = 100;

/// Sandbox knobs. Binary is read from TAWA_SANDBOX_BIN by
/// ServeConfig::fromEnv; the other two are set in code.
struct SandboxConfig {
  /// Silence past this is a hang: the child is SIGKILLed and the request
  /// fails SandboxTimeout. Also the grace the supervisor grants past the
  /// request's own deadline budget.
  int64_t HeartbeatTimeoutMs = 2000;
  /// Respawn backoff after K consecutive failures is
  /// backoffMs(K, BackoffBaseMs, MaxMs = 2000).
  int64_t BackoffBaseMs = 10;
  /// Runner binary; "" resolves to the sibling "tawa-sandbox" of
  /// /proc/self/exe (daemon and ctest both run out of the build dir).
  std::string Binary;
};

/// Exponential backoff shared by sandbox respawns and service retries:
/// min(BaseMs << (K-1), MaxMs) for the K-th consecutive failure (K >= 1;
/// 0 for K <= 0 or BaseMs <= 0). Pure so tests pin the sequence without
/// timing.
int64_t backoffMs(int64_t K, int64_t BaseMs, int64_t MaxMs);

class Supervisor {
public:
  /// Called (outside the supervisor's locks) whenever a sandbox dies or
  /// times out: \p Reason is "sandbox-crash" | "sandbox-timeout", \p
  /// Detail the deterministic error string. The service hooks the flight
  /// recorder's dump here.
  using DeathHook = std::function<void(const std::string &Reason,
                                       const std::string &Detail)>;

  explicit Supervisor(SandboxConfig C = SandboxConfig());
  /// Kills and reaps every child.
  ~Supervisor();

  Supervisor(const Supervisor &) = delete;
  Supervisor &operator=(const Supervisor &) = delete;

  /// Executes one request line out of process under \p Env (blocking;
  /// waits for a free slot when every sandbox is busy). Returns "" with
  /// \p RespLine the child's tawa-serve-resp-v1 answer, or the
  /// deterministic error string ("sandbox crash: ..." / "sandbox timeout:
  /// ..." / "sandbox spawn: ...").
  std::string execute(const std::string &RequestLine, const ExecEnv &Env,
                      std::string &RespLine);

  void setDeathHook(DeathHook H);
  /// Successful child spawns so far, respawns included.
  int64_t spawns() const { return Spawns.load(); }
  const SandboxConfig &config() const { return Cfg; }

private:
  struct Slot {
    std::unique_ptr<Subprocess> Proc;
    std::string Buf; ///< Partial-line carry between reads.
    int64_t ConsecFails = 0;
    std::chrono::steady_clock::time_point NextSpawnAt{};
    bool Busy = false;
  };

  /// Runs one request on an acquired slot (only the owning thread touches
  /// it while Busy).
  std::string runSlot(Slot &S, const std::string &RequestLine,
                      const ExecEnv &Env, std::string &RespLine);
  std::string ensureChild(Slot &S);
  /// Reads one newline-terminated line from the slot's channel, waiting at
  /// most \p TimeoutMs. Returns 1 on a line, 0 on timeout, -1 on
  /// EOF/error.
  int readLine(Slot &S, int64_t TimeoutMs, std::string &Line);
  void noteFailure(Slot &S);

  SandboxConfig Cfg;
  DeathHook OnDeath;

  std::mutex Mu;
  std::condition_variable SlotCV;
  std::vector<Slot> Slots;

  std::atomic<int64_t> Spawns{0};
};

} // namespace serve
} // namespace tawa

#endif // TAWA_SERVE_SANDBOX_H
