//===- Sandbox.cpp - Out-of-process execution supervisor ------------------===//

#include "serve/Sandbox.h"

#include "support/FaultInject.h"
#include "support/Support.h"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <thread>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace tawa;
using namespace tawa::serve;
using Clock = std::chrono::steady_clock;

namespace {

/// Warm sandbox processes: the most out-of-process requests in flight.
constexpr int64_t SandboxPool = 2;
/// Cap on the respawn backoff.
constexpr int64_t RespawnBackoffMaxMs = 2000;

/// The runner binary ships next to whatever executable is running (the
/// daemon and the test binaries all live in the build dir).
std::string siblingSandboxBinary() {
  char Buf[4096];
  ssize_t N = ::readlink("/proc/self/exe", Buf, sizeof(Buf) - 1);
  if (N <= 0)
    return "tawa-sandbox";
  Buf[N] = '\0';
  std::string Exe(Buf);
  size_t Slash = Exe.rfind('/');
  if (Slash == std::string::npos)
    return "tawa-sandbox";
  return Exe.substr(0, Slash + 1) + "tawa-sandbox";
}

bool sendAllFd(int Fd, const std::string &Data) {
  size_t Off = 0;
  while (Off < Data.size()) {
    ssize_t N =
        ::send(Fd, Data.data() + Off, Data.size() - Off, MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Off += static_cast<size_t>(N);
  }
  return true;
}

} // namespace

//===----------------------------------------------------------------------===//
// Lifecycle
//===----------------------------------------------------------------------===//

Supervisor::Supervisor(SandboxConfig C) : Cfg(C), Slots(SandboxPool) {
  Cfg.HeartbeatTimeoutMs = std::max<int64_t>(1, Cfg.HeartbeatTimeoutMs);
  if (Cfg.Binary.empty())
    Cfg.Binary = siblingSandboxBinary();
}

Supervisor::~Supervisor() {
  // Slots are only touched while Busy by the owning executor; the service
  // drains before destroying the supervisor, so every slot is idle here.
  for (Slot &S : Slots)
    S.Proc.reset(); // ~Subprocess kills + reaps.
}

void Supervisor::setDeathHook(DeathHook H) { OnDeath = std::move(H); }

int64_t tawa::serve::backoffMs(int64_t K, int64_t BaseMs, int64_t MaxMs) {
  if (K <= 0 || BaseMs <= 0)
    return 0;
  int64_t Shift = std::min<int64_t>(K - 1, 20);
  return std::min(MaxMs, BaseMs << Shift);
}

void Supervisor::noteFailure(Slot &S) {
  ++S.ConsecFails;
  S.NextSpawnAt = Clock::now() +
                  std::chrono::milliseconds(backoffMs(
                      S.ConsecFails, Cfg.BackoffBaseMs, RespawnBackoffMaxMs));
}

//===----------------------------------------------------------------------===//
// Child I/O
//===----------------------------------------------------------------------===//

int Supervisor::readLine(Slot &S, int64_t TimeoutMs, std::string &Line) {
  for (;;) {
    size_t NL = S.Buf.find('\n');
    if (NL != std::string::npos) {
      Line = S.Buf.substr(0, NL);
      S.Buf.erase(0, NL + 1);
      return 1;
    }
    pollfd P = {S.Proc->channel(), POLLIN, 0};
    int R = ::poll(&P, 1, static_cast<int>(std::max<int64_t>(0, TimeoutMs)));
    if (R < 0) {
      if (errno == EINTR)
        continue;
      return -1;
    }
    if (R == 0)
      return 0;
    char Tmp[4096];
    ssize_t N = ::recv(S.Proc->channel(), Tmp, sizeof(Tmp), 0);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return -1;
    S.Buf.append(Tmp, static_cast<size_t>(N));
  }
}

std::string Supervisor::ensureChild(Slot &S) {
  if (S.Proc) {
    // Reap a child that died while idle (OOM kill, external kill)
    // so the respawn path below handles it like any other death.
    if (!S.Proc->poll().Running)
      S.Proc.reset();
  }
  if (S.Proc)
    return "";

  // Backoff gate: a crash-looping binary must not spin fork().
  auto Now = Clock::now();
  if (Now < S.NextSpawnAt)
    std::this_thread::sleep_until(S.NextSpawnAt);

  if (faults::enabled() && faults::shouldFailNext(faults::Site::SandboxSpawn)) {
    noteFailure(S);
    return "sandbox spawn: injected sandbox.spawn fault";
  }

  std::string Err;
  S.Proc = Subprocess::spawn({Cfg.Binary}, Err);
  if (!S.Proc) {
    noteFailure(S);
    return "sandbox spawn: " + Err;
  }

  // The runner announces itself before serving; a binary that exits
  // immediately (bad link, wrong path contents) surfaces here instead of
  // on the first request.
  std::string Ready;
  int R = readLine(S, Cfg.HeartbeatTimeoutMs, Ready);
  if (R != 1 || Ready != "ready") {
    S.Proc->kill(SIGKILL);
    S.Proc.reset();
    S.Buf.clear();
    noteFailure(S);
    return "sandbox spawn: runner not ready";
  }
  ++Spawns;
  return "";
}

//===----------------------------------------------------------------------===//
// Request execution
//===----------------------------------------------------------------------===//

std::string Supervisor::execute(const std::string &RequestLine,
                                const ExecEnv &Env, std::string &RespLine) {
  Slot *S = nullptr;
  {
    std::unique_lock<std::mutex> L(Mu);
    SlotCV.wait(L, [&] {
      for (Slot &Sl : Slots)
        if (!Sl.Busy) {
          S = &Sl;
          return true;
        }
      return false;
    });
    S->Busy = true;
  }
  std::string Err = runSlot(*S, RequestLine, Env, RespLine);
  {
    std::lock_guard<std::mutex> L(Mu);
    S->Busy = false;
  }
  SlotCV.notify_one();
  if (!Err.empty() && OnDeath &&
      Err.compare(0, 14, "sandbox spawn:") != 0) {
    bool Timeout = Err.compare(0, 15, "sandbox timeout") == 0;
    OnDeath(Timeout ? "sandbox-timeout" : "sandbox-crash", Err);
  }
  return Err;
}

std::string Supervisor::runSlot(Slot &S, const std::string &RequestLine,
                                const ExecEnv &Env, std::string &RespLine) {
  if (std::string Err = ensureChild(S); !Err.empty())
    return Err;

  // Forward the parent's process-wide fault spec with the frame (never via
  // spawn env): faults::reset() in the parent disarms the child on its
  // next request instead of leaving a stale spec in a surviving process.
  int64_t RemainingMs = std::max<int64_t>(1, Env.RemainingMs);
  std::string Spec = faults::currentSpec();
  std::string Frame =
      formatString("req %lld %lld %lld %s ",
                   static_cast<long long>(RemainingMs),
                   static_cast<long long>(Env.DefaultMaxSteps),
                   static_cast<long long>(Env.ExecWorkers),
                   Spec.empty() ? "-" : Spec.c_str()) +
      RequestLine + "\n";

  // Every failure replaces the child: SIGKILL (no-op on an already-dead
  // pid), reap, classify. AppendExit adds the waitpid classification —
  // timeout strings stay fixed (the exit status would always be our own
  // SIGKILL, and deterministic messages matter more than redundancy).
  auto fail = [&](std::string Reason, bool AppendExit) -> std::string {
    S.Proc->kill(SIGKILL);
    Subprocess::ExitStatus St = S.Proc->wait();
    S.Proc.reset();
    S.Buf.clear();
    noteFailure(S);
    if (AppendExit)
      Reason += St.describe();
    return Reason;
  };

  if (!sendAllFd(S.Proc->channel(), Frame))
    return fail("sandbox crash: ", true);

  Clock::time_point Start = Clock::now();
  Clock::time_point Overall =
      Start + std::chrono::milliseconds(RemainingMs + Cfg.HeartbeatTimeoutMs);
  Clock::time_point HbDeadline =
      Start + std::chrono::milliseconds(Cfg.HeartbeatTimeoutMs);

  for (;;) {
    Clock::time_point Now = Clock::now();
    if (Now >= Overall)
      return fail("sandbox timeout: deadline exceeded", false);
    if (Now >= HbDeadline)
      return fail("sandbox timeout: heartbeat lost", false);
    int64_t WaitMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                         std::min(HbDeadline, Overall) - Now)
                         .count() +
                     1;
    std::string Line;
    int R = readLine(S, WaitMs, Line);
    if (R < 0)
      return fail("sandbox crash: ", true);
    if (R == 0)
      continue; // Deadlines re-checked at the top.
    if (Line == "hb") {
      HbDeadline =
          Clock::now() + std::chrono::milliseconds(Cfg.HeartbeatTimeoutMs);
      continue;
    }
    if (!Line.empty() && Line[0] == '{') {
      RespLine = std::move(Line);
      S.ConsecFails = 0;
      return "";
    }
    // Anything else on the channel is a corrupted stream; treat it as a
    // crash so the child is replaced.
    return fail("sandbox crash: corrupted stream", false);
  }
}
