//===- tawa_sandbox.cpp - Out-of-process sandbox runner -------------------===//
//
// The child half of the execution sandbox (docs/serving.md). Spawned by
// serve::Supervisor with an AF_UNIX socketpair as stdin/stdout, it speaks
// a three-line-type protocol:
//
//   child -> parent   ready\n                 once, at startup
//   parent -> child   req <ms> <spec|-> <tawa-serve-req-v1 json>\n
//   child -> parent   hb\n                    while a request executes
//   child -> parent   <tawa-serve-resp-v1 json>\n   exactly one per req
//
// <spec> forwards the parent's armed fault-injection spec ("-" = none),
// so deterministic fault drills cross the process boundary: sandbox.kill
// raises SIGKILL mid-request, sandbox.hang freezes without heartbeats
// (the supervisor's heartbeat deadline trips), and worker.* sites crash
// the simulation engine in here instead of in the daemon.
//
// Execution itself is serve::executeRequest — the same attempt core the
// in-process service uses — at ladder level 0: the sandbox exists for
// isolation, not for degraded modes.
//
//===----------------------------------------------------------------------===//

#include "serve/Execute.h"
#include "serve/Protocol.h"
#include "support/Env.h"
#include "support/FaultInject.h"
#include "support/Status.h"

#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>

#include <unistd.h>

using namespace tawa;
using namespace tawa::serve;

namespace {

/// Serializes heartbeat lines against response lines so frames never
/// interleave on the shared channel.
std::mutex WrMu;

bool writeAll(const std::string &Data) {
  std::lock_guard<std::mutex> L(WrMu);
  size_t Off = 0;
  while (Off < Data.size()) {
    ssize_t N = ::write(STDOUT_FILENO, Data.data() + Off, Data.size() - Off);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Off += static_cast<size_t>(N);
  }
  return true;
}

/// Heartbeat pump: emits `hb` every HeartbeatMs, but only while a request
/// is in flight — an idle child is silent (the supervisor only arms its
/// heartbeat deadline per-request).
struct Heartbeat {
  std::mutex Mu;
  std::condition_variable CV;
  bool InFlight = false;
  bool Exit = false;
  int64_t PeriodMs;
  std::thread T;

  Heartbeat()
      : PeriodMs(std::max<int64_t>(
            1, envInt64("TAWA_SANDBOX_HEARTBEAT_MS", 100))),
        T([this] { loop(); }) {}

  ~Heartbeat() {
    {
      std::lock_guard<std::mutex> L(Mu);
      Exit = true;
    }
    CV.notify_all();
    T.join();
  }

  void loop() {
    std::unique_lock<std::mutex> L(Mu);
    for (;;) {
      CV.wait(L, [&] { return InFlight || Exit; });
      if (Exit)
        return;
      while (InFlight && !Exit) {
        CV.wait_for(L, std::chrono::milliseconds(PeriodMs));
        if (InFlight && !Exit) {
          L.unlock();
          writeAll("hb\n");
          L.lock();
        }
      }
    }
  }

  void begin() {
    {
      std::lock_guard<std::mutex> L(Mu);
      InFlight = true;
    }
    CV.notify_all();
  }

  void end() {
    {
      std::lock_guard<std::mutex> L(Mu);
      InFlight = false;
    }
    CV.notify_all();
  }
};

/// Runs one decoded frame and renders the response line. An engine
/// exception comes back from executeRequest as a worker crash, so it
/// reaches the supervisor as a structured line rather than a death.
std::string handleFrame(int64_t RemainingMs, const std::string &Json) {
  ServeRequest Req;
  ServeResponse Resp;
  std::string ParseErr = parseRequest(Json, Req);
  Resp.Id = Req.Id;
  Resp.Attempts = 1;
  if (!ParseErr.empty()) {
    Resp.St = ServeResponse::Status::Rejected;
    Resp.Reason = "bad-request";
    Resp.Error = ParseErr;
    return Resp.render();
  }

  ExecEnv Env;
  Env.Level = 0;
  Env.RemainingMs = RemainingMs;
  Env.DefaultMaxSteps = envInt64("TAWA_SERVE_MAX_STEPS", Env.DefaultMaxSteps);
  Env.ExecWorkers = envInt64("TAWA_SERVE_EXEC_WORKERS", Env.ExecWorkers);

  ErrorKind Kind = ErrorKind::None;
  std::string Err = executeRequest(Req, Env, Resp, Kind);
  if (Err.empty()) {
    Resp.St = ServeResponse::Status::Ok;
  } else {
    Resp.St = ServeResponse::Status::Failed;
    Resp.Error = Err;
    if (Kind == ErrorKind::None)
      Kind = classifyError(Err);
    Resp.ErrorKind = errorKindName(Kind);
  }
  return Resp.render();
}

} // namespace

int main() {
  // The channel is the only lifeline; a dead parent surfaces as EOF on
  // read, never SIGPIPE on write.
  ::signal(SIGPIPE, SIG_IGN);

  if (!writeAll("ready\n"))
    return 1;

  Heartbeat Hb;
  std::string Buf;
  char Tmp[4096];
  for (;;) {
    size_t NL;
    while ((NL = Buf.find('\n')) == std::string::npos) {
      ssize_t N = ::read(STDIN_FILENO, Tmp, sizeof(Tmp));
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        return 0; // Parent gone; clean exit.
      Buf.append(Tmp, static_cast<size_t>(N));
    }
    std::string Line = Buf.substr(0, NL);
    Buf.erase(0, NL + 1);
    if (Line.empty())
      continue;

    // Frame: req <remaining-ms> <fault-spec|-> <json>.
    if (Line.compare(0, 4, "req ") != 0)
      return 2; // Corrupted stream; die loudly, the supervisor replaces us.
    size_t MsEnd = Line.find(' ', 4);
    if (MsEnd == std::string::npos)
      return 2;
    size_t SpecEnd = Line.find(' ', MsEnd + 1);
    if (SpecEnd == std::string::npos)
      return 2;
    int64_t RemainingMs =
        std::strtoll(Line.c_str() + 4, nullptr, 10);
    std::string Spec = Line.substr(MsEnd + 1, SpecEnd - MsEnd - 1);
    std::string Json = Line.substr(SpecEnd + 1);

    // Mirror the parent's fault-injection state for this request. A bad
    // spec cannot happen through the supervisor (the parent validated it
    // when arming); treat it as stream corruption.
    if (Spec == "-") {
      faults::reset();
    } else if (!faults::configure(Spec, nullptr)) {
      return 2;
    }

    // sandbox.hang: freeze BEFORE the heartbeat pump starts, so the
    // supervisor's heartbeat deadline trips deterministically.
    if (faults::enabled() &&
        faults::shouldFailNext(faults::Site::SandboxHang)) {
      for (;;)
        std::this_thread::sleep_for(std::chrono::hours(1));
    }

    Hb.begin();
    // sandbox.kill: die mid-request, heartbeats already flowing — the
    // supervisor sees EOF and classifies "signal 9 (SIGKILL)".
    if (faults::enabled() &&
        faults::shouldFailNext(faults::Site::SandboxKill))
      ::raise(SIGKILL);
    std::string RespLine = handleFrame(RemainingMs, Json);
    Hb.end();

    if (!writeAll(RespLine + "\n"))
      return 0;
  }
}
