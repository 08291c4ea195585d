//===- Server.cpp - Resilient simulation service -------------------------------//
//
// Policy layering for one request (docs/serving.md):
//
//   admission (bounded queue, shed on overflow)
//     -> deadline (queue wait counts; remaining budget arms MaxWallMs)
//       -> attempt loop (retry transient ErrorKinds with backoff+jitter)
//         -> degradation ladder (per compile key: in process -> sandbox)
//           -> execution (Runner / Interpreter with guardrails + Diag)
//
// Every decision increments exactly one ServeStats counter and every
// request — poisoned, shed, crashed, expired — produces exactly one
// structured response line. No step changes process-wide state: fault
// injection and the program cache's persist dir belong to the process.
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include "driver/Runner.h"
#include "serve/Execute.h"
#include "support/Env.h"
#include "support/FaultInject.h"
#include "support/Status.h"
#include "support/Support.h"
#include "support/WorkerPool.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <memory>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace tawa;
using namespace tawa::serve;
using Clock = std::chrono::steady_clock;

//===----------------------------------------------------------------------===//
// Config
//===----------------------------------------------------------------------===//

namespace {

/// Cap on the retry backoff before jitter.
constexpr int64_t RetryBackoffMaxMs = 64;
/// Deadline applied when a request names none.
constexpr int64_t DefaultDeadlineMs = 30000;
/// Flight-recorder ring depth: the last N admitted requests a crash dump
/// carries.
constexpr int64_t FlightRecorderDepth = 64;

} // namespace

ServeConfig ServeConfig::fromEnv() {
  ServeConfig C;
  C.Workers = envInt64("TAWA_SERVE_WORKERS", C.Workers);
  C.QueueDepth = envInt64("TAWA_SERVE_QUEUE_DEPTH", C.QueueDepth);
  C.ExecWorkers = envInt64("TAWA_SERVE_EXEC_WORKERS", C.ExecWorkers);
  C.Sandbox.Binary = envString("TAWA_SANDBOX_BIN");
  return C;
}

//===----------------------------------------------------------------------===//
// Service lifecycle
//===----------------------------------------------------------------------===//

Service::Service(ServeConfig C)
    : Cfg(C), Recorder(FlightRecorderDepth, C.CrashDumpDir) {
  if (Cfg.Workers <= 0)
    Cfg.Workers = std::max<int64_t>(
        1, WorkerPool::shared().getNumWorkers() / 2);
  Cfg.QueueDepth = std::max<int64_t>(1, Cfg.QueueDepth);
  Cfg.MaxRetries = std::max<int64_t>(0, Cfg.MaxRetries);
  Cfg.DegradeThreshold = std::max<int64_t>(1, Cfg.DegradeThreshold);
  for (int64_t I = 0; I < Cfg.Workers; ++I)
    Executors.emplace_back([this] { executorLoop(); });
}

Service::~Service() { shutdown(); }

void Service::beginShutdown() {
  {
    std::lock_guard<std::mutex> L(QMu);
    Stopping = true;
  }
  QueueCV.notify_all();
}

void Service::drain() {
  std::unique_lock<std::mutex> L(QMu);
  IdleCV.wait(L, [&] { return Queue.empty() && InflightNow.load() == 0; });
}

void Service::shutdown() {
  beginShutdown();
  drain();
  {
    std::lock_guard<std::mutex> L(QMu);
    if (Joined)
      return;
    Joined = true;
  }
  for (std::thread &T : Executors)
    T.join();
  // No executor is running: kill and reap the warm sandbox pool. Fold
  // its spawn count into the service stats first so a post-shutdown
  // stats() (the daemon's exit summary) still reports it.
  std::lock_guard<std::mutex> L(SupMu);
  if (Sup) {
    std::lock_guard<std::mutex> SL(StatsMu);
    Stats.SandboxSpawns = Sup->spawns();
  }
  Sup.reset();
}

void Service::closeGate() {
  std::lock_guard<std::mutex> L(GateMu);
  GateOpen = false;
}

void Service::openGate() {
  {
    std::lock_guard<std::mutex> L(GateMu);
    GateOpen = true;
  }
  GateCV.notify_all();
}

ServeStats Service::stats() const {
  ServeStats S;
  {
    std::lock_guard<std::mutex> L(StatsMu);
    S = Stats;
  }
  {
    std::lock_guard<std::mutex> L(SupMu);
    if (Sup)
      S.SandboxSpawns = Sup->spawns();
  }
  S.CrashDumps = Recorder.dumps();
  return S;
}

//===----------------------------------------------------------------------===//
// Admission
//===----------------------------------------------------------------------===//

void Service::submit(std::string RequestText,
                     std::function<void(std::string)> Done) {
  enum class Verdict { Accepted, Overloaded, ShuttingDown };
  Verdict V;
  {
    std::lock_guard<std::mutex> L(QMu);
    if (Stopping) {
      V = Verdict::ShuttingDown;
    } else if (static_cast<int64_t>(Queue.size()) >= Cfg.QueueDepth) {
      V = Verdict::Overloaded;
    } else {
      V = Verdict::Accepted;
      Job J;
      J.Text = std::move(RequestText);
      J.Done = std::move(Done);
      J.Enqueued = Clock::now();
      Queue.push_back(std::move(J));
      QueueNow.fetch_add(1);
      std::lock_guard<std::mutex> SL(StatsMu);
      ++Stats.Accepted;
    }
  }
  if (V == Verdict::Accepted) {
    QueueCV.notify_one();
    return;
  }
  // Shed path: never executes, but still answers with the request's id
  // (best effort — a request too malformed to parse sheds with id "").
  ServeRequest Req;
  parseRequest(RequestText, Req);
  ServeResponse Resp;
  Resp.Id = Req.Id;
  Resp.St = ServeResponse::Status::Rejected;
  Resp.Reason = V == Verdict::Overloaded ? "overloaded" : "shutting-down";
  {
    std::lock_guard<std::mutex> L(StatsMu);
    if (V == Verdict::Overloaded)
      ++Stats.RejectedOverload;
    else
      ++Stats.RejectedShutdown;
  }
  Done(Resp.render());
}

std::string Service::call(const std::string &RequestText) {
  std::mutex Mu;
  std::condition_variable CV;
  bool Ready = false;
  std::string Out;
  submit(RequestText, [&](std::string R) {
    std::lock_guard<std::mutex> L(Mu);
    Out = std::move(R);
    Ready = true;
    CV.notify_one();
  });
  std::unique_lock<std::mutex> L(Mu);
  CV.wait(L, [&] { return Ready; });
  return Out;
}

void Service::executorLoop() {
  for (;;) {
    Job J;
    {
      std::unique_lock<std::mutex> L(QMu);
      QueueCV.wait(L, [&] { return Stopping || !Queue.empty(); });
      if (Queue.empty()) {
        if (Stopping)
          return;
        continue;
      }
      // Shutdown drains: accepted requests run even after Stopping.
      J = std::move(Queue.front());
      Queue.pop_front();
      QueueNow.fetch_sub(1);
      InflightNow.fetch_add(1);
    }
    std::string Resp = process(J);
    // The response callback runs before the request stops counting as
    // in-flight, so drain() returning means every answer was delivered
    // (the socket layer writes inside Done).
    J.Done(std::move(Resp));
    {
      std::lock_guard<std::mutex> L(QMu);
      InflightNow.fetch_sub(1);
    }
    IdleCV.notify_all();
  }
}

//===----------------------------------------------------------------------===//
// Request processing: deadline -> retry -> ladder -> execute
//===----------------------------------------------------------------------===//

bool Service::sandboxed(const std::string &Key) {
  std::lock_guard<std::mutex> L(LadderMu);
  auto It = KeyCrashes.find(Key);
  return It != KeyCrashes.end() && It->second >= Cfg.DegradeThreshold;
}

void Service::recordCrash(const std::string &Key) {
  if (Key.empty())
    return;
  {
    std::lock_guard<std::mutex> L(LadderMu);
    int64_t &Crashes = KeyCrashes[Key];
    // Already sandboxed (the last rung), or still under the threshold.
    if (Crashes >= Cfg.DegradeThreshold || ++Crashes < Cfg.DegradeThreshold)
      return;
  }
  std::lock_guard<std::mutex> L(StatsMu);
  ++Stats.DegradeSteps;
}

std::string Service::requestKey(const ServeRequest &Req) const {
  switch (Req.K) {
  case ServeRequest::Kind::Ping:
    return "";
  case ServeRequest::Kind::Gemm: {
    Runner R;
    return R.compileKey(Req.Gemm, getGemmEnvelope(Req.F, Req.Gemm));
  }
  case ServeRequest::Kind::Attention: {
    Runner R;
    return R.compileKey(Req.Mha, getAttentionEnvelope(Req.F, Req.Mha));
  }
  case ServeRequest::Kind::Ir:
    return formatString("ir|%016llx",
                        static_cast<unsigned long long>(
                            fnv1a64(Req.IrText)));
  }
  return "";
}

namespace {

bool isTransient(ErrorKind K) {
  // Kinds worth retrying: another attempt can genuinely turn out
  // differently (the counter-keyed fault sites draw again, a sandbox gets
  // respawned as a new process). Deterministic kinds — deadlock, budget
  // trips, verifier and compile failures — fail fast; retrying them
  // replays the same outcome with interest. Sandbox timeouts also fail
  // fast: the request already consumed its deadline budget plus the
  // heartbeat grace.
  return K == ErrorKind::WorkerCrash || K == ErrorKind::SandboxCrash;
}

bool countsTowardLadder(ErrorKind K) {
  // Sandbox kinds deliberately do NOT step the ladder: the sandbox IS the
  // last rung, and its own failures are containment working, not evidence
  // the engine needs a safer mode.
  return K == ErrorKind::WorkerCrash || K == ErrorKind::Internal;
}

} // namespace

std::string Service::process(const Job &J) {
  ServeRequest Req;
  std::string ParseErr = parseRequest(J.Text, Req);
  ServeResponse Resp;
  Resp.Id = Req.Id;
  if (!ParseErr.empty()) {
    Resp.St = ServeResponse::Status::Rejected;
    Resp.Reason = "bad-request";
    Resp.Error = ParseErr;
    std::lock_guard<std::mutex> L(StatsMu);
    ++Stats.BadRequests;
    return Resp.render();
  }

  // Black box: the ring holds every admitted request (synthetic-latency
  // sleeps happen inside the execution attempt, serve/Execute.cpp).
  Recorder.record(Req, J.Text);

  if (Req.WaitGate) {
    std::unique_lock<std::mutex> G(GateMu);
    GateCV.wait(G, [&] { return GateOpen; });
  }

  // A sandbox-routed ping exercises the full out-of-process path (the
  // cheapest end-to-end sandbox probe); only the plain ping is inlined.
  if (Req.K == ServeRequest::Kind::Ping && !Req.Sandbox) {
    Resp.St = ServeResponse::Status::Ok;
    std::lock_guard<std::mutex> L(StatsMu);
    ++Stats.Succeeded;
    return Resp.render();
  }

  int64_t DeadlineMs =
      Req.DeadlineMs > 0 ? Req.DeadlineMs : DefaultDeadlineMs;
  Clock::time_point DeadlineAt =
      J.Enqueued + std::chrono::milliseconds(DeadlineMs);
  auto remainingMs = [&] {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               DeadlineAt - Clock::now())
        .count();
  };

  std::string Key = requestKey(Req);
  int64_t Attempt = 0;
  for (;;) {
    ++Attempt;
    int64_t Rem = remainingMs();
    if (Rem <= 0) {
      // Deterministic message: no elapsed-time numbers, so identical
      // overload scenarios produce identical response lines.
      Resp = ServeResponse();
      Resp.Id = Req.Id;
      Resp.St = ServeResponse::Status::Failed;
      Resp.Attempts = Attempt - 1;
      Resp.Error = Attempt == 1 ? "deadline expired before execution"
                                : "deadline expired during retries";
      Resp.ErrorKind = errorKindName(ErrorKind::WallClock);
      std::lock_guard<std::mutex> L(StatsMu);
      ++Stats.Failed;
      if (Attempt == 1)
        ++Stats.DeadlineQueueExpired;
      return Resp.render();
    }

    Resp = ServeResponse();
    Resp.Id = Req.Id;
    Resp.Attempts = Attempt;
    ErrorKind Kind = ErrorKind::None;
    std::string Err = executeOnce(J.Text, Req, Key, Rem, Resp, Kind);

    if (Err.empty()) {
      Resp.St = ServeResponse::Status::Ok;
      std::lock_guard<std::mutex> L(StatsMu);
      ++Stats.Succeeded;
      return Resp.render();
    }

    if (Kind == ErrorKind::None)
      Kind = classifyError(Err);
    if (countsTowardLadder(Kind))
      recordCrash(Key);
    if (isTransient(Kind) && Attempt <= Cfg.MaxRetries) {
      {
        std::lock_guard<std::mutex> L(StatsMu);
        ++Stats.Retries;
      }
      int64_t Back = backoffMs(Attempt, Cfg.BackoffBaseMs, RetryBackoffMaxMs);
      // Deterministic jitter: keyed by (id, attempt), not a clock, so a
      // replayed trace backs off identically.
      int64_t Jitter =
          Cfg.BackoffBaseMs > 0
              ? static_cast<int64_t>(
                    fnv1a64(Req.Id + "#" + std::to_string(Attempt)) %
                    static_cast<uint64_t>(Cfg.BackoffBaseMs))
              : 0;
      int64_t Sleep = std::min(Back + Jitter, std::max<int64_t>(
                                                  0, remainingMs()));
      if (Sleep > 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(Sleep));
      continue;
    }

    Resp.St = ServeResponse::Status::Failed;
    Resp.Error = Err;
    Resp.ErrorKind = errorKindName(Kind);
    std::lock_guard<std::mutex> L(StatsMu);
    ++Stats.Failed;
    return Resp.render();
  }
}

//===----------------------------------------------------------------------===//
// Execution
//===----------------------------------------------------------------------===//

std::string Service::executeOnce(const std::string &RawText,
                                 const ServeRequest &Req,
                                 const std::string &Key, int64_t RemainingMs,
                                 ServeResponse &Resp, ErrorKind &KindOut) {
  ExecEnv Env;
  Env.RemainingMs = RemainingMs;
  Env.DefaultMaxSteps = Cfg.DefaultMaxSteps;
  Env.ExecWorkers = Cfg.ExecWorkers;
  // Out-of-process routing: either the request opted in (sandbox=true) or
  // the ladder moved its compile key to the sandbox rung.
  if (Req.Sandbox || sandboxed(Key))
    return executeSandbox(RawText, Env, Resp, KindOut);
  return serve::executeRequest(Req, Env, Resp, KindOut);
}

Supervisor &Service::supervisor() {
  std::lock_guard<std::mutex> L(SupMu);
  if (!Sup) {
    Sup = std::make_unique<Supervisor>(Cfg.Sandbox);
    // Every sandbox death or timeout flushes the black box (no-op when no
    // crash dir is configured — the ring still holds the history).
    Sup->setDeathHook([this](const std::string &Reason,
                             const std::string &Detail) {
      Recorder.dump(Reason, Detail);
    });
  }
  return *Sup;
}

std::string Service::executeSandbox(const std::string &RawText,
                                    const ExecEnv &Env, ServeResponse &Resp,
                                    ErrorKind &KindOut) {
  // Even a failed attempt reports where it ran.
  Resp.Degrade = "sandbox";
  {
    std::lock_guard<std::mutex> L(StatsMu);
    ++Stats.SandboxRequests;
  }

  std::string RespLine;
  std::string Err = supervisor().execute(RawText, Env, RespLine);
  if (!Err.empty()) {
    KindOut = classifyError(Err);
    std::lock_guard<std::mutex> L(StatsMu);
    if (KindOut == ErrorKind::SandboxTimeout)
      ++Stats.SandboxTimeouts;
    else
      ++Stats.SandboxCrashes;
    return Err;
  }

  ServeResponse Child;
  if (std::string PErr = parseResponse(RespLine, Child); !PErr.empty()) {
    KindOut = ErrorKind::SandboxCrash;
    std::lock_guard<std::mutex> L(StatsMu);
    ++Stats.SandboxCrashes;
    return "sandbox crash: malformed response: " + PErr;
  }

  if (Child.St == ServeResponse::Status::Failed) {
    // The child's error flows back verbatim; its kind rides the error_kind
    // field so WorkerCrash inside the sandbox still classifies (and steps
    // the ladder) exactly like an in-process one.
    KindOut = ErrorKind::Internal;
    errorKindFromName(Child.ErrorKind, KindOut);
    Resp.DiagJson = Child.DiagJson;
    return Child.Error.empty() ? "sandbox child failed" : Child.Error;
  }
  if (Child.St == ServeResponse::Status::Rejected) {
    KindOut = ErrorKind::Internal;
    return "sandbox child rejected request: " +
           (Child.Reason.empty() ? Child.Error : Child.Reason);
  }

  // Ok: adopt the child's result fields but keep the parent's identity and
  // policy bookkeeping (id, attempts) — the parent owns the envelope.
  Child.Id = Resp.Id;
  Child.Attempts = Resp.Attempts;
  Child.Degrade = "sandbox";
  Resp = Child;
  return "";
}

//===----------------------------------------------------------------------===//
// SocketServer
//===----------------------------------------------------------------------===//

namespace {

/// Requests larger than this without a newline are a poisoned stream; the
/// connection is dropped rather than buffered without bound.
constexpr size_t MaxLineBytes = 8u << 20;

struct Conn {
  int Fd = -1;
  std::mutex WrMu; ///< Serializes response lines from executor threads.
};

bool sendAll(Conn &C, const std::string &Data) {
  // Fault site: a response lost on the wire (docs/robustness.md). The
  // client sees a dropped line, the daemon carries on — exactly the
  // peer-gone path below.
  if (faults::enabled() &&
      faults::shouldFailNext(faults::Site::ServeResponseWrite))
    return false;
  std::lock_guard<std::mutex> L(C.WrMu);
  size_t Off = 0;
  while (Off < Data.size()) {
    ssize_t N = ::send(C.Fd, Data.data() + Off, Data.size() - Off,
                       MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false; // Peer gone; the response is dropped, not the server.
    }
    Off += static_cast<size_t>(N);
  }
  return true;
}

} // namespace

SocketServer::SocketServer(Service &Svc, std::string Path)
    : Svc(Svc), Path(std::move(Path)) {}

SocketServer::~SocketServer() { shutdown(); }

bool SocketServer::start(std::string &Err) {
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path)) {
    Err = "socket path too long: " + Path;
    return false;
  }
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);

  ListenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (ListenFd < 0) {
    Err = formatString("socket: %s", std::strerror(errno));
    return false;
  }
  ::unlink(Path.c_str());
  if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr),
             sizeof(Addr)) < 0 ||
      ::listen(ListenFd, 64) < 0) {
    Err = formatString("bind/listen %s: %s", Path.c_str(),
                       std::strerror(errno));
    ::close(ListenFd);
    ListenFd = -1;
    return false;
  }
  if (::pipe(StopPipe) < 0) {
    Err = formatString("pipe: %s", std::strerror(errno));
    ::close(ListenFd);
    ListenFd = -1;
    return false;
  }
  Acceptor = std::thread([this] { acceptLoop(); });
  return true;
}

void SocketServer::acceptLoop() {
  for (;;) {
    pollfd Fds[2] = {{ListenFd, POLLIN, 0}, {StopPipe[0], POLLIN, 0}};
    if (::poll(Fds, 2, -1) < 0) {
      if (errno == EINTR)
        continue;
      return;
    }
    if (Fds[1].revents)
      return;
    if (!(Fds[0].revents & POLLIN))
      continue;
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0)
      continue;
    // Served even when shutdown() has begun: it joins this thread before
    // walking ConnFds, so the peer gets the structured shutting-down
    // rejection instead of a bare EOF.
    std::lock_guard<std::mutex> L(ConnMu);
    ConnFds.push_back(Fd);
    ConnThreads.emplace_back([this, Fd] { handleConnection(Fd); });
  }
}

void SocketServer::handleConnection(int Fd) {
  auto C = std::make_shared<Conn>();
  C->Fd = Fd;
  std::string Buf;
  char Tmp[4096];
  for (;;) {
    ssize_t N = ::recv(Fd, Tmp, sizeof(Tmp), 0);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return; // EOF or shutdown(); the fd is closed by SocketServer.
    Buf.append(Tmp, static_cast<size_t>(N));
    if (Buf.size() > MaxLineBytes && Buf.find('\n') == std::string::npos)
      return; // Unframed flood; drop the connection.
    size_t NL;
    while ((NL = Buf.find('\n')) != std::string::npos) {
      std::string Line = Buf.substr(0, NL);
      Buf.erase(0, NL + 1);
      if (Line.empty())
        continue;
      // The response is written from whatever thread completes the
      // request (executor on acceptance, this thread on shed), so the
      // Service's drain barrier also covers the write.
      Svc.submit(std::move(Line), [C](std::string Resp) {
        Resp += '\n';
        sendAll(*C, Resp);
      });
    }
  }
}

void SocketServer::shutdown() {
  {
    std::lock_guard<std::mutex> L(ConnMu);
    if (Stopped)
      return;
    Stopped = true;
  }
  if (ListenFd < 0)
    return; // Never started.
  // Order matters: stop admitting, stop accepting, let accepted work
  // finish (responses are written inside the drain barrier), and only
  // then unblock the connection readers.
  Svc.beginShutdown();
  (void)!::write(StopPipe[1], "x", 1);
  if (Acceptor.joinable())
    Acceptor.join();
  // Connections already established in the listen backlog (the peer's
  // connect() returned, but the acceptor exited on the stop pipe before
  // accept()ing them) would see a bare RST when the listener closes.
  // Accept them now so their requests get the structured shutting-down
  // rejection like every other accepted peer.
  for (;;) {
    pollfd P = {ListenFd, POLLIN, 0};
    if (::poll(&P, 1, 0) <= 0 || !(P.revents & POLLIN))
      break;
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0)
      break;
    std::lock_guard<std::mutex> L(ConnMu);
    ConnFds.push_back(Fd);
    ConnThreads.emplace_back([this, Fd] { handleConnection(Fd); });
  }
  ::close(ListenFd);
  ListenFd = -1;
  Svc.drain();
  {
    std::lock_guard<std::mutex> L(ConnMu);
    for (int Fd : ConnFds)
      ::shutdown(Fd, SHUT_RDWR);
  }
  for (std::thread &T : ConnThreads)
    T.join();
  for (int Fd : ConnFds)
    ::close(Fd);
  ConnFds.clear();
  ConnThreads.clear();
  ::close(StopPipe[0]);
  ::close(StopPipe[1]);
  StopPipe[0] = StopPipe[1] = -1;
  ::unlink(Path.c_str());
}
