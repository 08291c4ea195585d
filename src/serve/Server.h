//===- Server.h - Resilient simulation service ------------------*- C++ -*-===//
//
// tawa-serve (docs/serving.md): a persistent daemon that accepts kernel
// configurations over a unix socket and runs them through the process-wide
// ProgramCache + WorkerPool. Two classes:
//
//  * Service — transport-free core: bounded admission queue with load
//    shedding, executor threads, per-request deadlines mapped onto the
//    execution guardrails, retry with exponential backoff + deterministic
//    jitter for transient failure kinds, a two-rung degradation ladder
//    (in process -> out-of-process sandbox, per compile key), and
//    drain-based graceful shutdown. No request changes process-wide
//    state. Everything the robustness tests assert lives here.
//
//  * SocketServer — AF_UNIX transport: newline-delimited request/response
//    framing (serve/Protocol), one handler thread per connection, and a
//    shutdown path that drains the Service before unblocking readers.
//
//===----------------------------------------------------------------------===//

#ifndef TAWA_SERVE_SERVER_H
#define TAWA_SERVE_SERVER_H

#include "serve/FlightRecorder.h"
#include "serve/Protocol.h"
#include "serve/Sandbox.h"
#include "support/Status.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace tawa {
namespace serve {

/// Tuning knobs. fromEnv() reads Workers, QueueDepth, ExecWorkers and
/// Sandbox.Binary from the environment (docs/serving.md has the table);
/// the rest are set in code.
struct ServeConfig {
  /// Executor threads; 0 = half the pool's worker count (executors
  /// multiplex onto the shared WorkerPool, so more executors than workers
  /// just deepens contention). TAWA_SERVE_WORKERS.
  int64_t Workers = 0;
  /// Admission queue bound; a request arriving with the queue full is shed
  /// with `rejected: overloaded`. TAWA_SERVE_QUEUE_DEPTH.
  int64_t QueueDepth = 16;
  /// Retries after the first attempt, transient kinds only.
  int64_t MaxRetries = 2;
  /// Backoff before retry K is backoffMs(K, BackoffBaseMs, MaxMs = 64)
  /// (serve/Sandbox.h) plus deterministic jitter in [0, BackoffBaseMs)
  /// keyed by (request id, attempt).
  int64_t BackoffBaseMs = 1;
  /// Crash-kind failures of one compile key in process before the key
  /// runs in the sandbox for the rest of the process lifetime.
  int64_t DegradeThreshold = 2;
  /// Step budget applied when a request names none; matches the fuzz
  /// harness bound so corpus replays trip identically.
  int64_t DefaultMaxSteps = 1000000;
  /// Workers per simulation (Runner::NumWorkers); 0 = hardware.
  /// TAWA_SERVE_EXEC_WORKERS.
  int64_t ExecWorkers = 0;
  /// Crash-dump directory; "" disables dumping (the ring still records).
  /// tawa-serve --crash-dir.
  std::string CrashDumpDir;
  /// Out-of-process sandbox knobs (serve/Sandbox.h); the supervisor is
  /// created lazily on the first sandbox-routed request.
  SandboxConfig Sandbox;

  static ServeConfig fromEnv();
};

/// Monotonic counters, snapshot via Service::stats(). Every admission
/// decision and resilience action increments exactly one success/failure
/// counter, so tests pin exact sequences.
struct ServeStats {
  int64_t Accepted = 0;
  int64_t RejectedOverload = 0;
  int64_t RejectedShutdown = 0;
  int64_t BadRequests = 0;
  int64_t Succeeded = 0;
  int64_t Failed = 0;
  int64_t Retries = 0;
  int64_t DeadlineQueueExpired = 0;
  int64_t DegradeSteps = 0;    ///< Compile keys moved to the sandbox.
  int64_t SandboxRequests = 0; ///< Requests routed out of process.
  int64_t SandboxCrashes = 0;  ///< Attempts lost to a sandbox death.
  int64_t SandboxTimeouts = 0; ///< Attempts lost to heartbeat/deadline.
  int64_t SandboxSpawns = 0;   ///< Child spawns (merged from Supervisor).
  int64_t CrashDumps = 0;      ///< Flight-recorder dumps written.
};

class Service {
public:
  explicit Service(ServeConfig C = ServeConfig::fromEnv());
  /// shutdown() if the owner did not call it.
  ~Service();

  Service(const Service &) = delete;
  Service &operator=(const Service &) = delete;

  /// Admission: either enqueues \p RequestText and later invokes \p Done
  /// exactly once from an executor thread with the rendered response
  /// line, or sheds the request and invokes \p Done inline with a
  /// structured rejection. Never blocks on execution.
  void submit(std::string RequestText,
              std::function<void(std::string)> Done);

  /// Blocking convenience over submit(): returns the response line.
  std::string call(const std::string &RequestText);

  /// Stops admitting (subsequent submits are `rejected: shutting-down`);
  /// already-accepted requests still execute.
  void beginShutdown();
  /// Blocks until the queue is empty and no request is executing.
  void drain();
  /// beginShutdown + drain + join executors. Idempotent.
  void shutdown();

  ServeStats stats() const;
  int64_t queueNow() const { return QueueNow.load(); }
  int64_t inflightNow() const { return InflightNow.load(); }
  const ServeConfig &config() const { return Cfg; }

  /// Test gate for deterministic sequencing: while closed, requests with
  /// wait_gate=true park (counted in-flight) until openGate().
  void closeGate();
  void openGate();

  /// The black-box ring of recent requests (serve/FlightRecorder.h).
  FlightRecorder &recorder() { return Recorder; }

private:
  struct Job {
    std::string Text;
    std::function<void(std::string)> Done;
    std::chrono::steady_clock::time_point Enqueued;
  };

  void executorLoop();
  std::string process(const Job &J);
  /// One execution attempt. Returns "" (Resp result fields filled) or the
  /// error string, with \p KindOut its taxonomy classification. Routes out
  /// of process when the request opted in or its compile key \p Key is
  /// sandboxed.
  std::string executeOnce(const std::string &RawText, const ServeRequest &Req,
                          const std::string &Key, int64_t RemainingMs,
                          ServeResponse &Resp, ErrorKind &KindOut);
  /// The out-of-process path: frames the raw request to the supervisor's
  /// warm pool, decodes the child's response line.
  std::string executeSandbox(const std::string &RawText, const ExecEnv &Env,
                             ServeResponse &Resp, ErrorKind &KindOut);
  /// Lazily creates the supervisor (first sandbox-routed request).
  Supervisor &supervisor();
  /// True once \p Key has DegradeThreshold crash-kind failures.
  bool sandboxed(const std::string &Key);
  void recordCrash(const std::string &Key);
  std::string requestKey(const ServeRequest &Req) const;

  ServeConfig Cfg;
  std::vector<std::thread> Executors;

  mutable std::mutex QMu;
  std::condition_variable QueueCV; ///< Executors wait for work.
  std::condition_variable IdleCV;  ///< drain() waits for quiescence.
  std::deque<Job> Queue;
  bool Stopping = false;
  bool Joined = false;

  std::atomic<int64_t> QueueNow{0};
  std::atomic<int64_t> InflightNow{0};

  std::mutex GateMu;
  std::condition_variable GateCV;
  bool GateOpen = true;

  /// The degradation ladder: crash-kind failures (WorkerCrash / Internal)
  /// per compile key. A key never steps back in process.
  std::mutex LadderMu;
  std::map<std::string, int64_t> KeyCrashes;

  FlightRecorder Recorder;
  mutable std::mutex SupMu;
  std::unique_ptr<Supervisor> Sup;

  mutable std::mutex StatsMu;
  ServeStats Stats;
};

/// AF_UNIX transport for a Service. One accept thread, one handler thread
/// per connection, newline-delimited frames.
class SocketServer {
public:
  SocketServer(Service &Svc, std::string Path);
  ~SocketServer();

  /// Binds + listens + starts accepting. Returns false with \p Err set.
  bool start(std::string &Err);

  /// Graceful shutdown (the daemon's SIGTERM path): stop accepting, stop
  /// admitting (Service::beginShutdown), drain in-flight work, then
  /// unblock and join every connection handler. Idempotent.
  void shutdown();

  const std::string &path() const { return Path; }

private:
  void acceptLoop();
  void handleConnection(int Fd);

  Service &Svc;
  std::string Path;
  int ListenFd = -1;
  int StopPipe[2] = {-1, -1};
  std::thread Acceptor;
  std::mutex ConnMu;
  std::vector<int> ConnFds;
  std::vector<std::thread> ConnThreads;
  bool Stopped = false;
};

} // namespace serve
} // namespace tawa

#endif // TAWA_SERVE_SERVER_H
