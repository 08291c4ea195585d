//===- Subprocess.h - fork/exec child-process primitive ---------*- C++ -*-===//
//
// The out-of-process execution sandbox's foundation (docs/serving.md): a
// child process spawned by fork + execve with a bidirectional AF_UNIX
// socketpair as its stdin/stdout, the parent's environment, and
// waitpid-based exit/signal classification. The parent talks
// newline-delimited frames over channel(); a dead peer surfaces as a
// send/recv error, never SIGPIPE (MSG_NOSIGNAL).
//
// This layer is transport + lifecycle only. The sandbox protocol (request
// framing, heartbeats, restart policy) lives in serve/Sandbox; the runner
// binary is tools/tawa_sandbox.cpp.
//
//===----------------------------------------------------------------------===//

#ifndef TAWA_SUPPORT_SUBPROCESS_H
#define TAWA_SUPPORT_SUBPROCESS_H

#include <memory>
#include <string>
#include <vector>

namespace tawa {

class Subprocess {
public:
  /// How a child exited, from waitpid. describe() renders the
  /// deterministic forms "exit code N" / "signal N (NAME)" used in
  /// sandbox-crash error strings.
  struct ExitStatus {
    bool Running = true;   ///< Still alive (poll() only).
    bool Signaled = false; ///< Terminated by a signal.
    int Code = 0;          ///< Exit code when !Signaled.
    int Sig = 0;           ///< Terminating signal when Signaled.
    std::string describe() const;
  };

  /// Forks + execs \p Argv; Argv[0] is the executable path (execve, no
  /// PATH search). Returns null with \p Err set when the pipe/fork/exec
  /// fails (exec failures are detected in the parent via a CLOEXEC status
  /// pipe, so a missing binary reports its errno instead of a dead child).
  static std::unique_ptr<Subprocess>
  spawn(const std::vector<std::string> &Argv, std::string &Err);

  /// Kills (SIGKILL by default) and reaps if still running.
  ~Subprocess();

  Subprocess(const Subprocess &) = delete;
  Subprocess &operator=(const Subprocess &) = delete;

  /// The parent's end of the socketpair wired to the child's stdin+stdout.
  int channel() const { return Channel; }
  int pid() const { return Pid; }

  /// Non-blocking reap: Running=true while the child lives; afterwards the
  /// exit/signal classification (sticky — repeat calls return the same).
  ExitStatus poll();
  /// Blocking reap.
  ExitStatus wait();
  /// Sends \p Sig if the child is still running (ESRCH is not an error).
  void kill(int Sig);

  /// "SIGKILL" / "SIGSEGV" / ... for the signals the supervisor
  /// classifies; "signal N" otherwise.
  static const char *signalName(int Sig);

private:
  Subprocess() = default;

  int Pid = -1;
  int Channel = -1;
  bool Reaped = false;
  ExitStatus Last;
};

} // namespace tawa

#endif // TAWA_SUPPORT_SUBPROCESS_H
