//===- Subprocess.cpp - fork/exec child-process primitive -----------------===//

#include "support/Subprocess.h"

#include "support/Support.h"

#include <cerrno>
#include <csignal>
#include <cstring>

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

using namespace tawa;

std::string Subprocess::ExitStatus::describe() const {
  if (Running)
    return "running";
  if (Signaled)
    return formatString("signal %d (%s)", Sig, signalName(Sig));
  return formatString("exit code %d", Code);
}

const char *Subprocess::signalName(int Sig) {
  switch (Sig) {
  case SIGKILL:
    return "SIGKILL";
  case SIGSEGV:
    return "SIGSEGV";
  case SIGABRT:
    return "SIGABRT";
  case SIGBUS:
    return "SIGBUS";
  case SIGILL:
    return "SIGILL";
  case SIGFPE:
    return "SIGFPE";
  case SIGTERM:
    return "SIGTERM";
  case SIGXCPU:
    return "SIGXCPU";
  default:
    return "signal";
  }
}

std::unique_ptr<Subprocess>
Subprocess::spawn(const std::vector<std::string> &Argv, std::string &Err) {
  if (Argv.empty()) {
    Err = "empty argv";
    return nullptr;
  }

  // Channel[0] stays in the parent; Channel[1] becomes the child's
  // stdin+stdout. SOCK_STREAM (not a pipe pair) so the parent can send
  // with MSG_NOSIGNAL — a request written to an already-dead child is an
  // EPIPE errno, never a SIGPIPE.
  int Ch[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, Ch) < 0) {
    Err = formatString("socketpair: %s", std::strerror(errno));
    return nullptr;
  }
  // Exec-status pipe: CLOEXEC on both ends, so a successful exec closes it
  // (parent reads EOF) while a failed exec writes the errno through it.
  int St[2];
  if (::pipe2(St, O_CLOEXEC) < 0) {
    Err = formatString("pipe2: %s", std::strerror(errno));
    ::close(Ch[0]);
    ::close(Ch[1]);
    return nullptr;
  }

  std::vector<char *> Args;
  for (const std::string &A : Argv)
    Args.push_back(const_cast<char *>(A.c_str()));
  Args.push_back(nullptr);

  int Pid = ::fork();
  if (Pid < 0) {
    Err = formatString("fork: %s", std::strerror(errno));
    ::close(Ch[0]);
    ::close(Ch[1]);
    ::close(St[0]);
    ::close(St[1]);
    return nullptr;
  }

  if (Pid == 0) {
    // Child: only async-signal-safe calls between fork and exec.
    ::close(Ch[0]);
    ::close(St[0]);
    if (::dup2(Ch[1], 0) < 0 || ::dup2(Ch[1], 1) < 0)
      ::_exit(127);
    ::close(Ch[1]);
    ::execve(Args[0], Args.data(), environ);
    int E = errno;
    (void)!::write(St[1], &E, sizeof(E));
    ::_exit(127);
  }

  // Parent.
  ::close(Ch[1]);
  ::close(St[1]);
  int ExecErrno = 0;
  ssize_t N;
  while ((N = ::read(St[0], &ExecErrno, sizeof(ExecErrno))) < 0 &&
         errno == EINTR) {
  }
  ::close(St[0]);
  if (N > 0) {
    // exec failed; reap the _exit(127) child.
    int WS;
    while (::waitpid(Pid, &WS, 0) < 0 && errno == EINTR) {
    }
    ::close(Ch[0]);
    Err = formatString("exec %s: %s", Argv[0].c_str(),
                       std::strerror(ExecErrno));
    return nullptr;
  }

  auto P = std::unique_ptr<Subprocess>(new Subprocess());
  P->Pid = Pid;
  P->Channel = Ch[0];
  return P;
}

Subprocess::~Subprocess() {
  if (!Reaped) {
    kill(SIGKILL);
    wait();
  }
  if (Channel >= 0)
    ::close(Channel);
}

Subprocess::ExitStatus Subprocess::poll() {
  if (Reaped)
    return Last;
  int WS;
  int R = ::waitpid(Pid, &WS, WNOHANG);
  if (R == 0)
    return Last; // Still running.
  Reaped = true;
  Last.Running = false;
  if (R < 0) {
    // Reaped elsewhere (should not happen); classify as a plain exit.
    Last.Signaled = false;
    Last.Code = -1;
    return Last;
  }
  if (WIFSIGNALED(WS)) {
    Last.Signaled = true;
    Last.Sig = WTERMSIG(WS);
  } else {
    Last.Signaled = false;
    Last.Code = WIFEXITED(WS) ? WEXITSTATUS(WS) : -1;
  }
  return Last;
}

Subprocess::ExitStatus Subprocess::wait() {
  if (Reaped)
    return Last;
  int WS;
  int R;
  while ((R = ::waitpid(Pid, &WS, 0)) < 0 && errno == EINTR) {
  }
  Reaped = true;
  Last.Running = false;
  if (R < 0) {
    Last.Signaled = false;
    Last.Code = -1;
    return Last;
  }
  if (WIFSIGNALED(WS)) {
    Last.Signaled = true;
    Last.Sig = WTERMSIG(WS);
  } else {
    Last.Signaled = false;
    Last.Code = WIFEXITED(WS) ? WEXITSTATUS(WS) : -1;
  }
  return Last;
}

void Subprocess::kill(int Sig) {
  if (!Reaped && Pid > 0)
    ::kill(Pid, Sig);
}
