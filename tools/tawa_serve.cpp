//===- tawa_serve.cpp - Simulation service daemon ------------------------------//
//
// Serves kernel-configuration requests over a unix socket (docs/serving.md):
//
//   tawa-serve --socket /tmp/tawa.sock
//
// Clients send one tawa-serve-req-v1 JSON document per line and read one
// tawa-serve-resp-v1 line back. SIGTERM / SIGINT shut down gracefully:
// in-flight and already-queued requests finish and their responses are
// delivered, new requests are shed with `rejected: shutting-down`, then the
// process exits 0 after printing a stats summary.
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>

#include <unistd.h>

using namespace tawa;

namespace {

// Self-pipe: the handler only writes a byte; all shutdown work happens on
// the main thread after the blocking read returns.
int SigPipe[2] = {-1, -1};

void onSignal(int) {
  char C = 'x';
  (void)!::write(SigPipe[1], &C, 1);
}

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s --socket PATH [--crash-dir PATH]\n"
               "  --crash-dir PATH  flight-recorder crash dumps go here\n"
               "Environment: TAWA_SERVE_WORKERS, TAWA_SERVE_QUEUE_DEPTH,\n"
               "TAWA_SERVE_EXEC_WORKERS, TAWA_SANDBOX_BIN "
               "(docs/serving.md),\n"
               "plus TAWA_CACHE_DIR / TAWA_NO_FUSE / TAWA_FAULTS.\n",
               Argv0);
  return 1;
}

} // namespace

int main(int argc, char **argv) {
  std::string Path;
  std::string CrashDir;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "--socket" && I + 1 < argc) {
      Path = argv[++I];
    } else if (Arg == "--crash-dir" && I + 1 < argc) {
      CrashDir = argv[++I];
    } else {
      return usage(argv[0]);
    }
  }
  if (Path.empty())
    return usage(argv[0]);

  if (::pipe(SigPipe) < 0) {
    std::fprintf(stderr, "tawa-serve: pipe: %s\n", std::strerror(errno));
    return 1;
  }
  std::signal(SIGTERM, onSignal);
  std::signal(SIGINT, onSignal);
  std::signal(SIGPIPE, SIG_IGN);

  serve::ServeConfig Cfg = serve::ServeConfig::fromEnv();
  if (!CrashDir.empty())
    Cfg.CrashDumpDir = CrashDir;
  serve::Service Svc(Cfg);
  // Best-effort black box for the daemon itself: a fatal signal dumps the
  // last admitted request before the default action re-delivers.
  serve::FlightRecorder::installFatalSignalDump(Svc.recorder());
  serve::SocketServer Srv(Svc, Path);
  std::string Err;
  if (!Srv.start(Err)) {
    std::fprintf(stderr, "tawa-serve: %s\n", Err.c_str());
    return 1;
  }
  // The readiness line scripts wait for before firing load.
  std::printf("tawa-serve: listening on %s\n", Path.c_str());
  std::fflush(stdout);

  char C;
  while (::read(SigPipe[0], &C, 1) < 0 && errno == EINTR) {
  }

  std::fprintf(stderr, "tawa-serve: draining\n");
  Srv.shutdown();
  Svc.shutdown();

  serve::ServeStats S = Svc.stats();
  std::printf("tawa-serve: accepted=%lld succeeded=%lld failed=%lld "
              "bad_requests=%lld rejected_overload=%lld "
              "rejected_shutdown=%lld retries=%lld degrade_steps=%lld "
              "sandbox_requests=%lld sandbox_crashes=%lld "
              "sandbox_timeouts=%lld sandbox_spawns=%lld crash_dumps=%lld\n",
              static_cast<long long>(S.Accepted),
              static_cast<long long>(S.Succeeded),
              static_cast<long long>(S.Failed),
              static_cast<long long>(S.BadRequests),
              static_cast<long long>(S.RejectedOverload),
              static_cast<long long>(S.RejectedShutdown),
              static_cast<long long>(S.Retries),
              static_cast<long long>(S.DegradeSteps),
              static_cast<long long>(S.SandboxRequests),
              static_cast<long long>(S.SandboxCrashes),
              static_cast<long long>(S.SandboxTimeouts),
              static_cast<long long>(S.SandboxSpawns),
              static_cast<long long>(S.CrashDumps));
  return 0;
}
