//===- sandbox_test.cpp - Out-of-process sandbox + flight recorder tests ------//
//
// Crash-proof serving coverage (docs/serving.md, docs/robustness.md):
//
//  * support/Subprocess: exit/signal classification, exec-failure errno
//    reporting, channel round trip,
//  * the supervisor's pinned restart-backoff policy,
//  * tawa-serve-resp-v1 parse(render()) byte identity (the sandbox wire
//    contract),
//  * the flight-recorder ring bound and crash-dump layout; dumped `ir`
//    requests round-trip through ir/Parser and replay through the fuzz
//    differ (the in-test equivalent of `tawa-fuzz --replay`),
//  * chaos drills through the real tawa-sandbox binary: SIGKILL
//    mid-request, hang (heartbeat loss), deadline exhaustion, and spawn
//    failure all yield structured responses with the sandbox ErrorKinds
//    while the service keeps serving,
//  * a dropped response write (serve.response-write fault) loses the
//    line, not the daemon,
//  * a fatal signal in the daemon dumps the last admitted request.
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include "serve/Execute.h"
#include "support/FaultInject.h"
#include "support/Json.h"
#include "support/Status.h"
#include "support/Subprocess.h"
#include "support/Support.h"
#include "tests/fuzz/Diff.h"
#include "tests/fuzz/Gen.h"
#include "tests/support/ServeWire.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <dirent.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define TAWA_TSAN_BUILD 1
#endif
#elif defined(__SANITIZE_THREAD__)
#define TAWA_TSAN_BUILD 1
#endif

using namespace tawa;
using namespace tawa::serve;

namespace {

std::string mkTmpDir(const char *Tag) {
  std::string Tmpl = formatString("/tmp/tawa-%s-XXXXXX", Tag);
  std::vector<char> Buf(Tmpl.begin(), Tmpl.end());
  Buf.push_back('\0');
  EXPECT_NE(::mkdtemp(Buf.data()), nullptr);
  return std::string(Buf.data());
}

/// Fast-failure sandbox test config: no retry backoff sleeps, no respawn
/// backoff, crash dumps into a fresh directory.
ServeConfig chaosConfig(const std::string &CrashDir) {
  ServeConfig C;
  C.Workers = 2;
  C.MaxRetries = 2;
  C.BackoffBaseMs = 0;
  C.CrashDumpDir = CrashDir;
  C.Sandbox.BackoffBaseMs = 0;
  return C;
}

/// Names of dump-* subdirectories in \p Dir, sorted.
std::vector<std::string> dumpDirs(const std::string &Dir) {
  std::vector<std::string> Out;
  DIR *D = ::opendir(Dir.c_str());
  if (!D)
    return Out;
  while (dirent *E = ::readdir(D)) {
    std::string Name = E->d_name;
    if (Name.compare(0, 5, "dump-") == 0)
      Out.push_back(Name);
  }
  ::closedir(D);
  std::sort(Out.begin(), Out.end());
  return Out;
}

bool fileExists(const std::string &Path) {
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0;
}

} // namespace

//===----------------------------------------------------------------------===//
// Subprocess primitive
//===----------------------------------------------------------------------===//

TEST(Subprocess, ExitCodeClassification) {
  std::string Err;
  auto P = Subprocess::spawn({"/bin/sh", "-c", "exit 7"}, Err);
  ASSERT_NE(P, nullptr) << Err;
  Subprocess::ExitStatus St = P->wait();
  EXPECT_FALSE(St.Running);
  EXPECT_FALSE(St.Signaled);
  EXPECT_EQ(St.Code, 7);
  EXPECT_EQ(St.describe(), "exit code 7");
}

TEST(Subprocess, SignalClassification) {
  std::string Err;
  auto P = Subprocess::spawn({"/bin/sh", "-c", "kill -9 $$"}, Err);
  ASSERT_NE(P, nullptr) << Err;
  Subprocess::ExitStatus St = P->wait();
  EXPECT_TRUE(St.Signaled);
  EXPECT_EQ(St.Sig, SIGKILL);
  EXPECT_EQ(St.describe(), "signal 9 (SIGKILL)");
}

TEST(Subprocess, ExecFailureReportsErrno) {
  std::string Err;
  auto P = Subprocess::spawn({"/nonexistent/tawa-no-such-binary"}, Err);
  EXPECT_EQ(P, nullptr);
  // The CLOEXEC status pipe carries the child's exec errno to the parent.
  EXPECT_NE(Err.find("exec /nonexistent/tawa-no-such-binary"),
            std::string::npos)
      << Err;
  EXPECT_NE(Err.find("No such file"), std::string::npos) << Err;
}

TEST(Subprocess, ChannelRoundTrip) {
  std::string Err;
  auto P = Subprocess::spawn({"/bin/cat"}, Err);
  ASSERT_NE(P, nullptr) << Err;
  const char Msg[] = "hello sandbox\n";
  ASSERT_EQ(::send(P->channel(), Msg, sizeof(Msg) - 1, MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(Msg) - 1));
  std::string Got;
  char Tmp[64];
  while (Got.find('\n') == std::string::npos) {
    ssize_t N = ::recv(P->channel(), Tmp, sizeof(Tmp), 0);
    ASSERT_GT(N, 0);
    Got.append(Tmp, static_cast<size_t>(N));
  }
  EXPECT_EQ(Got, "hello sandbox\n");
  // Destructor path: kill + reap a still-running child without hanging.
}

//===----------------------------------------------------------------------===//
// Supervisor policy (pure)
//===----------------------------------------------------------------------===//

TEST(SandboxSupervisor, RestartBackoffSequencePinned) {
  // min(10 << (K-1), 2000): 10, 20, 40, 80, 160, 320, 640, 1280, 2000, ...
  // The same function spaces the service's retries.
  EXPECT_EQ(backoffMs(0, 10, 2000), 0);
  EXPECT_EQ(backoffMs(-3, 10, 2000), 0);
  const int64_t Want[] = {10, 20, 40, 80, 160, 320, 640, 1280, 2000, 2000};
  for (int64_t K = 1; K <= 10; ++K)
    EXPECT_EQ(backoffMs(K, 10, 2000), Want[K - 1]) << K;
  // Shift saturates instead of overflowing on absurd failure counts.
  EXPECT_EQ(backoffMs(1000, 10, 2000), 2000);
  EXPECT_EQ(backoffMs(5, 0, 2000), 0);
}

TEST(SandboxSupervisor, ErrorKindNamesRoundTrip) {
  ErrorKind K = ErrorKind::None;
  EXPECT_TRUE(errorKindFromName("sandbox-crash", K));
  EXPECT_EQ(K, ErrorKind::SandboxCrash);
  EXPECT_TRUE(errorKindFromName("sandbox-timeout", K));
  EXPECT_EQ(K, ErrorKind::SandboxTimeout);
  EXPECT_TRUE(errorKindFromName("worker-crash", K));
  EXPECT_EQ(K, ErrorKind::WorkerCrash);
  EXPECT_FALSE(errorKindFromName("no-such-kind", K));
  // The taxonomy classifies the supervisor's deterministic strings.
  EXPECT_EQ(classifyError("sandbox crash: signal 9 (SIGKILL)"),
            ErrorKind::SandboxCrash);
  EXPECT_EQ(classifyError("sandbox spawn: runner not ready"),
            ErrorKind::SandboxCrash);
  EXPECT_EQ(classifyError("sandbox timeout: heartbeat lost"),
            ErrorKind::SandboxTimeout);
}

//===----------------------------------------------------------------------===//
// Wire contract: parseResponse is the inverse of render
//===----------------------------------------------------------------------===//

TEST(SandboxProtocol, ParseResponseRoundTripsByteIdentical) {
  std::vector<ServeResponse> Cases;
  {
    ServeResponse R;
    R.Id = "run-1";
    R.Attempts = 2;
    R.Degrade = "sandbox";
    R.HasRun = true;
    R.Micros = 12.5;
    R.TFlops = 1.25;
    R.MaxRelError = 0.001;
    R.SmemBytes = 1024;
    R.RegsPerThread = 128;
    Cases.push_back(R);
  }
  {
    ServeResponse R;
    R.Id = "ir-1";
    R.Attempts = 1;
    R.HasIr = true;
    R.Outputs = {"00deadbeef00cafe", "1122334455667788"};
    R.Cycles = 1234;
    Cases.push_back(R);
  }
  {
    ServeResponse R;
    R.Id = "fail-1";
    R.St = ServeResponse::Status::Failed;
    R.Error = "worker crash: injected worker-task fault";
    R.ErrorKind = "worker-crash";
    R.Attempts = 3;
    R.Degrade = "fused";
    Cases.push_back(R);
  }
  {
    ServeResponse R;
    R.St = ServeResponse::Status::Rejected;
    R.Reason = "bad-request";
    R.Error = "byte 1: expected object";
    Cases.push_back(R);
  }
  for (const ServeResponse &R : Cases) {
    std::string Wire = R.render();
    ServeResponse Back;
    ASSERT_EQ(parseResponse(Wire, Back), "") << Wire;
    // Byte identity of the re-render is the wire contract the supervisor
    // relies on: parent-re-rendered child responses are unchanged.
    EXPECT_EQ(Back.render(), Wire);
  }
  ServeResponse Bad;
  EXPECT_NE(parseResponse("not json", Bad), "");
  EXPECT_NE(parseResponse("{\"schema\":\"wrong\"}", Bad), "");
}

TEST(SandboxProtocol, InfiniteMaxRelErrorRendersAsNullAndRoundTrips) {
  // TensorData::maxRelDiff reads +infinity for a NaN or infinite output
  // element. JSON has no infinity: the field renders as null, and the
  // parse must read null back as +infinity so the supervisor's re-render
  // of a sandboxed response keeps its bytes.
  ServeResponse R;
  R.Id = "nan-out";
  R.HasRun = true;
  R.Micros = 3.5;
  R.TFlops = 0.5;
  R.MaxRelError = std::numeric_limits<double>::infinity();
  std::string Wire = R.render();
  EXPECT_NE(Wire.find("\"max_rel_error\":null"), std::string::npos) << Wire;
  JsonValue Doc;
  std::string Err;
  EXPECT_TRUE(parseJson(Wire, Doc, Err)) << Err << ": " << Wire;
  ServeResponse Back;
  ASSERT_EQ(parseResponse(Wire, Back), "") << Wire;
  EXPECT_EQ(Back.MaxRelError, std::numeric_limits<double>::infinity());
  EXPECT_EQ(Back.render(), Wire);
}

//===----------------------------------------------------------------------===//
// Flight recorder
//===----------------------------------------------------------------------===//

TEST(FlightRecorder, RingBoundAndPingSkip) {
  FlightRecorder R(3, "");
  for (int I = 0; I < 5; ++I) {
    std::string Line = gemmReq(formatString("r-%d", I));
    ServeRequest Req;
    ASSERT_EQ(parseRequest(Line, Req), "");
    R.record(Req, Line);
    if (I == 2) {
      // Pings carry no repro value and never enter the ring.
      ServeRequest Ping;
      std::string PingLine =
          "{\"schema\":\"tawa-serve-req-v1\",\"id\":\"p\",\"kind\":\"ping\"}";
      ASSERT_EQ(parseRequest(PingLine, Ping), "");
      R.record(Ping, PingLine);
    }
  }
  std::vector<FlightRecorder::Entry> S = R.snapshot();
  ASSERT_EQ(S.size(), 3u);
  EXPECT_EQ(S[0].Id, "r-2");
  EXPECT_EQ(S[1].Id, "r-3");
  EXPECT_EQ(S[2].Id, "r-4");
  EXPECT_EQ(S[0].Seq, 3);
  EXPECT_EQ(S[2].Seq, 5);
  EXPECT_EQ(S[0].Kind, "gemm");
  // No crash dir: dump is a no-op that reports no artifact.
  EXPECT_EQ(R.dump("sandbox-crash", "detail"), "");
  EXPECT_EQ(R.dumps(), 0);
}

TEST(FlightRecorder, DumpRoundTripsThroughParserAndFuzzReplay) {
  std::string Dir = mkTmpDir("fr-dump");
  std::string Corpus = readFile(corpusPath("gemm_ws.tawa"));
  FlightRecorder R(8, Dir);

  std::string GemmLine = gemmReq("dump-gemm");
  std::string IrLine = irReq("dump-ir", Corpus);
  ServeRequest Req;
  ASSERT_EQ(parseRequest(GemmLine, Req), "");
  R.record(Req, GemmLine);
  ASSERT_EQ(parseRequest(IrLine, Req), "");
  R.record(Req, IrLine);

  std::string DumpDir = R.dump("sandbox-crash", "signal 9 (SIGKILL)");
  ASSERT_NE(DumpDir, "");
  EXPECT_EQ(DumpDir, Dir + "/dump-1-sandbox-crash");
  EXPECT_EQ(R.dumps(), 1);

  // Manifest names every entry and its artifacts.
  JsonValue M;
  std::string Err;
  ASSERT_TRUE(parseJson(readFile(DumpDir + "/MANIFEST.json"), M, Err)) << Err;
  EXPECT_EQ(M.getString("schema", ""), "tawa-crash-dump-v1");
  EXPECT_EQ(M.getString("reason", ""), "sandbox-crash");
  EXPECT_EQ(M.getInt("entries", 0), 2);
  ASSERT_TRUE(fileExists(DumpDir + "/req-1.json"));
  ASSERT_TRUE(fileExists(DumpDir + "/req-2.json"));
  ASSERT_TRUE(fileExists(DumpDir + "/req-2.tawa"));

  // The raw request line round-trips verbatim (trailing newline added).
  EXPECT_EQ(readFile(DumpDir + "/req-1.json"), GemmLine + "\n");

  // The ir entry's .tawa artifact IS the corpus text, and replays through
  // the fuzz harness — ir/Parser round trip + seven-combo differential,
  // exactly what `tawa-fuzz --replay` runs on a committed repro.
  std::string Tawa = readFile(DumpDir + "/req-2.tawa");
  EXPECT_EQ(Tawa, Corpus);
  fuzz::PreparedCase P;
  ASSERT_EQ(fuzz::loadCase(Tawa, P), "");
  EXPECT_EQ(fuzz::diffCase(P), "");
}

//===----------------------------------------------------------------------===//
// Chaos drills through the real tawa-sandbox binary
//===----------------------------------------------------------------------===//

TEST(SandboxService, SandboxPingRoundTrips) {
  ServeConfig C = chaosConfig("");
  Service Svc(C);
  std::string L = Svc.call("{\"schema\":\"tawa-serve-req-v1\",\"id\":\"sp\","
                           "\"kind\":\"ping\",\"sandbox\":true}");
  EXPECT_EQ(respField(L, "status"), "ok") << L;
  EXPECT_EQ(respField(L, "degrade"), "sandbox") << L;
  EXPECT_EQ(Svc.stats().SandboxRequests, 1);
  EXPECT_EQ(Svc.stats().SandboxSpawns, 1);
  Svc.shutdown();
}

TEST(SandboxService, ServiceExecEnvReachesTheSandbox) {
  // A step budget set on the service in code, not through the
  // environment, must bind out of process too: the supervisor's frame
  // carries the attempt's whole ExecEnv, so in and out of process answer
  // alike.
  ServeConfig C = chaosConfig("");
  C.DefaultMaxSteps = 1;
  C.MaxRetries = 0;
  Service Svc(C);
  std::string Corpus = readFile(corpusPath("gemm_ws.tawa"));
  std::string In = Svc.call(irReq("in", Corpus));
  std::string Out = Svc.call(irReq("out", Corpus, /*Sandbox=*/true));
  EXPECT_EQ(respField(In, "status"), "failed") << In;
  EXPECT_EQ(respField(In, "error_kind"), "step-budget") << In;
  EXPECT_EQ(respField(Out, "degrade"), "sandbox") << Out;
  for (const char *Field : {"status", "error_kind", "error"})
    EXPECT_EQ(respField(Out, Field), respField(In, Field))
        << Field << "\n" << In << "\n" << Out;
  Svc.shutdown();
}

TEST(SandboxService, MalformedFrameFieldIsStreamCorruption) {
  // The runner parses every frame field strictly: a malformed number is a
  // corrupted stream, and it exits 2 for the supervisor to replace it.
  Supervisor Sup{SandboxConfig()}; // Resolves the runner; spawns nothing.
  for (const char *Frame :
       {"req 100 - {}",                           // The fields are missing.
        "req 100 1000000 two - {}",               // Not a number.
        "req 1e3 1000000 0 - {}",                 // Trailing garbage.
        "req 100 99999999999999999999 0 - {}"}) { // Out of range.
    std::string Err;
    auto P = Subprocess::spawn({Sup.config().Binary}, Err);
    ASSERT_NE(P, nullptr) << Err;
    ASSERT_TRUE(sendLine(P->channel(), Frame));
    EXPECT_EQ(P->wait().describe(), "exit code 2") << Frame;
  }
}

/// The SIGKILL-recovery contract, pinned at a given executor count: the
/// error string, kind, attempt count and dump layout are identical at
/// any Workers — the acceptance bar for the sandbox layer.
void runSigkillRecoveryDrill(int64_t Workers) {
  SCOPED_TRACE(formatString("Workers=%lld", static_cast<long long>(Workers)));
  std::string Dir = mkTmpDir("sbx-kill");
  ServeConfig C = chaosConfig(Dir);
  C.Workers = Workers;
  Service Svc(C);

  // Seed the black box with an ir request so the crash dump carries a
  // replayable .tawa artifact.
  std::string Corpus = readFile(corpusPath("gemm_ws.tawa"));
  std::string IrResp = Svc.call(irReq("pre-crash-ir", Corpus));
  EXPECT_EQ(respField(IrResp, "status"), "ok") << IrResp;

  // Every sandboxed attempt dies to its own SIGKILL (the fault spec is
  // forwarded per-frame, so each respawned child re-arms it).
  ASSERT_TRUE(faults::configure("sandbox.kill:1.0:1"));
  std::string L = Svc.call(gemmReq("kill-drill", /*Sandbox=*/true));
  faults::reset();

  EXPECT_EQ(respField(L, "status"), "failed") << L;
  EXPECT_EQ(respField(L, "error_kind"), "sandbox-crash") << L;
  EXPECT_EQ(respField(L, "error"), "sandbox crash: signal 9 (SIGKILL)") << L;
  EXPECT_EQ(respField(L, "attempts"), "3") << L; // 1 + MaxRetries.
  EXPECT_EQ(respField(L, "degrade"), "sandbox") << L;

  // The daemon survived: the same key succeeds out of process, and
  // in-process requests never noticed.
  std::string L2 = Svc.call(gemmReq("post-crash", /*Sandbox=*/true));
  EXPECT_EQ(respField(L2, "status"), "ok") << L2;
  EXPECT_EQ(respField(L2, "degrade"), "sandbox") << L2;
  std::string L3 = Svc.call(gemmReq("post-crash-local"));
  EXPECT_EQ(respField(L3, "status"), "ok") << L3;

  ServeStats S = Svc.stats();
  EXPECT_EQ(S.SandboxCrashes, 3);
  EXPECT_EQ(S.SandboxTimeouts, 0);
  EXPECT_GE(S.CrashDumps, 1);

  // Every sandbox death flushed the black box; the first dump holds the
  // pre-crash history including the replayable ir artifact.
  std::vector<std::string> Dumps = dumpDirs(Dir);
  ASSERT_GE(Dumps.size(), 1u);
  EXPECT_EQ(Dumps[0], "dump-1-sandbox-crash");
  std::string DumpDir = Dir + "/" + Dumps[0];
  ASSERT_TRUE(fileExists(DumpDir + "/MANIFEST.json"));
  ASSERT_TRUE(fileExists(DumpDir + "/req-1.tawa"));
  std::string Tawa = readFile(DumpDir + "/req-1.tawa");
  EXPECT_EQ(Tawa, Corpus);
  fuzz::PreparedCase P;
  ASSERT_EQ(fuzz::loadCase(Tawa, P), "");
  Svc.shutdown();
}

TEST(SandboxService, SigkillMidRequestRecoversWithStructuredResponse) {
  runSigkillRecoveryDrill(1);
  runSigkillRecoveryDrill(2);
  runSigkillRecoveryDrill(4);
}

TEST(SandboxService, HangTripsHeartbeatTimeoutDeterministically) {
  std::string Dir = mkTmpDir("sbx-hang");
  ServeConfig C = chaosConfig(Dir);
  C.Sandbox.HeartbeatTimeoutMs = 600;
  Service Svc(C);

  // The child freezes before its first heartbeat; the supervisor's
  // heartbeat deadline trips and SIGKILLs it. Timeouts fail fast — the
  // request already consumed its budget — so exactly one attempt.
  ASSERT_TRUE(faults::configure("sandbox.hang:1.0:1"));
  std::string L = Svc.call(gemmReq("hang-drill", /*Sandbox=*/true));
  faults::reset();

  EXPECT_EQ(respField(L, "status"), "failed") << L;
  EXPECT_EQ(respField(L, "error_kind"), "sandbox-timeout") << L;
  EXPECT_EQ(respField(L, "error"), "sandbox timeout: heartbeat lost") << L;
  EXPECT_EQ(respField(L, "attempts"), "1") << L;

  std::string L2 = Svc.call(gemmReq("post-hang", /*Sandbox=*/true));
  EXPECT_EQ(respField(L2, "status"), "ok") << L2;

  ServeStats S = Svc.stats();
  EXPECT_EQ(S.SandboxTimeouts, 1);
  std::vector<std::string> Dumps = dumpDirs(Dir);
  ASSERT_EQ(Dumps.size(), 1u);
  EXPECT_EQ(Dumps[0], "dump-1-sandbox-timeout");
  Svc.shutdown();
}

TEST(SandboxService, DeadlineExceededKillsSleeperMidRequest) {
  ServeConfig C = chaosConfig("");
  C.Sandbox.HeartbeatTimeoutMs = 600;
  Service Svc(C);

  // The child sleeps (heartbeats flowing, so no heartbeat trip) far past
  // the request's deadline budget; the supervisor kills it at
  // remaining + heartbeat-grace.
  std::string L = Svc.call(gemmReq("sleeper", /*Sandbox=*/true,
                                   /*SleepMs=*/5000, /*DeadlineMs=*/150));
  EXPECT_EQ(respField(L, "status"), "failed") << L;
  EXPECT_EQ(respField(L, "error_kind"), "sandbox-timeout") << L;
  EXPECT_EQ(respField(L, "error"), "sandbox timeout: deadline exceeded") << L;
  EXPECT_EQ(Svc.stats().SandboxTimeouts, 1);
  Svc.shutdown();
}

TEST(SandboxService, SpawnFaultInjectedFailsStructuredWithoutDump) {
  std::string Dir = mkTmpDir("sbx-spawn");
  ServeConfig C = chaosConfig(Dir);
  Service Svc(C);

  ASSERT_TRUE(faults::configure("sandbox.spawn:1.0:1"));
  std::string L = Svc.call(gemmReq("spawn-drill", /*Sandbox=*/true));
  faults::reset();

  EXPECT_EQ(respField(L, "status"), "failed") << L;
  EXPECT_EQ(respField(L, "error_kind"), "sandbox-crash") << L;
  EXPECT_EQ(respField(L, "error"), "sandbox spawn: injected sandbox.spawn fault")
      << L;
  EXPECT_EQ(respField(L, "attempts"), "3") << L; // Spawn errors retry.
  // Spawn failures are not child deaths: no black-box flush.
  EXPECT_EQ(Svc.stats().CrashDumps, 0);
  EXPECT_EQ(dumpDirs(Dir).size(), 0u);

  std::string L2 = Svc.call(gemmReq("post-spawn", /*Sandbox=*/true));
  EXPECT_EQ(respField(L2, "status"), "ok") << L2;
  Svc.shutdown();
}

TEST(SandboxService, MissingRunnerBinaryReportsExecErrno) {
  ServeConfig C = chaosConfig("");
  C.MaxRetries = 0;
  C.Sandbox.Binary = "/nonexistent/tawa-sandbox";
  Service Svc(C);
  std::string L = Svc.call(gemmReq("no-binary", /*Sandbox=*/true));
  EXPECT_EQ(respField(L, "status"), "failed") << L;
  EXPECT_EQ(respField(L, "error_kind"), "sandbox-crash") << L;
  std::string Err = respField(L, "error");
  EXPECT_EQ(Err.compare(0, 14, "sandbox spawn:"), 0) << L;
  EXPECT_NE(Err.find("No such file"), std::string::npos) << L;
  Svc.shutdown();
}

//===----------------------------------------------------------------------===//
// serve.response-write fault: the line is lost, never the daemon
//===----------------------------------------------------------------------===//

TEST(SandboxService, ResponseWriteFaultDropsLineNotDaemon) {
  ServeConfig C;
  C.Workers = 1;
  Service Svc(C);
  std::string Path = formatString("/tmp/tawa-sbx-wr-%d.sock", ::getpid());
  SocketServer Srv(Svc, Path);
  std::string Err;
  ASSERT_TRUE(Srv.start(Err)) << Err;

  int Fd = connectUnix(Path);
  ASSERT_GE(Fd, 0);

  // Armed write fault: the ping executes, its response line is dropped.
  ASSERT_TRUE(faults::configure("serve.response-write:1.0:1"));
  ASSERT_TRUE(sendLine(
      Fd, "{\"schema\":\"tawa-serve-req-v1\",\"id\":\"lost\","
          "\"kind\":\"ping\"}"));
  // The write is attempted inside the executor's Done callback, which
  // completes before the request stops counting as in-flight.
  while (Svc.stats().Succeeded < 1 || Svc.inflightNow() != 0)
    std::this_thread::yield();
  faults::reset();

  ASSERT_TRUE(sendLine(
      Fd, "{\"schema\":\"tawa-serve-req-v1\",\"id\":\"kept\","
          "\"kind\":\"ping\"}"));
  std::string Buf, Line;
  ASSERT_TRUE(recvLine(Fd, Buf, Line));
  // The first line the client ever sees is the SECOND response: the
  // dropped write lost one answer, not the connection or the daemon.
  EXPECT_EQ(respField(Line, "id"), "kept") << Line;
  ::close(Fd);
  Srv.shutdown();
  Svc.shutdown();
}

//===----------------------------------------------------------------------===//
// Daemon-fatal black box
//===----------------------------------------------------------------------===//

TEST(SandboxService, FatalSignalDumpsLastAdmittedRequest) {
#ifdef TAWA_TSAN_BUILD
  GTEST_SKIP() << "fork-based death test skipped under TSan";
#else
  std::string Dir = mkTmpDir("sbx-fatal");
  FlightRecorder R(4, Dir);
  FlightRecorder::installFatalSignalDump(R);
  std::string Line = gemmReq("fatal-last");
  ServeRequest Req;
  ASSERT_EQ(parseRequest(Line, Req), "");
  R.record(Req, Line);

  // The handler writes a pre-rendered buffer with raw syscalls, so the
  // forked child only has to take the signal.
  pid_t Pid = ::fork();
  ASSERT_GE(Pid, 0);
  if (Pid == 0) {
    ::raise(SIGSEGV);
    ::_exit(42); // Unreachable when the handler re-raises correctly.
  }
  int St = 0;
  ASSERT_EQ(::waitpid(Pid, &St, 0), Pid);
  ASSERT_TRUE(WIFSIGNALED(St));
  EXPECT_EQ(WTERMSIG(St), SIGSEGV);
  EXPECT_EQ(readFile(Dir + "/daemon-fatal.json"), Line + "\n");
#endif
}
