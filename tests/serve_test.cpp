//===- serve_test.cpp - Resilient simulation service tests ---------------------//
//
// tawa-serve robustness coverage (docs/serving.md):
//
//  * protocol strictness: poisoned requests shed as `bad-request`,
//  * deterministic admission: a pinned accept/reject sequence under a
//    closed execution gate,
//  * graceful shutdown: in-flight requests drain, new ones shed,
//  * retry/fail-fast split over the ErrorKind taxonomy,
//  * the per-key degradation ladder and the cache-disk circuit breaker,
//  * chaos soak: every fault-injection site armed at once, every request
//    still answered with a structured response,
//  * corpus replay: responses through the socket match responses rendered
//    from a direct Interpreter run byte-for-byte,
//  * crafted ir modules end in a classified error, never in the engines,
//    and the service keeps answering after them.
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include "serve/Execute.h"
#include "sim/Diag.h"
#include "sim/Interpreter.h"
#include "sim/Launch.h"
#include "sim/Replay.h"
#include "support/FaultInject.h"
#include "support/Json.h"
#include "support/ProgramCache.h"
#include "support/Status.h"
#include "support/Support.h"
#include "tests/fuzz/Gen.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace tawa;
using namespace tawa::serve;

namespace {

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << Path;
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

std::string corpusPath(const std::string &Name) {
  return std::string(TAWA_SOURCE_DIR) + "/tests/corpus/" + Name;
}

/// Field access on a response line.
std::string respField(const std::string &Line, const std::string &Key) {
  JsonValue V;
  std::string Err;
  EXPECT_TRUE(parseJson(Line, V, Err)) << Err << "\n" << Line;
  const JsonValue *F = V.find(Key);
  if (!F)
    return "";
  if (F->isString())
    return F->asString();
  return std::to_string(F->asInt64());
}

std::string pingReq(const std::string &Id, bool WaitGate = false) {
  return formatString("{\"schema\":\"tawa-serve-req-v1\",\"id\":\"%s\","
                      "\"kind\":\"ping\"%s}",
                      Id.c_str(),
                      WaitGate ? ",\"wait_gate\":true" : "");
}

std::string gemmReq(const std::string &Id) {
  return formatString(
      "{\"schema\":\"tawa-serve-req-v1\",\"id\":\"%s\",\"kind\":\"gemm\","
      "\"framework\":\"tawa\",\"m\":256,\"n\":256,\"k\":128,"
      "\"functional\":true}",
      Id.c_str());
}

std::string irReq(const std::string &Id, const std::string &IrText) {
  return "{\"schema\":\"tawa-serve-req-v1\",\"id\":\"" + Id +
         "\",\"kind\":\"ir\",\"ir\":\"" + JsonWriter::escape(IrText) + "\"}";
}

void waitInflight(Service &Svc, int64_t N) {
  while (Svc.inflightNow() != N)
    std::this_thread::yield();
}

/// Collects async responses; lets tests wait for an exact count.
struct Collector {
  std::mutex Mu;
  std::condition_variable CV;
  std::vector<std::string> Lines;

  std::function<void(std::string)> sink() {
    return [this](std::string L) {
      std::lock_guard<std::mutex> G(Mu);
      Lines.push_back(std::move(L));
      CV.notify_all();
    };
  }
  void waitFor(size_t N) {
    std::unique_lock<std::mutex> G(Mu);
    CV.wait(G, [&] { return Lines.size() >= N; });
  }
  /// The collected response for request id \p Id ("" when absent).
  std::string byId(const std::string &Id) {
    std::lock_guard<std::mutex> G(Mu);
    for (const std::string &L : Lines)
      if (respField(L, "id") == Id)
        return L;
    return "";
  }
};

//===----------------------------------------------------------------------===//
// Protocol
//===----------------------------------------------------------------------===//

TEST(ServeProtocol, StrictRequestValidation) {
  ServeRequest R;
  EXPECT_EQ(parseRequest("{nope", R).substr(0, 5), "byte ");
  EXPECT_NE(parseRequest("{\"kind\":\"gemm\"}", R).find("schema"),
            std::string::npos);
  EXPECT_NE(parseRequest("{\"schema\":\"tawa-serve-req-v1\","
                         "\"kind\":\"frobnicate\"}",
                         R)
                .find("kind"),
            std::string::npos);
  EXPECT_NE(parseRequest("{\"schema\":\"tawa-serve-req-v1\","
                         "\"kind\":\"gemm\",\"m\":0}",
                         R)
                .find("'m' out of range"),
            std::string::npos);
  EXPECT_NE(parseRequest("{\"schema\":\"tawa-serve-req-v1\","
                         "\"kind\":\"gemm\",\"m\":\"big\"}",
                         R)
                .find("'m' must be an integer"),
            std::string::npos);
  EXPECT_NE(parseRequest("{\"schema\":\"tawa-serve-req-v1\","
                         "\"kind\":\"ir\"}",
                         R)
                .find("'ir'"),
            std::string::npos);

  EXPECT_EQ(parseRequest("{\"schema\":\"tawa-serve-req-v1\",\"id\":\"x\","
                         "\"kind\":\"attention\",\"framework\":\"fa3\","
                         "\"seq_len\":512,\"heads\":2,\"causal\":true,"
                         "\"precision\":\"fp8\",\"deadline_ms\":1000}",
                         R),
            "");
  EXPECT_EQ(R.K, ServeRequest::Kind::Attention);
  EXPECT_EQ(R.F, Framework::FA3);
  EXPECT_EQ(R.Mha.SeqLen, 512);
  EXPECT_EQ(R.Mha.Heads, 2);
  EXPECT_TRUE(R.Mha.Causal);
  EXPECT_EQ(R.Mha.Prec, Precision::FP8);
  EXPECT_EQ(R.DeadlineMs, 1000);

  // The request-size limits sit above every Fig. 8-13 point asked for as a
  // timing request.
  for (const char *Fields :
       {"\"kind\":\"gemm\",\"m\":8192,\"n\":8192,\"k\":16384",
        "\"kind\":\"gemm\",\"m\":16384,\"n\":16384,\"k\":16384,"
        "\"batch\":8",
        "\"kind\":\"gemm\",\"m\":512,\"n\":512,\"k\":16384",
        "\"kind\":\"attention\",\"seq_len\":16384,\"batch\":4,"
        "\"heads\":32,\"head_dim\":128,\"causal\":true"})
    EXPECT_EQ(parseRequest(std::string("{\"schema\":\"tawa-serve-req-v1\",") +
                               Fields + "}",
                           R),
              "")
        << Fields;
}

TEST(ServeProtocol, ResponseRenderIsSingleLine) {
  ServeResponse Resp;
  Resp.Id = "r\n1"; // Newlines in ids must not break framing.
  Resp.St = ServeResponse::Status::Failed;
  Resp.Error = "worker crash: injected\nwith newline";
  Resp.ErrorKind = "worker-crash";
  Resp.Attempts = 2;
  std::string Line = Resp.render();
  EXPECT_EQ(Line.find('\n'), std::string::npos);
  EXPECT_EQ(respField(Line, "status"), "failed");
  EXPECT_EQ(respField(Line, "id"), "r\n1");
  EXPECT_EQ(respField(Line, "attempts"), "2");
}

//===----------------------------------------------------------------------===//
// Admission + shutdown
//===----------------------------------------------------------------------===//

TEST(ServeService, PingAndBadRequestsAreStructured) {
  ServeConfig C;
  C.Workers = 1;
  Service Svc(C);
  std::string Ok = Svc.call(pingReq("p1"));
  EXPECT_EQ(respField(Ok, "status"), "ok");
  EXPECT_EQ(respField(Ok, "id"), "p1");

  std::string Bad = Svc.call("this is not json");
  EXPECT_EQ(respField(Bad, "status"), "rejected");
  EXPECT_EQ(respField(Bad, "reason"), "bad-request");
  EXPECT_EQ(respField(Bad, "error").substr(0, 5), "byte ");

  ServeStats S = Svc.stats();
  EXPECT_EQ(S.Succeeded, 1);
  EXPECT_EQ(S.BadRequests, 1);
  Svc.shutdown();
}

TEST(ServeService, DeterministicOverloadSequence) {
  // One executor, queue depth 2, execution gated: the accept/reject
  // sequence is fully pinned. A executes (in flight), B and C queue,
  // D and E shed.
  ServeConfig C;
  C.Workers = 1;
  C.QueueDepth = 2;
  Service Svc(C);
  Svc.closeGate();

  Collector Got;
  Svc.submit(pingReq("A", true), Got.sink());
  waitInflight(Svc, 1);
  Svc.submit(pingReq("B", true), Got.sink());
  Svc.submit(pingReq("C", true), Got.sink());
  EXPECT_EQ(Svc.queueNow(), 2);
  Svc.submit(pingReq("D", true), Got.sink());
  Svc.submit(pingReq("E", true), Got.sink());

  // The sheds answered inline, before the gate ever opened.
  Got.waitFor(2);
  for (const char *Id : {"D", "E"}) {
    std::string L = Got.byId(Id);
    EXPECT_EQ(respField(L, "status"), "rejected") << L;
    EXPECT_EQ(respField(L, "reason"), "overloaded") << L;
  }

  Svc.openGate();
  Got.waitFor(5);
  for (const char *Id : {"A", "B", "C"})
    EXPECT_EQ(respField(Got.byId(Id), "status"), "ok") << Id;

  ServeStats S = Svc.stats();
  EXPECT_EQ(S.Accepted, 3);
  EXPECT_EQ(S.RejectedOverload, 2);
  EXPECT_EQ(S.Succeeded, 3);
  Svc.shutdown();
}

TEST(ServeService, ShutdownDrainsInflightAndShedsNew) {
  ServeConfig C;
  C.Workers = 1;
  Service Svc(C);
  Svc.closeGate();

  Collector Got;
  Svc.submit(pingReq("inflight", true), Got.sink());
  waitInflight(Svc, 1);

  Svc.beginShutdown();
  std::string Shed = Svc.call(pingReq("late"));
  EXPECT_EQ(respField(Shed, "status"), "rejected");
  EXPECT_EQ(respField(Shed, "reason"), "shutting-down");

  // The accepted request still completes — shutdown() blocks on it.
  Svc.openGate();
  Svc.shutdown();
  Got.waitFor(1);
  EXPECT_EQ(respField(Got.byId("inflight"), "status"), "ok");

  ServeStats S = Svc.stats();
  EXPECT_EQ(S.Accepted, 1);
  EXPECT_EQ(S.RejectedShutdown, 1);
  EXPECT_EQ(S.Succeeded, 1);
}

//===----------------------------------------------------------------------===//
// Retry / fail-fast
//===----------------------------------------------------------------------===//

TEST(ServeService, TransientKindsRetryThenFail) {
  ServeConfig C;
  C.Workers = 1;
  C.MaxRetries = 2;
  C.BackoffBaseMs = 0; // No sleeping in tests.
  C.DegradeThreshold = 100;
  Service Svc(C);

  // Rate-1.0 worker-task faults: every attempt crashes deterministically.
  ASSERT_TRUE(faults::configure("worker-task:1.0:5"));
  std::string L = Svc.call(gemmReq("retry"));
  faults::reset();

  EXPECT_EQ(respField(L, "status"), "failed") << L;
  EXPECT_EQ(respField(L, "error_kind"), "worker-crash") << L;
  EXPECT_EQ(respField(L, "attempts"), "3") << L; // 1 + MaxRetries.
  ServeStats S = Svc.stats();
  EXPECT_EQ(S.Retries, 2);
  EXPECT_EQ(S.Failed, 1);
  Svc.shutdown();
}

TEST(ServeService, DeterministicKindsFailFastWithDiagnostic) {
  ServeConfig C;
  C.Workers = 1;
  C.MaxRetries = 2;
  Service Svc(C);

  std::string Ir = readFile(corpusPath("protocol_ring_deadlock.tawa"));
  std::string L = Svc.call(irReq("dead", Ir));
  EXPECT_EQ(respField(L, "status"), "failed") << L;
  EXPECT_EQ(respField(L, "error_kind"), "deadlock") << L;
  // Fail fast: a deadlock replays identically, so no retry is spent.
  EXPECT_EQ(respField(L, "attempts"), "1") << L;
  // And the guardrail trip carries the structured post-mortem.
  JsonValue V;
  std::string Err;
  ASSERT_TRUE(parseJson(L, V, Err)) << Err;
  const JsonValue *Diag = V.find("diag");
  ASSERT_NE(Diag, nullptr) << L;
  EXPECT_EQ(Diag->getString("schema", ""), "tawa-diag-v1");
  EXPECT_EQ(Svc.stats().Retries, 0);
  Svc.shutdown();
}

//===----------------------------------------------------------------------===//
// Degradation ladder
//===----------------------------------------------------------------------===//

TEST(ServeService, DegradationLadderStepsPerCompileKey) {
  ServeConfig C;
  C.Workers = 1;
  C.MaxRetries = 0;
  C.DegradeThreshold = 1; // Every crash steps the ladder.
  Service Svc(C);

  ASSERT_TRUE(faults::configure("worker-task:1.0:5"));
  std::string L1 = Svc.call(gemmReq("l1"));
  std::string L2 = Svc.call(gemmReq("l2"));
  std::string L3 = Svc.call(gemmReq("l3"));
  std::string L4 = Svc.call(gemmReq("l4"));
  faults::reset();

  EXPECT_EQ(respField(L1, "degrade"), "fused") << L1;
  EXPECT_EQ(respField(L2, "degrade"), "unfused") << L2;
  EXPECT_EQ(respField(L3, "degrade"), "serial") << L3;
  // Ladder floor: out of process. The fault spec is forwarded with the
  // frame, so the crash happens INSIDE the sandbox — contained, and still
  // classified worker-crash through the structured child response.
  EXPECT_EQ(respField(L4, "degrade"), "sandbox") << L4;
  EXPECT_EQ(respField(L4, "status"), "failed") << L4;
  EXPECT_EQ(respField(L4, "error_kind"), "worker-crash") << L4;
  EXPECT_EQ(Svc.stats().DegradeSteps, 3);

  // The degraded mode is the safe mode: with faults gone the key still
  // runs (sandboxed) and succeeds.
  std::string L5 = Svc.call(gemmReq("l5"));
  EXPECT_EQ(respField(L5, "status"), "ok") << L5;
  EXPECT_EQ(respField(L5, "degrade"), "sandbox") << L5;
  Svc.shutdown();
}

//===----------------------------------------------------------------------===//
// Circuit breaker
//===----------------------------------------------------------------------===//

TEST(ServeService, BreakerTripsToMemoryOnlyAndRecovers) {
  char Tmpl[] = "/tmp/tawa-serve-breaker-XXXXXX";
  char *Dir = mkdtemp(Tmpl);
  ASSERT_NE(Dir, nullptr);
  ProgramCache::shared().setPersistDir(Dir);
  ProgramCache::shared().clear();

  ServeConfig C;
  C.Workers = 1;
  C.MaxRetries = 0;
  C.BreakerThreshold = 1;
  C.BreakerCooldownMs = 50;
  Service Svc(C);

  // Warm the disk layer (the read fault site only fires on an existing
  // cache file), then drop the in-memory entry so the next request must
  // go to disk.
  std::string L0 = Svc.call(gemmReq("b0"));
  EXPECT_EQ(respField(L0, "status"), "ok") << L0;
  ProgramCache::shared().clear();

  // Every disk read now fails: the load attempt produces the failure
  // delta that trips the breaker. The request itself still succeeds —
  // the cache degrades to compiling.
  ASSERT_TRUE(faults::configure("cache-read:1.0:3"));
  std::string L1 = Svc.call(gemmReq("b1"));
  faults::reset();
  EXPECT_EQ(respField(L1, "status"), "ok") << L1;
  EXPECT_EQ(ProgramCache::shared().getPersistDir(), "");
  EXPECT_EQ(Svc.stats().BreakerTrips, 1);

  // After the cooldown the next attempt probes (half-open): the disk is
  // healthy again, so the breaker closes and the disk layer is restored.
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  ProgramCache::shared().clear();
  std::string L2 = Svc.call(gemmReq("b2"));
  EXPECT_EQ(respField(L2, "status"), "ok") << L2;
  ServeStats S = Svc.stats();
  EXPECT_EQ(S.BreakerProbes, 1);
  EXPECT_EQ(S.BreakerCloses, 1);
  EXPECT_EQ(ProgramCache::shared().getPersistDir(), Dir);

  Svc.shutdown();
  ProgramCache::shared().setPersistDir("");
}

//===----------------------------------------------------------------------===//
// Chaos soak: all sites armed, everything still answers
//===----------------------------------------------------------------------===//

TEST(ServeService, ChaosSoakEveryRequestGetsStructuredResponse) {
  char Tmpl[] = "/tmp/tawa-serve-chaos-XXXXXX";
  char *Dir = mkdtemp(Tmpl);
  ASSERT_NE(Dir, nullptr);
  ProgramCache::shared().setPersistDir(Dir);
  ProgramCache::shared().clear();

  ServeConfig C;
  C.Workers = 4;
  C.MaxRetries = 1;
  C.BackoffBaseMs = 0;
  C.BreakerCooldownMs = 10;
  Service Svc(C);

  // Every injection site armed at once (the cache sites need the persist
  // dir above to have anything to fail). Moderate rates so both failure
  // and success paths run under the sanitizer legs.
  ASSERT_TRUE(faults::configure("cache-read:0.5:7,cache-write:0.5:8,"
                                "deserialize:0.4:9,arena-alloc:0.05:10,"
                                "worker-task:0.2:11"));

  std::string Ir = readFile(corpusPath("gemm_ws.tawa"));
  std::vector<std::string> Requests;
  for (int I = 0; I < 36; ++I) {
    switch (I % 6) {
    case 0:
      Requests.push_back(gemmReq(formatString("chaos-g%d", I)));
      break;
    case 1:
      Requests.push_back(formatString(
          "{\"schema\":\"tawa-serve-req-v1\",\"id\":\"chaos-a%d\","
          "\"kind\":\"attention\",\"framework\":\"tawa\",\"seq_len\":256,"
          "\"heads\":1,\"functional\":true}",
          I));
      break;
    case 2:
      Requests.push_back(pingReq(formatString("chaos-p%d", I)));
      break;
    case 3:
      Requests.push_back(irReq(formatString("chaos-i%d", I), Ir));
      break;
    case 4:
      Requests.push_back("{\"chaos\": \"not a valid request");
      break;
    default:
      Requests.push_back(formatString(
          "{\"schema\":\"tawa-serve-req-v1\",\"id\":\"chaos-u%d\","
          "\"kind\":\"warp-drive\"}",
          I));
      break;
    }
  }

  Collector Got;
  for (const std::string &R : Requests)
    Svc.submit(R, Got.sink());
  Got.waitFor(Requests.size());

  // 100% structured answers: every line parses and carries a known
  // status. Zero process deaths is implicit — we are still here.
  {
    std::lock_guard<std::mutex> G(Got.Mu);
    ASSERT_EQ(Got.Lines.size(), Requests.size());
    for (const std::string &L : Got.Lines) {
      JsonValue V;
      std::string Err;
      ASSERT_TRUE(parseJson(L, V, Err)) << Err << "\n" << L;
      std::string St = V.getString("status", "");
      EXPECT_TRUE(St == "ok" || St == "rejected" || St == "failed") << L;
    }
  }

  faults::reset();
  ProgramCache::shared().setPersistDir("");
  // Post-chaos the service is still healthy.
  EXPECT_EQ(respField(Svc.call(pingReq("after")), "status"), "ok");
  Svc.shutdown();
}

//===----------------------------------------------------------------------===//
// Socket transport
//===----------------------------------------------------------------------===//

int connectTo(const std::string &Path) {
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path))
    return -1;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) <
      0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

bool sendLine(int Fd, const std::string &Line) {
  std::string Out = Line + "\n";
  size_t Off = 0;
  while (Off < Out.size()) {
    ssize_t N = ::send(Fd, Out.data() + Off, Out.size() - Off,
                       MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Off += static_cast<size_t>(N);
  }
  return true;
}

bool recvLine(int Fd, std::string &Buf, std::string &Line) {
  for (;;) {
    size_t NL = Buf.find('\n');
    if (NL != std::string::npos) {
      Line = Buf.substr(0, NL);
      Buf.erase(0, NL + 1);
      return true;
    }
    char Tmp[4096];
    ssize_t N = ::recv(Fd, Tmp, sizeof(Tmp), 0);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    Buf.append(Tmp, static_cast<size_t>(N));
  }
}

std::string testSocketPath(const char *Tag) {
  return formatString("/tmp/tawa-serve-%s-%lld.sock", Tag,
                      static_cast<long long>(::getpid()));
}

TEST(ServeExecute, OutOfRangePipelineDepthIsCompileError) {
  // The engines narrow sw_pipeline_depth to the int32 lookahead of every
  // pipelined copy: 2^32 - 1 used to reach replay as -1 and index past the
  // end of its iteration history. The verifier now rejects the module.
  std::string Text = readFile(corpusPath("gemm_swp_ptr_epilogue.tawa"));
  const std::string Attr = "sw_pipeline_depth = 2";
  size_t At = Text.find(Attr);
  ASSERT_NE(At, std::string::npos);
  auto Run = [&](const std::string &Depth, ErrorKind &Kind) {
    std::string Crafted = Text;
    Crafted.replace(At, Attr.size(), "sw_pipeline_depth = " + Depth);
    ServeRequest Req;
    EXPECT_EQ(parseRequest(irReq("depth-" + Depth, Crafted), Req), "");
    ServeResponse Resp;
    Kind = ErrorKind::None;
    return executeRequest(Req, ExecEnv(), Resp, Kind);
  };
  for (const char *Depth : {"4294967295", "2147483648", "-1"}) {
    SCOPED_TRACE(Depth);
    ErrorKind Kind;
    std::string Err = Run(Depth, Kind);
    EXPECT_NE(Err.find("sw_pipeline_depth must be an integer"),
              std::string::npos)
        << Err;
    EXPECT_EQ(Kind, ErrorKind::CompileError);
  }
  // The largest accepted depth runs; no copy ever finds its iteration.
  ErrorKind Kind;
  EXPECT_EQ(Run("2147483647", Kind), "");
  EXPECT_EQ(Kind, ErrorKind::None);
}

TEST(ServeExecute, OutOfRangeLaunchIsCompileErrorAndServiceSurvives) {
  // Each launch below once killed the daemon: a negative or huge extent
  // sized an allocation (length_error, SIGSEGV, bad_alloc), a rank-5 shape
  // overflowed ShapeVec, a non-numeric extent decoded as 0. The decoder
  // now rejects them, and the same service goes on answering.
  std::string Text = readFile(corpusPath("protocol_ring.tawa"));
  const std::string Args = "fuzz.args = \"t3:64x64;t0:64x64\"";
  const std::string Grid = "fuzz.grid = [1, 1]";
  ASSERT_NE(Text.find(Args), std::string::npos);
  ASSERT_NE(Text.find(Grid), std::string::npos);
  auto Craft = [&](const std::string &Attr, const std::string &Value) {
    std::string Out = Text;
    Out.replace(Out.find(Attr), Attr.size(), Value);
    return Out;
  };
  struct Case {
    std::string Ir;
    const char *Error;
  };
  const Case Cases[] = {
      {Craft(Args, "fuzz.args = \"t3:64x64;t0:-64x64\""),
       "dimension -64 outside [1, 65536]"},
      {Craft(Args, "fuzz.args = \"t3:64x64;t0:4611686018427387904x4\""),
       "dimension 4611686018427387904 outside [1, 65536]"},
      {Craft(Args, "fuzz.args = \"t3:64x64;t0:1x1x1x64x64\""),
       "rank 5 exceeds 4"},
      {Craft(Grid, "fuzz.grid = [-1, 1]"), "fuzz.grid must have axes"},
      {Craft(Grid, "fuzz.grid = [100000, 100000]"),
       "fuzz.grid must have axes"},
      {Craft(Args, "fuzz.args = \"t3:64x64;t0:65536x65536\""),
       "more than 16777216 elements"},
      {Craft(Args, "fuzz.args = \"t3:64x64;t0:abcx64\""),
       "bad dimension 'abc'"},
      {Craft(Args, "fuzz.args = \"t3:64x64;t0:64x64junk\""),
       "bad dimension '64junk'"},
  };

  ServeConfig C;
  C.Workers = 1;
  Service Svc(C);
  int I = 0;
  for (const Case &K : Cases) {
    SCOPED_TRACE(K.Error);
    std::string Id = formatString("bad-%d", I++);
    std::string L = Svc.call(irReq(Id, K.Ir));
    EXPECT_EQ(respField(L, "status"), "failed") << L;
    EXPECT_EQ(respField(L, "error_kind"), "compile-error") << L;
    std::string Err = respField(L, "error");
    EXPECT_EQ(Err.rfind("ir launch: ", 0), 0u) << L;
    EXPECT_NE(Err.find(K.Error), std::string::npos) << L;
    EXPECT_EQ(respField(Svc.call(irReq(Id + "-ok", Text)), "status"), "ok");
  }
  Svc.shutdown();
}

TEST(ServeService, OversizedRequestsAreBadRequestsAndServiceSurvives) {
  // Every field of these is in range; their products are not. The GEMM
  // once threw std::bad_alloc on a 17 GB A tensor and aborted the daemon.
  // The attention request once built a 65-million-entry SM0 schedule and
  // replayed it outside every watchdog, so its deadline never fired.
  struct Case {
    const char *Fields;
    const char *Error;
  };
  const Case Cases[] = {
      {"\"kind\":\"gemm\",\"functional\":true,\"m\":65536,\"n\":1,"
       "\"k\":65536",
       "'batch*m*k' = 4294967296 exceeds 16777216"},
      {"\"kind\":\"attention\",\"seq_len\":65536,\"batch\":4096,"
       "\"heads\":4096,\"deadline_ms\":1000",
       "'batch*heads*seq_len' = 1099511627776 exceeds 4194304"},
  };

  ServeConfig C;
  C.Workers = 1;
  Service Svc(C);
  int I = 0;
  for (const Case &K : Cases) {
    SCOPED_TRACE(K.Error);
    std::string Id = formatString("big-%d", I++);
    std::string L = Svc.call("{\"schema\":\"tawa-serve-req-v1\",\"id\":\"" +
                             Id + "\"," + K.Fields + "}");
    EXPECT_EQ(respField(L, "status"), "rejected") << L;
    EXPECT_EQ(respField(L, "reason"), "bad-request") << L;
    EXPECT_EQ(respField(L, "error"), K.Error) << L;
    EXPECT_EQ(respField(Svc.call(gemmReq(Id + "-ok")), "status"), "ok");
  }
  Svc.shutdown();
}

TEST(ServeSocket, RoundTripAndGracefulShutdown) {
  ServeConfig C;
  C.Workers = 2;
  Service Svc(C);
  SocketServer Srv(Svc, testSocketPath("rt"));
  std::string Err;
  ASSERT_TRUE(Srv.start(Err)) << Err;

  int A = connectTo(Srv.path());
  ASSERT_GE(A, 0);
  std::string BufA, Line;
  ASSERT_TRUE(sendLine(A, pingReq("hello")));
  ASSERT_TRUE(recvLine(A, BufA, Line));
  EXPECT_EQ(respField(Line, "status"), "ok");
  EXPECT_EQ(respField(Line, "id"), "hello");

  // Park one request on the gate, connect a second client, then start a
  // graceful shutdown: the parked request must complete and the late one
  // must shed — exactly the daemon's SIGTERM semantics. "hello" stays in
  // flight until just after its response is written, so wait for it to
  // retire first: otherwise in-flight 1 can still be "hello", shutdown can
  // begin before "parked" is admitted, and "parked" is shed instead.
  waitInflight(Svc, 0);
  Svc.closeGate();
  ASSERT_TRUE(sendLine(A, pingReq("parked", true)));
  waitInflight(Svc, 1);
  int B = connectTo(Srv.path());
  ASSERT_GE(B, 0);

  std::thread Stopper([&] { Srv.shutdown(); });
  // A failed ASSERT below returns early. Open the gate first (shutdown()
  // waits for the parked request), then join: destroying a joinable
  // std::thread would abort the whole binary.
  struct StopOnExit {
    Service &Svc;
    std::thread &Stopper;
    ~StopOnExit() {
      Svc.openGate();
      if (Stopper.joinable())
        Stopper.join();
    }
  } Guard{Svc, Stopper};
  // Admission closes as soon as Stopper's beginShutdown lands; until
  // then probes still answer "ok" (the second executor serves them past
  // the parked request). Poll until a probe is shed.
  std::string BufB;
  for (int I = 0;; ++I) {
    ASSERT_TRUE(sendLine(B, pingReq(formatString("late-%d", I))));
    ASSERT_TRUE(recvLine(B, BufB, Line));
    if (respField(Line, "status") == "rejected")
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(respField(Line, "reason"), "shutting-down") << Line;

  Svc.openGate();
  ASSERT_TRUE(recvLine(A, BufA, Line));
  EXPECT_EQ(respField(Line, "status"), "ok") << Line;
  EXPECT_EQ(respField(Line, "id"), "parked") << Line;
  Stopper.join();

  // After shutdown both connections see EOF.
  EXPECT_FALSE(recvLine(A, BufA, Line));
  ::close(A);
  ::close(B);
  Svc.shutdown();
}

//===----------------------------------------------------------------------===//
// Corpus replay: server path vs direct execution, byte for byte
//===----------------------------------------------------------------------===//

/// Renders the response a direct (no-service) execution of \p Text
/// produces, using the same conventions Server's ir path promises:
/// fnv1a64 output hashes, replayed cycles, classified error + diag.
ServeResponse directIrResponse(const std::string &Id,
                               const std::string &Text,
                               int64_t NumWorkers) {
  ServeResponse Resp;
  Resp.Id = Id;
  Resp.Attempts = 1;

  fuzz::PreparedCase P;
  std::string LoadErr = fuzz::loadCase(Text, P);
  EXPECT_EQ(LoadErr, "");

  sim::GpuConfig Cfg;
  sim::RunOptions Opts;
  Opts.Functional = true;
  Opts.FuseBytecode = true;
  Opts.NumWorkers = NumWorkers;
  Opts.MaxSteps = 1000000;
  sim::ExecDiagnostic Diag;
  Opts.Diag = &Diag;
  std::vector<sim::TensorRef> Outputs = sim::materializeLaunch(P.Launch, Opts);
  if (!P.Launch.FaultSpec.empty())
    EXPECT_TRUE(faults::configure(P.Launch.FaultSpec));
  sim::Interpreter Interp(*P.Mod, Cfg);
  std::vector<sim::CtaTrace> Traces;
  std::string RunErr = Interp.runGrid(Opts, nullptr, &Traces);
  if (!P.Launch.FaultSpec.empty())
    faults::reset();

  if (!RunErr.empty()) {
    Resp.St = ServeResponse::Status::Failed;
    Resp.Error = RunErr;
    Resp.ErrorKind = errorKindName(classifyError(RunErr));
    if (!Diag.empty())
      Resp.DiagJson = Diag.renderJson();
    return Resp;
  }
  Resp.St = ServeResponse::Status::Ok;
  Resp.HasIr = true;
  for (const sim::TensorRef &T : Outputs)
    Resp.Outputs.push_back(formatString(
        "%016llx",
        static_cast<unsigned long long>(
            fnv1a64(T->data(), static_cast<size_t>(T->getNumElements()) *
                                   sizeof(float)))));
  std::vector<const sim::CtaTrace *> Ptrs;
  for (const sim::CtaTrace &T : Traces)
    Ptrs.push_back(&T);
  Resp.Cycles =
      sim::replaySmSchedule(Ptrs, Cfg, sim::ReplayParams()).Cycles;
  return Resp;
}

TEST(ServeSocket, CorpusReplayMatchesDirectExecutionByteForByte) {
  const char *Files[] = {
      "gemm_ws.tawa",
      "gemm_ws_persistent_fp8_batched.tawa",
      "gemm_swp_ptr_epilogue.tawa",
      "gemm_ws_worker_faults.tawa",
      "attention_causal_coarse.tawa",
      "protocol_ring.tawa",
      "protocol_ring_deadlock.tawa",
  };

  ServeConfig C;
  C.Workers = 1;
  C.MaxRetries = 0; // Attempts stay 1 even for the fault-injected case.
  C.ExecWorkers = 2;
  Service Svc(C);
  SocketServer Srv(Svc, testSocketPath("corpus"));
  std::string Err;
  ASSERT_TRUE(Srv.start(Err)) << Err;

  int Fd = connectTo(Srv.path());
  ASSERT_GE(Fd, 0);
  std::string Buf;
  for (const char *Name : Files) {
    SCOPED_TRACE(Name);
    std::string Text = readFile(corpusPath(Name));
    std::string Id = std::string("corpus-") + Name;
    ASSERT_TRUE(sendLine(Fd, irReq(Id, Text)));
    std::string Line;
    ASSERT_TRUE(recvLine(Fd, Buf, Line));
    EXPECT_EQ(Line, directIrResponse(Id, Text, C.ExecWorkers).render());
  }
  ::close(Fd);
  Srv.shutdown();
  Svc.shutdown();
}

} // namespace
