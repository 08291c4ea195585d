//===- Execute.cpp - One serve-request execution attempt ------------------===//

#include "serve/Execute.h"

#include "driver/Runner.h"
#include "ir/Parser.h"
#include "sim/Diag.h"
#include "sim/Interpreter.h"
#include "sim/Launch.h"
#include "sim/Replay.h"
#include "support/Support.h"

#include <chrono>
#include <exception>
#include <memory>
#include <thread>
#include <vector>

using namespace tawa;
using namespace tawa::serve;

namespace {

std::string executeIr(const ServeRequest &Req, const ExecEnv &Env,
                      ServeResponse &Resp, ErrorKind &KindOut) {
  IrContext Ctx;
  std::string Err;
  std::unique_ptr<Module> Mod = parseModule(Ctx, Req.IrText, Err);
  if (!Mod) {
    KindOut = ErrorKind::CompileError;
    return "ir parse: " + Err;
  }
  sim::LaunchSpec Launch;
  std::string DErr = sim::decodeLaunchSpec(*Mod, Launch);
  // Fault injection is armed for the whole process, so a request carrying
  // a spec would fault every concurrent request and disarm the operator's.
  if (DErr.empty() && !Launch.FaultSpec.empty())
    DErr = "fuzz.faults is not accepted in a request; fault injection is "
           "armed for the whole process with TAWA_FAULTS";
  if (!DErr.empty()) {
    KindOut = ErrorKind::CompileError;
    return "ir launch: " + DErr;
  }

  sim::GpuConfig Cfg;
  sim::RunOptions Opts;
  Opts.Functional = true;
  Opts.NumWorkers = Env.ExecWorkers;
  Opts.MaxSteps = Req.MaxSteps > 0 ? Req.MaxSteps : Env.DefaultMaxSteps;
  Opts.MaxWallMs = Env.RemainingMs;
  sim::ExecDiagnostic Diag;
  Opts.Diag = &Diag;

  std::vector<sim::TensorRef> OutputTensors =
      sim::materializeLaunch(Launch, Opts);
  sim::Interpreter Interp(*Mod, Cfg);
  std::vector<sim::CtaTrace> Traces;
  std::string RunErr = Interp.runGrid(Opts, nullptr, &Traces);

  if (!RunErr.empty()) {
    KindOut = classifyError(RunErr);
    if (!Diag.empty())
      Resp.DiagJson = Diag.renderJson();
    return RunErr;
  }

  Resp.HasIr = true;
  for (const sim::TensorRef &T : OutputTensors)
    Resp.Outputs.push_back(formatString(
        "%016llx", static_cast<unsigned long long>(fnv1a64(
                       T->data(), static_cast<size_t>(T->getNumElements()) *
                                      sizeof(float)))));
  std::vector<const sim::CtaTrace *> Ptrs;
  Ptrs.reserve(Traces.size());
  for (const sim::CtaTrace &T : Traces)
    Ptrs.push_back(&T);
  Resp.Cycles = sim::replaySmSchedule(Ptrs, Cfg, sim::ReplayParams()).Cycles;
  for (sim::CtaTrace &T : Traces)
    sim::recycleActions(T);
  return "";
}

std::string executeOnce(const ServeRequest &Req, const ExecEnv &Env,
                        ServeResponse &Resp, ErrorKind &KindOut) {
  // Synthetic latency counts as execution time: inside the attempt, so a
  // sandboxed sleeper holds its request open (and is killable mid-flight —
  // the chaos drills depend on it).
  if (Req.SleepMs > 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(Req.SleepMs));

  if (Req.K == ServeRequest::Kind::Ping)
    return "";

  if (Req.K == ServeRequest::Kind::Ir)
    return executeIr(Req, Env, Resp, KindOut);

  Runner R;
  R.NumWorkers = Env.ExecWorkers;
  R.MaxSteps = Req.MaxSteps > 0 ? Req.MaxSteps : Env.DefaultMaxSteps;
  R.MaxWallMs = Env.RemainingMs;
  sim::ExecDiagnostic Diag;
  R.Diag = &Diag;

  RunResult Res = Req.K == ServeRequest::Kind::Gemm
                      ? R.runGemm(Req.F, Req.Gemm, Req.Functional)
                      : R.runAttention(Req.F, Req.Mha, Req.Functional);
  if (!Res.ok()) {
    KindOut = Res.Kind;
    if (!Diag.empty())
      Resp.DiagJson = Diag.renderJson();
    if (!Res.Error.empty())
      return Res.Error;
    KindOut = Res.Supported ? ErrorKind::Infeasible : ErrorKind::Unsupported;
    return Res.Supported ? "infeasible configuration"
                         : "unsupported configuration";
  }
  Resp.HasRun = true;
  Resp.Micros = Res.Micros;
  Resp.TFlops = Res.TFlops;
  Resp.MaxRelError = Res.MaxRelError;
  Resp.SmemBytes = Res.SmemBytes;
  Resp.RegsPerThread = Res.RegsPerThread;
  return "";
}

} // namespace

std::string tawa::serve::executeRequest(const ServeRequest &Req,
                                        const ExecEnv &Env,
                                        ServeResponse &Resp,
                                        ErrorKind &KindOut) {
  // Crash containment for everything outside a CTA (host tensors,
  // reference validation, replay): the attempt fails as a worker crash and
  // the daemon, or the sandbox child, keeps serving.
  try {
    return executeOnce(Req, Env, Resp, KindOut);
  } catch (const std::exception &E) {
    KindOut = ErrorKind::WorkerCrash;
    return std::string("worker crash: ") + E.what();
  } catch (...) {
    KindOut = ErrorKind::WorkerCrash;
    return "worker crash: unknown exception";
  }
}
