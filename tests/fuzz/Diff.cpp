//===- Diff.cpp - Seven-run differential execution ----------------------------//

#include "tests/fuzz/Diff.h"

#include "sim/Diag.h"
#include "sim/Interpreter.h"
#include "sim/Replay.h"
#include "support/FaultInject.h"
#include "support/Status.h"
#include "support/Support.h"
#include "tests/oracle/ScanReplay.h"
#include "tests/oracle/TreeWalk.h"
#include "tests/support/TraceDiff.h"

#include <cstring>

using namespace tawa;
using namespace tawa::fuzz;
using namespace tawa::sim;

namespace {

struct Combo {
  bool Oracle;
  bool Fuse;
  int64_t Workers;
};

/// Combo 0 is the oracle, which runs serially at any worker count; 1-3 are
/// unfused bytecode and 4-6 fused, at 1, 2 and 4 workers.
Combo comboFor(int I) {
  static const int64_t WorkerGrid[3] = {1, 2, 4};
  if (I == 0)
    return {true, false, 1};
  return {false, I > 3, WorkerGrid[(I - 1) % 3]};
}

std::string comboName(int I) {
  Combo C = comboFor(I);
  const char *Engine = C.Oracle ? "oracle" : C.Fuse ? "fused" : "unfused";
  return formatString("%s/w%lld", Engine, static_cast<long long>(C.Workers));
}

/// Everything one combo produces that the engines promise to keep
/// identical.
struct ComboResult {
  std::string Error;
  std::string ErrorKindName;
  std::string DiagJson;
  /// Raw bytes of every output tensor (launch args with FillSeed == 0).
  std::vector<std::vector<float>> Outputs;
  std::vector<CtaTrace> Traces;
  bool HasReplay = false;
  ReplayResult Replay;
};

/// Runs one combo: fresh tensors, fault spec armed for the duration of the
/// grid, traces + diagnostics collected. Returns "" or a harness-level
/// error (argument binding, fault-spec parse).
std::string runCombo(const PreparedCase &P, int I, bool Corrupt,
                     ComboResult &Out) {
  Combo C = comboFor(I);
  GpuConfig Cfg;

  RunOptions Opts;
  Opts.Functional = true;
  Opts.FuseBytecode = C.Fuse;
  Opts.NumWorkers = C.Workers;
  // Deterministic runaway bound: identical across engines/workers, so a
  // budget trip is itself a valid differential observable.
  Opts.MaxSteps = 1000000;
  ExecDiagnostic Diag;
  Opts.Diag = &Diag;

  std::vector<TensorRef> OutputTensors = materializeLaunch(P.Launch, Opts);

  if (!P.Launch.FaultSpec.empty()) {
    std::string FErr;
    if (!faults::configure(P.Launch.FaultSpec, &FErr))
      return "fault spec: " + FErr;
  }
  if (C.Oracle) {
    Out.Error = runGridOracle(*P.Mod, Cfg, Opts, &Out.Traces);
  } else {
    Interpreter Interp(*P.Mod, Cfg);
    Out.Error = Interp.runGrid(Opts, nullptr, &Out.Traces);
  }
  faults::reset();

  if (!Out.Error.empty()) {
    Out.ErrorKindName = errorKindName(classifyError(Out.Error));
    Out.DiagJson = Diag.renderJson();
    Out.Traces.clear(); // Unspecified on error; never compared.
    return "";
  }

  for (const TensorRef &T : OutputTensors)
    Out.Outputs.emplace_back(T->data(),
                             T->data() + T->getNumElements());
  if (Corrupt && !Out.Outputs.empty() && !Out.Outputs[0].empty()) {
    // Bit-flip one element of the first output: a minimal, deterministic
    // stand-in for an engine bug (see DiffOptions::CorruptFusedOutput).
    uint32_t Bits;
    std::memcpy(&Bits, &Out.Outputs[0][0], sizeof(Bits));
    Bits ^= 1u;
    std::memcpy(&Out.Outputs[0][0], &Bits, sizeof(Bits));
  }

  std::vector<const CtaTrace *> Ptrs;
  Ptrs.reserve(Out.Traces.size());
  for (const CtaTrace &T : Out.Traces)
    Ptrs.push_back(&T);
  Out.Replay = replaySmSchedule(Ptrs, Cfg, ReplayParams());
  Out.HasReplay = true;
  return "";
}

std::string compareCombos(const ComboResult &Ref, const ComboResult &R,
                          const std::string &Name) {
  if (Ref.Error != R.Error)
    return formatString("[%s] error '%s' vs reference '%s'", Name.c_str(),
                        R.Error.c_str(), Ref.Error.c_str());
  if (Ref.ErrorKindName != R.ErrorKindName)
    return formatString("[%s] error kind %s vs %s", Name.c_str(),
                        R.ErrorKindName.c_str(), Ref.ErrorKindName.c_str());
  if (Ref.DiagJson != R.DiagJson)
    return formatString("[%s] diagnostic JSON differs", Name.c_str());
  if (!Ref.Error.empty())
    return ""; // Same failure everywhere: agreed.

  if (Ref.Outputs.size() != R.Outputs.size())
    return formatString("[%s] output tensor count", Name.c_str());
  for (size_t I = 0; I < Ref.Outputs.size(); ++I) {
    if (Ref.Outputs[I].size() != R.Outputs[I].size())
      return formatString("[%s] output %zu size", Name.c_str(), I);
    if (std::memcmp(Ref.Outputs[I].data(), R.Outputs[I].data(),
                    Ref.Outputs[I].size() * sizeof(float)) != 0)
      return formatString("[%s] output %zu bytes differ", Name.c_str(), I);
  }

  if (Ref.Traces.size() != R.Traces.size())
    return formatString("[%s] trace count", Name.c_str());
  for (size_t I = 0; I < Ref.Traces.size(); ++I)
    if (std::string D = traceDiff(Ref.Traces[I], R.Traces[I]);
        !D.empty())
      return formatString("[%s] cta %zu trace: %s", Name.c_str(), I,
                          D.c_str());

  if (Ref.HasReplay != R.HasReplay)
    return formatString("[%s] replay availability", Name.c_str());
  if (Ref.HasReplay)
    if (std::string D = replayDiff(Ref.Replay, R.Replay); !D.empty())
      return formatString("[%s] replay %s", Name.c_str(), D.c_str());
  return "";
}

/// The first CTA's trace as a long run of identical waves, the way the
/// Runner's schedules repeat a trace: replaySmSchedule, which skips
/// repeated waves, must match the scan-every-action oracle, which does not.
std::string diffRepeatedWaves(const ComboResult &Ref) {
  if (!Ref.HasReplay || Ref.Traces.empty())
    return "";
  GpuConfig Cfg;
  std::vector<const CtaTrace *> Schedule(64, &Ref.Traces[0]);
  ReplayResult Oracle =
      replaySmScheduleOracle(Schedule, Cfg, ReplayParams());
  if (std::string D = replayDiff(
          Oracle, replaySmSchedule(Schedule, Cfg, ReplayParams()));
      !D.empty())
    return "[repeated waves] replay " + D;
  return "";
}

/// Timing-mode leg: traces must also agree when tensor payloads are not
/// computed (RunOptions::Functional = false, the benchmark sampling path).
/// Serial per-CTA execution, faults disarmed (runCta bypasses the worker
/// pool where the worker-task site lives).
std::string diffTimingLeg(const PreparedCase &P) {
  GpuConfig Cfg;
  CtaTrace Ref;
  std::string RefErr;
  for (int Engine = 0; Engine < 3; ++Engine) {
    RunOptions Opts;
    Opts.GridX = P.Launch.GridX;
    Opts.GridY = P.Launch.GridY;
    Opts.Functional = false;
    Opts.FuseBytecode = Engine == 2;
    Opts.MaxSteps = 1000000;
    for (const LaunchSpec::Arg &A : P.Launch.Args)
      Opts.Args.push_back(A.IsScalar ? RuntimeArg::scalar(A.Scalar)
                                     : RuntimeArg::tensor(nullptr));
    if (Engine == 0) {
      RefErr = runCtaOracle(*P.Mod, Cfg, Opts, 0, 0, Ref);
      continue;
    }
    Interpreter Interp(*P.Mod, Cfg);
    CtaTrace T;
    std::string Err = Interp.runCta(Opts, 0, 0, T);
    if (Err != RefErr)
      return formatString("[timing/engine%d] error '%s' vs '%s'", Engine,
                          Err.c_str(), RefErr.c_str());
    if (Err.empty())
      if (std::string D = traceDiff(Ref, T); !D.empty())
        return formatString("[timing/engine%d] %s", Engine, D.c_str());
  }
  return "";
}

} // namespace

std::string tawa::fuzz::diffCase(const PreparedCase &P,
                                 const DiffOptions &Opts) {
  ComboResult Ref;
  if (std::string E = runCombo(P, 0, false, Ref); !E.empty())
    return "harness: " + E;
  if (std::string D = diffRepeatedWaves(Ref); !D.empty())
    return D;
  for (int I = 1; I < NumDiffCombos; ++I) {
    ComboResult R;
    bool Corrupt = Opts.CorruptFusedOutput && I == NumDiffCombos - 1;
    if (std::string E = runCombo(P, I, Corrupt, R); !E.empty())
      return "harness: " + E;
    if (std::string D = compareCombos(Ref, R, comboName(I)); !D.empty())
      return D;
  }
  return diffTimingLeg(P);
}
