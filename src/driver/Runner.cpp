//===- Runner.cpp - Compile-and-simulate orchestration -------------------------//

#include "driver/Runner.h"

#include "ir/Verifier.h"
#include "sim/Bytecode.h"
#include "sim/Interpreter.h"
#include "sim/Numerics.h"
#include "sim/Peephole.h"
#include "sim/Replay.h"
#include "support/Support.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>

using namespace tawa;
using namespace tawa::sim;

namespace {

/// Analytic L2-reuse model for GEMM: within one wave of CTAs the scheduler
/// covers a Rows x Cols rectangle of output tiles whose A/B slabs fit L2, so
/// only the rectangle's border data hits DRAM. Returns the DRAM fraction of
/// requested bytes (<= 1).
double gemmReuseFactor(int64_t NumPidM, int64_t NumPidN, int64_t TileM,
                       int64_t TileN, int64_t Wave) {
  Wave = std::min(Wave, NumPidM * NumPidN);
  if (Wave <= 0)
    return 1.0;
  double BestUnique = 1e30;
  for (int64_t Rows = 1; Rows <= NumPidM; ++Rows) {
    int64_t Cols = ceilDiv(Wave, Rows);
    if (Cols > NumPidN)
      continue;
    double Unique = static_cast<double>(Rows * TileM + Cols * TileN);
    BestUnique = std::min(BestUnique, Unique);
  }
  if (BestUnique >= 1e30) // Wave wider than the grid: everything unique.
    return 1.0;
  double Requested = static_cast<double>(Wave) *
                     static_cast<double>(TileM + TileN);
  return std::min(1.0, BestUnique / Requested);
}

/// Register-pressure estimate for a consumer warp group (§IV-A, Fig. 11):
/// the f32 accumulator fragments live in registers, split across cooperative
/// replicas, and deeper MMA pipelines keep more fragments alive.
int64_t estimateRegsPerThread(const GpuConfig &Config, int64_t AccElems,
                              int64_t P, int64_t Replicas,
                              bool WarpSpecialized) {
  // WS: each consumer warp group (128 threads) holds 1/Replicas of the
  // accumulator. Non-WS: all 8 warps (256 threads) share the tile.
  double Threads = WarpSpecialized ? 128.0 * static_cast<double>(Replicas)
                                   : 256.0;
  double Frag = static_cast<double>(AccElems) / Threads;
  double PipeScale =
      1.0 + Config.PipelineRegFactor * static_cast<double>(std::max<int64_t>(
                                           P, 1) -
                                       1);
  return Config.BaseRegsPerThread +
         static_cast<int64_t>(Frag * PipeScale);
}

/// Per-thread register budget for consumer warp groups: the producer group
/// runs register-deallocated (setmaxnreg) at ~40 regs/thread.
int64_t consumerRegBudget(const GpuConfig &Config, bool WarpSpecialized,
                          int64_t Replicas) {
  if (!WarpSpecialized)
    return Config.RegsPerSm / 256; // 8 warps, one CTA.
  // The producer group runs register-deallocated (setmaxnreg ~24, as FA3
  // and CUTLASS producer warps do).
  int64_t ProducerRegs = 128 * 24;
  int64_t ConsumerThreads = 128 * Replicas;
  return std::min<int64_t>((Config.RegsPerSm - ProducerRegs) /
                               ConsumerThreads,
                           Config.MaxRegsPerThread);
}

/// Copies a (1, L, D) window of a rank-3 host tensor into an (L, D) matrix.
TensorData slice2d(const TensorData &T, int64_t Bh, int64_t L, int64_t D) {
  TensorData W = T.extractWindow({Bh, 0, 0}, {1, L, D});
  TensorData Out({L, D});
  for (int64_t I = 0, E = L * D; I != E; ++I)
    Out.at(I) = W.at(I);
  return Out;
}

/// Rounds a freshly filled host tensor to the kernel input precision.
void roundHostTensor(TensorData &T, Precision P) {
  if (P == Precision::FP16)
    roundToFp16(T.data(), T.getNumElements());
  else
    roundToFp8E4M3(T.data(), T.getNumElements());
}

/// Serializes every compile-time knob that shapes the generated module or
/// its bytecode lowering, so sweeps that only vary runtime dimensions share
/// one cache entry. The fusion flag lives here: a fused and an unfused
/// compile of the same kernel are different programs and must never share
/// a cache entry (in memory or on disk).
std::string pipelineKeySuffix(const TawaOptions &O, int64_t SwDepth,
                              bool Fuse) {
  return formatString(
      "|ws%d|d%lld|mma%lld|cg%lld|pers%d|coarse%d|sw%lld|fuse%d",
      O.EnableWarpSpecialization ? 1 : 0,
      static_cast<long long>(O.ArefDepth),
      static_cast<long long>(O.MmaPipelineDepth),
      static_cast<long long>(O.NumConsumerGroups), O.Persistent ? 1 : 0,
      O.CoarsePipeline ? 1 : 0, static_cast<long long>(SwDepth),
      Fuse ? 1 : 0);
}

GemmKernelConfig gemmKernelConfig(const GemmWorkload &W,
                                  const FrameworkEnvelope &E) {
  GemmKernelConfig Kernel;
  Kernel.TileM = E.TileM;
  Kernel.TileN = E.TileN;
  Kernel.TileK = E.TileK;
  Kernel.InPrecision = W.Prec;
  Kernel.Grouped = W.MoE && !W.GroupMs.empty();
  Kernel.SplitK = W.SplitK > 1 && !Kernel.Grouped && W.Batch == 1;
  Kernel.Batched = W.Batch > 1 && !Kernel.Grouped;
  Kernel.MaskColumns = Kernel.Grouped && W.N % E.TileN != 0;
  return Kernel;
}

/// The verdicts a compiled envelope gets before the compiler runs: a
/// framework that does not support the point, then warp-specialization
/// options the compiler rejects (Fig. 11's infeasible cells). Returns
/// false with \p R filled.
bool admits(const FrameworkEnvelope &E, const TawaOptions &O, RunResult &R) {
  if (!E.Supported) {
    R.Supported = false;
    R.Kind = ErrorKind::Unsupported;
    return false;
  }
  if (!O.EnableWarpSpecialization)
    return true;
  R.Error = O.validate();
  if (R.Error.empty())
    return true;
  R.Feasible = false;
  R.Kind = ErrorKind::Infeasible;
  return false;
}

/// True when the envelope reaches the compiler at all: compiled (not
/// analytic) and admitted.
bool reachesCompiler(const FrameworkEnvelope &E, const TawaOptions &O) {
  RunResult Verdict;
  return !E.Analytic && admits(E, O, Verdict);
}

/// What a family's CTAs leave for the replay: the interpreted traces,
/// SM0's schedule as indices into them (one trace may stand for many
/// CTAs), and the family's DRAM model (BwShareSms, DramReuseFactor).
/// Runner::execute destroys it after the replay, which gives the traces'
/// action vectors back to the store (sim::recycleActions).
struct Sm0Replay {
  std::vector<CtaTrace> Traces;
  std::vector<size_t> Schedule;
  ReplayParams Params;

  ~Sm0Replay() {
    for (CtaTrace &T : Traces)
      recycleActions(T);
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Compile plans
//===----------------------------------------------------------------------===//

/// Everything a point needs from the compiler, derived in one function per
/// family (Runner::plan). compileKey (the sweep driver's grid dedup),
/// prewarm and the run path all take it from there, so a sweep's pre-warm
/// pass provably compiles under the exact key the run looks up.
struct Runner::CompilePlan {
  TawaOptions Options;  ///< The envelope's options, adjusted per workload.
  int64_t SwDepth = 0;  ///< Software pipelining (non-WS kernels only).
  bool Fuse = true;     ///< Peephole fusion (sim::bc::fusionEnabled).
  /// Program-cache key over every compile-time knob; "" when the point
  /// never reaches the compiler.
  std::string Key;
  std::function<std::unique_ptr<Module>(IrContext &)> Build;
  /// Whether the register model's hard limit makes the point infeasible.
  /// GEMM only: Triton attention at head_dim 512 runs above it today.
  bool HardRegLimit = false;
};

Runner::CompilePlan Runner::plan(const GemmWorkload &W,
                                 const FrameworkEnvelope &E) const {
  CompilePlan P;
  P.Options = E.Options;
  // Persistent kernels walk one flat tile queue. Batched GEMM queues per
  // batch slice, split-K pairs grid axis 0 with a reduction axis, and
  // grouped GEMM walks one expert's ragged tiles.
  if (W.Batch > 1 || W.SplitK > 1 || (W.MoE && !W.GroupMs.empty()))
    P.Options.Persistent = false;
  P.SwDepth = E.SwPipelineDepth;
  P.Fuse = sim::bc::fusionEnabled(FuseBytecode);
  P.HardRegLimit = true;
  GemmKernelConfig K = gemmKernelConfig(W, E);
  P.Build = [K](IrContext &Ctx) {
    if (K.Grouped)
      return buildGroupedGemmModule(Ctx, K);
    if (K.SplitK)
      return buildSplitKGemmModule(Ctx, K);
    return buildGemmModule(Ctx, K);
  };
  // The split factor and the per-expert GroupMs are runtime launch
  // parameters — deliberately absent so a whole split-factor or expert-mix
  // sweep shares one compiled program. N enters only as MaskColumns; its
  // "|mc1" is appended only when set, so the keys of tile-multiple shapes,
  // which persisted caches and sweep reports carry, stay unchanged.
  if (reachesCompiler(E, P.Options))
    P.Key = formatString("gemm|tm%lld|tn%lld|tk%lld|prec%d|b%d|pe%d|sk%d"
                         "|moe%d|dl%d",
                         static_cast<long long>(K.TileM),
                         static_cast<long long>(K.TileN),
                         static_cast<long long>(K.TileK),
                         static_cast<int>(K.InPrecision), K.Batched ? 1 : 0,
                         K.PointerEpilogue ? 1 : 0, K.SplitK ? 1 : 0,
                         K.Grouped ? 1 : 0, K.DeadlockEpilogue ? 1 : 0) +
            (K.MaskColumns ? "|mc1" : "") +
            pipelineKeySuffix(P.Options, P.SwDepth, P.Fuse);
  return P;
}

Runner::CompilePlan Runner::plan(const AttentionWorkload &W,
                                 const FrameworkEnvelope &E) const {
  CompilePlan P;
  P.Options = E.Options;
  P.SwDepth = E.SwPipelineDepth;
  P.Fuse = sim::bc::fusionEnabled(FuseBytecode);
  AttentionKernelConfig K;
  K.TileQ = E.TileQ;
  K.TileKv = E.TileKv;
  K.HeadDim = W.HeadDim;
  K.Causal = W.Causal;
  K.InPrecision = W.Prec;
  P.Build = [K](IrContext &Ctx) { return buildAttentionModule(Ctx, K); };
  if (reachesCompiler(E, P.Options))
    P.Key = formatString("mha|tq%lld|tkv%lld|hd%lld|c%d|prec%d",
                         static_cast<long long>(K.TileQ),
                         static_cast<long long>(K.TileKv),
                         static_cast<long long>(K.HeadDim), K.Causal ? 1 : 0,
                         static_cast<int>(K.InPrecision)) +
            pipelineKeySuffix(P.Options, P.SwDepth, P.Fuse);
  return P;
}

//===----------------------------------------------------------------------===//
// Program cache
//===----------------------------------------------------------------------===//

ProgramCache::EntryRef Runner::getOrCompile(const CompilePlan &P,
                                            std::string &Err) {
  auto Compile = [&](std::string &CErr) -> ProgramCache::EntryRef {
    // Declaration order in Entry matters: the module references the
    // context and the compiled program references types owned by the
    // context, so Ctx is destroyed last.
    auto E = std::make_shared<ProgramCache::Entry>();
    E->Ctx = std::make_shared<IrContext>();
    E->M = P.Build(*E->Ctx);
    PassManager PM;
    buildTawaPipeline(PM, P.Options);
    if (CErr = PM.run(*E->M); !CErr.empty())
      return nullptr;
    if (!P.Options.EnableWarpSpecialization && P.SwDepth > 0)
      runSoftwarePipeline(*E->M, P.SwDepth);
    E->Prog = sim::bc::compileModule(*E->M, Config, P.Fuse);
    return E;
  };
  ProgramCache::Outcome Outcome;
  ProgramCache::EntryRef E = ProgramCache::shared().getOrCompile(
      P.Key, Config, Compile, Err, &Outcome);
  if (E) {
    // A disk hit skips compilation — that is the point — so it counts as a
    // hit (the warm-start acceptance bar is cache_misses == 0).
    if (Outcome == ProgramCache::Outcome::Compiled)
      ++CacheMisses;
    else
      ++CacheHits;
  } else if (Outcome == ProgramCache::Outcome::Failed) {
    // A failed compile still ran the full pass pipeline, and failures are
    // never cached — every retry pays again. Counting it as a miss keeps
    // the sweep driver's zero-compile accounting honest: a grid point
    // that recompiles (and re-fails) per execution cannot report
    // RunCompiles == 0.
    ++CacheMisses;
  }
  return E;
}

std::string Runner::compileKey(const GemmWorkload &W,
                               const FrameworkEnvelope &E) const {
  return plan(W, E).Key;
}

std::string Runner::compileKey(const AttentionWorkload &W,
                               const FrameworkEnvelope &E) const {
  return plan(W, E).Key;
}

bool Runner::prewarm(const GemmWorkload &W, const FrameworkEnvelope &E,
                     std::string &Err) {
  return prewarm(plan(W, E), Err);
}

bool Runner::prewarm(const AttentionWorkload &W, const FrameworkEnvelope &E,
                     std::string &Err) {
  return prewarm(plan(W, E), Err);
}

bool Runner::prewarm(const CompilePlan &P, std::string &Err) {
  Err.clear();
  return P.Key.empty() || getOrCompile(P, Err) != nullptr;
}

//===----------------------------------------------------------------------===//
// Analytic models (cuBLAS, theoretical peak)
//===----------------------------------------------------------------------===//

RunResult Runner::runGemmAnalytic(const GemmWorkload &W,
                                  const FrameworkEnvelope &E) {
  RunResult R;
  double Flops = W.flops();
  bool Fp8 = W.Prec == Precision::FP8;
  double Peak = (Fp8 ? Config.Fp8TflopsPeak : Config.Fp16TflopsPeak) * 1e12;
  double ElemBytes = static_cast<double>(getPrecisionBytes(W.Prec));
  double Bytes = static_cast<double>(W.Batch) *
                     (static_cast<double>(W.totalM()) * W.K +
                      static_cast<double>(W.N) * W.K) *
                     ElemBytes +
                 static_cast<double>(W.Batch) *
                     static_cast<double>(W.totalM()) * W.N * 2.0;
  double StoreBytes = static_cast<double>(W.Batch) *
                      static_cast<double>(W.totalM()) * W.N * 2.0;
  double LoadBytes = Bytes - StoreBytes;
  double ComputeSec = Flops / (Peak * E.AnalyticComputeEff);
  double MemSec = LoadBytes / (Config.HbmTBps * 1e12 * E.AnalyticMemEff);
  // Output waves drain serially (the store traffic cannot hide behind the
  // next wave's compute in a non-persistent library kernel), and every wave
  // pays a scheduling overhead.
  // Library kernels partially overlap the output waves with compute.
  double StoreSec =
      0.6 * StoreBytes / (Config.HbmTBps * 1e12 * E.AnalyticMemEff);
  double Tiles = ceilDiv(W.totalM(), 128) * ceilDiv(W.N, 256) * W.Batch;
  double Waves = ceilDiv(static_cast<int64_t>(Tiles), Config.NumSms);
  double Sec = std::max(ComputeSec, MemSec) + StoreSec +
               Waves * 0.5e-6 + E.AnalyticOverheadMicros * 1e-6;
  R.Micros = Sec * 1e6;
  R.TFlops = Flops / Sec / 1e12;
  return R;
}

RunResult Runner::runAttentionAnalytic(const AttentionWorkload &W,
                                       const FrameworkEnvelope &E) {
  RunResult R;
  double Flops = W.flops();
  bool Fp8 = W.Prec == Precision::FP8;
  double Peak = (Fp8 ? Config.Fp8TflopsPeak : Config.Fp16TflopsPeak) * 1e12;
  double Sec = Flops / (Peak * E.AnalyticComputeEff) +
               E.AnalyticOverheadMicros * 1e-6;
  R.Micros = Sec * 1e6;
  R.TFlops = Flops / Sec / 1e12;
  return R;
}

//===----------------------------------------------------------------------===//
// The run skeleton
//===----------------------------------------------------------------------===//

/// A kernel family's share of Runner::execute.
struct Runner::FamilyRun {
  /// Register model: live f32 accumulator elements per CTA and the MMA
  /// pipeline depth that keeps fragments alive (the coarse pipeline keeps
  /// two whatever this says).
  int64_t AccElems = 0;
  int64_t MmaDepth = 1;
  /// False when nothing launches (MoE with every expert empty).
  bool Launches = true;
  /// Sets the grid and host data (tensors only when functional), runs the
  /// CTAs, validates a functional run against the double-precision
  /// reference (R.MaxRelError), and fills SM0's replay input.
  std::function<std::string(Interpreter &, RunOptions &Launch, RunResult &R,
                            Sm0Replay &S)>
      Run;
};

RunResult Runner::execute(const CompilePlan &P, const FrameworkEnvelope &E,
                          bool Functional, double Flops, const FamilyRun &F) {
  RunResult R;
  std::string CompileErr;
  ProgramCache::EntryRef Cached = getOrCompile(P, CompileErr);
  if (!Cached) {
    R.Error = "compile: " + CompileErr;
    R.Kind = ErrorKind::CompileError;
    return R;
  }

  // Resource feasibility: past the consumer register budget the
  // accumulator spills, which slows tensor and CUDA-core work alike.
  const TawaOptions &O = P.Options;
  R.RegsPerThread = estimateRegsPerThread(
      Config, F.AccElems, O.CoarsePipeline ? 2 : F.MmaDepth,
      O.NumConsumerGroups, O.EnableWarpSpecialization);
  if (P.HardRegLimit && R.RegsPerThread > Config.MaxRegsPerThread) {
    R.Feasible = false;
    R.Error = "register budget exceeded (hard limit)";
    R.Kind = ErrorKind::Infeasible;
    return R;
  }
  double TensorPenalty = E.ComputeScale;
  double CudaPenalty = E.CudaScale;
  if (R.RegsPerThread > consumerRegBudget(Config, O.EnableWarpSpecialization,
                                          O.NumConsumerGroups)) {
    TensorPenalty *= Config.SpillPenalty;
    CudaPenalty *= Config.SpillPenalty;
  }

  if (!F.Launches) {
    if (Functional)
      R.MaxRelError = 0;
    R.Micros = E.ExtraLaunchMicros;
    return R;
  }

  RunOptions Launch;
  Launch.Functional = Functional;
  Launch.NumWorkers = NumWorkers;
  Launch.FuseBytecode = FuseBytecode;
  Launch.MaxSteps = MaxSteps;
  Launch.MaxWallMs = MaxWallMs;
  Launch.Diag = Diag;
  Interpreter Interp(Cached->M.get(), Config, Cached->Prog);
  Sm0Replay S;
  if (std::string Err = F.Run(Interp, Launch, R, S); !Err.empty()) {
    R.Error = Err;
    R.Kind = classifyError(R.Error);
    return R;
  }

  R.SmemBytes = S.Traces.front().SmemBytes;
  if (R.SmemBytes > Config.SmemBytesPerSm) {
    R.Feasible = false;
    R.Error = formatString("shared memory exceeded: %lld > %lld",
                           static_cast<long long>(R.SmemBytes),
                           static_cast<long long>(Config.SmemBytesPerSm));
    R.Kind = ErrorKind::Infeasible;
    return R;
  }

  // Timing: replay SM0's schedule under the wave model.
  S.Params.TensorPenalty = TensorPenalty;
  S.Params.CudaPenalty = CudaPenalty;
  S.Params.CtaGapCycles = E.ExtraCtaCycles;
  std::vector<const CtaTrace *> Schedule;
  Schedule.reserve(S.Schedule.size());
  for (size_t I : S.Schedule)
    Schedule.push_back(&S.Traces[I]);
  ReplayResult Rep = replaySmSchedule(Schedule, Config, S.Params);
  if (Rep.Deadlock) {
    R.Error = Rep.Error;
    R.Kind = ErrorKind::Deadlock;
    return R;
  }
  R.Micros = Config.cyclesToMicros(Rep.Cycles) + E.ExtraLaunchMicros;
  R.TFlops = Flops / (R.Micros * 1e-6) / 1e12;
  R.TensorUtilization = Rep.TensorBusyCycles / std::max(1.0, Rep.Cycles);
  return R;
}

//===----------------------------------------------------------------------===//
// GEMM
//===----------------------------------------------------------------------===//

RunResult Runner::runGemm(Framework F, const GemmWorkload &W,
                          bool Functional) {
  return runGemmCustom(W, getGemmEnvelope(F, W), Functional);
}

RunResult Runner::runGemmCustom(const GemmWorkload &W,
                                const FrameworkEnvelope &E, bool Functional) {
  if (E.Supported && E.Analytic)
    return runGemmAnalytic(W, E);
  CompilePlan P = plan(W, E);
  if (RunResult R; !admits(E, P.Options, R))
    return R;
  if (W.SplitK > 1 && (W.Batch > 1 || W.MoE)) {
    RunResult R;
    R.Supported = false;
    R.Error = "split-K requires Batch == 1 and a non-MoE workload";
    R.Kind = ErrorKind::Unsupported;
    return R;
  }
  if (W.MoE && !W.GroupMs.empty())
    return runGemmMoe(W, E, P, Functional);

  GemmKernelConfig Kernel = gemmKernelConfig(W, E);
  int64_t TotalM = W.totalM();
  int64_t NumPidM = ceilDiv(TotalM, Kernel.TileM);
  int64_t NumPidN = ceilDiv(W.N, Kernel.TileN);
  int64_t Tiles = NumPidM * NumPidN;
  bool Persistent = P.Options.Persistent && P.Options.EnableWarpSpecialization;
  // Grid axis 1 is the batch slice for batched GEMM and the K split for
  // split-K (num_programs(1) IS the split factor — no recompile per factor).
  int64_t GridY = Kernel.SplitK ? W.SplitK : W.Batch;
  int64_t TotalCtas = Tiles * GridY;

  FamilyRun F;
  F.AccElems = Kernel.TileM * Kernel.TileN;
  F.MmaDepth = P.Options.MmaPipelineDepth;
  F.Run = [&](Interpreter &Interp, RunOptions &Launch, RunResult &R,
              Sm0Replay &S) -> std::string {
    Launch.GridX =
        Persistent ? std::min<int64_t>(Config.NumSms, Tiles) : Tiles;
    Launch.GridY = GridY;
    TensorRef A, B, C;
    if (Functional) {
      std::vector<int64_t> AShape = {TotalM, W.K};
      std::vector<int64_t> BShape = {W.N, W.K};
      std::vector<int64_t> CShape = {TotalM, W.N};
      if (Kernel.Batched) {
        AShape.insert(AShape.begin(), W.Batch);
        BShape.insert(BShape.begin(), W.Batch);
        CShape.insert(CShape.begin(), W.Batch);
      }
      A = std::make_shared<TensorData>(AShape);
      B = std::make_shared<TensorData>(BShape);
      C = std::make_shared<TensorData>(CShape);
      A->fillRandom(1, 1.0f);
      B->fillRandom(2, 1.0f);
      roundHostTensor(*A, W.Prec);
      roundHostTensor(*B, W.Prec);
    }
    Launch.Args = {RuntimeArg::tensor(A),     RuntimeArg::tensor(B),
                   RuntimeArg::tensor(C),     RuntimeArg::scalar(TotalM),
                   RuntimeArg::scalar(W.N),   RuntimeArg::scalar(W.K)};

    if (!Functional) {
      // Timing-only: GEMM trip counts are uniform across the grid, so one
      // sampled CTA represents every SM. Routed through the batch sampler
      // (a batch of one) so every family shares one sampling path.
      if (std::string Err = Interp.runCtaBatch(Launch, {{0, 0}}, S.Traces);
          !Err.empty())
        return Err;
    } else {
      // Functional pass over every CTA (validates numerics), fanned out
      // across the worker pool — CTAs are independent and the merge is
      // deterministic. CTA (0,0)'s trace also feeds the timing model.
      S.Traces.resize(1);
      if (std::string Err = Interp.runGrid(Launch, &S.Traces[0]);
          !Err.empty())
        return Err;
      if (Kernel.SplitK) {
        // Split-K accumulates raw f32 partial sums into a zero-initialized
        // C (no f16 store rounding): compare against the unrounded
        // reference.
        R.MaxRelError = C->maxRelDiff(referenceGemm(*A, *B));
      } else if (!Kernel.Batched) {
        TensorData Ref = referenceGemm(*A, *B);
        roundHostTensor(Ref, Precision::FP16); // C is stored f16.
        R.MaxRelError = C->maxRelDiff(Ref);
      } else {
        double Worst = 0;
        for (int64_t Z = 0; Z < W.Batch; ++Z) {
          TensorData Az = slice2d(*A, Z, TotalM, W.K);
          TensorData Bz = slice2d(*B, Z, W.N, W.K);
          TensorData Cz = slice2d(*C, Z, TotalM, W.N);
          TensorData Ref = referenceGemm(Az, Bz);
          roundHostTensor(Ref, Precision::FP16);
          Worst = std::max(Worst, Cz.maxRelDiff(Ref));
        }
        R.MaxRelError = Worst;
      }
    }

    // SM0 runs one CTA per wave (the persistent kernel: one CTA).
    S.Schedule.assign(Persistent ? 1 : ceilDiv(TotalCtas, Config.NumSms),
                      0);
    S.Params.BwShareSms =
        static_cast<double>(std::min<int64_t>(TotalCtas, Config.NumSms));
    S.Params.DramReuseFactor = gemmReuseFactor(
        NumPidM, NumPidN, Kernel.TileM, Kernel.TileN,
        std::min<int64_t>(Tiles, Config.NumSms));
    return "";
  };
  return execute(P, E, Functional, W.flops(), F);
}

RunResult Runner::runGemmMoe(const GemmWorkload &W,
                             const FrameworkEnvelope &E, const CompilePlan &P,
                             bool Functional) {
  // Ragged CTA list: grid axis 1 is the expert, axis 0 walks that expert's
  // (m tile, n tile) pairs n-major. The shape of the list is data-dependent
  // — experts with zero rows contribute zero CTAs.
  int64_t NumExperts = static_cast<int64_t>(W.GroupMs.size());
  int64_t TotalM = W.totalM();
  int64_t NumPidN = ceilDiv(W.N, E.TileN);
  std::vector<CtaCoord> Coords;
  std::vector<int64_t> RowStart(NumExperts, 0);
  int64_t MaxCtasPerExpert = 1;
  int64_t Row = 0;
  for (int64_t Ex = 0; Ex < NumExperts; ++Ex) {
    RowStart[Ex] = Row;
    Row += W.GroupMs[Ex];
    int64_t ExpertCtas = ceilDiv(W.GroupMs[Ex], E.TileM) * NumPidN;
    MaxCtasPerExpert = std::max(MaxCtasPerExpert, ExpertCtas);
    for (int64_t T = 0; T < ExpertCtas; ++T)
      Coords.push_back({T, Ex});
  }
  int64_t TotalCtas = static_cast<int64_t>(Coords.size());

  FamilyRun F;
  // Same consumer-accumulator model as plain GEMM.
  F.AccElems = E.TileM * E.TileN;
  F.MmaDepth = P.Options.MmaPipelineDepth;
  F.Launches = TotalCtas > 0;
  F.Run = [&](Interpreter &Interp, RunOptions &Launch, RunResult &R,
              Sm0Replay &S) -> std::string {
    Launch.GridX = MaxCtasPerExpert;
    Launch.GridY = NumExperts;
    TensorRef A, B, C, Table;
    if (Functional) {
      A = std::make_shared<TensorData>(std::vector<int64_t>{TotalM, W.K});
      B = std::make_shared<TensorData>(
          std::vector<int64_t>{NumExperts, W.N, W.K});
      C = std::make_shared<TensorData>(std::vector<int64_t>{TotalM, W.N});
      Table =
          std::make_shared<TensorData>(std::vector<int64_t>{NumExperts, 2});
      A->fillRandom(1, 1.0f);
      B->fillRandom(2, 1.0f);
      roundHostTensor(*A, W.Prec);
      roundHostTensor(*B, W.Prec);
      for (int64_t Ex = 0; Ex < NumExperts; ++Ex) {
        Table->at(Ex * 2) = static_cast<float>(RowStart[Ex]);
        Table->at(Ex * 2 + 1) = static_cast<float>(W.GroupMs[Ex]);
      }
    }
    Launch.Args = {RuntimeArg::tensor(A),   RuntimeArg::tensor(B),
                   RuntimeArg::tensor(C),   RuntimeArg::tensor(Table),
                   RuntimeArg::scalar(W.N), RuntimeArg::scalar(W.K)};

    // SM0 runs every NumSms-th coordinate of the list (the attention
    // sampling pattern).
    if (!Functional) {
      std::vector<CtaCoord> Sm0Ctas;
      for (int64_t I = 0; I < TotalCtas; I += Config.NumSms)
        Sm0Ctas.push_back(Coords[I]);
      if (std::string Err = Interp.runCtaBatch(Launch, Sm0Ctas, S.Traces);
          !Err.empty())
        return Err;
    } else {
      // Functional pass interprets the full ragged list, then validates
      // each expert's slab against the double-precision reference.
      std::vector<CtaTrace> AllTraces;
      if (std::string Err = Interp.runCtaBatch(Launch, Coords, AllTraces);
          !Err.empty())
        return Err;
      double Worst = 0;
      for (int64_t Ex = 0; Ex < NumExperts; ++Ex) {
        if (W.GroupMs[Ex] == 0)
          continue;
        TensorData Ae =
            A->extractWindow({RowStart[Ex], 0}, {W.GroupMs[Ex], W.K});
        TensorData Be = slice2d(*B, Ex, W.N, W.K);
        TensorData Ce =
            C->extractWindow({RowStart[Ex], 0}, {W.GroupMs[Ex], W.N});
        TensorData Ref = referenceGemm(Ae, Be);
        roundHostTensor(Ref, Precision::FP16); // C is stored f16.
        Worst = std::max(Worst, Ce.maxRelDiff(Ref));
      }
      R.MaxRelError = Worst;
      for (int64_t I = 0; I < TotalCtas; I += Config.NumSms)
        S.Traces.push_back(std::move(AllTraces[I]));
      for (CtaTrace &T : AllTraces)
        recycleActions(T); // The CTAs off SM0's list are discarded.
    }

    for (size_t I = 0; I < S.Traces.size(); ++I)
      S.Schedule.push_back(I);
    S.Params.BwShareSms =
        static_cast<double>(std::min<int64_t>(TotalCtas, Config.NumSms));
    // Approximate L2 reuse over the concatenated row space: a wave of
    // ragged tiles still covers a rectangle-ish region of (row tile,
    // n tile) pairs.
    S.Params.DramReuseFactor = gemmReuseFactor(
        ceilDiv(TotalM, E.TileM), NumPidN, E.TileM, E.TileN,
        std::min<int64_t>(TotalCtas, Config.NumSms));
    return "";
  };
  return execute(P, E, Functional, W.flops(), F);
}

//===----------------------------------------------------------------------===//
// Attention
//===----------------------------------------------------------------------===//

RunResult Runner::runAttention(Framework F, const AttentionWorkload &W,
                               bool Functional) {
  return runAttentionCustom(W, getAttentionEnvelope(F, W), Functional);
}

RunResult Runner::runAttentionCustom(const AttentionWorkload &W,
                                     const FrameworkEnvelope &E,
                                     bool Functional) {
  if (E.Supported && E.Analytic)
    return runAttentionAnalytic(W, E);
  CompilePlan P = plan(W, E);
  if (RunResult R; !admits(E, P.Options, R))
    return R;

  int64_t QTiles = ceilDiv(W.SeqLen, E.TileQ);
  int64_t BH = W.Batch * W.Heads;
  int64_t TotalCtas = QTiles * BH;

  FamilyRun F;
  // Live fragments: the f32 output accumulator plus the score/P tile, which
  // lives mostly in f16 fragments (half weight).
  F.AccElems = E.TileQ * (W.HeadDim + E.TileKv / 2);
  F.Run = [&](Interpreter &Interp, RunOptions &Launch, RunResult &R,
              Sm0Replay &S) -> std::string {
    Launch.GridX = QTiles;
    Launch.GridY = BH;
    TensorRef Q, K, V, O;
    if (Functional) {
      std::vector<int64_t> Shape = {BH, W.SeqLen, W.HeadDim};
      Q = std::make_shared<TensorData>(Shape);
      K = std::make_shared<TensorData>(Shape);
      V = std::make_shared<TensorData>(Shape);
      O = std::make_shared<TensorData>(Shape);
      Q->fillRandom(11, 1.0f);
      K->fillRandom(12, 1.0f);
      V->fillRandom(13, 1.0f);
      roundHostTensor(*Q, W.Prec);
      roundHostTensor(*K, W.Prec);
      roundHostTensor(*V, W.Prec);
    }
    Launch.Args = {RuntimeArg::tensor(Q), RuntimeArg::tensor(K),
                   RuntimeArg::tensor(V), RuntimeArg::tensor(O),
                   RuntimeArg::scalar(W.SeqLen)};

    if (Functional) {
      if (std::string Err = Interp.runGrid(Launch); !Err.empty())
        return Err;
      double Worst = 0;
      for (int64_t Y = 0; Y < BH; ++Y) {
        TensorData Qy = slice2d(*Q, Y, W.SeqLen, W.HeadDim);
        TensorData Ky = slice2d(*K, Y, W.SeqLen, W.HeadDim);
        TensorData Vy = slice2d(*V, Y, W.SeqLen, W.HeadDim);
        TensorData Oy = slice2d(*O, Y, W.SeqLen, W.HeadDim);
        TensorData Ref = referenceAttention(Qy, Ky, Vy, W.Causal);
        roundHostTensor(Ref, Precision::FP16);
        Worst = std::max(Worst, Oy.maxRelDiff(Ref));
      }
      R.MaxRelError = Worst;
    }

    // Timing: SM0's CTA list (Pid += NumSms). A CTA's trace depends on its
    // coordinates only through the KV trip count, which causal masking
    // ties to the query-tile index X. So only the first CTA of each class
    // is interpreted — one class without causal masking, one per distinct
    // X with it — and the schedule points at those traces. The first CTA
    // of the first failing class is the first failing CTA of the whole
    // list, so the reported error is unchanged too
    // (docs/threading-and-memory.md).
    RunOptions TimingLaunch = Launch;
    TimingLaunch.Functional = false;
    std::vector<CtaCoord> ClassReps;
    std::vector<size_t> RepOfClass(W.Causal ? QTiles : 1, SIZE_MAX);
    for (int64_t Pid = 0; Pid < TotalCtas; Pid += Config.NumSms) {
      int64_t X = Pid % QTiles;
      size_t &Rep = RepOfClass[W.Causal ? X : 0];
      if (Rep == SIZE_MAX) {
        Rep = ClassReps.size();
        ClassReps.push_back({X, Pid / QTiles});
      }
      S.Schedule.push_back(Rep);
    }
    if (std::string Err =
            Interp.runCtaBatch(TimingLaunch, ClassReps, S.Traces);
        !Err.empty())
      return Err;
    if (S.Traces.empty())
      return "no CTAs to simulate"; // Classified Internal.

    int64_t Wave = std::min<int64_t>(TotalCtas, Config.NumSms);
    double HeadsCovered =
        std::min<double>(static_cast<double>(ceilDiv(Wave, QTiles)) + 1,
                         static_cast<double>(BH));
    // Blend: K/V tiles are shared by every CTA of the same head in a wave;
    // Q and O are unique per CTA.
    double KvBytesPerCta = 2.0 * static_cast<double>(W.SeqLen) * W.HeadDim *
                           getPrecisionBytes(W.Prec);
    double QBytesPerCta = static_cast<double>(E.TileQ) * W.HeadDim *
                          getPrecisionBytes(W.Prec);
    double KvReuse = HeadsCovered / static_cast<double>(Wave);
    double Blended = (QBytesPerCta + KvBytesPerCta * KvReuse) /
                     (QBytesPerCta + KvBytesPerCta);
    S.Params.BwShareSms = static_cast<double>(Wave);
    S.Params.DramReuseFactor = std::min(1.0, Blended);
    return "";
  };
  return execute(P, E, Functional, W.flops(), F);
}
