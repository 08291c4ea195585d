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

//===--- Compile plans ----------------------------------------------------===//
// The (kernel config, effective options, cache key) derivation is shared by
// three callers — the execute paths, Runner::compileKey (the sweep driver's
// grid dedup), and Runner::prewarm — so a sweep's pre-warm pass provably
// compiles under the exact key the execute pass looks up.

TawaOptions effectiveGemmOptions(const GemmWorkload &W,
                                 const FrameworkEnvelope &E) {
  TawaOptions Options = E.Options;
  if (W.Batch > 1)
    Options.Persistent = false; // Tile queues are per batch slice.
  if (W.SplitK > 1 || (W.MoE && !W.GroupMs.empty()))
    Options.Persistent = false; // Grid axis 0 is not a flat tile queue:
                                // split-K pairs it with a reduction axis,
                                // grouped walks one expert's ragged tiles.
  return Options;
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
  return Kernel;
}

/// Family dispatch shared by prewarm and the execute paths, so a pre-warm
/// pass provably builds the same module the execute pass would.
std::unique_ptr<Module> buildGemmFamilyModule(IrContext &Ctx,
                                              const GemmKernelConfig &K) {
  if (K.Grouped)
    return buildGroupedGemmModule(Ctx, K);
  if (K.SplitK)
    return buildSplitKGemmModule(Ctx, K);
  return buildGemmModule(Ctx, K);
}

std::string gemmKey(const GemmKernelConfig &Kernel, const TawaOptions &O,
                    int64_t SwDepth, bool Fuse) {
  // The split factor and the per-expert GroupMs are runtime launch
  // parameters — deliberately absent so a whole split-factor or expert-mix
  // sweep shares one compiled program.
  return formatString("gemm|tm%lld|tn%lld|tk%lld|prec%d|b%d|pe%d|sk%d|moe%d"
                      "|dl%d",
                      static_cast<long long>(Kernel.TileM),
                      static_cast<long long>(Kernel.TileN),
                      static_cast<long long>(Kernel.TileK),
                      static_cast<int>(Kernel.InPrecision),
                      Kernel.Batched ? 1 : 0, Kernel.PointerEpilogue ? 1 : 0,
                      Kernel.SplitK ? 1 : 0, Kernel.Grouped ? 1 : 0,
                      Kernel.DeadlockEpilogue ? 1 : 0) +
         pipelineKeySuffix(O, SwDepth, Fuse);
}

AttentionKernelConfig attentionKernelConfig(const AttentionWorkload &W,
                                            const FrameworkEnvelope &E) {
  AttentionKernelConfig Kernel;
  Kernel.TileQ = E.TileQ;
  Kernel.TileKv = E.TileKv;
  Kernel.HeadDim = W.HeadDim;
  Kernel.Causal = W.Causal;
  Kernel.InPrecision = W.Prec;
  return Kernel;
}

std::string attentionKey(const AttentionKernelConfig &Kernel,
                         const TawaOptions &O, int64_t SwDepth, bool Fuse) {
  return formatString("mha|tq%lld|tkv%lld|hd%lld|c%d|prec%d",
                      static_cast<long long>(Kernel.TileQ),
                      static_cast<long long>(Kernel.TileKv),
                      static_cast<long long>(Kernel.HeadDim),
                      Kernel.Causal ? 1 : 0,
                      static_cast<int>(Kernel.InPrecision)) +
         pipelineKeySuffix(O, SwDepth, Fuse);
}

/// True when the envelope reaches the compiler at all: compiled (not
/// analytic / unsupported) and, under warp specialization, with options
/// the compiler accepts.
bool reachesCompiler(const FrameworkEnvelope &E, const TawaOptions &O) {
  if (!E.Supported || E.Analytic)
    return false;
  return !O.EnableWarpSpecialization || O.validate().empty();
}

} // namespace

//===----------------------------------------------------------------------===//
// Program cache
//===----------------------------------------------------------------------===//

ProgramCache::EntryRef Runner::getOrCompile(
    const std::string &Key,
    const std::function<std::unique_ptr<Module>(IrContext &)> &Build,
    const TawaOptions &Options, int64_t SwPipelineDepth, std::string &Err) {
  bool Fuse = sim::bc::fusionEnabled(FuseBytecode);
  auto Compile = [&](std::string &CErr) -> ProgramCache::EntryRef {
    // Declaration order in Entry matters: the module references the
    // context and the compiled program references types owned by the
    // context, so Ctx is destroyed last.
    auto E = std::make_shared<ProgramCache::Entry>();
    E->Ctx = std::make_shared<IrContext>();
    E->M = Build(*E->Ctx);
    PassManager PM;
    buildTawaPipeline(PM, Options);
    if (CErr = PM.run(*E->M); !CErr.empty())
      return nullptr;
    if (!Options.EnableWarpSpecialization && SwPipelineDepth > 0)
      runSoftwarePipeline(*E->M, SwPipelineDepth);
    E->Prog = sim::bc::compileModule(*E->M, Config, Fuse);
    return E;
  };
  ProgramCache::Outcome Outcome;
  ProgramCache::EntryRef E =
      ProgramCache::shared().getOrCompile(Key, Config, Compile, Err, &Outcome);
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
  TawaOptions Options = effectiveGemmOptions(W, E);
  if (!reachesCompiler(E, Options))
    return "";
  return gemmKey(gemmKernelConfig(W, E), Options, E.SwPipelineDepth,
                 sim::bc::fusionEnabled(FuseBytecode));
}

std::string Runner::compileKey(const AttentionWorkload &W,
                               const FrameworkEnvelope &E) const {
  if (!reachesCompiler(E, E.Options))
    return "";
  return attentionKey(attentionKernelConfig(W, E), E.Options,
                      E.SwPipelineDepth,
                      sim::bc::fusionEnabled(FuseBytecode));
}

bool Runner::prewarm(const GemmWorkload &W, const FrameworkEnvelope &E,
                     std::string &Err) {
  Err.clear();
  TawaOptions Options = effectiveGemmOptions(W, E);
  if (!reachesCompiler(E, Options))
    return true;
  GemmKernelConfig Kernel = gemmKernelConfig(W, E);
  return getOrCompile(
             gemmKey(Kernel, Options, E.SwPipelineDepth,
                     sim::bc::fusionEnabled(FuseBytecode)),
             [&](IrContext &Ctx) {
               return buildGemmFamilyModule(Ctx, Kernel);
             },
             Options, E.SwPipelineDepth, Err) != nullptr;
}

bool Runner::prewarm(const AttentionWorkload &W, const FrameworkEnvelope &E,
                     std::string &Err) {
  Err.clear();
  if (!reachesCompiler(E, E.Options))
    return true;
  AttentionKernelConfig Kernel = attentionKernelConfig(W, E);
  return getOrCompile(
             attentionKey(Kernel, E.Options, E.SwPipelineDepth,
                          sim::bc::fusionEnabled(FuseBytecode)),
             [&](IrContext &Ctx) {
               return buildAttentionModule(Ctx, Kernel);
             },
             E.Options, E.SwPipelineDepth, Err) != nullptr;
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
// GEMM
//===----------------------------------------------------------------------===//

RunResult Runner::runGemm(Framework F, const GemmWorkload &W,
                          bool Functional) {
  return runGemmCustom(W, getGemmEnvelope(F, W), Functional);
}

RunResult Runner::runGemmCustom(const GemmWorkload &W,
                                const FrameworkEnvelope &E, bool Functional) {
  RunResult R;
  if (!E.Supported) {
    R.Supported = false;
    R.Kind = ErrorKind::Unsupported;
    return R;
  }
  if (E.Analytic)
    return runGemmAnalytic(W, E);

  TawaOptions Options = effectiveGemmOptions(W, E);
  if (Options.EnableWarpSpecialization) {
    if (std::string Err = Options.validate(); !Err.empty()) {
      R.Feasible = false;
      R.Error = Err;
      R.Kind = ErrorKind::Infeasible;
      return R;
    }
  }
  if (W.SplitK > 1 && (W.Batch > 1 || W.MoE)) {
    R.Supported = false;
    R.Error = "split-K requires Batch == 1 and a non-MoE workload";
    R.Kind = ErrorKind::Unsupported;
    return R;
  }
  if (W.MoE && !W.GroupMs.empty())
    return runGemmMoe(W, E, Functional);

  int64_t TotalM = W.totalM();
  GemmKernelConfig Kernel = gemmKernelConfig(W, E);

  std::string CompileErr;
  ProgramCache::EntryRef Cached = getOrCompile(
      gemmKey(Kernel, Options, E.SwPipelineDepth,
              sim::bc::fusionEnabled(FuseBytecode)),
      [&](IrContext &Ctx) { return buildGemmFamilyModule(Ctx, Kernel); },
      Options, E.SwPipelineDepth, CompileErr);
  if (!Cached) {
    R.Error = "compile: " + CompileErr;
    R.Kind = ErrorKind::CompileError;
    return R;
  }

  int64_t NumPidM = ceilDiv(TotalM, Kernel.TileM);
  int64_t NumPidN = ceilDiv(W.N, Kernel.TileN);
  int64_t Tiles = NumPidM * NumPidN;
  bool Persistent = Options.Persistent && Options.EnableWarpSpecialization;
  int64_t GridX = Persistent ? std::min<int64_t>(Config.NumSms, Tiles)
                             : Tiles;
  // Grid axis 1 is the batch slice for batched GEMM and the K split for
  // split-K (num_programs(1) IS the split factor — no recompile per factor).
  int64_t GridY = Kernel.SplitK ? W.SplitK : W.Batch;

  // Resource feasibility.
  int64_t Replicas = Options.NumConsumerGroups;
  int64_t AccElems = Kernel.TileM * Kernel.TileN;
  R.RegsPerThread = estimateRegsPerThread(
      Config, AccElems,
      Options.CoarsePipeline ? 2 : Options.MmaPipelineDepth, Replicas,
      Options.EnableWarpSpecialization);
  int64_t Budget = consumerRegBudget(
      Config, Options.EnableWarpSpecialization, Replicas);
  double TensorPenalty = E.ComputeScale;
  double CudaPenalty = E.CudaScale;
  if (R.RegsPerThread > Config.MaxRegsPerThread) {
    R.Feasible = false;
    R.Error = "register budget exceeded (hard limit)";
    R.Kind = ErrorKind::Infeasible;
    return R;
  }
  if (R.RegsPerThread > Budget) {
    TensorPenalty *= Config.SpillPenalty;
    CudaPenalty *= Config.SpillPenalty;
  }

  // Host data & launch arguments.
  RunOptions Launch;
  Launch.GridX = GridX;
  Launch.GridY = GridY;
  Launch.Functional = Functional;
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
  Launch.Args = {RuntimeArg::tensor(A),
                 RuntimeArg::tensor(B),
                 RuntimeArg::tensor(C),
                 RuntimeArg::scalar(TotalM),
                 RuntimeArg::scalar(W.N),
                 RuntimeArg::scalar(W.K)};
  Launch.NumWorkers = NumWorkers;
  Launch.FuseBytecode = FuseBytecode;
  Launch.MaxSteps = MaxSteps;
  Launch.MaxWallMs = MaxWallMs;
  Launch.Diag = Diag;

  Interpreter Interp(Cached->M.get(), Config, Cached->Prog);

  // Functional pass over every CTA (validates numerics), fanned out across
  // the worker pool — CTAs are independent and the merge is deterministic.
  // CTA (0,0)'s trace also feeds the timing model below.
  CtaTrace Sample;
  if (Functional) {
    if (std::string Err = Interp.runGrid(Launch, &Sample); !Err.empty()) {
      R.Error = Err;
      R.Kind = classifyError(R.Error);
      return R;
    }
    // Validate against the double-precision reference.
    if (Kernel.SplitK) {
      // Split-K accumulates raw f32 partial sums into a zero-initialized C
      // (no f16 store rounding), so compare against the unrounded reference.
      TensorData Ref = referenceGemm(*A, *B);
      R.MaxRelError = C->maxRelDiff(Ref);
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
  } else {
    // Timing-only: GEMM trip counts are uniform across the grid, so one
    // sampled CTA represents every SM. Routed through the batch sampler
    // (a batch of one) so both kernel families share one sampling path.
    std::vector<CtaTrace> Samples;
    if (std::string Err = Interp.runCtaBatch(Launch, {{0, 0}}, Samples);
        !Err.empty()) {
      R.Error = Err;
      R.Kind = classifyError(R.Error);
      return R;
    }
    Sample = std::move(Samples[0]);
  }

  R.SmemBytes = Sample.SmemBytes;
  if (Sample.SmemBytes > Config.SmemBytesPerSm) {
    R.Feasible = false;
    R.Error = formatString("shared memory exceeded: %lld > %lld",
                           static_cast<long long>(Sample.SmemBytes),
                           static_cast<long long>(Config.SmemBytesPerSm));
    R.Kind = ErrorKind::Infeasible;
    return R;
  }

  // Timing: one SM's schedule, wave model.
  int64_t TotalCtas = Tiles * GridY;
  ReplayParams Params;
  Params.BwShareSms =
      static_cast<double>(std::min<int64_t>(TotalCtas, Config.NumSms));
  Params.DramReuseFactor = gemmReuseFactor(
      NumPidM, NumPidN, Kernel.TileM, Kernel.TileN,
      std::min<int64_t>(Tiles, Config.NumSms));
  Params.TensorPenalty = TensorPenalty;
  Params.CudaPenalty = CudaPenalty;
  Params.CtaGapCycles = E.ExtraCtaCycles;

  std::vector<const CtaTrace *> Schedule;
  int64_t CtasOnSm0 =
      Persistent ? 1 : ceilDiv(TotalCtas, Config.NumSms);
  for (int64_t I = 0; I < CtasOnSm0; ++I)
    Schedule.push_back(&Sample);

  ReplayResult Rep = replaySmSchedule(Schedule, Config, Params);
  if (Rep.Deadlock) {
    R.Error = Rep.Error;
    R.Kind = ErrorKind::Deadlock;
    return R;
  }
  R.Micros = Config.cyclesToMicros(Rep.Cycles) + E.ExtraLaunchMicros;
  R.TFlops = W.flops() / (R.Micros * 1e-6) / 1e12;
  R.TensorUtilization = Rep.TensorBusyCycles / std::max(1.0, Rep.Cycles);
  return R;
}

RunResult Runner::runGemmMoe(const GemmWorkload &W,
                             const FrameworkEnvelope &E, bool Functional) {
  // Caller (runGemmCustom) has already validated support / analytic /
  // warp-specialization options.
  RunResult R;
  TawaOptions Options = effectiveGemmOptions(W, E);
  GemmKernelConfig Kernel = gemmKernelConfig(W, E);

  std::string CompileErr;
  ProgramCache::EntryRef Cached = getOrCompile(
      gemmKey(Kernel, Options, E.SwPipelineDepth,
              sim::bc::fusionEnabled(FuseBytecode)),
      [&](IrContext &Ctx) { return buildGemmFamilyModule(Ctx, Kernel); },
      Options, E.SwPipelineDepth, CompileErr);
  if (!Cached) {
    R.Error = "compile: " + CompileErr;
    R.Kind = ErrorKind::CompileError;
    return R;
  }

  // Ragged CTA list: grid axis 1 is the expert, axis 0 walks that expert's
  // (m tile, n tile) pairs n-major. The shape of the list is data-dependent
  // — experts with zero rows contribute zero CTAs.
  int64_t NumExperts = static_cast<int64_t>(W.GroupMs.size());
  int64_t TotalM = W.totalM();
  int64_t NumPidN = ceilDiv(W.N, Kernel.TileN);
  std::vector<CtaCoord> Coords;
  std::vector<int64_t> RowStart(NumExperts, 0);
  int64_t MaxCtasPerExpert = 1;
  int64_t Row = 0;
  for (int64_t Ex = 0; Ex < NumExperts; ++Ex) {
    RowStart[Ex] = Row;
    Row += W.GroupMs[Ex];
    int64_t ExpertCtas = ceilDiv(W.GroupMs[Ex], Kernel.TileM) * NumPidN;
    MaxCtasPerExpert = std::max(MaxCtasPerExpert, ExpertCtas);
    for (int64_t T = 0; T < ExpertCtas; ++T)
      Coords.push_back({T, Ex});
  }
  int64_t TotalCtas = static_cast<int64_t>(Coords.size());

  // Resource feasibility: same consumer-accumulator model as plain GEMM.
  int64_t Replicas = Options.NumConsumerGroups;
  int64_t AccElems = Kernel.TileM * Kernel.TileN;
  R.RegsPerThread = estimateRegsPerThread(
      Config, AccElems,
      Options.CoarsePipeline ? 2 : Options.MmaPipelineDepth, Replicas,
      Options.EnableWarpSpecialization);
  int64_t Budget = consumerRegBudget(
      Config, Options.EnableWarpSpecialization, Replicas);
  double TensorPenalty = E.ComputeScale;
  double CudaPenalty = E.CudaScale;
  if (R.RegsPerThread > Config.MaxRegsPerThread) {
    R.Feasible = false;
    R.Error = "register budget exceeded (hard limit)";
    R.Kind = ErrorKind::Infeasible;
    return R;
  }
  if (R.RegsPerThread > Budget) {
    TensorPenalty *= Config.SpillPenalty;
    CudaPenalty *= Config.SpillPenalty;
  }

  if (TotalCtas == 0) {
    // Every expert is empty: nothing launches.
    if (Functional)
      R.MaxRelError = 0;
    R.Micros = E.ExtraLaunchMicros;
    R.TFlops = 0;
    return R;
  }

  RunOptions Launch;
  Launch.GridX = MaxCtasPerExpert;
  Launch.GridY = NumExperts;
  Launch.Functional = Functional;
  TensorRef A, B, C, Table;
  if (Functional) {
    A = std::make_shared<TensorData>(std::vector<int64_t>{TotalM, W.K});
    B = std::make_shared<TensorData>(
        std::vector<int64_t>{NumExperts, W.N, W.K});
    C = std::make_shared<TensorData>(std::vector<int64_t>{TotalM, W.N});
    Table = std::make_shared<TensorData>(std::vector<int64_t>{NumExperts, 2});
    A->fillRandom(1, 1.0f);
    B->fillRandom(2, 1.0f);
    roundHostTensor(*A, W.Prec);
    roundHostTensor(*B, W.Prec);
    for (int64_t Ex = 0; Ex < NumExperts; ++Ex) {
      Table->at(Ex * 2) = static_cast<float>(RowStart[Ex]);
      Table->at(Ex * 2 + 1) = static_cast<float>(W.GroupMs[Ex]);
    }
  }
  Launch.Args = {RuntimeArg::tensor(A),     RuntimeArg::tensor(B),
                 RuntimeArg::tensor(C),     RuntimeArg::tensor(Table),
                 RuntimeArg::scalar(W.N),   RuntimeArg::scalar(W.K)};
  Launch.NumWorkers = NumWorkers;
  Launch.FuseBytecode = FuseBytecode;
  Launch.MaxSteps = MaxSteps;
  Launch.MaxWallMs = MaxWallMs;
  Launch.Diag = Diag;

  Interpreter Interp(Cached->M.get(), Config, Cached->Prog);

  // SampleStorage ends up holding SM0's CTA list (every NumSms-th
  // coordinate — the attention sampling pattern) for the replay below.
  std::vector<CtaTrace> SampleStorage;
  if (Functional) {
    // Functional pass interprets the full ragged list, then validates each
    // expert's slab against the double-precision reference.
    std::vector<CtaTrace> AllTraces;
    if (std::string Err = Interp.runCtaBatch(Launch, Coords, AllTraces);
        !Err.empty()) {
      R.Error = Err;
      R.Kind = classifyError(R.Error);
      return R;
    }
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
      SampleStorage.push_back(std::move(AllTraces[I]));
  } else {
    RunOptions TimingLaunch = Launch;
    TimingLaunch.Functional = false;
    std::vector<CtaCoord> Sm0Ctas;
    for (int64_t I = 0; I < TotalCtas; I += Config.NumSms)
      Sm0Ctas.push_back(Coords[I]);
    if (std::string Err =
            Interp.runCtaBatch(TimingLaunch, Sm0Ctas, SampleStorage);
        !Err.empty()) {
      R.Error = Err;
      R.Kind = classifyError(R.Error);
      return R;
    }
  }

  R.SmemBytes = SampleStorage.front().SmemBytes;
  if (R.SmemBytes > Config.SmemBytesPerSm) {
    R.Feasible = false;
    R.Error = formatString("shared memory exceeded: %lld > %lld",
                           static_cast<long long>(R.SmemBytes),
                           static_cast<long long>(Config.SmemBytesPerSm));
    R.Kind = ErrorKind::Infeasible;
    return R;
  }

  ReplayParams Params;
  Params.BwShareSms =
      static_cast<double>(std::min<int64_t>(TotalCtas, Config.NumSms));
  // Approximate L2 reuse over the concatenated row space: a wave of ragged
  // tiles still covers a rectangle-ish region of (row tile, n tile) pairs.
  Params.DramReuseFactor = gemmReuseFactor(
      ceilDiv(TotalM, Kernel.TileM), NumPidN, Kernel.TileM, Kernel.TileN,
      std::min<int64_t>(TotalCtas, Config.NumSms));
  Params.TensorPenalty = TensorPenalty;
  Params.CudaPenalty = CudaPenalty;
  Params.CtaGapCycles = E.ExtraCtaCycles;

  std::vector<const CtaTrace *> Schedule;
  for (const CtaTrace &T : SampleStorage)
    Schedule.push_back(&T);
  ReplayResult Rep = replaySmSchedule(Schedule, Config, Params);
  if (Rep.Deadlock) {
    R.Error = Rep.Error;
    R.Kind = ErrorKind::Deadlock;
    return R;
  }
  R.Micros = Config.cyclesToMicros(Rep.Cycles) + E.ExtraLaunchMicros;
  R.TFlops = W.flops() / (R.Micros * 1e-6) / 1e12;
  R.TensorUtilization = Rep.TensorBusyCycles / std::max(1.0, Rep.Cycles);
  return R;
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
  RunResult R;
  if (!E.Supported) {
    R.Supported = false;
    R.Kind = ErrorKind::Unsupported;
    return R;
  }
  if (E.Analytic)
    return runAttentionAnalytic(W, E);

  TawaOptions Options = E.Options;
  if (Options.EnableWarpSpecialization) {
    if (std::string Err = Options.validate(); !Err.empty()) {
      R.Feasible = false;
      R.Error = Err;
      R.Kind = ErrorKind::Infeasible;
      return R;
    }
  }

  AttentionKernelConfig Kernel = attentionKernelConfig(W, E);

  std::string CompileErr;
  ProgramCache::EntryRef Cached = getOrCompile(
      attentionKey(Kernel, Options, E.SwPipelineDepth,
                   sim::bc::fusionEnabled(FuseBytecode)),
      [&](IrContext &Ctx) { return buildAttentionModule(Ctx, Kernel); },
      Options, E.SwPipelineDepth, CompileErr);
  if (!Cached) {
    R.Error = "compile: " + CompileErr;
    R.Kind = ErrorKind::CompileError;
    return R;
  }

  int64_t QTiles = ceilDiv(W.SeqLen, Kernel.TileQ);
  int64_t BH = W.Batch * W.Heads;
  int64_t TotalCtas = QTiles * BH;

  int64_t Replicas = Options.NumConsumerGroups;
  // Live fragments: the f32 output accumulator plus the score/P tile, which
  // lives mostly in f16 fragments (half weight).
  int64_t AccElems = Kernel.TileQ * (W.HeadDim + Kernel.TileKv / 2);
  R.RegsPerThread = estimateRegsPerThread(
      Config, AccElems, Options.CoarsePipeline ? 2 : 1, Replicas,
      Options.EnableWarpSpecialization);
  int64_t Budget = consumerRegBudget(
      Config, Options.EnableWarpSpecialization, Replicas);
  double TensorPenalty = E.ComputeScale;
  double CudaPenalty = E.CudaScale;
  if (R.RegsPerThread > Budget) {
    TensorPenalty *= Config.SpillPenalty;
    CudaPenalty *= Config.SpillPenalty;
  }

  RunOptions Launch;
  Launch.GridX = QTiles;
  Launch.GridY = BH;
  Launch.Functional = Functional;
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
  Launch.NumWorkers = NumWorkers;
  Launch.FuseBytecode = FuseBytecode;
  Launch.MaxSteps = MaxSteps;
  Launch.MaxWallMs = MaxWallMs;
  Launch.Diag = Diag;

  Interpreter Interp(Cached->M.get(), Config, Cached->Prog);

  if (Functional) {
    if (std::string Err = Interp.runGrid(Launch); !Err.empty()) {
      R.Error = Err;
      R.Kind = classifyError(R.Error);
      return R;
    }
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

  // Timing: replay SM0's CTA list (Pid += NumSms). A CTA's trace depends
  // on its coordinates only through the KV trip count, which causal
  // masking ties to the query-tile index X. So only the first CTA of each
  // class is interpreted — one class without causal masking, one per
  // distinct X with it — and the schedule points at those traces. The
  // first CTA of the first failing class is the first failing CTA of the
  // whole list, so the reported error is unchanged too
  // (docs/threading-and-memory.md).
  RunOptions TimingLaunch = Launch;
  TimingLaunch.Functional = false;
  std::vector<CtaCoord> ClassReps;
  std::vector<size_t> Sm0Classes;
  std::vector<size_t> RepOfClass(W.Causal ? QTiles : 1, SIZE_MAX);
  for (int64_t Pid = 0; Pid < TotalCtas; Pid += Config.NumSms) {
    int64_t X = Pid % QTiles;
    size_t &Rep = RepOfClass[W.Causal ? X : 0];
    if (Rep == SIZE_MAX) {
      Rep = ClassReps.size();
      ClassReps.push_back({X, Pid / QTiles});
    }
    Sm0Classes.push_back(Rep);
  }
  std::vector<CtaTrace> SampleStorage;
  if (std::string Err =
          Interp.runCtaBatch(TimingLaunch, ClassReps, SampleStorage);
      !Err.empty()) {
    R.Error = Err;
    R.Kind = classifyError(R.Error);
    return R;
  }
  if (SampleStorage.empty()) {
    R.Error = "no CTAs to simulate";
    R.Kind = ErrorKind::Internal;
    return R;
  }
  R.SmemBytes = SampleStorage.front().SmemBytes;
  if (R.SmemBytes > Config.SmemBytesPerSm) {
    R.Feasible = false;
    R.Error = "shared memory exceeded";
    R.Kind = ErrorKind::Infeasible;
    return R;
  }

  int64_t Wave = std::min<int64_t>(TotalCtas, Config.NumSms);
  double HeadsCovered =
      std::min<double>(static_cast<double>(ceilDiv(Wave, QTiles)) + 1,
                       static_cast<double>(BH));
  // Blend: K/V tiles are shared by every CTA of the same head in a wave; Q
  // and O are unique per CTA.
  double KvBytesPerCta = 2.0 * static_cast<double>(W.SeqLen) * W.HeadDim *
                         getPrecisionBytes(W.Prec);
  double QBytesPerCta = static_cast<double>(Kernel.TileQ) * W.HeadDim *
                        getPrecisionBytes(W.Prec);
  double KvReuse = HeadsCovered / static_cast<double>(Wave);
  double Blended = (QBytesPerCta + KvBytesPerCta * KvReuse) /
                   (QBytesPerCta + KvBytesPerCta);

  ReplayParams Params;
  Params.BwShareSms = static_cast<double>(Wave);
  Params.DramReuseFactor = std::min(1.0, Blended);
  Params.TensorPenalty = TensorPenalty;
  Params.CudaPenalty = CudaPenalty;
  Params.CtaGapCycles = E.ExtraCtaCycles;

  std::vector<const CtaTrace *> Schedule;
  for (size_t Class : Sm0Classes)
    Schedule.push_back(&SampleStorage[Class]);
  ReplayResult Rep = replaySmSchedule(Schedule, Config, Params);
  if (Rep.Deadlock) {
    R.Error = Rep.Error;
    R.Kind = ErrorKind::Deadlock;
    return R;
  }
  R.Micros = Config.cyclesToMicros(Rep.Cycles) + E.ExtraLaunchMicros;
  R.TFlops = W.flops() / (R.Micros * 1e-6) / 1e12;
  R.TensorUtilization = Rep.TensorBusyCycles / std::max(1.0, Rep.Cycles);
  return R;
}
