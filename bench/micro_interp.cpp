//===- micro_interp.cpp - Execution engine microbenchmarks --------------------//
//
// Head-to-head ops/sec of the two execution engines — the tree-walking
// oracle kept in the test tree (tests/oracle/TreeWalk.h) vs the library's
// slot-indexed bytecode executor — on the workloads that dominate every
// figure benchmark, plus:
//
//   * worker-pool scaling of the functional all-CTA grid
//     (Interpreter::runGrid at NumWorkers 1/2/4/8, one arena per worker);
//   * worker-pool scaling of the timing-mode sampler
//     (Interpreter::runCtaBatch over the mha-ws SM0 sample list);
//   * the superinstruction fusion pass (sim/Peephole.h): fused vs unfused
//     bytecode ops/sec per workload, interleaved and best-of-N to tame
//     scheduler noise, plus each program's static fusion coverage — the
//     "fusion" section of BENCH_interp.json, with a >= 1.15x geomean bar
//     on the two timing workloads in full (non-smoke) runs;
//   * the program-cache effect on a fig8-style K sweep, both in-process
//     (compile once, execute many) and cross-process (a fresh process
//     loading serialized programs from TAWA_CACHE_DIR — simulated here by
//     clearing the in-memory cache against a populated disk directory).
//
// Prints a speedup table (like micro_passes.cpp prints pass timings) and
// writes the results to BENCH_interp.json for CI tracking.
//
// Usage: micro_interp [--smoke]   (--smoke: few repetitions, CI-friendly)
//
//===----------------------------------------------------------------------===//

#include "driver/Sweep.h"
#include "frontend/Kernels.h"
#include "passes/Passes.h"
#include "sim/Bytecode.h"
#include "sim/Interpreter.h"
#include "sim/Peephole.h"
#include "sim/Replay.h"
#include "support/Json.h"
#include "support/ProgramCache.h"
#include "support/Support.h"
#include "support/WorkerPool.h"
#include "tests/oracle/TreeWalk.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

using namespace tawa;
using namespace tawa::sim;

namespace {

double nowSec() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

struct EngineRate {
  double OpsPerSec = 0;
  double SecPerCta = 0;
};

struct BenchRow {
  std::string Name;
  int64_t OpsPerCta = 0; ///< Trace actions per CTA (same for both engines).
  EngineRate Legacy, Bytecode;
  double speedup() const {
    return Legacy.OpsPerSec > 0 ? Bytecode.OpsPerSec / Legacy.OpsPerSec : 0;
  }
};

/// One ready-to-execute workload: a compiled module plus launch options.
/// GridCtas is how many CTAs one repetition executes (1 for the timing-mode
/// rows, the whole grid for the functional row).
struct Workload {
  std::string Name;
  std::unique_ptr<IrContext> Ctx;
  std::unique_ptr<Module> M;
  RunOptions Launch;
  int64_t GridCtas = 1;
};

Workload makeGemmWs(bool Functional) {
  Workload W;
  W.Name = Functional ? "gemm-ws-functional" : "gemm-ws-timing-k4096";
  W.Ctx = std::make_unique<IrContext>();
  GemmKernelConfig Config;
  W.M = buildGemmModule(*W.Ctx, Config);
  TawaOptions Options;
  Options.ArefDepth = 3;
  Options.MmaPipelineDepth = 2;
  PassManager PM;
  buildTawaPipeline(PM, Options);
  if (std::string Err = PM.run(*W.M); !Err.empty()) {
    std::fprintf(stderr, "compile failed: %s\n", Err.c_str());
    std::exit(1);
  }
  W.Launch.Functional = Functional;
  if (Functional) {
    // A 2x2 tile grid of small shapes: per-CTA work matches the historical
    // single-CTA row (same tile sizes, same K) while giving the worker
    // pool independent CTAs to fan out.
    int64_t M = 256, N = 256, K = 256;
    auto A = std::make_shared<TensorData>(std::vector<int64_t>{M, K});
    auto B = std::make_shared<TensorData>(std::vector<int64_t>{N, K});
    auto C = std::make_shared<TensorData>(std::vector<int64_t>{M, N});
    A->fillRandom(1, 1.0f);
    B->fillRandom(2, 1.0f);
    W.Launch.GridX = ceilDiv(M, Config.TileM) * ceilDiv(N, Config.TileN);
    W.GridCtas = W.Launch.GridX;
    W.Launch.Args = {RuntimeArg::tensor(A), RuntimeArg::tensor(B),
                     RuntimeArg::tensor(C), RuntimeArg::scalar(M),
                     RuntimeArg::scalar(N), RuntimeArg::scalar(K)};
  } else {
    // The fig8 GEMM inner loop: K = 4096 -> 64 pipeline iterations.
    W.Launch.GridX = 4096;
    W.Launch.Args = {
        RuntimeArg::tensor(nullptr), RuntimeArg::tensor(nullptr),
        RuntimeArg::tensor(nullptr), RuntimeArg::scalar(8192),
        RuntimeArg::scalar(8192),    RuntimeArg::scalar(4096)};
  }
  return W;
}

Workload makeMhaWs() {
  Workload W;
  W.Name = "mha-ws-timing";
  W.Ctx = std::make_unique<IrContext>();
  AttentionKernelConfig Config;
  W.M = buildAttentionModule(*W.Ctx, Config);
  TawaOptions Options;
  Options.ArefDepth = 2;
  Options.CoarsePipeline = true;
  PassManager PM;
  buildTawaPipeline(PM, Options);
  if (std::string Err = PM.run(*W.M); !Err.empty()) {
    std::fprintf(stderr, "compile failed: %s\n", Err.c_str());
    std::exit(1);
  }
  W.Launch.Functional = false;
  W.Launch.GridX = 32;
  W.Launch.GridY = 128;
  W.Launch.Args = {RuntimeArg::tensor(nullptr), RuntimeArg::tensor(nullptr),
                   RuntimeArg::tensor(nullptr), RuntimeArg::tensor(nullptr),
                   RuntimeArg::scalar(4096)};
  return W;
}

int64_t countTraceOps(const CtaTrace &T) {
  int64_t N = 0;
  for (const AgentTrace &A : T.Agents)
    N += static_cast<int64_t>(A.Actions.size());
  return N;
}

/// Runs one repetition of the workload: the whole grid for functional
/// workloads (GridCtas CTAs), one CTA otherwise — on the tree-walking
/// oracle when \p Interp is null.
std::string runOnce(Interpreter *Interp, const Workload &W,
                    const GpuConfig &Cfg, const RunOptions &Opts) {
  if (W.GridCtas > 1)
    return Interp ? Interp->runGrid(Opts) : runGridOracle(*W.M, Cfg, Opts);
  CtaTrace T;
  return Interp ? Interp->runCta(Opts, 0, 0, T)
                : runCtaOracle(*W.M, Cfg, Opts, 0, 0, T);
}

/// Times repeated executions of one engine; returns ops/sec where "ops" are
/// trace actions (identical for both engines on the same workload, so the
/// ratio equals the wall-clock speedup). \p NumWorkers drives the grid
/// runner for multi-CTA workloads (1 = every CTA inline on the caller;
/// the oracle always runs serially).
EngineRate timeEngine(Workload &W, bool Oracle, int64_t NumWorkers,
                      int64_t OpsPerCta, double MinSeconds, int MinReps,
                      bool Fuse = true) {
  RunOptions Opts = W.Launch;
  Opts.NumWorkers = NumWorkers;
  Opts.FuseBytecode = Fuse;
  GpuConfig Cfg;
  Interpreter Bytecode(*W.M, Cfg);
  Interpreter *Interp = Oracle ? nullptr : &Bytecode;
  // Warm-up (and bytecode compilation, outside the timed loop — sweeps pay
  // it once).
  if (std::string Err = runOnce(Interp, W, Cfg, Opts); !Err.empty()) {
    std::fprintf(stderr, "%s (%s): %s\n", W.Name.c_str(),
                 Oracle ? "oracle" : "bytecode", Err.c_str());
    std::exit(1);
  }
  int Reps = 0;
  double Start = nowSec(), Elapsed = 0;
  do {
    if (!runOnce(Interp, W, Cfg, Opts).empty())
      std::exit(1);
    ++Reps;
    Elapsed = nowSec() - Start;
  } while (Elapsed < MinSeconds || Reps < MinReps);
  EngineRate R;
  int64_t Ctas = Reps * W.GridCtas;
  R.SecPerCta = Elapsed / Ctas;
  R.OpsPerSec = static_cast<double>(OpsPerCta) * Ctas / Elapsed;
  return R;
}

BenchRow benchWorkload(Workload &W, double MinSeconds, int MinReps) {
  BenchRow Row;
  Row.Name = W.Name;
  {
    GpuConfig Cfg;
    Interpreter Interp(*W.M, Cfg);
    CtaTrace T;
    if (!Interp.runCta(W.Launch, 0, 0, T).empty())
      std::exit(1);
    Row.OpsPerCta = countTraceOps(T);
  }
  Row.Legacy = timeEngine(W, /*Oracle=*/true, /*NumWorkers=*/1,
                          Row.OpsPerCta, MinSeconds, MinReps);
  Row.Bytecode = timeEngine(W, /*Oracle=*/false, /*NumWorkers=*/1,
                            Row.OpsPerCta, MinSeconds, MinReps);
  return Row;
}

/// Worker-pool scaling of the functional grid: bytecode engine only, one
/// arena per worker, deterministic merge (the determinism test asserts the
/// outputs are bit-identical across these counts).
struct ScalePoint {
  int64_t Workers = 1;          ///< Requested NumWorkers.
  int64_t EffectiveWorkers = 1; ///< After the pool's size clamp.
  double OpsPerSec = 0;
};

std::vector<ScalePoint> benchWorkerScaling(Workload &W, int64_t OpsPerCta,
                                           double MinSeconds, int MinReps) {
  std::vector<ScalePoint> Points;
  for (int64_t Workers : {int64_t(1), int64_t(2), int64_t(4), int64_t(8)}) {
    ScalePoint P;
    P.Workers = Workers;
    // Grids below the serial threshold run on one worker regardless of
    // the requested worker count (fan-out cannot amortize; see
    // Interpreter.h) — report what actually executes.
    P.EffectiveWorkers =
        W.GridCtas < SerialGridCtaThreshold
            ? 1
            : std::min(Workers, WorkerPool::shared().getNumWorkers());
    P.OpsPerSec = timeEngine(W, /*Oracle=*/false, Workers, OpsPerCta,
                             MinSeconds, MinReps)
                      .OpsPerSec;
    Points.push_back(P);
  }
  return Points;
}

/// Timing-sampler scaling: the mha-ws SM0 sample list (one interpreted CTA
/// per SM) through Interpreter::runCtaBatch at 1/2/4/8 workers. Ops are
/// summed trace actions of the whole batch, so the worker ratio equals the
/// wall-clock speedup of the Runner's attention timing phase.
std::vector<ScalePoint> benchSamplerScaling(Workload &W, double MinSeconds,
                                            int MinReps) {
  GpuConfig Cfg;
  int64_t Total = W.Launch.GridX * W.Launch.GridY;
  std::vector<CtaCoord> Coords;
  for (int64_t Pid = 0; Pid < Total; Pid += Cfg.NumSms)
    Coords.push_back({Pid % W.Launch.GridX, Pid / W.Launch.GridX});

  int64_t BatchOps = 0;
  std::vector<ScalePoint> Points;
  for (int64_t Workers : {int64_t(1), int64_t(2), int64_t(4), int64_t(8)}) {
    RunOptions Opts = W.Launch;
    Opts.NumWorkers = Workers;
    Interpreter Interp(*W.M, Cfg);
    std::vector<CtaTrace> Traces;
    if (std::string Err = Interp.runCtaBatch(Opts, Coords, Traces);
        !Err.empty()) {
      std::fprintf(stderr, "sampler (%s): %s\n", W.Name.c_str(),
                   Err.c_str());
      std::exit(1);
    }
    if (BatchOps == 0)
      for (const CtaTrace &T : Traces)
        BatchOps += countTraceOps(T);
    int Reps = 0;
    double Start = nowSec(), Elapsed = 0;
    do {
      if (!Interp.runCtaBatch(Opts, Coords, Traces).empty())
        std::exit(1);
      ++Reps;
      Elapsed = nowSec() - Start;
    } while (Elapsed < MinSeconds || Reps < MinReps);
    ScalePoint P;
    P.Workers = Workers;
    P.EffectiveWorkers = std::min(
        std::min(Workers, WorkerPool::shared().getNumWorkers()),
        static_cast<int64_t>(Coords.size()));
    P.OpsPerSec = static_cast<double>(BatchOps) * Reps / Elapsed;
    Points.push_back(P);
  }
  return Points;
}

//===----------------------------------------------------------------------===//
// Superinstruction fusion (sim/Peephole.h)
//===----------------------------------------------------------------------===//

struct FusionRow {
  std::string Name;
  double UnfusedOps = 0, FusedOps = 0;
  double Coverage = 0;        ///< Static coverage of the fused program.
  int64_t InstsBefore = 0, InstsAfter = 0;
  double speedup() const {
    return UnfusedOps > 0 ? FusedOps / UnfusedOps : 0;
  }
};

/// Measures fused vs unfused bytecode ops/sec on one workload. The two
/// modes are timed interleaved over several rounds and the best rate of
/// each is kept, so ambient scheduler noise (which hits both modes alike)
/// cannot masquerade as a fusion effect.
FusionRow benchFusion(Workload &W, int64_t OpsPerCta, double MinSeconds,
                      int MinReps) {
  FusionRow R;
  R.Name = W.Name;
  for (int Round = 0; Round < 4; ++Round) {
    R.UnfusedOps = std::max(
        R.UnfusedOps, timeEngine(W, /*Oracle=*/false, /*NumWorkers=*/1,
                                 OpsPerCta, MinSeconds, MinReps,
                                 /*Fuse=*/false)
                          .OpsPerSec);
    R.FusedOps = std::max(
        R.FusedOps, timeEngine(W, /*Oracle=*/false, /*NumWorkers=*/1,
                               OpsPerCta, MinSeconds, MinReps,
                               /*Fuse=*/true)
                        .OpsPerSec);
  }
  // Static stats of the program the fused legs actually executed: under
  // TAWA_NO_FUSE those legs silently ran unfused, and the recorded
  // coverage must say so (zero) rather than describe a program that
  // never ran.
  auto Prog = sim::bc::compileModule(*W.M, GpuConfig(),
                                     sim::bc::fusionEnabled(true));
  R.Coverage = Prog->Fusion.coverage();
  R.InstsBefore = Prog->Fusion.InstsBefore;
  R.InstsAfter = Prog->Fusion.InstsAfter;
  return R;
}

/// Builds the fig8-style Tawa K-sweep grid on a Sweep driver.
Sweep makeKsweep(const char *Name, const std::vector<int64_t> &Ks) {
  Sweep S(Name);
  for (int64_t K : Ks) {
    GemmWorkload W;
    W.K = K;
    S.addGemm(W, Framework::Tawa, {{"K", std::to_string(K)}});
  }
  return S;
}

void reportSweepErrors(const Sweep &S) {
  for (const SweepRecord &Rec : S.records())
    if (!Rec.Result.ok())
      std::fprintf(stderr, "ksweep K=%s: %s\n",
                   Rec.Point.axis("K")->c_str(),
                   Rec.Result.Error.c_str());
}

/// fig8-style K sweep through the sweep driver: cold = the in-memory cache
/// is cleared per point (every point recompiles), warm = one prewarmed
/// grid that compiles once and executes many (run phase: zero compiles).
struct SweepResult {
  double ColdSec = 0, WarmSec = 0;
  size_t WarmHits = 0, WarmMisses = 0;
  double speedup() const { return WarmSec > 0 ? ColdSec / WarmSec : 0; }
};

SweepResult benchKsweep(const std::vector<int64_t> &Ks) {
  SweepResult S;
  {
    double Start = nowSec();
    for (int64_t K : Ks) {
      // The cache is process-wide: clearing it per point is what "cold"
      // means. One-point grids keep the per-point recompile semantics.
      ProgramCache::shared().clear();
      Sweep Sw = makeKsweep("fig8_ksweep_cold_point", {K});
      Sw.run();
      reportSweepErrors(Sw);
    }
    S.ColdSec = nowSec() - Start;
  }
  {
    ProgramCache::shared().clear();
    Sweep Sw = makeKsweep("fig8_ksweep_warm", Ks);
    double Start = nowSec();
    if (std::string Err = Sw.prewarm(); !Err.empty())
      std::fprintf(stderr, "ksweep prewarm: %s\n", Err.c_str());
    Sw.run();
    S.WarmSec = nowSec() - Start;
    reportSweepErrors(Sw);
    S.WarmHits = Sw.stats().PrewarmHits + Sw.stats().RunHits;
    S.WarmMisses = Sw.stats().PrewarmCompiles + Sw.stats().RunCompiles;
  }
  return S;
}

/// Cross-process warm start: run the sweep with a persist directory (cold —
/// compiles and serializes every kernel), then clear the in-memory cache to
/// simulate a fresh process and run again — every compile is replaced by a
/// disk load of the serialized CompiledProgram.
struct DiskSweepResult {
  double ColdSec = 0, WarmSec = 0;
  size_t ColdCompiles = 0, WarmCompiles = 0, DiskHits = 0;
  double speedup() const { return WarmSec > 0 ? ColdSec / WarmSec : 0; }
};

DiskSweepResult benchKsweepDisk(const std::vector<int64_t> &Ks) {
  DiskSweepResult S;
  auto &Cache = ProgramCache::shared();
  auto Dir = std::filesystem::temp_directory_path() /
             ("tawa-bench-cache-" + std::to_string(::getpid()));
  std::error_code Ec;
  std::filesystem::create_directories(Dir, Ec);
  Cache.setPersistDir(Dir.string());
  Cache.clear();
  Cache.resetStats();

  auto SweepPass = [&](size_t &Compiles) {
    Sweep Sw = makeKsweep("fig8_ksweep_disk", Ks);
    double Start = nowSec();
    if (std::string Err = Sw.prewarm(); !Err.empty())
      std::fprintf(stderr, "disk ksweep prewarm: %s\n", Err.c_str());
    Sw.run();
    double Elapsed = nowSec() - Start;
    reportSweepErrors(Sw);
    Compiles = Sw.stats().PrewarmCompiles + Sw.stats().RunCompiles;
    return Elapsed;
  };

  S.ColdSec = SweepPass(S.ColdCompiles);
  Cache.clear(); // Simulated process restart; the disk stays populated.
  S.WarmSec = SweepPass(S.WarmCompiles);
  S.DiskHits = Cache.getStats().DiskHits;

  Cache.setPersistDir("");
  Cache.clear();
  std::filesystem::remove_all(Dir, Ec);
  return S;
}

} // namespace

int main(int argc, char **argv) {
  bool Smoke = false;
  for (int I = 1; I < argc; ++I)
    if (std::strcmp(argv[I], "--smoke") == 0)
      Smoke = true;
  double MinSeconds = Smoke ? 0.05 : 0.5;
  int MinReps = Smoke ? 2 : 5;

  // Engine/scaling rows measure execution, not the disk layer: neutralize
  // any ambient TAWA_CACHE_DIR (the disk sweep below manages its own dir).
  ProgramCache::shared().setPersistDir("");

  Workload GemmTiming = makeGemmWs(/*Functional=*/false);
  Workload GemmFunc = makeGemmWs(/*Functional=*/true);
  Workload Mha = makeMhaWs();

  std::vector<BenchRow> Rows;
  Rows.push_back(benchWorkload(GemmTiming, MinSeconds, MinReps));
  Rows.push_back(benchWorkload(GemmFunc, MinSeconds, MinReps));
  Rows.push_back(benchWorkload(Mha, MinSeconds, MinReps));

  std::printf("\nExecution engine microbenchmark (ops = trace actions)\n");
  std::printf("%-24s %10s %14s %14s %9s\n", "workload", "ops/cta",
              "legacy ops/s", "bytecode ops/s", "speedup");
  for (const BenchRow &R : Rows)
    std::printf("%-24s %10lld %14.0f %14.0f %8.2fx\n", R.Name.c_str(),
                static_cast<long long>(R.OpsPerCta), R.Legacy.OpsPerSec,
                R.Bytecode.OpsPerSec, R.speedup());

  // Worker-pool scaling of the functional grid (one arena per worker).
  int64_t PoolWorkers = WorkerPool::shared().getNumWorkers();
  std::vector<ScalePoint> Scaling = benchWorkerScaling(
      GemmFunc, Rows[1].OpsPerCta, MinSeconds, MinReps);
  std::printf("\n%s worker scaling (%lld CTAs, %lld pool workers)\n",
              GemmFunc.Name.c_str(),
              static_cast<long long>(GemmFunc.GridCtas),
              static_cast<long long>(PoolWorkers));
  for (const ScalePoint &P : Scaling)
    std::printf("  workers=%lld (effective %lld): %12.0f ops/s  "
                "(%.2fx vs workers=1)\n",
                static_cast<long long>(P.Workers),
                static_cast<long long>(P.EffectiveWorkers), P.OpsPerSec,
                Scaling[0].OpsPerSec > 0 ? P.OpsPerSec / Scaling[0].OpsPerSec
                                         : 0);

  // Worker-pool scaling of the timing-mode sampler (runCtaBatch over the
  // mha-ws SM0 sample list — the Runner's attention timing phase).
  std::vector<ScalePoint> SamplerScaling =
      benchSamplerScaling(Mha, MinSeconds, MinReps);
  std::printf("\n%s sampler scaling (%zu sampled CTAs)\n", Mha.Name.c_str(),
              static_cast<size_t>(
                  ceilDiv(Mha.Launch.GridX * Mha.Launch.GridY,
                          GpuConfig().NumSms)));
  for (const ScalePoint &P : SamplerScaling)
    std::printf("  workers=%lld (effective %lld): %12.0f ops/s  "
                "(%.2fx vs workers=1)\n",
                static_cast<long long>(P.Workers),
                static_cast<long long>(P.EffectiveWorkers), P.OpsPerSec,
                SamplerScaling[0].OpsPerSec > 0
                    ? P.OpsPerSec / SamplerScaling[0].OpsPerSec
                    : 0);

  // Superinstruction fusion: fused vs unfused bytecode, interleaved
  // best-of-4 per workload (docs/bytecode-isa.md).
  std::vector<FusionRow> FusionRows;
  FusionRows.push_back(
      benchFusion(GemmTiming, Rows[0].OpsPerCta, MinSeconds, MinReps));
  FusionRows.push_back(
      benchFusion(GemmFunc, Rows[1].OpsPerCta, MinSeconds, MinReps));
  FusionRows.push_back(
      benchFusion(Mha, Rows[2].OpsPerCta, MinSeconds, MinReps));
  // The acceptance geomean covers the two timing workloads — the hot path
  // fusion targets; the functional row is dominated by tensor math both
  // ways and is recorded for completeness.
  double FusionGeomean =
      std::sqrt(FusionRows[0].speedup() * FusionRows[2].speedup());
  std::printf("\nSuperinstruction fusion (bytecode engine, fused vs "
              "unfused)\n");
  std::printf("%-24s %14s %14s %9s %10s\n", "workload", "unfused ops/s",
              "fused ops/s", "speedup", "coverage");
  for (const FusionRow &R : FusionRows)
    std::printf("%-24s %14.0f %14.0f %8.2fx %9.1f%%\n", R.Name.c_str(),
                R.UnfusedOps, R.FusedOps, R.speedup(), 100.0 * R.Coverage);
  std::printf("  timing-workload geomean: %.3fx\n", FusionGeomean);

  std::vector<int64_t> Ks =
      Smoke ? std::vector<int64_t>{256, 512, 1024}
            : std::vector<int64_t>{256, 512, 1024, 2048, 4096, 8192, 16384};
  SweepResult Ksweep = benchKsweep(Ks);
  std::printf("\nfig8 K sweep (%zu points, Tawa timing mode)\n", Ks.size());
  std::printf("  cold (cache cleared per point): %7.3f s\n", Ksweep.ColdSec);
  std::printf("  warm (shared program cache):    %7.3f s   (%zu hits / %zu "
              "misses)\n",
              Ksweep.WarmSec, Ksweep.WarmHits, Ksweep.WarmMisses);
  std::printf("  sweep speedup: %.2fx\n", Ksweep.speedup());

  DiskSweepResult Disk = benchKsweepDisk(Ks);
  std::printf("\nfig8 K sweep, cross-process (TAWA_CACHE_DIR warm start)\n");
  std::printf("  cold process (compile + serialize): %7.3f s   "
              "(%zu compiles)\n",
              Disk.ColdSec, Disk.ColdCompiles);
  std::printf("  warm process (disk-loaded programs):%7.3f s   "
              "(%zu compiles, %zu disk hits)\n",
              Disk.WarmSec, Disk.WarmCompiles, Disk.DiskHits);
  std::printf("  cross-process speedup: %.2fx\n", Disk.speedup());

  // Emit machine-readable results (field layout documented in
  // docs/reproducing-figures.md).
  JsonWriter J;
  J.beginObject();
  J.key("workloads").beginArray();
  for (const BenchRow &R : Rows) {
    J.beginObject();
    J.field("name", R.Name);
    J.field("ops_per_cta", R.OpsPerCta);
    J.field("legacy_ops_per_sec", R.Legacy.OpsPerSec, 1);
    J.field("bytecode_ops_per_sec", R.Bytecode.OpsPerSec, 1);
    J.field("speedup", R.speedup(), 3);
    J.endObject();
  }
  J.endArray();
  // pool_workers is the worker pool's actual size (never below its
  // 4-worker floor — WorkerPool::shared); hardware_concurrency is the raw
  // std::thread::hardware_concurrency of the host. The old
  // "hardware_workers" name conflated the two.
  J.field("pool_workers", PoolWorkers);
  J.field("hardware_concurrency", WorkerPool::hardwareWorkers());
  // Grids below this CTA count run runGrid on one worker at any requested
  // worker count (sim/Interpreter.h).
  J.field("serial_grid_threshold", SerialGridCtaThreshold);
  J.key("worker_scaling").beginArray();
  auto EmitScaling = [&](const char *Name,
                         const std::vector<ScalePoint> &Points) {
    for (const ScalePoint &P : Points) {
      J.beginObject();
      J.field("workload", Name);
      J.field("workers", P.Workers);
      J.field("workers_effective", P.EffectiveWorkers);
      J.field("ops_per_sec", P.OpsPerSec, 1);
      J.field("speedup_vs_serial",
              Points[0].OpsPerSec > 0 ? P.OpsPerSec / Points[0].OpsPerSec
                                      : 0,
              3);
      J.endObject();
    }
  };
  EmitScaling(GemmFunc.Name.c_str(), Scaling);
  EmitScaling("mha-ws-timing-sampler", SamplerScaling);
  J.endArray();
  J.key("fusion").beginObject();
  J.key("workloads").beginArray();
  for (const FusionRow &R : FusionRows) {
    J.beginObject();
    J.field("name", R.Name);
    J.field("unfused_ops_per_sec", R.UnfusedOps, 1);
    J.field("fused_ops_per_sec", R.FusedOps, 1);
    J.field("speedup", R.speedup(), 3);
    J.field("static_coverage", R.Coverage, 3);
    J.field("static_insts_before", R.InstsBefore);
    J.field("static_insts_after", R.InstsAfter);
    J.endObject();
  }
  J.endArray();
  J.field("timing_geomean_speedup", FusionGeomean, 3);
  J.endObject();
  J.key("fig8_ksweep").beginObject();
  J.field("points", static_cast<uint64_t>(Ks.size()));
  J.field("cold_sec", Ksweep.ColdSec, 4);
  J.field("warm_sec", Ksweep.WarmSec, 4);
  J.field("cache_hits", static_cast<uint64_t>(Ksweep.WarmHits));
  J.field("cache_misses", static_cast<uint64_t>(Ksweep.WarmMisses));
  J.field("speedup", Ksweep.speedup(), 3);
  J.endObject();
  J.key("fig8_ksweep_disk").beginObject();
  J.field("points", static_cast<uint64_t>(Ks.size()));
  J.field("cold_sec", Disk.ColdSec, 4);
  J.field("warm_sec", Disk.WarmSec, 4);
  J.field("cold_compiles", static_cast<uint64_t>(Disk.ColdCompiles));
  J.field("warm_compiles", static_cast<uint64_t>(Disk.WarmCompiles));
  J.field("disk_hits", static_cast<uint64_t>(Disk.DiskHits));
  J.field("speedup", Disk.speedup(), 3);
  J.endObject();
  J.field("smoke", Smoke);
  J.endObject();
  FILE *F = std::fopen("BENCH_interp.json", "w");
  if (!F) {
    std::fprintf(stderr, "cannot write BENCH_interp.json\n");
    return 1;
  }
  std::string Doc = J.str();
  std::fwrite(Doc.data(), 1, Doc.size(), F);
  std::fclose(F);
  std::printf("\nwrote BENCH_interp.json\n");

  // The PR-1 acceptance bar: >= 5x on the GEMM inner-loop workload. The
  // functional row has no engine-ratio bar — both engines share their math
  // kernels (matmulAcc, loadWindowInto), so the legacy/bytecode ratio there is
  // near 1 by construction; the arena + worker-pool win is tracked as the
  // absolute bytecode_ops_per_sec / worker_scaling numbers in
  // BENCH_interp.json instead.
  if (Rows[0].speedup() < 5.0) {
    std::fprintf(stderr, "FAIL: bytecode speedup %.2fx < 5x on %s\n",
                 Rows[0].speedup(), Rows[0].Name.c_str());
    return 1;
  }
  // The PR-3 acceptance bar: a warm-start (populated cache dir) sweep must
  // skip every compile. The sampler-scaling speedup has no hard bar — it
  // is hardware-dependent (see the recorded worker_scaling rows).
  if (Disk.WarmCompiles != 0) {
    std::fprintf(stderr,
                 "FAIL: warm cross-process sweep recompiled %zu kernels\n",
                 Disk.WarmCompiles);
    return 1;
  }
  // The PR-5 acceptance bar: superinstruction fusion must buy >= 1.15x
  // geomean ops/sec on the two timing workloads. Enforced on full runs
  // only — smoke's 50 ms windows are noise-bound on loaded CI hosts; the
  // smoke value is still printed and recorded in BENCH_interp.json. A
  // deliberately-unfused run (TAWA_NO_FUSE=1) measures ~1.0x by
  // construction and is not a failure.
  if (!Smoke && sim::bc::fusionEnabled(true) && FusionGeomean < 1.15) {
    std::fprintf(stderr,
                 "FAIL: fusion geomean %.3fx < 1.15x on the timing "
                 "workloads\n",
                 FusionGeomean);
    return 1;
  }
  return 0;
}
