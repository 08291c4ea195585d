//===- Runner.h - Compile-and-simulate orchestration ------------*- C++ -*-===//
//
// The top-level API the examples, tests and benchmark harnesses use:
// build a kernel, run the configured compiler pipeline, execute on the
// simulated H100, and report time / TFLOP/s / numerical error.
//
//===----------------------------------------------------------------------===//

#ifndef TAWA_DRIVER_RUNNER_H
#define TAWA_DRIVER_RUNNER_H

#include "models/Frameworks.h"
#include "sim/Config.h"
#include "support/ProgramCache.h"
#include "support/Status.h"

#include <string>

namespace tawa {
namespace sim {
struct ExecDiagnostic;
} // namespace sim

struct RunResult {
  std::string Error;       ///< Non-empty on compile/simulate failure.
  /// Structured classification of Error (support/Status.h): None on
  /// success, a specific kind for every known failure class, Internal for
  /// anything unclassified. Harness code branches on this instead of
  /// substring-matching Error.
  ErrorKind Kind = ErrorKind::None;
  bool Supported = true;   ///< False when the framework rejects the config.
  bool Feasible = true;    ///< False when D/P/SMEM constraints fail (Fig. 11
                           ///< zero cells).
  double Micros = 0;
  double TFlops = 0;
  double MaxRelError = -1; ///< Functional runs only.
  double TensorUtilization = 0;
  int64_t SmemBytes = 0;
  int64_t RegsPerThread = 0;

  bool ok() const { return Error.empty() && Supported && Feasible; }
};

class Runner {
public:
  explicit Runner(sim::GpuConfig Config = sim::GpuConfig())
      : Config(Config) {}

  const sim::GpuConfig &getConfig() const { return Config; }

  /// Run the post-compile peephole fusion pass (sim/Peephole.h) on every
  /// program this Runner compiles: superinstructions, observably identical
  /// execution, fewer dispatches. Default on; TAWA_NO_FUSE=1 overrides to
  /// off process-wide. The effective value is folded into every compile
  /// key, so fused and unfused programs are distinct entries in both the
  /// in-memory and disk layers of the program cache — one can never be
  /// served in place of the other.
  bool FuseBytecode = true;

  /// Worker threads for the functional all-CTA validation runs AND the
  /// timing-mode sample fan-out (the attention sampler, one interpreted
  /// CTA per trace class): 0 = one per hardware thread (default), 1 =
  /// every CTA inline on the calling thread. Results — outputs, cycle
  /// reports, HB counts, first-error selection — are bit-identical at any
  /// worker count (the Interpreter's CTA runner merges by index; see
  /// docs/threading-and-memory.md).
  int64_t NumWorkers = 0;

  /// Execution watchdog (docs/robustness.md): per-CTA step budget in
  /// engine-independent step units; 0 = off. A trip fails the run with
  /// ErrorKind::StepBudget and a deterministic message — identical at any
  /// NumWorkers.
  int64_t MaxSteps = 0;

  /// Wall-clock guard in milliseconds per CTA (0 = off). A
  /// non-deterministic safety net for harnesses — prefer MaxSteps wherever
  /// determinism matters.
  int64_t MaxWallMs = 0;

  /// When non-null, a deadlock / watchdog / protocol abort during
  /// execution fills this post-mortem snapshot (tawa-diag-v1,
  /// sim/Diag.h) exactly as Interpreter does when given
  /// RunOptions::Diag. Long-lived harnesses (tawa-serve) point this at a
  /// per-request diagnostic so a tripped guardrail yields a structured
  /// report instead of just an error string. Not owned; must outlive the
  /// run.
  sim::ExecDiagnostic *Diag = nullptr;

  /// Per-Runner program-cache accounting over the process-wide
  /// support/ProgramCache: benchmark sweeps that vary only runtime
  /// dimensions (fig8's K sweep, fig11's hyperparameter grid) compile once
  /// and execute many times, and with TAWA_CACHE_DIR set a warm process
  /// skips compilation entirely. A "hit" is an in-memory or disk-loaded
  /// program; a "miss" is a full pass-pipeline run — successful or not
  /// (failed compiles are never cached, so every retry pays and counts).
  /// The sweep driver snapshots this around every point to attach cache
  /// statistics to each record.
  struct CacheStats {
    size_t Hits = 0;
    size_t Misses = 0;
  };
  CacheStats cacheStats() const { return {CacheHits, CacheMisses}; }

  /// The process-wide program-cache key this point compiles under, or ""
  /// when the point never reaches the compiler: analytic or unsupported
  /// envelopes, and warp-specialization options the compiler rejects
  /// before building a module (Fig. 11's infeasible cells). The key covers
  /// every compile-time knob and no runtime dimension, so a whole sweep
  /// over M/N/K/SeqLen shares one key (docs/program-cache.md).
  std::string compileKey(const GemmWorkload &W,
                         const FrameworkEnvelope &E) const;
  std::string compileKey(const AttentionWorkload &W,
                         const FrameworkEnvelope &E) const;

  /// Compiles (or cache-loads) the kernel a point needs WITHOUT executing
  /// it — the sweep driver's pre-warm pass. Points with an empty
  /// compileKey() are a successful no-op. Returns false with \p Err set on
  /// pipeline failure.
  bool prewarm(const GemmWorkload &W, const FrameworkEnvelope &E,
               std::string &Err);
  bool prewarm(const AttentionWorkload &W, const FrameworkEnvelope &E,
               std::string &Err);

  /// Runs a GEMM point under a framework's default envelope.
  RunResult runGemm(Framework F, const GemmWorkload &W,
                    bool Functional = false);
  /// Runs a GEMM point under an explicit envelope (hyperparameter and
  /// ablation sweeps construct these directly).
  RunResult runGemmCustom(const GemmWorkload &W, const FrameworkEnvelope &E,
                          bool Functional);

  RunResult runAttention(Framework F, const AttentionWorkload &W,
                         bool Functional = false);
  RunResult runAttentionCustom(const AttentionWorkload &W,
                               const FrameworkEnvelope &E, bool Functional);

private:
  /// How a point compiles: effective options, software-pipeline depth,
  /// cache key and module builder, derived by one plan() per family.
  struct CompilePlan;
  /// A kernel family's grid, host data, validation and CTA sampling.
  struct FamilyRun;

  CompilePlan plan(const GemmWorkload &W, const FrameworkEnvelope &E) const;
  CompilePlan plan(const AttentionWorkload &W,
                   const FrameworkEnvelope &E) const;
  bool prewarm(const CompilePlan &P, std::string &Err);

  /// The skeleton every compiled run shares: compile, register/spill cost
  /// model, launch defaults from this Runner's fields, the family's CTAs,
  /// shared-memory check, replay of SM0's schedule, result.
  RunResult execute(const CompilePlan &P, const FrameworkEnvelope &E,
                    bool Functional, double Flops, const FamilyRun &F);

  RunResult runGemmAnalytic(const GemmWorkload &W,
                            const FrameworkEnvelope &E);
  /// The grouped/MoE family (W.MoE with non-empty GroupMs): the
  /// data-dependent ragged CTA list, the (E, 2) group-offset table and the
  /// concatenated A/C slabs, validated one expert slab at a time.
  RunResult runGemmMoe(const GemmWorkload &W, const FrameworkEnvelope &E,
                       const CompilePlan &P, bool Functional);
  RunResult runAttentionAnalytic(const AttentionWorkload &W,
                                 const FrameworkEnvelope &E);

  /// Cache lookup / compile-and-insert of \p P against the process-wide
  /// support/ProgramCache. The key covers every compile-time knob, so
  /// runtime dims (M/N/K, grid) are launch arguments and one entry serves
  /// a whole sweep. Returns null with \p Err set on pipeline failure
  /// (failed compiles are not cached).
  ProgramCache::EntryRef getOrCompile(const CompilePlan &P, std::string &Err);

  sim::GpuConfig Config;
  size_t CacheHits = 0, CacheMisses = 0;
};

} // namespace tawa

#endif // TAWA_DRIVER_RUNNER_H
