//===- Interpreter.h - Functional + trace-generating execution --*- C++ -*-===//
//
// Executes a compiled module for one CTA: warp-group regions run as
// cooperatively scheduled agents whose mbarrier interactions follow the real
// blocking semantics (so protocol bugs deadlock or trip the monitors), while
// every tensor op computes real data (functional mode). Each agent emits a
// timed action trace; Replay.h turns the traces into cycle counts.
//
// The engine is the bytecode executor: the module is flattened once into a
// dense CompiledProgram (Bytecode.h) with slot-indexed operands and
// precomputed costs, then executed by Executor.cpp's dispatch loop — the
// hot path for benchmark sweeps, which compile once and execute many CTAs.
// The original tree-walking interpreter lives only in the test tree
// (tests/oracle/TreeWalk.h), as the differential-testing oracle.
//
// Protocol checking is layered (per DESIGN.md):
//   * per-slot state monitors (the Fig. 4 machine extended with multi-writer
//     tuple slots and multi-reader cooperative groups);
//   * the sem::HappensBeforeTracker validating the release/acquire chain;
//   * deadlock detection when every agent is blocked.
//
//===----------------------------------------------------------------------===//

#ifndef TAWA_SIM_INTERPRETER_H
#define TAWA_SIM_INTERPRETER_H

#include "sim/Config.h"
#include "sim/TensorData.h"
#include "sim/Trace.h"

#include <memory>
#include <string>
#include <vector>

namespace tawa {

class Module;

namespace sim {

namespace bc {
struct CompiledProgram;
}

struct ExecDiagnostic;

/// One kernel argument: a scalar or a tensor bound to a TMA descriptor /
/// base pointer.
struct RuntimeArg {
  enum class Kind { Scalar, Tensor };
  Kind K = Kind::Scalar;
  int64_t Scalar = 0;
  TensorRef Data;

  static RuntimeArg scalar(int64_t V) {
    RuntimeArg A;
    A.K = Kind::Scalar;
    A.Scalar = V;
    return A;
  }
  static RuntimeArg tensor(TensorRef T) {
    RuntimeArg A;
    A.K = Kind::Tensor;
    A.Data = std::move(T);
    return A;
  }
};

struct RunOptions {
  std::vector<RuntimeArg> Args;
  int64_t GridX = 1;
  int64_t GridY = 1;
  /// When false, tensor payloads are not computed (timing-only sampling for
  /// large benchmark shapes); scalars, control flow, traces and protocol
  /// monitors still run.
  bool Functional = true;
  /// Worker threads for Interpreter::runGrid / runCtaBatch: 0 = one per
  /// hardware thread (the default), 1 = every CTA inline on the calling
  /// thread. Results are bit-identical at every worker count — see
  /// docs/threading-and-memory.md. Per-CTA runCta is unaffected. Grids
  /// smaller than SerialGridCtaThreshold run on one worker regardless.
  int64_t NumWorkers = 0;
  /// Run the post-compile peephole fusion pass (sim/Peephole.h) when this
  /// Interpreter compiles its bytecode program lazily: superinstructions,
  /// observably identical execution, fewer dispatches. Default on; the
  /// TAWA_NO_FUSE=1 environment variable overrides it to off process-wide
  /// (the CI kill switch). Ignored when the Interpreter was handed an
  /// already-compiled program (the Runner's program-cache path — the
  /// Runner folds its own fusion flag into the compile key instead).
  bool FuseBytecode = true;
  /// Execution-watchdog step budget per agent (0 = off; the TAWA_MAX_STEPS
  /// environment variable supplies a process-wide default when this is 0).
  /// Steps are engine-independent units — loop iterations started plus
  /// mbarrier waits issued — so a budget trip is deterministic and
  /// identical across engines and worker counts. An agent exceeding the
  /// budget fails with a "step budget exceeded" error (ErrorKind::
  /// StepBudget). See docs/robustness.md.
  int64_t MaxSteps = 0;
  /// Wall-clock watchdog per CTA in milliseconds (0 = off; TAWA_MAX_WALL_MS
  /// supplies a default). A safety net behind MaxSteps for kernels whose
  /// step rate is pathological: NOT deterministic (depends on host speed),
  /// so prefer MaxSteps anywhere reproducibility matters. The test-side
  /// oracle ignores it. Trips fail the agent with a "wall clock" error
  /// (ErrorKind::WallClock).
  int64_t MaxWallMs = 0;
  /// When non-null, a deadlock or watchdog abort fills this with the
  /// post-mortem snapshot (sim/Diag.h): per-agent state/steps/wait, barrier
  /// counters, staging-slot monitors. For runGrid/runCtaBatch the snapshot
  /// is the first failing CTA's (in serial order) — deterministic at any
  /// worker count. Untouched on success and for other error kinds.
  ExecDiagnostic *Diag = nullptr;
};

/// Grids with fewer CTAs than this run Interpreter::runGrid on one worker
/// even when NumWorkers allows parallelism: pool wake-up costs more than a
/// handful of CTAs can amortize (the
/// gemm-ws-functional worker-scaling rows of BENCH_interp.json measured
/// 0.95-0.97x at 2-8 workers on a 4-CTA grid). Results are bit-identical
/// either way — the fallback is purely a scheduling choice. Recorded in
/// BENCH_interp.json as "serial_grid_threshold".
constexpr int64_t SerialGridCtaThreshold = 8;

/// Resolves RunOptions::NumWorkers: 0 becomes the hardware thread count.
int64_t resolveNumWorkers(int64_t Requested);

/// Applies recorded tt.atomic_add contributions (CtaTrace::Atomics) to the
/// run's argument tensors. The engines only RECORD atomics; the Interpreter
/// applies them per CTA in CTA-index order, so every worker count produces
/// the same accumulation sequence. Exposed for harnesses that drive
/// bc::executeProgram directly.
void applyAtomicContribs(const RunOptions &Opts,
                         const std::vector<AtomicContrib> &Contribs);

/// One CTA coordinate of a sampled batch (Interpreter::runCtaBatch).
struct CtaCoord {
  int64_t X = 0;
  int64_t Y = 0;
};

class Interpreter {
public:
  /// \p M must be fully lowered (warp-specialized path) or a plain tile
  /// module (Triton baseline paths). The bytecode program is compiled
  /// lazily on the first run and reused for every CTA.
  Interpreter(Module &M, const GpuConfig &Config);

  /// Reuses an already-compiled program (the program cache) so repeated
  /// sweeps skip flattening entirely. A CompiledProgram is self-contained,
  /// so \p M may be null — e.g. a disk-loaded cache entry; when set it must
  /// be the module \p Prog was compiled from.
  Interpreter(Module *M, const GpuConfig &Config,
              std::shared_ptr<const bc::CompiledProgram> Prog);

  /// Interprets CTA (PidX, PidY) of the grid. Returns "" on success or a
  /// diagnostic (deadlock, protocol violation, unsupported op). The trace is
  /// valid only on success. No Interpreter method is safe to call
  /// concurrently on one Interpreter (the tile arenas are shared across
  /// calls); use runGrid for parallel execution.
  std::string runCta(const RunOptions &Opts, int64_t PidX, int64_t PidY,
                     CtaTrace &Out);

  /// Runs every CTA of the grid (GridX * GridY), in parallel across up to
  /// Opts.NumWorkers workers. Deterministic: outputs, traces and errors are
  /// bit-identical at any worker count — each CTA is executed in isolation
  /// (own executor state, trace buffer and worker arena), results are
  /// merged by CTA index (Y-outer/X-inner), and the reported error is the
  /// first failing CTA in that order, formatted "cta (x,y): <diagnostic>".
  ///
  /// \p Sample, when non-null, receives CTA (0,0)'s trace (the Runner's
  /// timing-model input). \p AllTraces, when non-null, is resized to the
  /// grid and receives every CTA's trace at index Y*GridX+X.
  ///
  /// On error the contents of output tensors, \p Sample and \p AllTraces
  /// are unspecified (parallel runs may have executed later CTAs).
  std::string runGrid(const RunOptions &Opts, CtaTrace *Sample = nullptr,
                      std::vector<CtaTrace> *AllTraces = nullptr);

  /// Interprets an arbitrary list of CTA coordinates — the timing-mode
  /// sampling pattern (one representative CTA per SM, trip counts varying
  /// under causal masking) — through the same runner as runGrid. \p Out is
  /// resized to Coords.size() and receives the trace of Coords[i] at
  /// index i.
  ///
  /// Deterministic: traces (and therefore every downstream cycle report and
  /// HB count) are bit-identical at any worker count, and on failure the
  /// reported error is the first failing coordinate in list order,
  /// formatted "cta (x,y): <diagnostic>". On error the contents of \p Out
  /// are unspecified.
  std::string runCtaBatch(const RunOptions &Opts,
                          const std::vector<CtaCoord> &Coords,
                          std::vector<CtaTrace> &Out);

private:
  /// Compiles the bytecode program from M if not present (fusing per
  /// \p Opts); returns a diagnostic when neither exists (module-less
  /// misuse).
  std::string ensureProgram(const RunOptions &Opts);
  void reserveArenas(int64_t Workers);

  /// The one CTA runner behind runGrid and runCtaBatch: executes \p Total
  /// independent CTAs on up to \p Workers workers of the process pool
  /// (inline on the caller at one worker). CoordOf maps a work index to
  /// its CTA; TraceFor returns the caller-owned trace slot for an index,
  /// or null to discard. Outputs are keyed by index, never by worker or
  /// completion order; the reported error is the first failing index.
  template <typename CoordOfFn, typename TraceForFn>
  std::string runCtas(const RunOptions &Opts, int64_t Total, int64_t Workers,
                      const CoordOfFn &CoordOf, const TraceForFn &TraceFor);

  Module *M = nullptr; ///< Null for module-less (disk-cache) execution.
  const GpuConfig &Config;
  std::shared_ptr<const bc::CompiledProgram> Prog;
  /// One tile arena per pool worker id (runCta uses the first), reset per
  /// CTA and kept across calls, so chunks stay warm over every CTA this
  /// Interpreter runs.
  std::vector<std::unique_ptr<TileArena>> Arenas;
};

} // namespace sim
} // namespace tawa

#endif // TAWA_SIM_INTERPRETER_H
