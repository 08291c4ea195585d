//===- Interpreter.cpp - Bytecode execution façade ---------------------------//
//
// Thin façade over the bytecode executor (compiled lazily and cached for
// the lifetime of the Interpreter) that hosts the two pool-backed runners:
//
//   * runGrid — every CTA of a GridX x GridY launch (functional
//     validation);
//   * runCtaBatch — an arbitrary list of sampled CTA coordinates (the
//     timing-mode sampler of Runner: one representative CTA per SM).
//
// Both fan independent CTAs out across the process worker pool with
// deterministic, index-keyed result merging (see
// docs/threading-and-memory.md).
//
//===----------------------------------------------------------------------===//

#include "sim/Interpreter.h"

#include "sim/Bytecode.h"
#include "sim/Diag.h"
#include "sim/Peephole.h"
#include "support/FaultInject.h"
#include "support/Support.h"
#include "support/WorkerPool.h"

#include <atomic>
#include <cassert>
#include <exception>
#include <stdexcept>

using namespace tawa;
using namespace tawa::sim;

int64_t tawa::sim::resolveNumWorkers(int64_t Requested) {
  return Requested == 0 ? WorkerPool::hardwareWorkers()
                        : std::max<int64_t>(1, Requested);
}

Interpreter::Interpreter(Module &M, const GpuConfig &Config)
    : M(&M), Config(Config) {}

Interpreter::Interpreter(Module *M, const GpuConfig &Config,
                         std::shared_ptr<const bc::CompiledProgram> Prog)
    : M(M), Config(Config), Prog(std::move(Prog)) {
  assert((M || this->Prog) && "need a module or a compiled program");
}

std::string Interpreter::ensureProgram(const RunOptions &Opts) {
  if (Prog)
    return "";
  if (!M)
    return "no compiled program and no module to compile it from";
  Prog = bc::compileModule(*M, Config,
                          bc::fusionEnabled(Opts.FuseBytecode));
  return "";
}

std::string Interpreter::runCta(const RunOptions &Opts, int64_t PidX,
                                int64_t PidY, CtaTrace &Out) {
  if (std::string Err = ensureProgram(Opts); !Err.empty())
    return Err;
  std::string Err = bc::executeProgram(*Prog, Opts, PidX, PidY, Out, &Arena);
  if (Err.empty())
    applyAtomicContribs(Opts, Out.Atomics);
  return Err;
}

void tawa::sim::applyAtomicContribs(const RunOptions &Opts,
                                    const std::vector<AtomicContrib> &CS) {
  for (const AtomicContrib &C : CS) {
    if (C.Arg < 0 || static_cast<size_t>(C.Arg) >= Opts.Args.size() ||
        !Opts.Args[C.Arg].Data)
      continue;
    TensorData &T = *Opts.Args[C.Arg].Data;
    for (size_t I = 0, E = C.Index.size(); I != E; ++I)
      T.at(C.Index[I]) += C.Value[I];
  }
}

namespace {

std::string formatCtaErr(int64_t X, int64_t Y, const std::string &E) {
  return formatString("cta (%lld,%lld): ", static_cast<long long>(X),
                      static_cast<long long>(Y)) +
         E;
}

/// Crash containment around one CTA execution task: an escaping exception
/// becomes a structured "worker crash: ..." error (ErrorKind::WorkerCrash)
/// instead of terminating the process (WorkerPool tasks run on pool
/// threads). \p Index is the task's serial position — it keys the
/// worker-task fault-injection site, so injected crashes hit exactly the
/// same items at every NumWorkers. \p Body runs the engine and returns its
/// error string.
template <typename BodyFn>
std::string containCtaCrash(int64_t Index, const BodyFn &Body) {
  try {
    if (faults::enabled() &&
        faults::shouldFail(faults::Site::WorkerTask, Index))
      throw std::runtime_error(formatString(
          "injected worker-task fault (item %lld)",
          static_cast<long long>(Index)));
    return Body();
  } catch (const std::exception &Ex) {
    return std::string("worker crash: ") + Ex.what();
  } catch (...) {
    return "worker crash: unknown exception";
  }
}

/// Shared pool fan-out of \p Total independent CTA executions. CoordOf maps
/// a work index to its CTA coordinate; TraceFor returns the caller-owned
/// trace slot for an index, or null to discard (both must be safe to call
/// concurrently — they only index preallocated storage). Outputs are keyed
/// by work index, never by worker or completion order, and the reported
/// error is the first failing index in list order, so any pool schedule
/// produces identical results.
template <typename CoordOfFn, typename TraceForFn>
std::string runParallelCtas(const bc::CompiledProgram &Prog,
                            const RunOptions &Opts, int64_t Total,
                            int64_t Workers, const CoordOfFn &CoordOf,
                            const TraceForFn &TraceFor) {
  // One tile arena per worker (no locking); all workers share the immutable
  // CompiledProgram.
  std::vector<std::unique_ptr<TileArena>> Arenas;
  for (int64_t W = 0; W < Workers; ++W)
    Arenas.push_back(std::make_unique<TileArena>());
  std::vector<std::string> Errors(Total);
  std::atomic<int64_t> FirstErr{Total};
  // Deferred atomic contributions from items whose trace slot the caller
  // discards (TraceFor == null): retained per index so the in-order
  // application pass below still sees them.
  std::vector<std::vector<AtomicContrib>> Retained(Total);
  // Per-item diagnostic slots (engines write through RunOptions::Diag);
  // the first failing item's snapshot is copied out below, so the caller
  // sees the same diagnostic the serial loop would have produced.
  std::vector<ExecDiagnostic> Diags(Opts.Diag ? Total : 0);

  WorkerPool::shared().parallelFor(
      Total, Workers, [&](int64_t I, int64_t W) {
        // Once some CTA failed, skip the ones after it in list order —
        // they cannot change the reported (first) error.
        if (I > FirstErr.load(std::memory_order_relaxed))
          return;
        CtaCoord C = CoordOf(I);
        CtaTrace Local;
        CtaTrace *T = TraceFor(I);
        std::string Err = containCtaCrash(I, [&] {
          const RunOptions *O = &Opts;
          RunOptions WithDiag;
          if (Opts.Diag) {
            WithDiag = Opts;
            WithDiag.Diag = &Diags[I];
            O = &WithDiag;
          }
          return bc::executeProgram(Prog, *O, C.X, C.Y, T ? *T : Local,
                                    Arenas[W].get());
        });
        if (!Err.empty()) {
          Errors[I] = std::move(Err);
          int64_t Cur = FirstErr.load(std::memory_order_relaxed);
          while (I < Cur &&
                 !FirstErr.compare_exchange_weak(Cur, I,
                                                 std::memory_order_relaxed))
            ;
        } else if (!T) {
          Retained[I] = std::move(Local.Atomics);
        }
      });

  // Index-order epilogue: report the first failing index, and apply the
  // deferred atomic contributions of every successful item BEFORE it —
  // exactly what the serial per-CTA loop produces (runCta applies as it
  // goes and stops at the first failure).
  for (int64_t I = 0; I < Total; ++I) {
    if (!Errors[I].empty()) {
      if (Opts.Diag && !Diags[I].empty())
        *Opts.Diag = std::move(Diags[I]);
      CtaCoord C = CoordOf(I);
      return formatCtaErr(C.X, C.Y, Errors[I]);
    }
    CtaTrace *T = TraceFor(I);
    applyAtomicContribs(Opts, T ? T->Atomics : Retained[I]);
  }
  return "";
}

} // namespace

std::string Interpreter::runGrid(const RunOptions &Opts, CtaTrace *Sample,
                                 std::vector<CtaTrace> *AllTraces) {
  int64_t GridX = Opts.GridX, GridY = Opts.GridY;
  int64_t Total = GridX * GridY;
  if (AllTraces) {
    AllTraces->clear();
    AllTraces->resize(Total);
  }

  int64_t Workers = resolveNumWorkers(Opts.NumWorkers);
  // Small grids run serial (SerialGridCtaThreshold): fan-out setup cannot
  // amortize over a handful of CTAs, and the result is bit-identical.
  if (Workers <= 1 || Total < SerialGridCtaThreshold) {
    for (int64_t Y = 0; Y < GridY; ++Y)
      for (int64_t X = 0; X < GridX; ++X) {
        CtaTrace Local;
        CtaTrace &T =
            AllTraces ? (*AllTraces)[Y * GridX + X]
                      : (Sample && X == 0 && Y == 0 ? *Sample : Local);
        std::string Err = containCtaCrash(
            Y * GridX + X, [&] { return runCta(Opts, X, Y, T); });
        if (!Err.empty())
          return formatCtaErr(X, Y, Err);
      }
    if (Sample && AllTraces)
      *Sample = (*AllTraces)[0];
    return "";
  }

  if (std::string Err = ensureProgram(Opts); !Err.empty())
    return Err;

  std::string Err = runParallelCtas(
      *Prog, Opts, Total, Workers,
      [&](int64_t I) { return CtaCoord{I % GridX, I / GridX}; },
      [&](int64_t I) -> CtaTrace * {
        if (AllTraces)
          return &(*AllTraces)[I];
        return Sample && I == 0 ? Sample : nullptr;
      });
  if (!Err.empty())
    return Err;
  if (Sample && AllTraces)
    *Sample = (*AllTraces)[0];
  return "";
}

std::string Interpreter::runCtaBatch(const RunOptions &Opts,
                                     const std::vector<CtaCoord> &Coords,
                                     std::vector<CtaTrace> &Out) {
  int64_t Total = static_cast<int64_t>(Coords.size());
  Out.clear();
  Out.resize(Coords.size());

  int64_t Workers = std::min(resolveNumWorkers(Opts.NumWorkers), Total);
  if (Workers <= 1 || Total <= 1) {
    // Exactly the historical serial sample loop.
    for (int64_t I = 0; I < Total; ++I) {
      std::string Err = containCtaCrash(
          I, [&] { return runCta(Opts, Coords[I].X, Coords[I].Y, Out[I]); });
      if (!Err.empty())
        return formatCtaErr(Coords[I].X, Coords[I].Y, Err);
    }
    return "";
  }

  if (std::string Err = ensureProgram(Opts); !Err.empty())
    return Err;

  return runParallelCtas(
      *Prog, Opts, Total, Workers,
      [&](int64_t I) { return Coords[I]; },
      [&](int64_t I) { return &Out[I]; });
}
