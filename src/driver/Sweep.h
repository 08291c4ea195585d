//===- Sweep.h - Cache-aware sweep driver for figure benchmarks -*- C++ -*-===//
//
// The paper's headline artifacts are its figure sweeps — parameter grids
// of (kernel kind x tile shape x precision x pipeline options x framework)
// executed point by point through the Runner. Every bench used to hand-roll
// that loop; this driver makes it declarative and cache-aware:
//
//   1. declare the grid (`addGemm` / `addAttention`, one call per point,
//      with (axis, value) labels for reporting);
//   2. `prewarm()` — enumerate the grid's DISTINCT compile keys
//      (`Runner::compileKey`) and compile each exactly once, populating
//      the process-wide support/ProgramCache. With TAWA_CACHE_DIR set and
//      warm, this pass performs zero compiles (pure disk loads);
//   3. `run()` — execute every point through the Runner (functional or
//      timing-sampler mode). After a prewarm, execution performs zero
//      compiles by construction; per-point cache deltas recorded on every
//      `SweepRecord` prove it (`Stats::RunCompiles == 0`, asserted by
//      tests/sweep_driver_test.cpp and scripts/check.sh);
//   4. report — pivoted TFLOP/s tables, geomean speedups, and a versioned
//      JSON document (schema tawa-sweep-v1) with one record per point
//      carrying the full RunResult plus cache statistics.
//
// See docs/reproducing-figures.md for the figure-to-grid mapping and the
// JSON schema, and docs/program-cache.md for the pre-warm interaction.
//
//===----------------------------------------------------------------------===//

#ifndef TAWA_DRIVER_SWEEP_H
#define TAWA_DRIVER_SWEEP_H

#include "driver/Runner.h"

#include <string>
#include <vector>

namespace tawa {

/// One (axis, value) coordinate of a sweep point, e.g. {"K", "4096"}.
/// Axes are display/grouping labels — the workload itself carries the
/// numeric truth. The driver appends a "framework" axis automatically.
struct SweepAxis {
  std::string Name;
  std::string Value;
};

/// One declared point of the grid: a workload plus the envelope to run it
/// under and its reporting coordinates.
struct SweepPoint {
  enum class Kind { Gemm, Attention };
  Kind PointKind = Kind::Gemm;
  GemmWorkload Gemm;
  AttentionWorkload Attn;
  FrameworkEnvelope Envelope;
  std::string FrameworkName; ///< Value of the "framework" axis.
  bool Functional = false;
  std::vector<SweepAxis> Axes;

  /// The value of axis \p Name, or null when the point has no such axis.
  const std::string *axis(const std::string &Name) const;
};

/// The executed form of a point: its RunResult plus this point's
/// program-cache deltas (Runner accounting — a "hit" is an in-memory or
/// disk-loaded program, a "miss" is a full compile).
struct SweepRecord {
  SweepPoint Point;
  RunResult Result;
  size_t CacheHits = 0;
  size_t CacheMisses = 0; ///< Always 0 after a successful prewarm().
  std::string CompileKey; ///< "" = the point never reaches the compiler.
};

class Sweep {
public:
  /// \p Name goes into the JSON "sweep" field; \p Config is the simulated
  /// machine every point runs on.
  explicit Sweep(std::string Name,
                 sim::GpuConfig Config = sim::GpuConfig());

  /// The underlying Runner — set NumWorkers / FuseBytecode here before
  /// prewarm()/run().
  Runner &runner() { return R; }

  /// Adds one grid point under a framework's default envelope; the
  /// "framework" axis value is getFrameworkName(F).
  void addGemm(const GemmWorkload &W, Framework F,
               std::vector<SweepAxis> Axes, bool Functional = false);
  void addAttention(const AttentionWorkload &W, Framework F,
                    std::vector<SweepAxis> Axes, bool Functional = false);

  /// Adds one grid point under an explicit envelope (hyperparameter and
  /// ablation sweeps construct these directly); \p FrameworkName is the
  /// "framework" axis value.
  void addGemm(const GemmWorkload &W, const FrameworkEnvelope &E,
               std::string FrameworkName, std::vector<SweepAxis> Axes,
               bool Functional = false);
  void addAttention(const AttentionWorkload &W, const FrameworkEnvelope &E,
                    std::string FrameworkName, std::vector<SweepAxis> Axes,
                    bool Functional = false);

  const std::vector<SweepPoint> &points() const { return Points; }

  /// Cache accounting of the last prewarm() + run() pair, plus grid
  /// shape. The tentpole invariant: after prewarm(), RunCompiles == 0.
  struct Stats {
    size_t Points = 0;          ///< Grid points declared.
    size_t CompiledPoints = 0;  ///< Points that reach the compiler.
    size_t DistinctKeys = 0;    ///< Deduplicated compile keys.
    size_t PrewarmCompiles = 0; ///< Full compiles during prewarm().
    size_t PrewarmHits = 0;     ///< Memory/disk hits during prewarm().
    size_t PrewarmDiskHits = 0; ///< Of PrewarmHits, deserialized from the
                                ///< TAWA_CACHE_DIR disk layer.
    size_t RunHits = 0;         ///< Cache hits while executing points.
    size_t RunCompiles = 0;     ///< Compiles while executing points.
  };

  /// The grid's distinct compile keys, in first-appearance order (points
  /// that never reach the compiler contribute nothing).
  std::vector<std::string> compileKeys() const;

  /// One compile pass over compileKeys(): every distinct kernel is
  /// compiled (or loaded from the memory/disk cache) exactly once, so a
  /// subsequent run() performs zero compiles. Returns "" or the first
  /// compile error (failed keys surface again as per-point errors in
  /// run(); failed compiles are never cached).
  std::string prewarm();

  /// Executes every point in declaration order, replacing records().
  void run();

  const std::vector<SweepRecord> &records() const { return Records; }
  const Stats &stats() const { return Accum; }

  //===--- Reporting -------------------------------------------------------===//

  /// Prints pivoted TFLOP/s tables: rows = \p RowAxis values, columns =
  /// \p ColAxis values (both in first-appearance order); one table per
  /// distinct \p PageAxis value ("" = a single table). Points lacking
  /// \p RowAxis or \p ColAxis are skipped, so one sweep can hold several
  /// differently-shaped panels. Cells: "--" unsupported, "0" infeasible,
  /// "ERR" simulation error.
  void printTables(const std::string &Title, const std::string &RowAxis,
                   const std::string &ColAxis,
                   const std::string &PageAxis = "") const;

  /// Geometric-mean TFLOP/s ratio of \p ColAxis == \p A over == \p B over
  /// all point pairs that agree on every other axis and both succeeded;
  /// optionally restricted to points with \p FilterAxis == \p FilterValue.
  double geomeanSpeedup(const std::string &ColAxis, const std::string &A,
                        const std::string &B,
                        const std::string &FilterAxis = "",
                        const std::string &FilterValue = "") const;

  /// The versioned JSON report (schema tawa-sweep-v1): sweep name, one
  /// record per executed point (axes, result, per-point cache statistics,
  /// compile key) and the Stats summary. Deterministic: two runs over the
  /// same grid on the same machine emit byte-identical "points" sections
  /// whether the cache was cold or warm (scripts/check.sh diffs them).
  std::string toJson() const;
  /// Writes toJson() to \p Path; false on IO failure.
  bool writeJson(const std::string &Path) const;

private:
  RunResult execute(const SweepPoint &P);
  std::string keyFor(const SweepPoint &P) const;

  std::string Name;
  Runner R;
  std::vector<SweepPoint> Points;
  std::vector<SweepRecord> Records;
  Stats Accum;
};

} // namespace tawa

#endif // TAWA_DRIVER_SWEEP_H
