//===- Gen.h - Deterministic fuzz-case generation ---------------*- C++ -*-===//
//
// The generator half of the differential fuzzing harness (docs/fuzzing.md):
// a seeded PRNG maps a 64-bit seed to one FuzzCase — a kernel family,
// tile/launch shapes, precision, pipeline options, and an optional
// fault-injection spec — plus the machinery to prepare (build + compile) a
// case, stamp its launch configuration as module attributes so a printed
// `.tawa` file is self-contained (sim/Launch.h), and greedily minimize a
// case while an oracle keeps reporting a divergence.
//
//===----------------------------------------------------------------------===//

#ifndef TAWA_TESTS_FUZZ_GEN_H
#define TAWA_TESTS_FUZZ_GEN_H

#include "frontend/Kernels.h"
#include "ir/Ir.h"
#include "passes/Passes.h"
#include "sim/Launch.h"

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace tawa {
namespace fuzz {

/// SplitMix64: tiny, seedable, and stable across platforms — the whole
/// harness keys on "same seed, same case".
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [Lo, Hi] inclusive.
  int64_t range(int64_t Lo, int64_t Hi) {
    return Lo + static_cast<int64_t>(next() % static_cast<uint64_t>(
                                                  Hi - Lo + 1));
  }
  /// True with probability Percent/100.
  bool chance(int Percent) { return range(0, 99) < Percent; }
  template <typename T> T pick(std::initializer_list<T> Choices) {
    auto It = Choices.begin();
    std::advance(It, range(0, static_cast<int64_t>(Choices.size()) - 1));
    return *It;
  }

private:
  uint64_t State;
};

enum class Family { Gemm, Attention, ProtocolRing, SplitK, Grouped };

const char *familyName(Family F);

/// One generated configuration: everything needed to rebuild the module
/// and its launch deterministically.
struct FuzzCase {
  uint64_t Seed = 0;
  Family Kind = Family::Gemm;

  // GEMM family (shared by SplitK and Grouped, which reuse the tile
  // configuration and N/K shapes).
  GemmKernelConfig Gemm;
  int64_t M = 128, N = 128, K = 64, Batch = 1;

  // Split-K family: grid axis 1 size. A pure launch parameter — shrinkable
  // without recompiling.
  int64_t SplitKFactor = 2;

  // Grouped/MoE family: ragged per-expert row counts (zero = empty expert,
  // non-tile-multiples = masked partial tiles).
  std::vector<int64_t> GroupMs;

  // Attention family.
  AttentionKernelConfig Mha;
  int64_t SeqLen = 128, Heads = 1;

  // Hand-built aref protocol ring family.
  int64_t RingDepth = 2, RingIters = 4;
  /// Consumer never releases its slot: both engines must report the same
  /// deadlock diagnostic.
  bool RingSkipRelease = false;

  // Compile pipeline.
  TawaOptions Options;
  int64_t SwPipelineDepth = 0;

  // Fault injection (worker-task site only: the one site whose decisions
  // are stateless and keyed by serial CTA index, hence identical across
  // engines and worker counts).
  bool Faults = false;
  int64_t FaultRatePct = 0;
  uint64_t FaultSeed = 0;

  /// One-line summary for logs.
  std::string describe() const;
};

/// Maps a seed to a case. Total: every seed yields a valid case
/// (TawaOptions::validate() passes, shapes divide tiles).
FuzzCase generateCase(uint64_t Seed);

/// A case ready to run: compiled module + launch. Owns its IrContext.
struct PreparedCase {
  std::unique_ptr<IrContext> Ctx;
  std::unique_ptr<Module> Mod;
  sim::LaunchSpec Launch;
};

/// Builds the case's module, runs the compile pipeline, computes the
/// launch, and stamps the launch as `fuzz.*` module attributes
/// (sim/Launch.h). Returns "" or an error.
std::string prepareCase(const FuzzCase &C, PreparedCase &Out);

/// Parses a committed `.tawa` regression file (printed module + fuzz.*
/// attributes) back into a runnable case. Returns "" or an error.
std::string loadCase(const std::string &Text, PreparedCase &Out);

/// Strictly-simpler neighbors of \p C: smaller shapes, fewer features,
/// shallower pipelines. Every candidate is itself valid.
std::vector<FuzzCase> shrinkCandidates(const FuzzCase &C);

/// Greedy minimization: repeatedly adopts the first shrink candidate for
/// which \p Oracle still reports a divergence (non-empty string), until no
/// candidate diverges. \p Oracle is called on candidates only — the input
/// case is assumed to diverge. Returns the fixed point; \p StepsOut (when
/// non-null) receives the number of successful shrink steps.
FuzzCase minimizeCase(const FuzzCase &C,
                      const std::function<std::string(const FuzzCase &)>
                          &Oracle,
                      int *StepsOut = nullptr);

} // namespace fuzz
} // namespace tawa

#endif // TAWA_TESTS_FUZZ_GEN_H
