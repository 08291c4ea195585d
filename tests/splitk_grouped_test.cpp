//===- splitk_grouped_test.cpp - Split-K / grouped GEMM differential pins -----//
//
// End-to-end determinism contract for the two newest kernel families
// (docs/kernel-families.md):
//   * split-K GEMM — K sliced across grid axis 1, partial sums accumulated
//     into C through the deferred-atomic reduction surface — produces
//     bit-identical outputs, traces and happens-before event counts across
//     all seven engine x worker combinations (the serial tree-walking
//     oracle once; unfused and fused bytecode x NumWorkers 1, 2, 8);
//   * grouped/MoE GEMM — ragged per-expert batches driven by a group-offset
//     table, including empty experts and masked partial tiles — meets the
//     same seven-way bar;
//   * a deliberately wedged split-K reduction (GemmKernelConfig::
//     DeadlockEpilogue) fails with one deterministic deadlock error and a
//     byte-identical tawa-diag-v1 post-mortem on every combo, pinned here
//     against embedded goldens.
//
// Regenerating the goldens after an intentional diag-format change:
//   TAWA_DUMP_DIAG=1 ./splitk_grouped_test 2>diag.txt
//
//===----------------------------------------------------------------------===//

#include "tests/fuzz/Gen.h"

#include "sim/Diag.h"
#include "sim/Interpreter.h"
#include "support/Env.h"
#include "support/Status.h"
#include "tests/oracle/TreeWalk.h"
#include "tests/support/TraceDiff.h"

#include <cstdio>
#include <cstring>
#include <gtest/gtest.h>

using namespace tawa;
using namespace tawa::sim;

namespace {

constexpr int64_t WorkerCounts[] = {1, 2, 8};

enum class Engine { Oracle, Unfused, Fused };
constexpr Engine Engines[] = {Engine::Oracle, Engine::Unfused,
                              Engine::Fused};

const char *engineName(Engine E) {
  switch (E) {
  case Engine::Oracle:
    return "oracle";
  case Engine::Unfused:
    return "unfused";
  case Engine::Fused:
    return "fused";
  }
  return "?";
}

/// One combo's observables: everything the engines promise to keep
/// identical for a successful run, plus the failure triple for a failing
/// one.
struct ComboOut {
  std::string Label;
  std::string Error;
  std::string ErrorKindName;
  std::string DiagJson;
  std::vector<std::vector<float>> Outputs;
  std::vector<CtaTrace> Traces;
};

ComboOut runCombo(const fuzz::PreparedCase &P, Engine E, int64_t Workers) {
  GpuConfig Cfg;
  RunOptions Opts;
  Opts.Functional = true;
  Opts.FuseBytecode = E == Engine::Fused;
  Opts.NumWorkers = Workers;
  Opts.MaxSteps = 1000000;
  ExecDiagnostic Diag;
  Opts.Diag = &Diag;
  std::vector<TensorRef> Outs = materializeLaunch(P.Launch, Opts);

  ComboOut R;
  R.Label = formatString("%s/w%lld", engineName(E),
                         static_cast<long long>(Workers));
  Interpreter Interp(*P.Mod, Cfg);
  R.Error = E == Engine::Oracle
                ? runGridOracle(*P.Mod, Cfg, Opts, &R.Traces)
                : Interp.runGrid(Opts, nullptr, &R.Traces);
  R.ErrorKindName = errorKindName(classifyError(R.Error));
  R.DiagJson = Diag.renderJson();
  if (!R.Error.empty()) {
    R.Traces.clear(); // Unspecified on error; never compared.
    return R;
  }
  for (const TensorRef &T : Outs)
    R.Outputs.emplace_back(T->data(), T->data() + T->getNumElements());
  return R;
}

/// Prepares \p C and asserts every bytecode combo reproduces the oracle
/// reference bit-for-bit: outputs, traces, HB counts, atomic logs.
void expectSevenWayIdentical(const fuzz::FuzzCase &C) {
  fuzz::PreparedCase P;
  ASSERT_EQ(fuzz::prepareCase(C, P), "") << C.describe();

  ComboOut Ref = runCombo(P, Engine::Oracle, 1);
  ASSERT_EQ(Ref.Error, "") << C.describe();
  ASSERT_FALSE(Ref.Outputs.empty());
  ASSERT_FALSE(Ref.Traces.empty());

  for (Engine E : Engines)
    for (int64_t W : WorkerCounts) {
      if (E == Engine::Oracle)
        continue; // The reference itself.
      ComboOut R = runCombo(P, E, W);
      ASSERT_EQ(R.Error, "") << R.Label;
      ASSERT_EQ(R.Outputs.size(), Ref.Outputs.size()) << R.Label;
      for (size_t I = 0; I < Ref.Outputs.size(); ++I) {
        ASSERT_EQ(R.Outputs[I].size(), Ref.Outputs[I].size()) << R.Label;
        EXPECT_EQ(std::memcmp(R.Outputs[I].data(), Ref.Outputs[I].data(),
                              Ref.Outputs[I].size() * sizeof(float)),
                  0)
            << R.Label << " output " << I << " bytes differ";
      }
      ASSERT_EQ(R.Traces.size(), Ref.Traces.size()) << R.Label;
      for (size_t I = 0; I < Ref.Traces.size(); ++I)
        EXPECT_EQ(traceDiff(Ref.Traces[I], R.Traces[I]), "")
            << R.Label << " cta " << I;
    }
}

//===----------------------------------------------------------------------===//
// Split-K: seven-way bit-identity
//===----------------------------------------------------------------------===//

TEST(SplitKSevenCombo, WarpSpecializedCooperative) {
  fuzz::FuzzCase C;
  C.Kind = fuzz::Family::SplitK;
  C.Gemm.TileM = 64;
  C.Gemm.TileN = 64;
  C.Gemm.TileK = 32;
  C.Gemm.SplitK = true;
  C.M = 128;
  C.N = 128;
  C.K = 128;
  C.SplitKFactor = 4;
  // Two cooperative consumer replicas: only replica 0 may record atomic
  // contributions (stores are idempotent, accumulation is not).
  C.Options.NumConsumerGroups = 2;
  C.Options.ArefDepth = 3;
  expectSevenWayIdentical(C);
}

TEST(SplitKSevenCombo, SoftwarePipelinedUnevenSplit) {
  fuzz::FuzzCase C;
  C.Kind = fuzz::Family::SplitK;
  C.Gemm.TileM = 32;
  C.Gemm.TileN = 32;
  C.Gemm.TileK = 32;
  C.Gemm.SplitK = true;
  C.M = 64;
  C.N = 64;
  // 4 K-tiles over 3 splits: the K remainder lands on one split, and a
  // split can see zero iterations — both must still be engine-identical.
  C.K = 128;
  C.SplitKFactor = 3;
  C.Options.EnableWarpSpecialization = false;
  C.SwPipelineDepth = 2;
  expectSevenWayIdentical(C);
}

//===----------------------------------------------------------------------===//
// Grouped/MoE: seven-way bit-identity
//===----------------------------------------------------------------------===//

TEST(GroupedSevenCombo, WarpSpecializedRaggedExperts) {
  fuzz::FuzzCase C;
  C.Kind = fuzz::Family::Grouped;
  C.Gemm.TileM = 64;
  C.Gemm.TileN = 64;
  C.Gemm.TileK = 32;
  C.Gemm.Grouped = true;
  C.N = 128;
  C.K = 64;
  // Empty expert + partial tiles + an expert larger than the tile: the
  // rectangular grid over-approximation masks the excess tiles.
  C.GroupMs = {96, 0, 200, 64};
  expectSevenWayIdentical(C);
}

TEST(GroupedSevenCombo, CooperativeSingleExpert) {
  fuzz::FuzzCase C;
  C.Kind = fuzz::Family::Grouped;
  C.Gemm.TileM = 32;
  C.Gemm.TileN = 32;
  C.Gemm.TileK = 16;
  C.Gemm.Grouped = true;
  C.N = 64;
  C.K = 48;
  C.GroupMs = {50};
  C.Options.NumConsumerGroups = 2;
  C.Options.ArefDepth = 2;
  expectSevenWayIdentical(C);
}

//===----------------------------------------------------------------------===//
// Deliberately wedged split-K reduction: pinned post-mortem
//===----------------------------------------------------------------------===//

const char kSplitKDeadlockErr[] =
    "cta (0,0): deadlock: every warp group is blocked on an mbarrier wait\n"
    "  agent 0 waits empty[0] (channel -1) parity 0, completions 0";

const char kSplitKDeadlockJson[] = R"gold({
  "schema": "tawa-diag-v1",
  "kind": "deadlock",
  "cta": {
    "x": 0,
    "y": 0
  },
  "step_budget": 1000000,
  "error": "deadlock: every warp group is blocked on an mbarrier wait\n  agent 0 waits empty[0] (channel -1) parity 0, completions 0",
  "agents": [
    {
      "id": 0,
      "name": "preamble",
      "state": "blocked",
      "steps": 2,
      "wait": {
        "kind": "empty",
        "index": 0,
        "channel": -1,
        "parity": 0,
        "completions": 0
      }
    }
  ],
  "barriers": [
    {
      "channel": -1,
      "kind": "empty",
      "expected": 1,
      "completions": [
        0
      ],
      "arrivals": [
        0
      ]
    }
  ],
  "channels": []
}
)gold";

TEST(SplitKDeadlock, PinnedDiagAcrossSevenCombos) {
  fuzz::FuzzCase C;
  C.Kind = fuzz::Family::SplitK;
  C.Gemm.TileM = 32;
  C.Gemm.TileN = 32;
  C.Gemm.TileK = 16;
  C.Gemm.SplitK = true;
  C.Gemm.DeadlockEpilogue = true;
  C.M = 32;
  C.N = 32;
  C.K = 32;
  C.SplitKFactor = 2;
  // Plain lowering: the wedged wait runs on the lone preamble agent, so the
  // deadlock snapshot is identical no matter how the WS pass would have
  // split the rest.
  C.Options.EnableWarpSpecialization = false;

  fuzz::PreparedCase P;
  ASSERT_EQ(fuzz::prepareCase(C, P), "");

  bool Dumped = false;
  for (Engine E : Engines)
    for (int64_t W : WorkerCounts) {
      if (E == Engine::Oracle && W != WorkerCounts[0])
        continue; // The oracle ignores NumWorkers: one run covers it.
      ComboOut R = runCombo(P, E, W);
      if (!Dumped && envFlag("TAWA_DUMP_DIAG")) {
        std::fprintf(stderr, "=== ERR ===\n%s\n=== JSON ===\n%s\n=== END ===\n",
                     R.Error.c_str(), R.DiagJson.c_str());
        Dumped = true;
      }
      EXPECT_EQ(R.Error, kSplitKDeadlockErr) << R.Label;
      EXPECT_EQ(R.ErrorKindName, "deadlock") << R.Label;
      EXPECT_EQ(R.DiagJson, kSplitKDeadlockJson) << R.Label;
    }
}

} // namespace
