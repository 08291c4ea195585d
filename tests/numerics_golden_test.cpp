//===- numerics_golden_test.cpp - Pinned outputs of the shared tile math --===//
//
// Both execution engines, at every worker count, run the same matmul and
// rounding kernels (sim/ExecCommon.h), so the engine differential tests
// cannot see a change to that shared math: both sides would move together.
// These goldens pin it from the outside:
//   * fnv1a64 of every output tensor of each ok-path tests/corpus/*.tawa
//     functional replay, on the bytecode engine at NumWorkers 1 and 4 and on
//     the tree-walking oracle (which takes matmulAcc's heap path);
//   * the exact MaxRelError of one small functional Runner run per kernel
//     family. MaxRelError compares the kernel's output against the
//     double-precision reference, so it pins the reference kernels too.
// The hashes move with any output bit; MaxRelError moves with most changes
// to either side of the comparison. Update them only for a change that is
// meant to alter results.
//
//===----------------------------------------------------------------------===//

#include "tests/fuzz/Gen.h"

#include "driver/Runner.h"
#include "sim/Interpreter.h"
#include "support/Support.h"
#include "tests/oracle/TreeWalk.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace tawa;

namespace {

std::string readCorpus(const std::string &Name) {
  std::ifstream In(std::string(TAWA_SOURCE_DIR) + "/tests/corpus/" + Name);
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

struct CorpusGolden {
  const char *File;
  std::vector<std::string> Outputs; ///< fnv1a64 per output tensor, in order.
};

// Every corpus file whose functional replay succeeds.
const CorpusGolden CorpusGoldens[] = {
    {"gemm_ws.tawa", {"d5971110d3edac04"}},
    {"gemm_swp_ptr_epilogue.tawa", {"b53c3695700a2ffc"}},
    {"gemm_ws_persistent_fp8_batched.tawa", {"098331f9c0614244"}},
    {"attention_causal_coarse.tawa", {"b80d6f1b7d939bcf"}},
    {"protocol_ring.tawa", {"e8fd23430741b8a3"}},
    {"splitk_ws_cooperative.tawa", {"8b7547380791918b"}},
    {"splitk_swp_uneven.tawa", {"758dfbed7d97e554"}},
    {"grouped_ws_empty_expert.tawa", {"9c6bd86ec2ea98ae"}},
    {"grouped_plain_partial_tile.tawa", {"6058f7fc8915bb91"}},
};

// Corpus files that pin a failure (deadlock, injected worker faults), not
// numerics.
const char *const CorpusErrorPaths[] = {"protocol_ring_deadlock.tawa",
                                        "gemm_ws_worker_faults.tawa"};

/// Runs \p Text functionally and returns the fnv1a64 of each output tensor,
/// or the run error as the only element, prefixed with "error: ".
std::vector<std::string> replayOutputHashes(const std::string &Text,
                                            bool Oracle, int64_t Workers) {
  fuzz::PreparedCase P;
  if (std::string Err = fuzz::loadCase(Text, P); !Err.empty())
    return {"error: " + Err};
  sim::RunOptions Opts;
  Opts.NumWorkers = Workers;
  Opts.MaxSteps = 1000000;
  std::vector<sim::TensorRef> Outputs = sim::materializeLaunch(P.Launch, Opts);
  sim::GpuConfig Cfg;
  sim::Interpreter Interp(*P.Mod, Cfg);
  std::string Err = Oracle ? sim::runGridOracle(*P.Mod, Cfg, Opts)
                           : Interp.runGrid(Opts);
  if (!Err.empty())
    return {"error: " + Err};
  std::vector<std::string> Hashes;
  for (const sim::TensorRef &T : Outputs)
    Hashes.push_back(formatString(
        "%016llx", static_cast<unsigned long long>(fnv1a64(
                       T->data(), static_cast<size_t>(T->getNumElements()) *
                                      sizeof(float)))));
  return Hashes;
}

TEST(NumericsGolden, CorpusOutputHashes) {
  struct Combo {
    bool Oracle;
    int64_t Workers;
  };
  for (const CorpusGolden &G : CorpusGoldens) {
    std::string Text = readCorpus(G.File);
    ASSERT_FALSE(Text.empty()) << G.File;
    for (Combo C : {Combo{false, 1}, Combo{false, 4}, Combo{true, 1}})
      EXPECT_EQ(replayOutputHashes(Text, C.Oracle, C.Workers), G.Outputs)
          << G.File << (C.Oracle ? " oracle" : " bytecode") << " workers "
          << C.Workers;
  }
}

TEST(NumericsGolden, EveryCorpusFileIsClassified) {
  // A new corpus file must be added to one of the two tables above.
  std::istringstream Manifest(readCorpus("MANIFEST"));
  std::string Line;
  size_t Files = 0;
  while (std::getline(Manifest, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    ++Files;
    bool Known = false;
    for (const CorpusGolden &G : CorpusGoldens)
      Known |= Line == G.File;
    for (const char *E : CorpusErrorPaths)
      Known |= Line == E;
    EXPECT_TRUE(Known) << Line << " has no golden";
  }
  EXPECT_EQ(Files, std::size(CorpusGoldens) + std::size(CorpusErrorPaths));
}

//===----------------------------------------------------------------------===//
// Runner MaxRelError, one small functional run per kernel family
//===----------------------------------------------------------------------===//

GemmWorkload gemm(int64_t M, int64_t N, int64_t K, Precision P) {
  GemmWorkload W;
  W.M = M;
  W.N = N;
  W.K = K;
  W.Prec = P;
  return W;
}

AttentionWorkload attention(bool Causal, Precision P) {
  AttentionWorkload W;
  W.SeqLen = 256;
  W.Batch = 1;
  W.Heads = 2;
  W.Causal = Causal;
  W.Prec = P;
  return W;
}

void expectMaxRelError(const RunResult &Res, double Golden,
                       const char *Name) {
  ASSERT_TRUE(Res.ok()) << Name << ": " << Res.Error;
  EXPECT_EQ(Res.MaxRelError, Golden)
      << Name << ": got " << formatString("%a", Res.MaxRelError);
}

TEST(NumericsGolden, RunnerMaxRelError) {
  for (int64_t Workers : {1, 4}) {
    SCOPED_TRACE(Workers);
    Runner R;
    R.NumWorkers = Workers;
    expectMaxRelError(
        R.runGemm(Framework::Tawa, gemm(256, 256, 192, Precision::FP16), true),
        0x1.f53b3a3fa204ep-11, "gemm fp16");
    // fp8 inputs: the f32 tile sums round to the same f16 values as the
    // double reference, so the error is exactly 0.
    expectMaxRelError(
        R.runGemm(Framework::Tawa, gemm(256, 256, 192, Precision::FP8), true),
        0x0p+0, "gemm fp8");
    GemmWorkload Batched = gemm(128, 256, 128, Precision::FP16);
    Batched.Batch = 3;
    expectMaxRelError(R.runGemm(Framework::Tawa, Batched, true),
                      0x1.f89bb80dcc421p-11, "batched");
    GemmWorkload SplitK = gemm(128, 256, 512, Precision::FP16);
    SplitK.SplitK = 3;
    expectMaxRelError(R.runGemm(Framework::Tawa, SplitK, true), 0x1.dp-18,
                      "split-k");
    // N is a multiple of the Tawa TileN (256), so this pins the grouped
    // kernel without the column mask (docs/kernel-families.md).
    GemmWorkload MoE = gemm(0, 256, 128, Precision::FP16);
    MoE.MoE = true;
    MoE.GroupMs = {96, 0, 160};
    expectMaxRelError(R.runGemm(Framework::Tawa, MoE, true),
                      0x1.e500b5e044342p-11, "moe");
    expectMaxRelError(R.runAttention(Framework::Tawa,
                                     attention(false, Precision::FP16), true),
                      0x1p-14, "attention");
    expectMaxRelError(R.runAttention(Framework::Tawa,
                                     attention(true, Precision::FP16), true),
                      0x1p-11, "attention causal");
    expectMaxRelError(R.runAttention(Framework::Tawa,
                                     attention(false, Precision::FP8), true),
                      0x1.15p-8, "attention fp8");
  }
}

} // namespace
