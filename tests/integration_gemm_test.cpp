//===- integration_gemm_test.cpp - End-to-end compiled GEMM numerics ---------//
//
// Compiles the GEMM kernel through the full Tawa pipeline (and the baseline
// paths), executes it functionally on the simulated GPU for every CTA, and
// checks the output against a double-precision reference. This is the
// repository's core correctness claim: warp-specialized code generated by
// the compiler computes the same thing the unspecialized kernel specifies,
// with no deadlocks and no protocol violations, across configurations.
//
//===----------------------------------------------------------------------===//

#include "driver/Runner.h"

#include <gtest/gtest.h>

using namespace tawa;

namespace {

GemmWorkload smallGemm(int64_t M = 256, int64_t N = 256, int64_t K = 256) {
  GemmWorkload W;
  W.M = M;
  W.N = N;
  W.K = K;
  return W;
}

FrameworkEnvelope smallTilesEnvelope(TawaOptions Options) {
  FrameworkEnvelope E;
  E.Options = Options;
  E.TileM = 64;
  E.TileN = 64;
  E.TileK = 64;
  return E;
}

TEST(IntegrationGemm, WarpSpecializedMatchesReference) {
  Runner R;
  TawaOptions Options;
  Options.ArefDepth = 2;
  Options.MmaPipelineDepth = 1;
  RunResult Res =
      R.runGemmCustom(smallGemm(), smallTilesEnvelope(Options), true);
  ASSERT_EQ(Res.Error, "");
  EXPECT_GE(Res.MaxRelError, 0);
  // FP16 inputs, f32 accumulate over K=256: tight tolerance.
  EXPECT_LT(Res.MaxRelError, 5e-2);
  EXPECT_GT(Res.TFlops, 0);
}

TEST(IntegrationGemm, PipelinedDeepRingMatchesReference) {
  Runner R;
  TawaOptions Options;
  Options.ArefDepth = 3;
  Options.MmaPipelineDepth = 2;
  Options.NumConsumerGroups = 2;
  RunResult Res =
      R.runGemmCustom(smallGemm(), smallTilesEnvelope(Options), true);
  ASSERT_EQ(Res.Error, "");
  EXPECT_LT(Res.MaxRelError, 5e-2);
}

TEST(IntegrationGemm, PersistentMatchesReference) {
  Runner R;
  TawaOptions Options;
  Options.ArefDepth = 2;
  Options.MmaPipelineDepth = 2;
  Options.Persistent = true;
  RunResult Res =
      R.runGemmCustom(smallGemm(), smallTilesEnvelope(Options), true);
  ASSERT_EQ(Res.Error, "");
  EXPECT_LT(Res.MaxRelError, 5e-2);
}

TEST(IntegrationGemm, TritonSoftwarePipelineMatchesReference) {
  Runner R;
  FrameworkEnvelope E;
  E.Options.EnableWarpSpecialization = false;
  E.SwPipelineDepth = 3;
  E.TileM = E.TileN = E.TileK = 64;
  RunResult Res = R.runGemmCustom(smallGemm(), E, true);
  ASSERT_EQ(Res.Error, "");
  EXPECT_LT(Res.MaxRelError, 5e-2);
}

TEST(IntegrationGemm, PlainTileExecutionMatchesReference) {
  Runner R;
  FrameworkEnvelope E;
  E.Options.EnableWarpSpecialization = false;
  E.TileM = E.TileN = E.TileK = 64;
  RunResult Res = R.runGemmCustom(smallGemm(), E, true);
  ASSERT_EQ(Res.Error, "");
  EXPECT_LT(Res.MaxRelError, 5e-2);
}

TEST(IntegrationGemm, Fp8MatchesReferenceLoosely) {
  Runner R;
  TawaOptions Options;
  Options.ArefDepth = 2;
  Options.MmaPipelineDepth = 1;
  GemmWorkload W = smallGemm();
  W.Prec = Precision::FP8;
  RunResult Res = R.runGemmCustom(W, smallTilesEnvelope(Options), true);
  ASSERT_EQ(Res.Error, "");
  // The reference consumes the same FP8-quantized inputs, so agreement is
  // tight; what this checks is that the FP8 path runs end to end.
  EXPECT_LT(Res.MaxRelError, 0.5);
}

TEST(IntegrationGemm, BatchedMatchesReference) {
  Runner R;
  TawaOptions Options;
  Options.ArefDepth = 2;
  Options.MmaPipelineDepth = 1;
  GemmWorkload W = smallGemm(128, 128, 128);
  W.Batch = 3;
  RunResult Res = R.runGemmCustom(W, smallTilesEnvelope(Options), true);
  ASSERT_EQ(Res.Error, "");
  EXPECT_LT(Res.MaxRelError, 5e-2);
}

TEST(IntegrationGemm, WarpSpecializationBeatsNoPipelineBaseline) {
  Runner R;
  GemmWorkload W;
  W.M = W.N = 2048;
  W.K = 4096;
  RunResult Tawa = R.runGemm(Framework::Tawa, W);
  RunResult Base = R.runGemm(Framework::TritonNoPipe, W);
  ASSERT_EQ(Tawa.Error, "");
  ASSERT_EQ(Base.Error, "");
  EXPECT_GT(Tawa.TFlops, Base.TFlops * 2)
      << "warp specialization should dominate the synchronous baseline";
}

// Runner's infeasibility verdicts: no figure point reaches them (the largest
// figure values are 247 registers and 229,376 B of shared memory), so these
// pin them, at one worker and four.
class GemmVerdicts : public ::testing::TestWithParam<int64_t> {};

TEST_P(GemmVerdicts, HardRegisterLimit) {
  Runner R;
  R.NumWorkers = GetParam();
  GemmWorkload W = smallGemm(1024, 1024, 1024);
  FrameworkEnvelope E = getGemmEnvelope(Framework::Tawa, W);
  E.Options.NumConsumerGroups = 1;
  E.Options.ArefDepth = 3;
  E.Options.MmaPipelineDepth = 3;
  RunResult Res = R.runGemmCustom(W, E, false);
  EXPECT_EQ(Res.Error, "register budget exceeded (hard limit)");
  EXPECT_EQ(Res.Kind, ErrorKind::Infeasible);
  EXPECT_FALSE(Res.Feasible);
  EXPECT_EQ(Res.RegsPerThread, 447);
}

TEST_P(GemmVerdicts, SharedMemoryExceeded) {
  Runner R;
  R.NumWorkers = GetParam();
  GemmWorkload W = smallGemm(1024, 1024, 1024);
  FrameworkEnvelope E = getGemmEnvelope(Framework::Tawa, W);
  E.Options.ArefDepth = 6;
  RunResult Res = R.runGemmCustom(W, E, false);
  EXPECT_EQ(Res.Error, "shared memory exceeded: 294912 > 233472");
  EXPECT_EQ(Res.Kind, ErrorKind::Infeasible);
  EXPECT_FALSE(Res.Feasible);
  EXPECT_EQ(Res.SmemBytes, 294912);
}

INSTANTIATE_TEST_SUITE_P(Workers, GemmVerdicts, ::testing::Values(1, 4));

} // namespace
