//===- integration_attention_test.cpp - End-to-end compiled MHA numerics -----//
//
// Compiles the FlashAttention-style kernel through the full Tawa pipeline
// (including the coarse-grained T/C/U rotation of Algorithm 1), executes it
// functionally, and validates against the double-precision reference — for
// causal and non-causal masks and both precisions.
//
//===----------------------------------------------------------------------===//

#include "driver/Runner.h"

#include <gtest/gtest.h>

using namespace tawa;

namespace {

AttentionWorkload smallMha(int64_t L = 256, bool Causal = false) {
  AttentionWorkload W;
  W.SeqLen = L;
  W.Batch = 1;
  W.Heads = 2;
  W.HeadDim = 64;
  W.Causal = Causal;
  return W;
}

FrameworkEnvelope smallAttnEnvelope(TawaOptions Options) {
  FrameworkEnvelope E;
  E.Options = Options;
  E.TileQ = 64;
  E.TileKv = 64;
  return E;
}

TEST(IntegrationAttention, WarpSpecializedMatchesReference) {
  Runner R;
  TawaOptions Options;
  Options.ArefDepth = 2;
  Options.MmaPipelineDepth = 0; // Synchronous dots.
  RunResult Res =
      R.runAttentionCustom(smallMha(), smallAttnEnvelope(Options), true);
  ASSERT_EQ(Res.Error, "");
  EXPECT_LT(Res.MaxRelError, 5e-2);
}

TEST(IntegrationAttention, CoarsePipelineMatchesReference) {
  Runner R;
  TawaOptions Options;
  Options.ArefDepth = 2;
  Options.CoarsePipeline = true;
  RunResult Res =
      R.runAttentionCustom(smallMha(), smallAttnEnvelope(Options), true);
  ASSERT_EQ(Res.Error, "");
  EXPECT_LT(Res.MaxRelError, 5e-2);
}

TEST(IntegrationAttention, CausalCoarsePipelineMatchesReference) {
  Runner R;
  TawaOptions Options;
  Options.ArefDepth = 2;
  Options.CoarsePipeline = true;
  RunResult Res = R.runAttentionCustom(smallMha(256, /*Causal=*/true),
                                       smallAttnEnvelope(Options), true);
  ASSERT_EQ(Res.Error, "");
  EXPECT_LT(Res.MaxRelError, 5e-2);
}

TEST(IntegrationAttention, CooperativeCoarseMatchesReference) {
  Runner R;
  TawaOptions Options;
  Options.ArefDepth = 3;
  Options.CoarsePipeline = true;
  Options.NumConsumerGroups = 2;
  RunResult Res = R.runAttentionCustom(smallMha(384, /*Causal=*/true),
                                       smallAttnEnvelope(Options), true);
  ASSERT_EQ(Res.Error, "");
  EXPECT_LT(Res.MaxRelError, 5e-2);
}

TEST(IntegrationAttention, TritonBaselineMatchesReference) {
  Runner R;
  FrameworkEnvelope E;
  E.Options.EnableWarpSpecialization = false;
  E.SwPipelineDepth = 2;
  E.TileQ = E.TileKv = 64;
  RunResult Res = R.runAttentionCustom(smallMha(), E, true);
  ASSERT_EQ(Res.Error, "");
  EXPECT_LT(Res.MaxRelError, 5e-2);
}

TEST(IntegrationAttention, Fp8RunsEndToEnd) {
  Runner R;
  TawaOptions Options;
  Options.ArefDepth = 2;
  Options.CoarsePipeline = true;
  AttentionWorkload W = smallMha();
  W.Prec = Precision::FP8;
  RunResult Res =
      R.runAttentionCustom(W, smallAttnEnvelope(Options), true);
  ASSERT_EQ(Res.Error, "");
  // FP8 P-tile quantization is the dominant error source.
  EXPECT_LT(Res.MaxRelError, 0.2);
}

TEST(IntegrationAttention, CoarsePipelineOverlapsBeatsSyncWs) {
  // The coarse pipeline should beat the synchronous warp-specialized
  // schedule by overlapping softmax with tensor-core work.
  Runner R;
  AttentionWorkload W;
  W.SeqLen = 4096;
  W.Batch = 4;
  W.Heads = 32;

  // Two cooperative consumer groups in both arms (the single-group coarse
  // schedule is register-starved, which the resource model penalizes — the
  // reason FA3 also splits its consumers).
  TawaOptions Sync;
  Sync.ArefDepth = 2;
  Sync.MmaPipelineDepth = 0;
  Sync.NumConsumerGroups = 2;
  FrameworkEnvelope SyncEnv;
  SyncEnv.Options = Sync;

  TawaOptions Coarse = Sync;
  Coarse.CoarsePipeline = true;
  FrameworkEnvelope CoarseEnv;
  CoarseEnv.Options = Coarse;

  RunResult SyncRes = R.runAttentionCustom(W, SyncEnv, false);
  RunResult CoarseRes = R.runAttentionCustom(W, CoarseEnv, false);
  ASSERT_EQ(SyncRes.Error, "");
  ASSERT_EQ(CoarseRes.Error, "");
  EXPECT_GT(CoarseRes.TFlops, SyncRes.TFlops * 1.1);
}

// Runner's infeasibility verdicts, pinned at one worker and four: no figure
// point reaches them (the largest figure footprint is 229,376 B).
class AttentionVerdicts : public ::testing::TestWithParam<int64_t> {};

TEST_P(AttentionVerdicts, SharedMemoryExceeded) {
  Runner R;
  R.NumWorkers = GetParam();
  AttentionWorkload W = smallMha(1024);
  W.HeadDim = 192;
  RunResult Res = R.runAttention(Framework::Tawa, W);
  EXPECT_EQ(Res.Error, "shared memory exceeded: 245760 > 233472");
  EXPECT_EQ(Res.Kind, ErrorKind::Infeasible);
  EXPECT_FALSE(Res.Feasible);
  EXPECT_EQ(Res.SmemBytes, 245760);
}

TEST_P(AttentionVerdicts, HardRegisterLimitIsGemmOnly) {
  // 336 registers per thread is over GEMM's hard limit; attention spills
  // instead of failing, so this serve-reachable request runs.
  Runner R;
  R.NumWorkers = GetParam();
  AttentionWorkload W = smallMha(1024);
  W.HeadDim = 512;
  RunResult Res = R.runAttention(Framework::Triton, W);
  EXPECT_TRUE(Res.ok()) << Res.Error;
  EXPECT_EQ(Res.RegsPerThread, 336);
  EXPECT_GT(Res.RegsPerThread, R.getConfig().MaxRegsPerThread);
}

INSTANTIATE_TEST_SUITE_P(Workers, AttentionVerdicts,
                         ::testing::Values(1, 4));

} // namespace
