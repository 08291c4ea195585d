//===- Frameworks.h - Evaluation baseline models ----------------*- C++ -*-===//
//
// The frameworks the paper compares against (§V-A). Two kinds of models:
//
//   * compiled models — run real IR through our compiler (or the Triton
//     software-pipelining mode) and simulate it. Tawa and the Triton
//     baselines are fully compiled; TileLang / ThunderKittens / FA3 are
//     *schedule envelopes*: the same compiled pipeline with per-framework
//     scheduling options plus documented tuning factors taken from the
//     paper's own relative measurements (we cannot rebuild those external
//     code bases; Frameworks.cpp gives each factor's provenance);
//
//   * analytic models — cuBLAS (closed-source) and the theoretical peak are
//     closed-form rooflines with documented efficiencies.
//
//===----------------------------------------------------------------------===//

#ifndef TAWA_MODELS_FRAMEWORKS_H
#define TAWA_MODELS_FRAMEWORKS_H

#include "frontend/Kernels.h"
#include "passes/Passes.h"

#include <string>

namespace tawa {

enum class Framework {
  Peak,          ///< Theoretical tensor-core peak.
  CuBlas,        ///< Closed-source library (analytic roofline).
  Tawa,          ///< This paper's compiler.
  Triton,        ///< Baseline Triton: Ampere-style cp.async pipelining.
  TritonNoPipe,  ///< Ablation base: Triton with pipelining disabled.
  TileLang,      ///< TVM-based tile DSL with built-in WS (envelope model).
  ThunderKittens,///< CUDA tile library (envelope model).
  FA3,           ///< Hand-written CUTLASS FlashAttention-3 (envelope model).
};

const char *getFrameworkName(Framework F);

/// How a framework executes a workload on the shared simulator.
struct FrameworkEnvelope {
  /// False when the framework cannot run the configuration (e.g.
  /// ThunderKittens FP8 attention, §V-D).
  bool Supported = true;
  /// Closed-form roofline instead of compiled simulation.
  bool Analytic = false;

  //===--- Compiled-model knobs -------------------------------------------===//
  TawaOptions Options;         ///< Warp-specialization configuration.
  int64_t SwPipelineDepth = 0; ///< >0: Triton cp.async mode (no WS).
  int64_t TileM = 128, TileN = 256, TileK = 64;
  int64_t TileQ = 128, TileKv = 128;
  /// Multiplies tensor-core time: >1 = less tuned than Tawa, <1 = a
  /// hand-tuning edge.
  double ComputeScale = 1.0;
  /// Multiplies CUDA-core time (e.g. FA3's ping-pong scheduling hides one
  /// group's softmax under the other's MMA).
  double CudaScale = 1.0;
  /// Extra per-CTA overhead cycles (prologue/configuration costs).
  double ExtraCtaCycles = 0;
  /// Extra one-time overhead (e.g. per-group reconfiguration in grouped
  /// GEMM), microseconds.
  double ExtraLaunchMicros = 0;

  //===--- Analytic-model parameters --------------------------------------===//
  double AnalyticComputeEff = 0.85; ///< Fraction of TC peak sustained.
  double AnalyticMemEff = 0.90;     ///< Fraction of HBM peak sustained.
  double AnalyticOverheadMicros = 2.0;
};

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

struct GemmWorkload {
  int64_t M = 8192, N = 8192, K = 8192;
  int64_t Batch = 1;
  Precision Prec = Precision::FP16;
  /// Grouped GEMM (Fig. 9 right): per-group M values (empty = plain GEMM).
  std::vector<int64_t> GroupMs;
  /// Split-K factor: > 1 compiles the @matmul_splitk kernel and splits the
  /// K loop across that many CTAs (grid axis 1) with a cross-CTA atomic
  /// reduction into an f32 C. A pure LAUNCH parameter — every split factor
  /// shares one compile key. Requires Batch == 1.
  int64_t SplitK = 1;
  /// True compiles the @matmul_grouped (MoE) kernel: GroupMs become ragged
  /// per-expert batches dispatched through a group-offset table and a
  /// data-dependent CTA list (runCtaBatch), instead of the historical
  /// concatenated-GEMM envelope treatment (fig9 keeps MoE = false).
  bool MoE = false;

  int64_t totalM() const {
    if (GroupMs.empty())
      return M;
    int64_t Sum = 0;
    for (int64_t G : GroupMs)
      Sum += G;
    return Sum;
  }
  double flops() const {
    return 2.0 * static_cast<double>(totalM()) * N * K * Batch;
  }
};

struct AttentionWorkload {
  int64_t SeqLen = 4096;
  int64_t Batch = 4;
  int64_t Heads = 32;
  int64_t HeadDim = 128;
  bool Causal = false;
  Precision Prec = Precision::FP16;

  /// Attention FLOPs as the paper counts them (2 GEMMs; causal halves the
  /// useful work).
  double flops() const {
    double Full = 4.0 * static_cast<double>(SeqLen) * SeqLen * HeadDim *
                  Batch * Heads;
    return Causal ? Full / 2 : Full;
  }
};

/// Per-framework configuration for a GEMM point. The envelope parameters are
/// documented inline in Frameworks.cpp with their provenance.
FrameworkEnvelope getGemmEnvelope(Framework F, const GemmWorkload &W);

/// Per-framework configuration for an attention point.
FrameworkEnvelope getAttentionEnvelope(Framework F,
                                       const AttentionWorkload &W);

} // namespace tawa

#endif // TAWA_MODELS_FRAMEWORKS_H
