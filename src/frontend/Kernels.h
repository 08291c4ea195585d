//===- Kernels.h - Tile-level kernel builders -------------------*- C++ -*-===//
//
// Programmatic construction of the annotation-free Triton-style tile kernels
// the paper compiles (Fig. 2b): GEMM (plain / batched), and FlashAttention-
// style multi-head attention (causal or not, FP16 or FP8). These produce
// *unspecialized* tile-dialect IR; the Tawa passes turn them into
// warp-specialized programs.
//
//===----------------------------------------------------------------------===//

#ifndef TAWA_FRONTEND_KERNELS_H
#define TAWA_FRONTEND_KERNELS_H

#include "ir/Builder.h"
#include "ir/Ir.h"

#include <memory>

namespace tawa {

/// Element precision of kernel inputs (accumulation is always FP32).
enum class Precision { FP16, FP8 };

/// Returns the scalar IR type for a precision.
Type *getInputType(IrContext &Ctx, Precision P);

/// Bytes per element of a precision.
inline int64_t getPrecisionBytes(Precision P) {
  return P == Precision::FP16 ? 2 : 1;
}

//===----------------------------------------------------------------------===//
// GEMM
//===----------------------------------------------------------------------===//

/// Static (compile-time) configuration of the GEMM kernel of Fig. 2b.
/// Runtime sizes M/N/K are kernel arguments.
struct GemmKernelConfig {
  int64_t TileM = 128;
  int64_t TileN = 128;
  int64_t TileK = 64;
  Precision InPrecision = Precision::FP16;
  /// Adds a leading batch grid axis (batched GEMM, Fig. 9 left).
  bool Batched = false;
  /// Uses the pointer-arithmetic epilogue of Fig. 2b L21-25 instead of a TMA
  /// store (exercises make_range / expand_dims / broadcast / addptr).
  bool PointerEpilogue = false;
  /// Selects buildSplitKGemmModule (cross-CTA reduction; split factor is a
  /// launch parameter). Mutually exclusive with Batched and Grouped.
  bool SplitK = false;
  /// Selects buildGroupedGemmModule (ragged MoE batches via a group-offset
  /// table). Mutually exclusive with Batched and SplitK.
  bool Grouped = false;
  /// Split-K only: replace the reduction epilogue's terminal atomic with an
  /// mbarrier wait that can never complete — a deterministic deadlock used
  /// to pin the tawa-diag-v1 post-mortem of a wedged cross-CTA reduction.
  bool DeadlockEpilogue = false;
  /// Grouped only: also mask the store's columns at or past N. Required
  /// when N is not a multiple of TileN, or the last n-tile's columns wrap
  /// into the next row of C, which another CTA owns. A divisibility
  /// specialization: the driver sets it from N, so tile-multiple shapes
  /// keep the shorter epilogue.
  bool MaskColumns = false;
};

/// Builds `@matmul(a_desc, b_desc, c_desc, M, N, K)` into a fresh module.
/// A is M*K row-major, B is N*K row-major (loaded [n, k] and contracted with
/// transB, matching `tl.dot(a, b.T)`), C is M*N.
std::unique_ptr<Module> buildGemmModule(IrContext &Ctx,
                                        const GemmKernelConfig &Config);

/// Builds `@matmul_splitk(a_desc, b_desc, c_desc, M, N, K)`: grid axis 0
/// walks output tiles exactly like @matmul; grid axis 1 splits the K loop
/// across CTAs (`num_programs(1)` IS the split factor, so every split factor
/// shares one compiled program). Each CTA contracts its contiguous slice of
/// K tiles and atomically accumulates the raw f32 partial sum into C — C
/// must be f32 and zero-initialized by the host. Honors Batched=false only.
std::unique_ptr<Module> buildSplitKGemmModule(IrContext &Ctx,
                                              const GemmKernelConfig &Config);

/// Builds `@matmul_grouped(a_desc, b_desc, c_desc, table_desc, N, K)`: the
/// grouped/MoE GEMM over ragged per-expert batches. A is (sum_M, K) row-major
/// holding every expert's rows concatenated; B is (E, N, K) — one weight
/// plane per expert; C is (sum_M, N). `table_desc` is an (E, 2) i32-valued
/// tensor of [row_start_e, m_size_e] rows, read with tt.load_scalar. Grid
/// axis 0 walks the (m tile, n tile) pairs of ONE expert (row-major,
/// n-major-inner derived from arg N); axis 1 is the expert id — the driver
/// launches a data-dependent ragged CTA list through runCtaBatch. Rows past
/// m_size_e are masked off in the store (partial tiles); columns past N
/// only with Config.MaskColumns.
std::unique_ptr<Module> buildGroupedGemmModule(IrContext &Ctx,
                                               const GemmKernelConfig &Config);

//===----------------------------------------------------------------------===//
// Multi-head attention
//===----------------------------------------------------------------------===//

/// Static configuration of the FlashAttention-style MHA kernel (§V-D).
struct AttentionKernelConfig {
  int64_t TileQ = 128;  ///< Query rows per CTA.
  int64_t TileKv = 128; ///< KV rows per inner iteration.
  int64_t HeadDim = 128;
  bool Causal = false;
  Precision InPrecision = Precision::FP16;
};

/// Builds `@mha(q_desc, k_desc, v_desc, o_desc, L)`; grid axis 0 walks query
/// tiles, axis 1 walks batch*heads. Q/K/V/O are (BH, L, HeadDim) row-major.
/// The loop body is the T -> C -> U structure Algorithm 1 schedules:
/// T = Q*K^T on tensor cores, C = online-softmax rescaling on CUDA cores,
/// U = P*V on tensor cores.
std::unique_ptr<Module> buildAttentionModule(IrContext &Ctx,
                                             const AttentionKernelConfig &C);

} // namespace tawa

#endif // TAWA_FRONTEND_KERNELS_H
