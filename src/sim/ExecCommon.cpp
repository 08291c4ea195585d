//===- ExecCommon.cpp - Tile matmul shared by both execution engines ------===//

#include "sim/ExecCommon.h"
#include "sim/TileKernels.h"

#include <cstring>

using namespace tawa;
using namespace tawa::sim;
using namespace tawa::sim::tile;

namespace {

/// Adds rows A[0..4) x B to the 4 x 2W output block at \p Out, P ascending,
/// where W is V's lane count. The eight accumulators stay in named vector
/// registers for the whole P loop (a plain float array tile spills under
/// GCC). Multiply and add stay separate operations: the library is built
/// with -ffp-contract=off, so they are never fused.
/// \p A has row stride K; \p Brows and \p Out have row stride N.
template <typename V>
__attribute__((always_inline)) inline void
tile4xW(const float *A, const float *Brows, float *Out, int64_t N,
        int64_t K) {
  constexpr int64_t W = sizeof(V) / sizeof(float);
  const float *A0 = A, *A1 = A + K, *A2 = A + 2 * K, *A3 = A + 3 * K;
  float *O0 = Out, *O1 = Out + N, *O2 = Out + 2 * N, *O3 = Out + 3 * N;
  V C00, C01, C10, C11, C20, C21, C30, C31;
  load(C00, O0);
  load(C01, O0 + W);
  load(C10, O1);
  load(C11, O1 + W);
  load(C20, O2);
  load(C21, O2 + W);
  load(C30, O3);
  load(C31, O3 + W);
  for (int64_t P = 0; P < K; ++P) {
    const float *Br = Brows + P * N;
    V B0, B1, X;
    load(B0, Br);
    load(B1, Br + W);
    splat(X, A0[P]);
    C00 += X * B0;
    C01 += X * B1;
    splat(X, A1[P]);
    C10 += X * B0;
    C11 += X * B1;
    splat(X, A2[P]);
    C20 += X * B0;
    C21 += X * B1;
    splat(X, A3[P]);
    C30 += X * B0;
    C31 += X * B1;
  }
  store(O0, C00);
  store(O0 + W, C01);
  store(O1, C10);
  store(O1 + W, C11);
  store(O2, C20);
  store(O2 + W, C21);
  store(O3, C30);
  store(O3 + W, C31);
}

/// Baseline: a 4x8 block in eight 4-lane registers.
void tile4x8(const float *A, const float *Brows, float *Out, int64_t N,
             int64_t K) {
  tile4xW<V4f>(A, Brows, Out, N, K);
}

/// Avx2: a 4x16 block in eight 8-lane registers.
TAWA_TARGET_AVX2 void tile4x16(const float *A, const float *Brows,
                               float *Out, int64_t N, int64_t K) {
  tile4xW<V8f>(A, Brows, Out, N, K);
}

/// Bt[P * N + J] = B[J * K + P] for J in [J0, J1) and P in [P0, P1):
/// part of the (K x N) transpose of the (N x K) matrix B.
void transposeRange(const float *B, float *Bt, int64_t N, int64_t K,
                    int64_t J0, int64_t J1, int64_t P0, int64_t P1) {
  for (int64_t J = J0; J < J1; ++J)
    for (int64_t P = P0; P < P1; ++P)
      Bt[P * N + J] = B[J * K + P];
}

typedef int V8i __attribute__((vector_size(32)));

/// Avx2: transposes the 8x8 block at \p B (row stride K) into \p Bt (row
/// stride N) in registers: unpacklo/hi pairs rows, shuffle_ps gathers
/// four-element groups, permute2f128 swaps the 128-bit halves.
TAWA_TARGET_AVX2 void transpose8x8(const float *B, int64_t K, float *Bt,
                                   int64_t N) {
  V8f R0, R1, R2, R3, R4, R5, R6, R7;
  load(R0, B);
  load(R1, B + K);
  load(R2, B + 2 * K);
  load(R3, B + 3 * K);
  load(R4, B + 4 * K);
  load(R5, B + 5 * K);
  load(R6, B + 6 * K);
  load(R7, B + 7 * K);
  const V8i Lo = {0, 8, 1, 9, 4, 12, 5, 13};
  const V8i Hi = {2, 10, 3, 11, 6, 14, 7, 15};
  V8f T0 = __builtin_shuffle(R0, R1, Lo), T1 = __builtin_shuffle(R0, R1, Hi);
  V8f T2 = __builtin_shuffle(R2, R3, Lo), T3 = __builtin_shuffle(R2, R3, Hi);
  V8f T4 = __builtin_shuffle(R4, R5, Lo), T5 = __builtin_shuffle(R4, R5, Hi);
  V8f T6 = __builtin_shuffle(R6, R7, Lo), T7 = __builtin_shuffle(R6, R7, Hi);
  const V8i Even = {0, 1, 8, 9, 4, 5, 12, 13};
  const V8i Odd = {2, 3, 10, 11, 6, 7, 14, 15};
  V8f S0 = __builtin_shuffle(T0, T2, Even), S1 = __builtin_shuffle(T0, T2, Odd);
  V8f S2 = __builtin_shuffle(T1, T3, Even), S3 = __builtin_shuffle(T1, T3, Odd);
  V8f S4 = __builtin_shuffle(T4, T6, Even), S5 = __builtin_shuffle(T4, T6, Odd);
  V8f S6 = __builtin_shuffle(T5, T7, Even), S7 = __builtin_shuffle(T5, T7, Odd);
  const V8i LoHalves = {0, 1, 2, 3, 8, 9, 10, 11};
  const V8i HiHalves = {4, 5, 6, 7, 12, 13, 14, 15};
  store(Bt, __builtin_shuffle(S0, S4, LoHalves));
  store(Bt + N, __builtin_shuffle(S1, S5, LoHalves));
  store(Bt + 2 * N, __builtin_shuffle(S2, S6, LoHalves));
  store(Bt + 3 * N, __builtin_shuffle(S3, S7, LoHalves));
  store(Bt + 4 * N, __builtin_shuffle(S0, S4, HiHalves));
  store(Bt + 5 * N, __builtin_shuffle(S1, S5, HiHalves));
  store(Bt + 6 * N, __builtin_shuffle(S2, S6, HiHalves));
  store(Bt + 7 * N, __builtin_shuffle(S3, S7, HiHalves));
}

/// The (K x N) transpose of the (N x K) matrix B into \p Bt. Baseline is
/// one scalar loop; Avx2 moves the full 8x8 blocks in registers and the
/// edges with the same loop. Data movement only.
void transpose(TileIsa Isa, const float *B, float *Bt, int64_t N,
               int64_t K) {
  int64_t N8 = 0, K8 = 0;
  if (Isa == TileIsa::Avx2) {
    N8 = N - N % 8;
    K8 = K - K % 8;
    for (int64_t J = 0; J < N8; J += 8)
      for (int64_t P = 0; P < K8; P += 8)
        transpose8x8(B + J * K + P, K, Bt + P * N + J, N);
    transposeRange(B, Bt, N, K, 0, N8, K8, K);
  }
  transposeRange(B, Bt, N, K, N8, N, 0, K);
}

} // namespace

TensorRef exec::matmulAcc(const TensorRef &A, const TensorRef &B,
                          const TensorRef &Acc, bool TransB,
                          TileArena *Arena) {
  return matmulAcc(hostTileIsa(), A, B, Acc, TransB, Arena);
}

TensorRef exec::matmulAcc(TileIsa Isa, const TensorRef &A, const TensorRef &B,
                          const TensorRef &Acc, bool TransB,
                          TileArena *Arena) {
  int64_t MDim = A->getDim(0), KDim = A->getDim(1);
  int64_t NDim = TransB ? B->getDim(0) : B->getDim(1);
  TensorRef Out = Arena ? cloneArenaTile(*Acc, *Arena)
                        : std::make_shared<TensorData>(*Acc);
  const float *Ap = A->data(), *Bp = B->data();
  float *Op = Out->data();

  // Present B as (K x N) row-major so a block's columns are contiguous.
  const float *Brows = Bp;
  std::vector<float> Scratch;
  if (TransB) {
    float *Bt;
    if (Arena) {
      Bt = Arena->alloc(KDim * NDim);
    } else {
      Scratch.resize(static_cast<size_t>(KDim) * NDim);
      Bt = Scratch.data();
    }
    transpose(Isa, Bp, Bt, NDim, KDim);
    Brows = Bt;
  }

  // Full 4-row blocks: Avx2 covers 16 columns at a time first, then 4x8
  // blocks cover the rest up to N8.
  int64_t M4 = MDim - MDim % 4, N8 = NDim - NDim % 8;
  int64_t N16 = Isa == TileIsa::Avx2 ? NDim - NDim % 16 : 0;
  for (int64_t I = 0; I < M4; I += 4) {
    const float *Ar = Ap + I * KDim;
    float *Or = Op + I * NDim;
    for (int64_t J = 0; J < N16; J += 16)
      tile4x16(Ar, Brows + J, Or + J, NDim, KDim);
    for (int64_t J = N16; J < N8; J += 8)
      tile4x8(Ar, Brows + J, Or + J, NDim, KDim);
  }
  // The elements outside full blocks: the last MDim % 4 rows and the last
  // NDim % 8 columns, one dot product each, P ascending.
  for (int64_t I = 0; I < MDim; ++I)
    for (int64_t J = I < M4 ? N8 : 0; J < NDim; ++J) {
      float Sum = Op[I * NDim + J];
      for (int64_t P = 0; P < KDim; ++P)
        Sum += Ap[I * KDim + P] * Brows[P * NDim + J];
      Op[I * NDim + J] = Sum;
    }
  return Out;
}
