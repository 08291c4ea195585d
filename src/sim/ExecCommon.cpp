//===- ExecCommon.cpp - Tile matmul shared by both execution engines ------===//

#include "sim/ExecCommon.h"

#include <cstring>

using namespace tawa;
using namespace tawa::sim;

namespace {

/// Four f32 lanes (GCC vector extension: SSE2 on baseline x86-64). A plain
/// 4x8 float array tile spills its accumulators under GCC; named vector
/// registers do not. Multiply and add stay separate operations: the library
/// is built with -ffp-contract=off, so they are never fused.
typedef float V4f __attribute__((vector_size(16)));

V4f load4(const float *P) {
  V4f V;
  std::memcpy(&V, P, sizeof(V));
  return V;
}

void store4(float *P, V4f V) { std::memcpy(P, &V, sizeof(V)); }

V4f splat4(float X) { return V4f{X, X, X, X}; }

/// Adds rows A[0..4) x B to the 4x8 output block at \p Out, P ascending.
/// \p A has row stride K; \p Brows and \p Out have row stride N.
void tile4x8(const float *A, const float *Brows, float *Out, int64_t N,
             int64_t K) {
  const float *A0 = A, *A1 = A + K, *A2 = A + 2 * K, *A3 = A + 3 * K;
  float *O0 = Out, *O1 = Out + N, *O2 = Out + 2 * N, *O3 = Out + 3 * N;
  V4f C00 = load4(O0), C01 = load4(O0 + 4);
  V4f C10 = load4(O1), C11 = load4(O1 + 4);
  V4f C20 = load4(O2), C21 = load4(O2 + 4);
  V4f C30 = load4(O3), C31 = load4(O3 + 4);
  for (int64_t P = 0; P < K; ++P) {
    const float *Br = Brows + P * N;
    V4f B0 = load4(Br), B1 = load4(Br + 4);
    V4f X = splat4(A0[P]);
    C00 += X * B0;
    C01 += X * B1;
    X = splat4(A1[P]);
    C10 += X * B0;
    C11 += X * B1;
    X = splat4(A2[P]);
    C20 += X * B0;
    C21 += X * B1;
    X = splat4(A3[P]);
    C30 += X * B0;
    C31 += X * B1;
  }
  store4(O0, C00);
  store4(O0 + 4, C01);
  store4(O1, C10);
  store4(O1 + 4, C11);
  store4(O2, C20);
  store4(O2 + 4, C21);
  store4(O3, C30);
  store4(O3 + 4, C31);
}

} // namespace

TensorRef exec::matmulAcc(const TensorRef &A, const TensorRef &B,
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
    for (int64_t J = 0; J < NDim; ++J)
      for (int64_t P = 0; P < KDim; ++P)
        Bt[P * NDim + J] = Bp[J * KDim + P];
    Brows = Bt;
  }

  int64_t M4 = MDim - MDim % 4, N8 = NDim - NDim % 8;
  for (int64_t I = 0; I < M4; I += 4)
    for (int64_t J = 0; J < N8; J += 8)
      tile4x8(Ap + I * KDim, Brows + J, Op + I * NDim + J, NDim, KDim);
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
