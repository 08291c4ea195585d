//===- TensorData.cpp - Host-side tensor storage -------------------------------//

#include "sim/TensorData.h"

#include <algorithm>
#include <cmath>
#include <cstring>

using namespace tawa;
using namespace tawa::sim;

void TensorData::fillRandom(uint64_t Seed, float Scale) {
  // SplitMix64: deterministic, seed-friendly, good enough for test data.
  uint64_t State = Seed;
  for (int64_t I = 0; I < Size; ++I) {
    State += 0x9E3779B97F4A7C15ull;
    uint64_t Z = State;
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    Z = Z ^ (Z >> 31);
    Ptr[I] = Scale * (2.0f * static_cast<float>(Z >> 11) /
                          9007199254740992.0f -
                      1.0f);
  }
}

void TensorData::fill(float V) { std::fill(Ptr, Ptr + Size, V); }

TensorData
TensorData::extractWindow(const std::vector<int64_t> &Offsets,
                          const std::vector<int64_t> &WindowShape) const {
  TensorData Out(WindowShape);
  extractWindowInto(Offsets, WindowShape, Out.data());
  return Out;
}

void TensorData::extractWindowInto(const std::vector<int64_t> &Offsets,
                                   const std::vector<int64_t> &WindowShape,
                                   float *Out) const {
  assert(Offsets.size() == Shape.size() && "window rank mismatch");
  size_t Rank = Shape.size();

  // Fast path: the window is fully in range, so every row of the innermost
  // dimension is one contiguous memcpy from the host tensor.
  bool InRange = Rank > 0;
  for (size_t D = 0; D < Rank; ++D)
    if (Offsets[D] < 0 || Offsets[D] + WindowShape[D] > Shape[D]) {
      InRange = false;
      break;
    }
  if (InRange) {
    int64_t RowLen = WindowShape[Rank - 1];
    int64_t NumRows = 1;
    for (size_t D = 0; D + 1 < Rank; ++D)
      NumRows *= WindowShape[D];
    std::vector<int64_t> Idx(Rank, 0);
    for (int64_t Row = 0; Row < NumRows; ++Row) {
      int64_t Src = 0;
      for (size_t D = 0; D + 1 < Rank; ++D)
        Src = Src * Shape[D] + Offsets[D] + Idx[D];
      Src = Src * Shape[Rank - 1] + Offsets[Rank - 1];
      std::memcpy(Out + Row * RowLen, Ptr + Src,
                  static_cast<size_t>(RowLen) * sizeof(float));
      for (int64_t D = static_cast<int64_t>(Rank) - 2; D >= 0; --D) {
        if (++Idx[D] < WindowShape[D])
          break;
        Idx[D] = 0;
      }
    }
    return;
  }

  // Generic path: per-element with TMA's clamp-to-zero out-of-bounds fill.
  int64_t N = 1;
  for (int64_t D : WindowShape)
    N *= D;
  std::vector<int64_t> Idx(WindowShape.size(), 0);
  for (int64_t Linear = 0; Linear < N; ++Linear) {
    bool Ok = true;
    int64_t SrcLinear = 0;
    for (size_t D = 0; D < Rank; ++D) {
      int64_t Coord = Offsets[D] + Idx[D];
      if (Coord < 0 || Coord >= Shape[D]) {
        Ok = false;
        break;
      }
      SrcLinear = SrcLinear * Shape[D] + Coord;
    }
    Out[Linear] = Ok ? Ptr[SrcLinear] : 0.0f;
    // Advance the multi-index.
    for (int64_t D = static_cast<int64_t>(WindowShape.size()) - 1; D >= 0;
         --D) {
      if (++Idx[D] < WindowShape[D])
        break;
      Idx[D] = 0;
    }
  }
}

void TensorData::insertWindow(const std::vector<int64_t> &Offsets,
                              const TensorData &Window) {
  assert(Offsets.size() == Shape.size() && "window rank mismatch");
  int64_t N = Window.getNumElements();
  std::vector<int64_t> Idx(Window.getShape().size(), 0);
  for (int64_t Linear = 0; Linear < N; ++Linear) {
    bool InRange = true;
    int64_t DstLinear = 0;
    for (size_t D = 0; D < Shape.size(); ++D) {
      int64_t Coord = Offsets[D] + Idx[D];
      if (Coord < 0 || Coord >= Shape[D]) {
        InRange = false;
        break;
      }
      DstLinear = DstLinear * Shape[D] + Coord;
    }
    if (InRange)
      Ptr[DstLinear] = Window.at(Linear);
    for (int64_t D = static_cast<int64_t>(Window.getShape().size()) - 1;
         D >= 0; --D) {
      if (++Idx[D] < Window.getShape()[D])
        break;
      Idx[D] = 0;
    }
  }
}

double TensorData::maxAbsDiff(const TensorData &Other) const {
  assert(getNumElements() == Other.getNumElements() && "shape mismatch");
  double Max = 0;
  for (int64_t I = 0, E = getNumElements(); I != E; ++I)
    Max = std::max(Max, std::fabs(static_cast<double>(Ptr[I]) -
                                  static_cast<double>(Other.at(I))));
  return Max;
}

double TensorData::maxRelDiff(const TensorData &Other) const {
  assert(getNumElements() == Other.getNumElements() && "shape mismatch");
  double Max = 0;
  for (int64_t I = 0, E = getNumElements(); I != E; ++I) {
    double Ref = std::fabs(static_cast<double>(Other.at(I)));
    double Diff = std::fabs(static_cast<double>(Ptr[I]) -
                            static_cast<double>(Other.at(I)));
    Max = std::max(Max, Diff / std::max(1.0, Ref));
  }
  return Max;
}

namespace {

/// Two f64 lanes (GCC vector extension: SSE2 on baseline x86-64).
typedef double V2d __attribute__((vector_size(16)));

V2d load2(const double *P) {
  V2d V;
  std::memcpy(&V, P, sizeof(V));
  return V;
}

V2d splat2(double X) { return V2d{X, X}; }

/// Packs rows [R0, R0 + 4) of the (Rows x K) matrix \p X as doubles,
/// P-major: Dst[P * 4 + R]. Rows past \p Rows pack as zeros.
void packRows4(const float *X, int64_t Rows, int64_t R0, int64_t K,
               double *Dst) {
  for (int64_t R = 0; R < 4; ++R) {
    if (R0 + R >= Rows) {
      for (int64_t P = 0; P < K; ++P)
        Dst[P * 4 + R] = 0;
      continue;
    }
    const float *Src = X + (R0 + R) * K;
    for (int64_t P = 0; P < K; ++P)
      Dst[P * 4 + R] = Src[P];
  }
}

/// Sum[I][J] = sum over ascending P of Ap[P*4+I] * Bp[P*4+J], from +0.0.
/// The sixteen sums stay in eight two-lane registers for the whole P loop.
void dot4x4(const double *Ap, const double *Bp, int64_t K,
            double Sum[4][4]) {
  V2d C00 = {0, 0}, C01 = C00, C10 = C00, C11 = C00;
  V2d C20 = C00, C21 = C00, C30 = C00, C31 = C00;
  for (int64_t P = 0; P < K; ++P) {
    const double *Ar = Ap + P * 4, *Br = Bp + P * 4;
    V2d B0 = load2(Br), B1 = load2(Br + 2);
    V2d X = splat2(Ar[0]);
    C00 += X * B0;
    C01 += X * B1;
    X = splat2(Ar[1]);
    C10 += X * B0;
    C11 += X * B1;
    X = splat2(Ar[2]);
    C20 += X * B0;
    C21 += X * B1;
    X = splat2(Ar[3]);
    C30 += X * B0;
    C31 += X * B1;
  }
  const V2d Rows[4][2] = {{C00, C01}, {C10, C11}, {C20, C21}, {C30, C31}};
  for (int I = 0; I < 4; ++I)
    std::memcpy(Sum[I], Rows[I], sizeof(Rows[I]));
}

/// The double-precision A·Bᵀ kernel of the references: calls
/// Emit(I, J, Dot) for every I < M and J < N, where Dot sums
/// double(A[I,P]) * double(B[J,P]) over ascending P starting from +0.0 —
/// the naive dot product's exact addition sequence. A product of two floats
/// is exact in double, so that order alone decides the result.
///
/// Blocking: each pass packs 16 rows of B as four 4-row panels, then walks
/// A 4 rows at a time; every 4x4 output block is one dot4x4. Scratch is
/// 20 * K doubles — never a packed copy of all of B.
template <typename EmitFn>
void forEachDotAbt(const float *A, const float *B, int64_t M, int64_t N,
                   int64_t K, EmitFn Emit) {
  std::vector<double> Bp(static_cast<size_t>(16 * K));
  std::vector<double> Ap(static_cast<size_t>(4 * K));
  double Sum[4][4];
  for (int64_t J0 = 0; J0 < N; J0 += 16) {
    for (int64_t Q = 0; Q < 4; ++Q)
      packRows4(B, N, J0 + 4 * Q, K, Bp.data() + Q * 4 * K);
    for (int64_t I0 = 0; I0 < M; I0 += 4) {
      packRows4(A, M, I0, K, Ap.data());
      for (int64_t Q = 0; Q < 4 && J0 + 4 * Q < N; ++Q) {
        dot4x4(Ap.data(), Bp.data() + Q * 4 * K, K, Sum);
        for (int64_t I = 0; I < 4 && I0 + I < M; ++I)
          for (int64_t J = 0; J < 4 && J0 + 4 * Q + J < N; ++J)
            Emit(I0 + I, J0 + 4 * Q + J, Sum[I][J]);
      }
    }
  }
}

} // namespace

TensorData tawa::sim::referenceGemm(const TensorData &A, const TensorData &B) {
  int64_t M = A.getDim(0), K = A.getDim(1), N = B.getDim(0);
  assert(B.getDim(1) == K && "GEMM contraction mismatch");
  TensorData C({M, N});
  float *Cp = C.data();
  forEachDotAbt(A.data(), B.data(), M, N, K,
                [&](int64_t I, int64_t J, double Dot) {
                  Cp[I * N + J] = static_cast<float>(Dot);
                });
  return C;
}

TensorData tawa::sim::referenceAttention(const TensorData &Q,
                                         const TensorData &K,
                                         const TensorData &V, bool Causal) {
  int64_t L = Q.getDim(0), D = Q.getDim(1);
  assert(K.getDim(1) == D && V.getDim(1) == D && "head dim mismatch");
  int64_t LK = K.getDim(0);
  TensorData O({L, D});
  double Scale = 1.0 / std::sqrt(static_cast<double>(D));
  // Query rows per Q·Kᵀ call: each call packs all of K once, so a block of
  // rows amortizes that, at RowBlock * LK doubles of scores.
  constexpr int64_t RowBlock = 16;
  std::vector<double> Scores(static_cast<size_t>(RowBlock * LK));
  std::vector<double> Acc(static_cast<size_t>(D));
  const float *Vp = V.data();
  for (int64_t I0 = 0; I0 < L; I0 += RowBlock) {
    int64_t Rows = std::min(RowBlock, L - I0);
    // Causal: keys past the block's last row are masked in every row of the
    // block whatever their dot product, so those products are skipped.
    int64_t Keys = Causal ? std::min(LK, I0 + Rows) : LK;
    for (int64_t R = 0; R < Rows; ++R)
      std::fill(Scores.begin() + R * LK + Keys, Scores.begin() + (R + 1) * LK,
                -1e300);
    forEachDotAbt(Q.data() + I0 * D, K.data(), Rows, Keys, D,
                  [&](int64_t R, int64_t J, double Dot) {
                    Scores[R * LK + J] =
                        Causal && J > I0 + R ? -1e300 : Dot * Scale;
                  });
    for (int64_t R = 0; R < Rows; ++R) {
      double *Row = Scores.data() + R * LK;
      double Max = -1e300;
      for (int64_t J = 0; J < LK; ++J)
        Max = std::max(Max, Row[J]);
      double Sum = 0;
      for (int64_t J = 0; J < LK; ++J) {
        Row[J] = std::exp(Row[J] - Max);
        Sum += Row[J];
      }
      // P·V in saxpy form: the P lanes are independent, and each Acc[P]
      // still adds Row[J] * V[J,P] in ascending J.
      std::fill(Acc.begin(), Acc.end(), 0.0);
      for (int64_t J = 0; J < LK; ++J) {
        double W = Row[J];
        const float *Vr = Vp + J * D;
        for (int64_t P = 0; P < D; ++P)
          Acc[P] += W * static_cast<double>(Vr[P]);
      }
      float *Or = O.data() + (I0 + R) * D;
      for (int64_t P = 0; P < D; ++P)
        Or[P] = static_cast<float>(Acc[P] / Sum);
    }
  }
  return O;
}
