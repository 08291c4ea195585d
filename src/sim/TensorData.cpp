//===- TensorData.cpp - Host-side tensor storage -------------------------------//

#include "sim/TensorData.h"
#include "sim/TileKernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

using namespace tawa;
using namespace tawa::sim;
using namespace tawa::sim::tile;

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

namespace {

/// Walks the window of \p WindowShape at \p Offsets in a tensor of
/// \p Shape (same rank). A window inside the tensor in every dimension
/// goes row by row: Row(Host, Window, Len) for each innermost row, Host and
/// Window being the row's first linear index on either side. Any other
/// window goes element by element: Elem(Window, Host), with Host = -1 where
/// the element falls outside the tensor.
template <typename RowFn, typename ElemFn>
void walkWindow(const ShapeVec &Shape, const std::vector<int64_t> &Offsets,
                const ShapeVec &WindowShape, RowFn Row, ElemFn Elem) {
  assert(Offsets.size() == Shape.size() &&
         WindowShape.size() == Shape.size() && "window rank mismatch");
  size_t Rank = Shape.size();
  bool InRange = Rank > 0;
  for (size_t D = 0; D < Rank; ++D)
    if (Offsets[D] < 0 || Offsets[D] + WindowShape[D] > Shape[D]) {
      InRange = false;
      break;
    }
  std::vector<int64_t> Idx(Rank, 0);
  if (InRange) {
    int64_t RowLen = WindowShape[Rank - 1];
    int64_t NumRows = 1;
    for (size_t D = 0; D + 1 < Rank; ++D)
      NumRows *= WindowShape[D];
    for (int64_t R = 0; R < NumRows; ++R) {
      int64_t Host = 0;
      for (size_t D = 0; D + 1 < Rank; ++D)
        Host = Host * Shape[D] + Offsets[D] + Idx[D];
      Row(Host * Shape[Rank - 1] + Offsets[Rank - 1], R * RowLen, RowLen);
      for (int64_t D = static_cast<int64_t>(Rank) - 2; D >= 0; --D) {
        if (++Idx[D] < WindowShape[D])
          break;
        Idx[D] = 0;
      }
    }
    return;
  }
  int64_t N = 1;
  for (int64_t D : WindowShape)
    N *= D;
  for (int64_t Linear = 0; Linear < N; ++Linear) {
    int64_t Host = 0;
    for (size_t D = 0; D < Rank; ++D) {
      int64_t Coord = Offsets[D] + Idx[D];
      if (Coord < 0 || Coord >= Shape[D]) {
        Host = -1;
        break;
      }
      Host = Host * Shape[D] + Coord;
    }
    Elem(Linear, Host);
    for (int64_t D = static_cast<int64_t>(Rank) - 1; D >= 0; --D) {
      if (++Idx[D] < WindowShape[D])
        break;
      Idx[D] = 0;
    }
  }
}

} // namespace

void TensorData::extractWindowInto(const std::vector<int64_t> &Offsets,
                                   const ShapeVec &WindowShape,
                                   float *Out) const {
  // Out-of-range reads fill zero, as TMA's out-of-bounds fill does.
  walkWindow(
      Shape, Offsets, WindowShape,
      [&](int64_t Host, int64_t Window, int64_t Len) {
        std::memcpy(Out + Window, Ptr + Host,
                    static_cast<size_t>(Len) * sizeof(float));
      },
      [&](int64_t Window, int64_t Host) {
        Out[Window] = Host >= 0 ? Ptr[Host] : 0.0f;
      });
}

void TensorData::insertWindow(const std::vector<int64_t> &Offsets,
                              const ShapeVec &WindowShape,
                              const float *Window) {
  walkWindow(
      Shape, Offsets, WindowShape,
      [&](int64_t Host, int64_t Win, int64_t Len) {
        std::memcpy(Ptr + Host, Window + Win,
                    static_cast<size_t>(Len) * sizeof(float));
      },
      [&](int64_t Win, int64_t Host) {
        if (Host >= 0)
          Ptr[Host] = Window[Win];
      });
}

namespace {

/// The largest |Out[I] - Ref[I]| / Scale(Ref[I]). A pair that differs by a
/// non-finite amount — a NaN on either side, or unequal infinities — makes
/// the result +infinity, so a check against a bound cannot pass it (a
/// std::max fold alone drops a NaN). Equal pairs, equal infinities
/// included, contribute 0.
template <typename ScaleFn>
double maxDiff(const float *Out, const float *Ref, int64_t N, ScaleFn Scale) {
  double Max = 0;
  for (int64_t I = 0; I < N; ++I) {
    double O = Out[I], R = Ref[I];
    if (O == R)
      continue;
    double Diff = std::fabs(O - R);
    if (!std::isfinite(Diff))
      return std::numeric_limits<double>::infinity();
    Max = std::max(Max, Diff / Scale(R));
  }
  return Max;
}

} // namespace

double TensorData::maxAbsDiff(const TensorData &Other) const {
  assert(getNumElements() == Other.getNumElements() && "shape mismatch");
  return maxDiff(Ptr, Other.data(), Size, [](double) { return 1.0; });
}

double TensorData::maxRelDiff(const TensorData &Other) const {
  assert(getNumElements() == Other.getNumElements() && "shape mismatch");
  return maxDiff(Ptr, Other.data(), Size,
                 [](double R) { return std::max(1.0, std::fabs(R)); });
}

namespace {

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

/// Sum[I * 2W + J] = sum over ascending P of Ap[P*4+I] * B(J)[P], from +0.0,
/// for the 4 x 2W block whose first W columns read \p B0 and last W read
/// \p B1 (both P-major at stride 4, W = V's lane count). The eight sums
/// stay in vector registers for the whole P loop.
template <typename V>
__attribute__((always_inline)) inline void
dotBlock(const double *Ap, const double *B0, const double *B1, int64_t K,
         double *Sum) {
  constexpr int64_t W = sizeof(V) / sizeof(double);
  V C00 = {}, C01 = C00, C10 = C00, C11 = C00;
  V C20 = C00, C21 = C00, C30 = C00, C31 = C00;
  for (int64_t P = 0; P < K; ++P) {
    const double *Ar = Ap + P * 4;
    V Bv0, Bv1, X;
    load(Bv0, B0 + P * 4);
    load(Bv1, B1 + P * 4);
    splat(X, Ar[0]);
    C00 += X * Bv0;
    C01 += X * Bv1;
    splat(X, Ar[1]);
    C10 += X * Bv0;
    C11 += X * Bv1;
    splat(X, Ar[2]);
    C20 += X * Bv0;
    C21 += X * Bv1;
    splat(X, Ar[3]);
    C30 += X * Bv0;
    C31 += X * Bv1;
  }
  store(Sum, C00);
  store(Sum + W, C01);
  store(Sum + 2 * W, C10);
  store(Sum + 3 * W, C11);
  store(Sum + 4 * W, C20);
  store(Sum + 5 * W, C21);
  store(Sum + 6 * W, C30);
  store(Sum + 7 * W, C31);
}

/// Baseline: the 4x4 block of one packed 4-row panel \p Bp, in eight
/// 2-lane registers.
void dot4x4(const double *Ap, const double *Bp, int64_t K, double *Sum) {
  dotBlock<V2d>(Ap, Bp, Bp + 2, K, Sum);
}

/// Avx2: the 4x8 block of two adjacent panels at \p Bp, in eight 4-lane
/// registers.
TAWA_TARGET_AVX2 void dot4x8(const double *Ap, const double *Bp, int64_t K,
                             double *Sum) {
  dotBlock<V4d>(Ap, Bp, Bp + 4 * K, K, Sum);
}

/// The double-precision A·Bᵀ kernel of the references: calls
/// Emit(I, J, Dot) for every I < M and J < N, where Dot sums
/// double(A[I,P]) * double(B[J,P]) over ascending P starting from +0.0 —
/// the naive dot product's exact addition sequence. A product of two floats
/// is exact in double, so that order alone decides the result.
///
/// Blocking: each pass packs 64 rows of B as sixteen 4-row panels, then
/// walks A 4 rows at a time, so A is converted to double once per pass.
/// Baseline computes one panel per dot4x4; Avx2 two adjacent panels per
/// dot4x8, and a lone last panel takes dot4x4. Either way the emits come
/// panel by panel, in the same (I, J) order. Scratch is 68 * K doubles —
/// never a packed copy of all of B.
template <typename EmitFn>
void forEachDotAbt(TileIsa Isa, const float *A, const float *B, int64_t M,
                   int64_t N, int64_t K, EmitFn Emit) {
  constexpr int64_t PassPanels = 16;
  std::vector<double> Bp(static_cast<size_t>(4 * PassPanels * K));
  std::vector<double> Ap(static_cast<size_t>(4 * K));
  double Sum[32];
  for (int64_t J0 = 0; J0 < N; J0 += 4 * PassPanels) {
    int64_t Panels = std::min<int64_t>(PassPanels, (N - J0 + 3) / 4);
    for (int64_t Q = 0; Q < Panels; ++Q)
      packRows4(B, N, J0 + 4 * Q, K, Bp.data() + Q * 4 * K);
    for (int64_t I0 = 0; I0 < M; I0 += 4) {
      packRows4(A, M, I0, K, Ap.data());
      for (int64_t Q = 0; Q < Panels;) {
        int64_t Width = Isa == TileIsa::Avx2 && Q + 1 < Panels ? 2 : 1;
        if (Width == 2)
          dot4x8(Ap.data(), Bp.data() + Q * 4 * K, K, Sum);
        else
          dot4x4(Ap.data(), Bp.data() + Q * 4 * K, K, Sum);
        for (int64_t H = 0; H < Width; ++H, ++Q)
          for (int64_t I = 0; I < 4 && I0 + I < M; ++I)
            for (int64_t J = 0; J < 4 && J0 + 4 * Q + J < N; ++J)
              Emit(I0 + I, J0 + 4 * Q + J, Sum[I * 4 * Width + 4 * H + J]);
      }
    }
  }
}

/// Acc[P] = sum over ascending J < LK of W[J] * double(Vp[J * D + P]) from
/// +0.0, a multiply then an add per term, for the 4L columns P of one
/// block (L = V's lane count). The four accumulators stay in vector
/// registers for the whole J loop.
template <typename V>
__attribute__((always_inline)) inline void
pvBlock(const double *W, const float *Vp, int64_t LK, int64_t D,
        double *Acc) {
  constexpr int64_t L = sizeof(V) / sizeof(double);
  V C0 = {}, C1 = C0, C2 = C0, C3 = C0;
  for (int64_t J = 0; J < LK; ++J) {
    const float *Vr = Vp + J * D;
    V X, F;
    splat(X, W[J]);
    widen(F, Vr);
    C0 += X * F;
    widen(F, Vr + L);
    C1 += X * F;
    widen(F, Vr + 2 * L);
    C2 += X * F;
    widen(F, Vr + 3 * L);
    C3 += X * F;
  }
  store(Acc, C0);
  store(Acc + L, C1);
  store(Acc + 2 * L, C2);
  store(Acc + 3 * L, C3);
}

/// Baseline: 8 columns of P·V in four 2-lane registers.
void pv8(const double *W, const float *Vp, int64_t LK, int64_t D,
         double *Acc) {
  pvBlock<V2d>(W, Vp, LK, D, Acc);
}

/// Avx2: 16 columns of P·V in four 4-lane registers.
TAWA_TARGET_AVX2 void pv16(const double *W, const float *Vp, int64_t LK,
                           int64_t D, double *Acc) {
  pvBlock<V4d>(W, Vp, LK, D, Acc);
}

} // namespace

TensorData tawa::sim::referenceGemm(const TensorData &A, const TensorData &B) {
  return referenceGemm(hostTileIsa(), A, B);
}

TensorData tawa::sim::referenceAttention(const TensorData &Q,
                                         const TensorData &K,
                                         const TensorData &V, bool Causal) {
  return referenceAttention(hostTileIsa(), Q, K, V, Causal);
}

TensorData tawa::sim::referenceGemm(TileIsa Isa, const TensorData &A,
                                    const TensorData &B) {
  int64_t M = A.getDim(0), K = A.getDim(1), N = B.getDim(0);
  assert(B.getDim(1) == K && "GEMM contraction mismatch");
  TensorData C({M, N});
  float *Cp = C.data();
  forEachDotAbt(Isa, A.data(), B.data(), M, N, K,
                [&](int64_t I, int64_t J, double Dot) {
                  Cp[I * N + J] = static_cast<float>(Dot);
                });
  return C;
}

TensorData tawa::sim::referenceAttention(TileIsa Isa, const TensorData &Q,
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
    forEachDotAbt(Isa, Q.data() + I0 * D, K.data(), Rows, Keys, D,
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
      // P·V: each Acc[P] adds Row[J] * V[J,P] in ascending J from +0.0.
      // Full column blocks keep their sums in registers; the last D % Block
      // columns go in saxpy form.
      int64_t Block = Isa == TileIsa::Avx2 ? 16 : 8;
      int64_t DB = D - D % Block;
      for (int64_t P0 = 0; P0 < DB; P0 += Block)
        if (Isa == TileIsa::Avx2)
          pv16(Row, Vp + P0, LK, D, Acc.data() + P0);
        else
          pv8(Row, Vp + P0, LK, D, Acc.data() + P0);
      std::fill(Acc.begin() + DB, Acc.end(), 0.0);
      for (int64_t J = 0; DB < D && J < LK; ++J) {
        double W = Row[J];
        const float *Vr = Vp + J * D;
        for (int64_t P = DB; P < D; ++P)
          Acc[P] += W * static_cast<double>(Vr[P]);
      }
      float *Or = O.data() + (I0 + R) * D;
      for (int64_t P = 0; P < D; ++P)
        Or[P] = static_cast<float>(Acc[P] / Sum);
    }
  }
  return O;
}
