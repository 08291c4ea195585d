//===- tensor_frontend_test.cpp - TensorData + kernel builder tests -----------//

#include "frontend/Kernels.h"
#include "ir/Verifier.h"
#include "sim/ExecCommon.h"
#include "sim/TensorData.h"
#include "sim/TileKernels.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

using namespace tawa;
using namespace tawa::sim;

namespace {

TEST(TensorData, WindowRoundTrips) {
  TensorData T({8, 8});
  T.fillRandom(5);
  TensorData W = T.extractWindow({2, 4}, {4, 4});
  EXPECT_EQ(W.at(0, 0), T.at(2, 4));
  EXPECT_EQ(W.at(3, 3), T.at(5, 7));
  TensorData Zero({4, 4});
  T.insertWindow({2, 4}, Zero.getShape(), Zero.data());
  EXPECT_EQ(T.at(3, 5), 0.0f);
}

TEST(TensorData, OutOfBoundsReadsFillZero) {
  TensorData T({4, 4});
  T.fill(7.0f);
  TensorData W = T.extractWindow({2, 2}, {4, 4});
  EXPECT_EQ(W.at(0, 0), 7.0f);  // In range.
  EXPECT_EQ(W.at(3, 3), 0.0f);  // Past the edge: TMA zero-fill.
  EXPECT_EQ(W.at(0, 3), 0.0f);
}

TEST(TensorData, OutOfBoundsWritesDropped) {
  TensorData T({4, 4});
  TensorData W({4, 4});
  W.fill(9.0f);
  T.insertWindow({2, 2}, W.getShape(), W.data());
  EXPECT_EQ(T.at(3, 3), 9.0f);
  EXPECT_EQ(T.at(0, 0), 0.0f); // Untouched.
}

/// Host after writing \p Window (sized \p WindowShape, same rank as the
/// host) at \p Offsets one element at a time, dropping what falls outside.
TensorData insertElementwise(TensorData Host,
                             const std::vector<int64_t> &Offsets,
                             const ShapeVec &WindowShape,
                             const float *Window) {
  size_t Rank = WindowShape.size();
  std::vector<int64_t> Idx(Rank, 0);
  int64_t N = 1;
  for (int64_t D : WindowShape)
    N *= D;
  for (int64_t Linear = 0; Linear < N; ++Linear) {
    int64_t Dst = 0;
    bool In = true;
    for (size_t D = 0; D < Rank; ++D) {
      int64_t Coord = Offsets[D] + Idx[D];
      In &= Coord >= 0 && Coord < Host.getDim(D);
      Dst = Dst * Host.getDim(D) + Coord;
    }
    if (In)
      Host.at(Dst) = Window[Linear];
    for (size_t D = Rank; D-- > 0;) {
      if (++Idx[D] < WindowShape[D])
        break;
      Idx[D] = 0;
    }
  }
  return Host;
}

TEST(TensorData, InsertWindowMatchesElementwise) {
  struct Case {
    ShapeVec Host;
    std::vector<int64_t> Offsets;
    ShapeVec Tile; ///< Left-padded with 1s to the host rank by storeWindow.
  };
  const Case Cases[] = {
      {{10}, {2}, {5}},                  // in range
      {{10}, {7}, {5}},                  // past the end
      {{10}, {-2}, {5}},                 // before the start
      {{6, 9}, {1, 2}, {3, 4}},          // in range
      {{6, 9}, {4, 7}, {3, 4}},          // past both edges
      {{6, 9}, {-1, 0}, {3, 9}},         // a negative row offset
      {{3, 5, 7}, {1, 1, 2}, {2, 3, 4}}, // in range
      {{3, 5, 7}, {2, 3, 5}, {2, 3, 4}}, // past every edge
      {{3, 5, 7}, {2, 1, 0}, {4, 7}},    // rank-padded, in range
      {{3, 5, 7}, {1, 3, 3}, {4, 7}},    // rank-padded, past the edge
      {{3, 5, 7}, {0, 2, 3}, {4}},       // padded by two
  };
  for (const Case &C : Cases) {
    TensorData Host(C.Host), Tile(C.Tile);
    Host.fillRandom(1);
    Tile.fillRandom(2);
    ShapeVec Window;
    for (size_t D = C.Tile.size(); D < C.Host.size(); ++D)
      Window.push_back(1);
    for (int64_t D : C.Tile)
      Window.push_back(D);
    TensorData Want = insertElementwise(Host, C.Offsets, Window, Tile.data());
    TensorData Got = Host;
    EXPECT_EQ(exec::storeWindow(Got, C.Offsets, C.Tile, Tile.data()), "");
    EXPECT_EQ(std::memcmp(Got.data(), Want.data(),
                          sizeof(float) * Want.getNumElements()),
              0)
        << "host rank " << C.Host.size() << ", offset " << C.Offsets[0]
        << ", tile rank " << C.Tile.size();
  }
}

TEST(TensorData, WindowRankMismatchIsAnError) {
  // The offsets must match the host rank and the tile may not exceed it;
  // otherwise nothing moves and both directions name the mismatch.
  TensorData Host({4, 8});
  Host.fill(1.0f);
  TensorData Tile({2, 2});
  Tile.fill(2.0f);
  EXPECT_EQ(exec::storeWindow(Host, {0, 0, 0}, Tile.getShape(), Tile.data()),
            "unsupported launch: TMA store of a rank-2 tile at 3 offsets into "
            "a rank-2 tensor argument");
  EXPECT_EQ(exec::loadWindowInto(Host, {0}, Tile.getShape(), Tile.data()),
            "unsupported launch: TMA load of a rank-2 tile at 1 offsets into "
            "a rank-2 tensor argument");
  TensorData Row({8});
  EXPECT_EQ(exec::loadWindowInto(Row, {0}, Tile.getShape(), Tile.data()),
            "unsupported launch: TMA load of a rank-2 tile at 1 offsets into "
            "a rank-1 tensor argument");
  for (int64_t I = 0; I < Host.getNumElements(); ++I)
    EXPECT_EQ(Host.at(I), 1.0f);
  for (int64_t I = 0; I < Tile.getNumElements(); ++I)
    EXPECT_EQ(Tile.at(I), 2.0f);
}

TEST(TensorData, DiffMetrics) {
  TensorData A({4}), B({4});
  A.fill(1.0f);
  B.fill(1.0f);
  B.at(2) = 1.5f;
  EXPECT_FLOAT_EQ(A.maxAbsDiff(B), 0.5f);
  EXPECT_NEAR(A.maxRelDiff(B), 0.5 / 1.5, 1e-6);
}

// A validation check reads these as "the largest error"; a NaN or a wrong
// infinity anywhere must read as infinite error, never as none.
TEST(TensorData, DiffMetricsSeeNonFiniteDifferences) {
  const float Inf = std::numeric_limits<float>::infinity();
  const float Nan = std::numeric_limits<float>::quiet_NaN();
  const double Worst = std::numeric_limits<double>::infinity();
  struct Case {
    const char *Name;
    float Out, Ref;
    double Want;
  };
  const Case Cases[] = {{"NaN in the output", Nan, 2.0f, Worst},
                        {"NaN in the reference", 2.0f, Nan, Worst},
                        {"NaN in both", Nan, Nan, Worst},
                        {"unequal infinities", Inf, -Inf, Worst},
                        {"infinite output", Inf, 2.0f, Worst},
                        {"infinite reference", 2.0f, -Inf, Worst},
                        // Contributes 0: the finite pair's 0.25 is left.
                        {"equal infinities", -Inf, -Inf, 0.25}};
  for (const Case &C : Cases) {
    // The pair sits between finite pairs, the first 0.25 apart.
    TensorData Out({3}), Ref({3});
    Out.fill(1.0f);
    Ref.fill(1.0f);
    Out.at(0) = 1.25f;
    Out.at(1) = C.Out;
    Ref.at(1) = C.Ref;
    EXPECT_EQ(Out.maxAbsDiff(Ref), C.Want) << C.Name;
    EXPECT_EQ(Out.maxRelDiff(Ref), C.Want) << C.Name;
  }
}

TEST(Reference, GemmMatchesHandComputation) {
  TensorData A({2, 3}), B({2, 3}); // C = A * B^T is 2x2.
  for (int I = 0; I < 6; ++I) {
    A.at(I) = static_cast<float>(I + 1);
    B.at(I) = static_cast<float>(6 - I);
  }
  TensorData C = referenceGemm(A, B);
  // C[0][0] = 1*6 + 2*5 + 3*4 = 28.
  EXPECT_FLOAT_EQ(C.at(0, 0), 28.0f);
  // C[1][1] = 4*3 + 5*2 + 6*1 = 28.
  EXPECT_FLOAT_EQ(C.at(1, 1), 28.0f);
}

TEST(Reference, AttentionRowsSumRight) {
  // With V = identity-ish rows, the output is a convex combination of V
  // rows; all outputs must lie within V's range.
  TensorData Q({8, 4}), K({8, 4}), V({8, 4});
  Q.fillRandom(1);
  K.fillRandom(2);
  V.fill(3.0f);
  TensorData O = referenceAttention(Q, K, V, /*Causal=*/false);
  for (int64_t I = 0; I < O.getNumElements(); ++I)
    EXPECT_NEAR(O.at(I), 3.0f, 1e-4);
}

TEST(Reference, CausalFirstRowAttendsOnlyToFirstKey) {
  TensorData Q({4, 4}), K({4, 4}), V({4, 4});
  Q.fillRandom(1);
  K.fillRandom(2);
  V.fillRandom(3);
  TensorData O = referenceAttention(Q, K, V, /*Causal=*/true);
  // Row 0 can only attend to position 0: output = V[0].
  for (int64_t D = 0; D < 4; ++D)
    EXPECT_NEAR(O.at(0, D), V.at(0, D), 1e-5);
}

//===----------------------------------------------------------------------===//
// Blocked kernels against the naive loops they replace
//
// referenceGemm, referenceAttention and exec::matmulAcc promise every
// output element the naive loops' exact addition sequence, so their results
// must match these oracles byte for byte — not within a tolerance. Each
// kernel has one variant per CPU feature level (sim/TileKernels.h) and a
// host runs only one of them by itself, so every check runs each variant
// the host supports and skips the rest.
//===----------------------------------------------------------------------===//

TensorData naiveGemm(const TensorData &A, const TensorData &B) {
  int64_t M = A.getDim(0), K = A.getDim(1), N = B.getDim(0);
  TensorData C({M, N});
  for (int64_t I = 0; I < M; ++I)
    for (int64_t J = 0; J < N; ++J) {
      double Sum = 0;
      for (int64_t P = 0; P < K; ++P)
        Sum += static_cast<double>(A.at(I, P)) *
               static_cast<double>(B.at(J, P));
      C.at(I, J) = static_cast<float>(Sum);
    }
  return C;
}

TensorData naiveAttention(const TensorData &Q, const TensorData &K,
                          const TensorData &V, bool Causal) {
  int64_t L = Q.getDim(0), D = Q.getDim(1), LK = K.getDim(0);
  TensorData O({L, D});
  double Scale = 1.0 / std::sqrt(static_cast<double>(D));
  std::vector<double> Scores(LK);
  for (int64_t I = 0; I < L; ++I) {
    double Max = -1e300;
    for (int64_t J = 0; J < LK; ++J) {
      double S = 0;
      for (int64_t P = 0; P < D; ++P)
        S += static_cast<double>(Q.at(I, P)) * static_cast<double>(K.at(J, P));
      S *= Scale;
      if (Causal && J > I)
        S = -1e300;
      Scores[J] = S;
      Max = std::max(Max, S);
    }
    double Sum = 0;
    for (int64_t J = 0; J < LK; ++J) {
      Scores[J] = std::exp(Scores[J] - Max);
      Sum += Scores[J];
    }
    for (int64_t P = 0; P < D; ++P) {
      double Acc = 0;
      for (int64_t J = 0; J < LK; ++J)
        Acc += Scores[J] * static_cast<double>(V.at(J, P));
      O.at(I, P) = static_cast<float>(Acc / Sum);
    }
  }
  return O;
}

/// Acc + A x B in f32, each element summing its products in ascending P.
TensorData naiveMatmulAcc(const TensorData &A, const TensorData &B,
                          const TensorData &Acc, bool TransB) {
  int64_t M = A.getDim(0), K = A.getDim(1);
  int64_t N = TransB ? B.getDim(0) : B.getDim(1);
  TensorData C = Acc;
  for (int64_t I = 0; I < M; ++I)
    for (int64_t J = 0; J < N; ++J) {
      float S = C.at(I, J);
      for (int64_t P = 0; P < K; ++P)
        S += A.at(I, P) * (TransB ? B.at(J, P) : B.at(P, J));
      C.at(I, J) = S;
    }
  return C;
}

/// Random values spread over 25 binades, so that any change in the order
/// of the additions shows up in the low bits of the sums.
TensorData spreadMatrix(int64_t Rows, int64_t Cols, uint64_t Seed) {
  TensorData T({Rows, Cols});
  T.fillRandom(Seed);
  for (int64_t I = 0; I < T.getNumElements(); ++I)
    T.at(I) = std::ldexp(T.at(I), static_cast<int>((I * 7 + Seed) % 25) - 12);
  return T;
}

bool sameBytes(const TensorData &A, const TensorData &B) {
  return A.getShape() == B.getShape() &&
         std::memcmp(A.data(), B.data(),
                     static_cast<size_t>(A.getNumElements()) *
                         sizeof(float)) == 0;
}

TEST(Reference, GemmMatchesNaiveLoopBitForBit) {
  struct Shape {
    int64_t M, N, K;
  };
  std::vector<Shape> Shapes;
  for (int64_t M : {1, 3, 5, 17, 129})
    for (int64_t N : {1, 3, 5, 17, 129})
      for (int64_t K : {1, 3, 5, 17, 129})
        Shapes.push_back({M, N, K});
  // B's 16-row passes hold four 4-row panels, and Avx2 takes them in
  // adjacent pairs: N = 20 and 28 end on a lone full panel, N = 23 and 30
  // on a pair whose second panel is partial.
  for (int64_t N : {20, 23, 28, 30})
    for (int64_t M : {4, 7})
      Shapes.push_back({M, N, 33});
  // Each pass packs 64 rows of B: N = 64 fills one pass exactly, N = 65
  // leaves one row for a second, N = 100 ends on a partial second pass.
  for (int64_t N : {64, 65, 100})
    for (int64_t M : {5, 9})
      Shapes.push_back({M, N, 40});
  // Long contractions: the summation order over K is what must be kept.
  Shapes.push_back({5, 17, 2048});
  Shapes.push_back({33, 20, 1000});
  Shapes.push_back({129, 129, 2048});
  for (TileIsa Isa : AllTileIsas) {
    if (!hostRuns(Isa))
      GTEST_SKIP() << tileIsaName(Isa) << ": host lacks AVX2 and F16C";
    for (const Shape &S : Shapes) {
      TensorData A = spreadMatrix(S.M, S.K, 1);
      TensorData B = spreadMatrix(S.N, S.K, 2);
      EXPECT_TRUE(sameBytes(referenceGemm(Isa, A, B), naiveGemm(A, B)))
          << S.M << "x" << S.N << "x" << S.K << " " << tileIsaName(Isa);
    }
  }
}

TEST(Reference, AttentionMatchesNaiveLoopBitForBit) {
  struct Shape {
    int64_t L, LK, D;
  };
  // L != LK both ways, row counts around and past the kernel's blocks; LK
  // = 20 ends Q·Kᵀ on a lone 4-row panel, LK = 23 on a partial pair. P·V
  // keeps 8 (Baseline) or 16 (Avx2) columns of D in registers: D = 6 is
  // all tail, D = 20 leaves a tail after a block on both, D = 40 on Avx2.
  const Shape Shapes[] = {{1, 1, 1},     {3, 5, 4},      {17, 5, 8},
                          {5, 17, 3},    {40, 33, 16},   {64, 129, 32},
                          {130, 70, 64}, {70, 130, 128}, {9, 20, 16},
                          {21, 23, 8},   {7, 9, 6},      {18, 33, 20},
                          {33, 70, 40}};
  for (TileIsa Isa : AllTileIsas) {
    if (!hostRuns(Isa))
      GTEST_SKIP() << tileIsaName(Isa) << ": host lacks AVX2 and F16C";
    for (const Shape &S : Shapes)
      for (bool Causal : {false, true}) {
        TensorData Q({S.L, S.D}), K({S.LK, S.D});
        Q.fillRandom(11, 3.0f);
        K.fillRandom(12, 3.0f);
        TensorData V = spreadMatrix(S.LK, S.D, 13);
        EXPECT_TRUE(sameBytes(referenceAttention(Isa, Q, K, V, Causal),
                              naiveAttention(Q, K, V, Causal)))
            << S.L << "x" << S.LK << "x" << S.D << " causal=" << Causal
            << " " << tileIsaName(Isa);
      }
  }
}

TEST(Reference, MatmulAccMatchesNaiveLoopBitForBit) {
  TileArena Arena;
  for (TileIsa Isa : AllTileIsas) {
    if (!hostRuns(Isa))
      GTEST_SKIP() << tileIsaName(Isa) << ": host lacks AVX2 and F16C";
    for (bool TransB : {false, true})
      for (int64_t M : {1, 3, 4, 7, 13}) // M % 4 tails.
        // N % 8 and N % 16 tails (Avx2 takes 16 columns per block).
        for (int64_t N : {1, 5, 8, 13, 16, 24, 27, 31, 40})
          for (int64_t K : {1, 2, 17, 64}) {
            auto A = std::make_shared<TensorData>(spreadMatrix(M, K, 1));
            auto B = std::make_shared<TensorData>(
                TransB ? spreadMatrix(N, K, 2) : spreadMatrix(K, N, 2));
            auto Acc = std::make_shared<TensorData>(spreadMatrix(M, N, 3));
            TensorData Want = naiveMatmulAcc(*A, *B, *Acc, TransB);
            std::string Case = std::to_string(M) + "x" + std::to_string(N) +
                               "x" + std::to_string(K) +
                               (TransB ? " transB " : " ") + tileIsaName(Isa);
            // Heap path (the oracle's), then the arena path (the bytecode
            // executor's).
            EXPECT_TRUE(
                sameBytes(*exec::matmulAcc(Isa, A, B, Acc, TransB), Want))
                << Case << " heap";
            EXPECT_TRUE(sameBytes(
                *exec::matmulAcc(Isa, A, B, Acc, TransB, &Arena), Want))
                << Case << " arena";
            Arena.reset();
          }
  }
}

TEST(Reference, MatmulAccKeepsSignedZeros) {
  // A and Acc all -0: each product's sign of zero decides the result's, so
  // a splat that turned -0 into +0 (as `0 + x` does) would show here.
  for (TileIsa Isa : AllTileIsas) {
    if (!hostRuns(Isa))
      GTEST_SKIP() << tileIsaName(Isa) << ": host lacks AVX2 and F16C";
    for (int64_t N : {5, 8, 16, 27}) {
      auto A = std::make_shared<TensorData>(TensorData({4, 3}));
      A->fill(-0.0f);
      auto B = std::make_shared<TensorData>(spreadMatrix(3, N, 2));
      auto Acc = std::make_shared<TensorData>(TensorData({4, N}));
      Acc->fill(-0.0f);
      EXPECT_TRUE(sameBytes(*exec::matmulAcc(Isa, A, B, Acc, false),
                            naiveMatmulAcc(*A, *B, *Acc, false)))
          << "N = " << N << " " << tileIsaName(Isa);
    }
  }
}

//===----------------------------------------------------------------------===//
// Frontend kernel builders
//===----------------------------------------------------------------------===//

TEST(Frontend, GemmModuleVerifies) {
  IrContext Ctx;
  for (bool Batched : {false, true})
    for (bool PtrEpilogue : {false, true}) {
      GemmKernelConfig C;
      C.Batched = Batched;
      C.PointerEpilogue = PtrEpilogue;
      auto M = buildGemmModule(Ctx, C);
      EXPECT_EQ(verify(*M), "")
          << "batched=" << Batched << " ptr=" << PtrEpilogue;
    }
}

TEST(Frontend, GemmLoadsAndStoresMatchConfig) {
  IrContext Ctx;
  GemmKernelConfig C;
  C.TileM = 64;
  C.TileK = 32;
  auto M = buildGemmModule(Ctx, C);
  int64_t Loads = 0;
  Operation *Func = M->lookupFunc("matmul");
  ASSERT_NE(Func, nullptr);
  TensorType *ATy = nullptr;
  Func->walk([&](Operation *Op) {
    if (Op->getKind() == OpKind::TmaLoad) {
      ++Loads;
      if (!ATy)
        ATy = cast<TensorType>(Op->getResult(0)->getType());
    }
  });
  EXPECT_EQ(Loads, 2);
  ASSERT_NE(ATy, nullptr);
  EXPECT_EQ(ATy->getShape()[0], 64);
  EXPECT_EQ(ATy->getShape()[1], 32);
}

TEST(Frontend, AttentionModuleVerifies) {
  IrContext Ctx;
  for (bool Causal : {false, true})
    for (Precision P : {Precision::FP16, Precision::FP8}) {
      AttentionKernelConfig C;
      C.Causal = Causal;
      C.InPrecision = P;
      auto M = buildAttentionModule(Ctx, C);
      EXPECT_EQ(verify(*M), "") << "causal=" << Causal;
    }
}

TEST(Frontend, AttentionHasTwoDotStructure) {
  IrContext Ctx;
  AttentionKernelConfig C;
  auto M = buildAttentionModule(Ctx, C);
  int64_t Dots = 0, Exps = 0, Reduces = 0;
  M->lookupFunc("mha")->walk([&](Operation *Op) {
    if (Op->getKind() == OpKind::Dot)
      ++Dots;
    if (Op->getKind() == OpKind::Exp2F)
      ++Exps;
    if (Op->getKind() == OpKind::Reduce)
      ++Reduces;
  });
  EXPECT_EQ(Dots, 2);    // T = QK^T and U = PV.
  EXPECT_EQ(Exps, 2);    // P and the alpha rescale.
  EXPECT_EQ(Reduces, 2); // Row max and row sum.
}

TEST(Frontend, CausalAddsMaskOps) {
  IrContext Ctx;
  AttentionKernelConfig Plain, Causal;
  Causal.Causal = true;
  auto MPlain = buildAttentionModule(Ctx, Plain);
  auto MCausal = buildAttentionModule(Ctx, Causal);
  auto CountSelects = [](Module &M) {
    int64_t N = 0;
    M.lookupFunc("mha")->walk([&](Operation *Op) {
      if (Op->getKind() == OpKind::Select || Op->getKind() == OpKind::CmpSlt)
        ++N;
    });
    return N;
  };
  EXPECT_EQ(CountSelects(*MPlain), 0);
  EXPECT_GE(CountSelects(*MCausal), 2);
}

} // namespace
