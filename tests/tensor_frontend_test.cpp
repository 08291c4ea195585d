//===- tensor_frontend_test.cpp - TensorData + kernel builder tests -----------//

#include "frontend/Kernels.h"
#include "ir/Verifier.h"
#include "sim/ExecCommon.h"
#include "sim/TensorData.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

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
  T.insertWindow({2, 4}, Zero);
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
  T.insertWindow({2, 2}, W);
  EXPECT_EQ(T.at(3, 3), 9.0f);
  EXPECT_EQ(T.at(0, 0), 0.0f); // Untouched.
}

TEST(TensorData, DiffMetrics) {
  TensorData A({4}), B({4});
  A.fill(1.0f);
  B.fill(1.0f);
  B.at(2) = 1.5f;
  EXPECT_FLOAT_EQ(A.maxAbsDiff(B), 0.5f);
  EXPECT_NEAR(A.maxRelDiff(B), 0.5 / 1.5, 1e-6);
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
// must match these oracles byte for byte — not within a tolerance.
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
  // Long contractions: the summation order over K is what must be kept.
  Shapes.push_back({5, 17, 2048});
  Shapes.push_back({33, 20, 1000});
  Shapes.push_back({129, 129, 2048});
  for (const Shape &S : Shapes) {
    TensorData A = spreadMatrix(S.M, S.K, 1);
    TensorData B = spreadMatrix(S.N, S.K, 2);
    EXPECT_TRUE(sameBytes(referenceGemm(A, B), naiveGemm(A, B)))
        << S.M << "x" << S.N << "x" << S.K;
  }
}

TEST(Reference, AttentionMatchesNaiveLoopBitForBit) {
  struct Shape {
    int64_t L, LK, D;
  };
  // L != LK both ways, row counts around and past the kernel's blocks.
  const Shape Shapes[] = {{1, 1, 1},     {3, 5, 4},    {17, 5, 8},
                          {5, 17, 3},    {40, 33, 16}, {64, 129, 32},
                          {130, 70, 64}, {70, 130, 128}};
  for (const Shape &S : Shapes)
    for (bool Causal : {false, true}) {
      TensorData Q({S.L, S.D}), K({S.LK, S.D});
      Q.fillRandom(11, 3.0f);
      K.fillRandom(12, 3.0f);
      TensorData V = spreadMatrix(S.LK, S.D, 13);
      EXPECT_TRUE(sameBytes(referenceAttention(Q, K, V, Causal),
                            naiveAttention(Q, K, V, Causal)))
          << S.L << "x" << S.LK << "x" << S.D << " causal=" << Causal;
    }
}

TEST(Reference, MatmulAccMatchesNaiveLoopBitForBit) {
  TileArena Arena;
  for (bool TransB : {false, true})
    for (int64_t M : {1, 3, 4, 7, 13})      // M % 4 tails.
      for (int64_t N : {1, 5, 8, 13, 24, 27}) // N % 8 tails.
        for (int64_t K : {1, 2, 17, 64}) {
          auto A = std::make_shared<TensorData>(spreadMatrix(M, K, 1));
          auto B = std::make_shared<TensorData>(
              TransB ? spreadMatrix(N, K, 2) : spreadMatrix(K, N, 2));
          auto Acc = std::make_shared<TensorData>(spreadMatrix(M, N, 3));
          TensorData Want = naiveMatmulAcc(*A, *B, *Acc, TransB);
          std::string Case = std::to_string(M) + "x" + std::to_string(N) +
                             "x" + std::to_string(K) +
                             (TransB ? " transB" : "");
          // Heap path (the legacy engine's), then the arena path (the
          // bytecode executor's).
          EXPECT_TRUE(sameBytes(*exec::matmulAcc(A, B, Acc, TransB), Want))
              << Case << " heap";
          EXPECT_TRUE(
              sameBytes(*exec::matmulAcc(A, B, Acc, TransB, &Arena), Want))
              << Case << " arena";
          Arena.reset();
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
