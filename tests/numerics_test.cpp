//===- numerics_test.cpp - FP16/FP8 software arithmetic tests -----------------//

#include "driver/Runner.h"
#include "sim/Numerics.h"
#include "sim/TensorData.h"
#include "sim/TileKernels.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

using namespace tawa;
using namespace tawa::sim;

namespace {

TEST(Fp16, ExactValuesRoundTrip) {
  for (float V : {0.0f, 1.0f, -1.0f, 0.5f, 2.0f, 1024.0f, -0.25f, 65504.0f})
    EXPECT_EQ(roundToFp16(V), V) << V;
}

TEST(Fp16, KnownBitPatterns) {
  EXPECT_EQ(fp32ToFp16Bits(1.0f), 0x3C00u);
  EXPECT_EQ(fp32ToFp16Bits(-2.0f), 0xC000u);
  EXPECT_EQ(fp32ToFp16Bits(65504.0f), 0x7BFFu); // Max finite.
  EXPECT_EQ(fp16BitsToFp32(0x3C00), 1.0f);
  EXPECT_EQ(fp16BitsToFp32(0x0001), std::ldexp(1.0f, -24)); // Min subnormal.
}

TEST(Fp16, OverflowToInfinity) {
  EXPECT_TRUE(std::isinf(roundToFp16(1e6f)));
  EXPECT_TRUE(std::isinf(roundToFp16(-1e6f)));
  EXPECT_LT(roundToFp16(-1e6f), 0);
}

TEST(Fp16, RoundToNearestEven) {
  // 1 + 2^-11 is exactly halfway between 1.0 and 1 + 2^-10: rounds to even
  // (1.0). 1 + 3*2^-11 is halfway and rounds up to even (1 + 2^-9).
  EXPECT_EQ(roundToFp16(1.0f + std::ldexp(1.0f, -11)), 1.0f);
  EXPECT_EQ(roundToFp16(1.0f + 3 * std::ldexp(1.0f, -11)),
            1.0f + std::ldexp(1.0f, -9));
}

TEST(Fp16, SubnormalsQuantize) {
  float Tiny = std::ldexp(1.0f, -20);
  float Rounded = roundToFp16(Tiny);
  EXPECT_NEAR(Rounded, Tiny, std::ldexp(1.0f, -25));
}

TEST(Fp8, ExactValuesRoundTrip) {
  for (float V : {0.0f, 1.0f, -1.0f, 0.5f, 2.0f, 448.0f, -448.0f, 0.125f})
    EXPECT_EQ(roundToFp8E4M3(V), V) << V;
}

TEST(Fp8, SaturatesInsteadOfInfinity) {
  // E4M3 has no infinities: out-of-range values clamp to +-448.
  EXPECT_EQ(roundToFp8E4M3(1e6f), 448.0f);
  EXPECT_EQ(roundToFp8E4M3(-1e6f), -448.0f);
  EXPECT_EQ(roundToFp8E4M3(460.0f), 448.0f);
}

TEST(Fp8, NanEncodes) {
  float N = roundToFp8E4M3(std::nanf(""));
  EXPECT_TRUE(std::isnan(N));
}

TEST(Fp8, ThreeMantissaBitsOfPrecision) {
  // Between 1.0 and 2.0 the representable step is 1/8.
  EXPECT_EQ(roundToFp8E4M3(1.0f + 1.0f / 8), 1.0f + 1.0f / 8);
  EXPECT_EQ(roundToFp8E4M3(1.0f + 1.0f / 16), 1.0f); // RNE to even.
  EXPECT_EQ(roundToFp8E4M3(1.05f), 1.0f);
}

TEST(Fp8, SubnormalRange) {
  // Min subnormal = 2^-9.
  EXPECT_EQ(roundToFp8E4M3(std::ldexp(1.0f, -9)), std::ldexp(1.0f, -9));
  EXPECT_EQ(roundToFp8E4M3(std::ldexp(1.0f, -12)), 0.0f);
}

/// Property: round-tripping is idempotent and monotone over a dense sweep.
class RoundingProperty : public ::testing::TestWithParam<int> {};

TEST_P(RoundingProperty, IdempotentAndMonotone) {
  int Seed = GetParam();
  TensorData T({512});
  T.fillRandom(Seed, 300.0f);
  float PrevF16 = -1e30f, PrevIn = -1e30f;
  std::vector<float> Sorted(T.data(), T.data() + 512);
  std::sort(Sorted.begin(), Sorted.end());
  for (float V : Sorted) {
    float F16 = roundToFp16(V);
    EXPECT_EQ(roundToFp16(F16), F16);
    float F8 = roundToFp8E4M3(V);
    EXPECT_EQ(roundToFp8E4M3(F8), F8);
    if (PrevIn <= V)
      EXPECT_LE(PrevF16, F16) << "rounding must be monotone";
    PrevIn = V;
    PrevF16 = F16;
    // Relative error bounds: 2^-11 for fp16, 2^-4 for E4M3 (normal range).
    if (std::fabs(V) > 0.02f && std::fabs(V) < 400.0f) {
      EXPECT_LE(std::fabs(F16 - V), std::fabs(V) * 4.9e-4) << V;
      EXPECT_LE(std::fabs(F8 - V), std::fabs(V) * 6.3e-2) << V;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundingProperty,
                         ::testing::Values(1, 2, 3, 17, 99));

//===----------------------------------------------------------------------===//
// Span forms against the scalar forms, bit for bit
//
// roundToFp16's span has one variant per CPU feature level
// (sim/TileKernels.h), and a host runs only one by itself, so each check
// runs every variant the host supports. The fp16_exhaustive tool
// (tests/fp16_exhaustive.cpp) sweeps all 2^32 inputs.
//===----------------------------------------------------------------------===//

uint32_t bitsOf(float X) {
  uint32_t B;
  std::memcpy(&B, &X, sizeof(B));
  return B;
}

float fromBits(uint32_t B) {
  float X;
  std::memcpy(&X, &B, sizeof(X));
  return X;
}

/// Runs \p Isa's fp16 span over \p In and expects every element to carry
/// the scalar form's bits; reports the first mismatch only.
void expectFp16SpanMatchesScalar(TileIsa Isa, const std::vector<float> &In) {
  std::vector<float> Got = In;
  roundToFp16(Isa, Got.data(), static_cast<int64_t>(Got.size()));
  for (size_t I = 0; I < In.size(); ++I)
    if (bitsOf(Got[I]) != bitsOf(roundToFp16(In[I]))) {
      ADD_FAILURE() << tileIsaName(Isa) << ": input 0x" << std::hex
                    << bitsOf(In[I]) << " gave 0x" << bitsOf(Got[I])
                    << ", scalar 0x" << bitsOf(roundToFp16(In[I]));
      return;
    }
}

TEST(Fp16Span, EveryVariantMatchesScalarAtEveryRoundingCase) {
  // Every high 16-bit pattern (sign, exponent, top 7 mantissa bits) with
  // low halves at each rounding case of the normal fp16 range, whose last
  // kept bit is bit 13: exact (0x0000, 0x2000), below half (0x0FFF), tie to
  // even (0x1000), tie to odd (0x3000), above half (0x1001, 0xFFFF).
  const uint32_t Lows[] = {0x0000, 0x2000, 0x0FFF, 0x1000,
                           0x3000, 0x1001, 0xFFFF};
  std::vector<float> In;
  for (uint32_t High = 0; High <= 0xFFFF; ++High)
    for (uint32_t Low : Lows)
      In.push_back(fromBits(High << 16 | Low));
  for (TileIsa Isa : AllTileIsas) {
    if (!hostRuns(Isa))
      GTEST_SKIP() << tileIsaName(Isa) << ": host lacks AVX2 and F16C";
    expectFp16SpanMatchesScalar(Isa, In);
  }
}

TEST(Fp16Span, EveryVariantMatchesScalarOnNans) {
  // Quiet and signalling NaNs of both signs, with and without payloads:
  // F16C keeps payload bits, the software form does not.
  std::vector<float> In;
  for (uint32_t Sign : {0u, 0x80000000u})
    for (uint32_t Mant : {0x000001u, 0x000100u, 0x1FFFFFu, 0x200000u,
                          0x3FFFFFu, 0x400000u, 0x400001u, 0x5A5A5Au,
                          0x7FE000u, 0x7FFFFFu})
      In.push_back(fromBits(Sign | 0x7F800000u | Mant));
  for (TileIsa Isa : AllTileIsas) {
    if (!hostRuns(Isa))
      GTEST_SKIP() << tileIsaName(Isa) << ": host lacks AVX2 and F16C";
    expectFp16SpanMatchesScalar(Isa, In);
  }
}

TEST(Fp16Span, EveryVariantCoversEveryTailLength) {
  // Lengths 0-17: no full vector, one, two, and every tail. Each span
  // mixes finite values, infinities and a NaN, and the element past its
  // end must stay untouched.
  const float Sentinel = fromBits(0x7FA00ABCu);
  for (TileIsa Isa : AllTileIsas) {
    if (!hostRuns(Isa))
      GTEST_SKIP() << tileIsaName(Isa) << ": host lacks AVX2 and F16C";
    for (int64_t N = 0; N <= 17; ++N) {
      TensorData T({N + 1});
      T.fillRandom(static_cast<uint64_t>(N) + 1, 70000.0f);
      if (N > 3) {
        T.at(1) = std::numeric_limits<float>::infinity();
        T.at(N - 2) = fromBits(0xFFC12345u);
      }
      T.at(N) = Sentinel;
      std::vector<float> In(T.data(), T.data() + N);
      expectFp16SpanMatchesScalar(Isa, In);
      roundToFp16(Isa, T.data(), N);
      EXPECT_EQ(bitsOf(T.at(N)), bitsOf(Sentinel))
          << tileIsaName(Isa) << ": N = " << N;
    }
  }
}

TEST(Fp8Span, DecodesEveryCodeAsTheFormula) {
  // The span decodes through a table built from fp8E4M3BitsToFp32. Every
  // code's value encodes back to the code, so the span must hand it back
  // bit for bit — NaN codes (0x7F, 0xFF) and -0 (0x80) included.
  for (int C = 0; C < 256; ++C) {
    float X = fp8E4M3BitsToFp32(static_cast<uint8_t>(C));
    ASSERT_EQ(fp32ToFp8E4M3Bits(X), C);
    float Span = X;
    roundToFp8E4M3(&Span, 1);
    EXPECT_EQ(bitsOf(Span), bitsOf(X)) << "code " << C;
  }
}

//===----------------------------------------------------------------------===//
// Kernel-family numerics properties
//
// The Runner's functional mode validates every compiled run against a
// serial reference matmul and reports the worst relative element error
// (RunResult::MaxRelError). These properties pin the numeric contract of
// the split-K and grouped/MoE families at their edge shapes.
//===----------------------------------------------------------------------===//

/// Grouped output goes through an FP16 store; one rounding step per element
/// on top of the FP16-input matmul.
constexpr double kGroupedRelBound = 5e-3;
/// Split-K accumulates raw f32 partials via the atomic surface — no output
/// rounding, so only input-precision error remains.
constexpr double kSplitKRelBound = 1e-4;

void expectGroupedMatchesReference(const std::vector<int64_t> &GroupMs,
                                   int64_t N, int64_t K) {
  GemmWorkload W;
  W.N = N;
  W.K = K;
  W.MoE = true;
  W.GroupMs = GroupMs;
  for (Framework F : {Framework::Tawa, Framework::Triton}) {
    Runner R;
    RunResult Res = R.runGemm(F, W, /*Functional=*/true);
    ASSERT_TRUE(Res.ok()) << getFrameworkName(F) << ": " << Res.Error;
    EXPECT_GE(Res.MaxRelError, 0) << getFrameworkName(F);
    EXPECT_LE(Res.MaxRelError, kGroupedRelBound) << getFrameworkName(F);
  }
}

TEST(GroupedNumerics, EmptyExpertsMatchReference) {
  // Leading, interior and trailing empty experts around ragged non-tile
  // row counts.
  expectGroupedMatchesReference({0, 96, 0, 0, 200, 0}, 128, 64);
}

TEST(GroupedNumerics, AllButOneEmpty) {
  expectGroupedMatchesReference({0, 0, 50, 0}, 64, 96);
}

TEST(GroupedNumerics, SingleExpertMatchesReference) {
  // Degenerate MoE: one expert is just a plain GEMM through the grouped
  // dispatch path (offset table, masked tiles).
  expectGroupedMatchesReference({100}, 128, 128);
}

TEST(SplitKNumerics, IndivisibleSplitMatchesReference) {
  // 128-wide K with TileK 64 gives 2 K-tiles; splits 3 and 5 leave some
  // CTAs with zero iterations and distribute the remainder unevenly. The
  // reduction must still reproduce the serial reference.
  for (int64_t Split : {2, 3, 5}) {
    GemmWorkload W;
    W.M = 128;
    W.N = 128;
    W.K = 128;
    W.SplitK = Split;
    for (Framework F : {Framework::Tawa, Framework::Triton}) {
      Runner R;
      RunResult Res = R.runGemm(F, W, /*Functional=*/true);
      ASSERT_TRUE(Res.ok())
          << getFrameworkName(F) << " split " << Split << ": " << Res.Error;
      EXPECT_GE(Res.MaxRelError, 0) << getFrameworkName(F);
      EXPECT_LE(Res.MaxRelError, kSplitKRelBound)
          << getFrameworkName(F) << " split " << Split;
    }
  }
}

} // namespace
