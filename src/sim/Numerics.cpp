//===- Numerics.cpp - FP16 / FP8 software arithmetic ---------------------------//

#include "sim/Numerics.h"
#include "sim/TileKernels.h"

#include <array>
#include <cmath>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

using namespace tawa;
using namespace tawa::sim;

uint16_t tawa::sim::fp32ToFp16Bits(float X) {
  uint32_t Bits;
  std::memcpy(&Bits, &X, sizeof(Bits));
  uint32_t Sign = (Bits >> 16) & 0x8000u;
  int32_t Exp = static_cast<int32_t>((Bits >> 23) & 0xFF) - 127 + 15;
  uint32_t Mant = Bits & 0x7FFFFFu;

  if (((Bits >> 23) & 0xFF) == 0xFF) {
    // Inf / NaN.
    return static_cast<uint16_t>(Sign | 0x7C00u | (Mant ? 0x200u : 0));
  }
  if (Exp >= 0x1F)
    return static_cast<uint16_t>(Sign | 0x7C00u); // Overflow -> inf.
  if (Exp <= 0) {
    // Subnormal or underflow to zero.
    if (Exp < -10)
      return static_cast<uint16_t>(Sign);
    Mant |= 0x800000u; // Implicit bit.
    uint32_t Shift = static_cast<uint32_t>(14 - Exp);
    uint32_t Rounded = Mant >> Shift;
    uint32_t Rem = Mant & ((1u << Shift) - 1);
    uint32_t Half = 1u << (Shift - 1);
    if (Rem > Half || (Rem == Half && (Rounded & 1)))
      ++Rounded;
    return static_cast<uint16_t>(Sign | Rounded);
  }
  // Normal: round mantissa from 23 to 10 bits (RNE).
  uint32_t Rounded = Mant >> 13;
  uint32_t Rem = Mant & 0x1FFFu;
  if (Rem > 0x1000u || (Rem == 0x1000u && (Rounded & 1)))
    ++Rounded;
  // The mantissa rounding carry may propagate into the exponent field; the
  // addition handles that (possibly overflowing to inf, which is correct).
  uint32_t Result = Sign | ((static_cast<uint32_t>(Exp) << 10) + Rounded);
  return static_cast<uint16_t>(Result);
}

float tawa::sim::fp16BitsToFp32(uint16_t Bits) {
  uint32_t Sign = (Bits & 0x8000u) << 16;
  uint32_t Exp = (Bits >> 10) & 0x1F;
  uint32_t Mant = Bits & 0x3FFu;
  uint32_t Out;
  if (Exp == 0x1F) {
    Out = Sign | 0x7F800000u | (Mant << 13);
  } else if (Exp == 0) {
    if (Mant == 0) {
      Out = Sign;
    } else {
      // Normalize the subnormal.
      int Shift = 0;
      while (!(Mant & 0x400u)) {
        Mant <<= 1;
        ++Shift;
      }
      Mant &= 0x3FFu;
      Out = Sign | ((112 - Shift + 1) << 23) | (Mant << 13);
    }
  } else {
    Out = Sign | ((Exp + 112) << 23) | (Mant << 13);
  }
  float F;
  std::memcpy(&F, &Out, sizeof(F));
  return F;
}

float tawa::sim::roundToFp16(float X) { return fp16BitsToFp32(fp32ToFp16Bits(X)); }

uint8_t tawa::sim::fp32ToFp8E4M3Bits(float X) {
  uint32_t Bits;
  std::memcpy(&Bits, &X, sizeof(Bits));
  uint8_t Sign = static_cast<uint8_t>((Bits >> 24) & 0x80u);
  if (std::isnan(X))
    return static_cast<uint8_t>(Sign | 0x7Fu); // E4M3 NaN encoding.
  float A = std::fabs(X);
  if (A >= 448.0f)
    return static_cast<uint8_t>(Sign | 0x7Eu); // Saturate to ±448.
  if (A < 0x1p-10f)                            // Below half the min subnormal.
    return Sign;

  int32_t Exp = static_cast<int32_t>((Bits >> 23) & 0xFF) - 127;
  uint32_t Mant = Bits & 0x7FFFFFu;
  int32_t E4 = Exp + 7; // E4M3 bias = 7.
  if (E4 <= 0) {
    // Subnormal: value = mant * 2^-9.
    Mant |= 0x800000u;
    uint32_t Shift = static_cast<uint32_t>(20 - E4) + 1;
    uint32_t Rounded = Mant >> Shift;
    uint32_t Rem = Mant & ((1u << Shift) - 1);
    uint32_t Half = 1u << (Shift - 1);
    if (Rem > Half || (Rem == Half && (Rounded & 1)))
      ++Rounded;
    return static_cast<uint8_t>(Sign | Rounded);
  }
  uint32_t Rounded = Mant >> 20;
  uint32_t Rem = Mant & 0xFFFFFu;
  if (Rem > 0x80000u || (Rem == 0x80000u && (Rounded & 1)))
    ++Rounded;
  uint32_t Enc = (static_cast<uint32_t>(E4) << 3) + Rounded;
  if (Enc >= 0x7Fu)
    Enc = 0x7Eu; // Rounding overflowed into NaN: saturate.
  return static_cast<uint8_t>(Sign | Enc);
}

float tawa::sim::fp8E4M3BitsToFp32(uint8_t Bits) {
  uint32_t Sign = (Bits & 0x80u) ? 0x80000000u : 0;
  uint32_t Exp = (Bits >> 3) & 0xFu;
  uint32_t Mant = Bits & 0x7u;
  if (Exp == 0xFu && Mant == 0x7u) {
    uint32_t Out = Sign | 0x7FC00000u;
    float F;
    std::memcpy(&F, &Out, sizeof(F));
    return F;
  }
  float Value;
  if (Exp == 0)
    Value = std::ldexp(static_cast<float>(Mant), -9); // Subnormal.
  else
    Value = std::ldexp(1.0f + static_cast<float>(Mant) / 8.0f,
                       static_cast<int>(Exp) - 7);
  float F = Sign ? -Value : Value;
  return F;
}

float tawa::sim::roundToFp8E4M3(float X) {
  return fp8E4M3BitsToFp32(fp32ToFp8E4M3Bits(X));
}

namespace {

/// The F16C form of the fp16 span: eight lanes per vcvtps2ph (round to
/// nearest even) and vcvtph2ps, the scalar form for the tail. F16C equals
/// the software conversion on every input but NaNs, where it keeps payload
/// bits; those lanes get the software result, the input's sign | 0x7FC00000.
TAWA_TARGET_AVX2 void roundToFp16F16c(float *Data, int64_t N) {
  int64_t I = 0;
#if defined(__x86_64__)
  const __m256 SignBit = _mm256_castsi256_ps(_mm256_set1_epi32(INT32_MIN));
  const __m256 QuietNan = _mm256_castsi256_ps(_mm256_set1_epi32(0x7FC00000));
  for (; I + 8 <= N; I += 8) {
    __m256 X = _mm256_loadu_ps(Data + I);
    __m256 R =
        _mm256_cvtph_ps(_mm256_cvtps_ph(X, _MM_FROUND_TO_NEAREST_INT));
    __m256 Nan = _mm256_or_ps(_mm256_and_ps(X, SignBit), QuietNan);
    R = _mm256_blendv_ps(R, Nan, _mm256_cmp_ps(X, X, _CMP_UNORD_Q));
    _mm256_storeu_ps(Data + I, R);
  }
#endif
  for (; I < N; ++I)
    Data[I] = roundToFp16(Data[I]);
}

} // namespace

void tawa::sim::roundToFp16(TileIsa Isa, float *Data, int64_t N) {
  if (Isa == TileIsa::Avx2)
    return roundToFp16F16c(Data, N);
  for (int64_t I = 0; I < N; ++I)
    Data[I] = roundToFp16(Data[I]);
}

void tawa::sim::roundToFp16(float *Data, int64_t N) {
  roundToFp16(hostTileIsa(), Data, N);
}

void tawa::sim::roundToFp8E4M3(float *Data, int64_t N) {
  // Decoding through a table of all 256 codes, built once from
  // fp8E4M3BitsToFp32, spares the span a std::ldexp per element.
  static const std::array<float, 256> Decode = [] {
    std::array<float, 256> T{};
    for (int C = 0; C < 256; ++C)
      T[C] = fp8E4M3BitsToFp32(static_cast<uint8_t>(C));
    return T;
  }();
  for (int64_t I = 0; I < N; ++I)
    Data[I] = Decode[fp32ToFp8E4M3Bits(Data[I])];
}
