//===- Numerics.h - FP16 / FP8 software arithmetic --------------*- C++ -*-===//
//
// Software models of the reduced-precision formats the tensor cores consume:
// IEEE binary16 and FP8 E4M3 (the OCP variant Hopper implements), both with
// round-to-nearest-even. Kernel data is stored as f32 but round-tripped
// through these conversions wherever the real hardware would quantize, so
// the end-to-end numeric tests exercise genuine precision behaviour.
//
//===----------------------------------------------------------------------===//

#ifndef TAWA_SIM_NUMERICS_H
#define TAWA_SIM_NUMERICS_H

#include <cstdint>

namespace tawa {
namespace sim {

/// Converts f32 to IEEE binary16 (round-to-nearest-even) and back.
float roundToFp16(float X);

/// Converts f32 to FP8 E4M3 (4 exponent bits, 3 mantissa bits, finite range
/// ±448, no infinities) and back, round-to-nearest-even with saturation.
float roundToFp8E4M3(float X);

/// Round \p N floats in place, element for element the same as the scalar
/// forms above, in one call per tensor instead of one per element.
void roundToFp16(float *Data, int64_t N);
void roundToFp8E4M3(float *Data, int64_t N);

/// Raw conversions (exposed for the unit tests).
uint16_t fp32ToFp16Bits(float X);
float fp16BitsToFp32(uint16_t Bits);
uint8_t fp32ToFp8E4M3Bits(float X);
float fp8E4M3BitsToFp32(uint8_t Bits);

} // namespace sim
} // namespace tawa

#endif // TAWA_SIM_NUMERICS_H
