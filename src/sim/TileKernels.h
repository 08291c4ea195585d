//===- TileKernels.h - CPU-feature variants of the tile math ----*- C++ -*-===//
//
// The functional path's hottest kernels come in two variants:
//
//   * Baseline: SSE2 on x86-64 (GCC vector types of 16 bytes), and the
//     fallback on every host;
//   * Avx2: AVX2 + F16C — the fp16 rounding span through F16C, and the
//     register tiles of exec::matmulAcc and of the references' A·Bᵀ kernel
//     on 32-byte vectors, twice as wide.
//
// Every output element goes through the same sequence of operations in both,
// so the variants are bit-identical (docs/execution-engine.md, "Tile math").
// The process picks one, once, by CPU feature; nothing configures it.
//
// Private to src/sim: Numerics.cpp, ExecCommon.cpp and TensorData.cpp define
// the variant forms declared here, and the tests call each variant through
// them, because a host runs only one through the public entry points.
//
//===----------------------------------------------------------------------===//

#ifndef TAWA_SIM_TILEKERNELS_H
#define TAWA_SIM_TILEKERNELS_H

#include "sim/Arena.h"
#include "sim/TensorData.h"

#include <cstdint>
#include <cstring>

namespace tawa {
namespace sim {

enum class TileIsa { Baseline, Avx2 };

#if defined(__x86_64__)
/// Compiles a function for the Avx2 variant. No fma: the library builds with
/// -ffp-contract=off, and a multiply and an add stay two roundings.
#define TAWA_TARGET_AVX2 __attribute__((target("avx2,f16c")))

/// True when the host runs AVX2 and F16C, tested once per process.
inline bool hostHasAvx2F16c() {
  static const bool Has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("f16c");
  }();
  return Has;
}
#else
#define TAWA_TARGET_AVX2
inline bool hostHasAvx2F16c() { return false; }
#endif

/// The variant the public entry points run.
inline TileIsa hostTileIsa() {
  return hostHasAvx2F16c() ? TileIsa::Avx2 : TileIsa::Baseline;
}

/// Every variant, Baseline first, for the tests that run each one.
inline constexpr TileIsa AllTileIsas[] = {TileIsa::Baseline, TileIsa::Avx2};

/// Whether the host can run \p Isa.
inline bool hostRuns(TileIsa Isa) {
  return Isa == TileIsa::Baseline || hostHasAvx2F16c();
}

inline const char *tileIsaName(TileIsa Isa) {
  return Isa == TileIsa::Avx2 ? "avx2" : "baseline";
}

/// roundToFp16(float *, int64_t) (Numerics.h) on the given variant.
void roundToFp16(TileIsa Isa, float *Data, int64_t N);

namespace exec {
/// exec::matmulAcc (ExecCommon.h) on the given variant.
TensorRef matmulAcc(TileIsa Isa, const TensorRef &A, const TensorRef &B,
                    const TensorRef &Acc, bool TransB,
                    TileArena *Arena = nullptr);
} // namespace exec

/// referenceGemm and referenceAttention (TensorData.h) on the given variant.
TensorData referenceGemm(TileIsa Isa, const TensorData &A,
                         const TensorData &B);
TensorData referenceAttention(TileIsa Isa, const TensorData &Q,
                              const TensorData &K, const TensorData &V,
                              bool Causal);

//===----------------------------------------------------------------------===//
// Register-tile building blocks
//
// The kernel bodies are written once, as always_inline templates over a GCC
// vector type, and instantiated in a baseline function (16-byte vectors) and
// in a TAWA_TARGET_AVX2 one (32-byte vectors). Vectors pass by reference:
// a 32-byte vector in the signature of a function that is not an AVX one
// changes its ABI (GCC's -Wpsabi). Splats use element-wise initializers
// (`0 + X` would turn -0 into +0).
//===----------------------------------------------------------------------===//

namespace tile {

typedef float V4f __attribute__((vector_size(16)));
typedef float V8f __attribute__((vector_size(32)));
typedef double V2d __attribute__((vector_size(16)));
typedef double V4d __attribute__((vector_size(32)));

template <typename V, typename T> inline void load(V &X, const T *P) {
  std::memcpy(&X, P, sizeof(X));
}

template <typename V, typename T> inline void store(T *P, const V &X) {
  std::memcpy(P, &X, sizeof(X));
}

inline void splat(V4f &X, float S) { X = V4f{S, S, S, S}; }
inline void splat(V2d &X, double S) { X = V2d{S, S}; }
TAWA_TARGET_AVX2 inline void splat(V8f &X, float S) {
  X = V8f{S, S, S, S, S, S, S, S};
}
TAWA_TARGET_AVX2 inline void splat(V4d &X, double S) {
  X = V4d{S, S, S, S};
}

/// Loads floats widened to double, one lane each (a single cvtps2pd; GCC
/// splits __builtin_convertvector into halves).
inline void widen(V2d &X, const float *P) { X = V2d{P[0], P[1]}; }
TAWA_TARGET_AVX2 inline void widen(V4d &X, const float *P) {
  X = V4d{P[0], P[1], P[2], P[3]};
}

} // namespace tile

} // namespace sim
} // namespace tawa

#endif // TAWA_SIM_TILEKERNELS_H
