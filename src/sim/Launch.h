//===- Launch.h - Kernel launches carried as module attributes --*- C++ -*-===//
//
// A kernel launch (grid, arguments, optional fault spec) stamped onto a
// module as attributes, so a printed `.tawa` file runs on its own. The fuzz
// harness writes them, the committed corpus keeps them, and tawa-serve's
// `ir` requests carry them. The grammar:
//
//   fuzz.grid   = [gridX, gridY]
//   fuzz.args   = entries joined by ';', one per kernel argument:
//                   s<int>                    scalar
//                   t<seed>:<d0>x<d1>...      tensor, seeded random fill;
//                                             seed 0 = zero-filled output
//                   d<d0>x<d1>...:<v0>,<v1>,...
//                                             tensor with an explicit
//                                             integer payload, row-major
//   fuzz.faults = faults::configure spec (optional)
//
// decodeLaunchSpec parses input from outside the process (serve requests),
// so it rejects malformed numbers and launches beyond the limits below
// instead of letting them reach an allocation.
//
//===----------------------------------------------------------------------===//

#ifndef TAWA_SIM_LAUNCH_H
#define TAWA_SIM_LAUNCH_H

#include "sim/Interpreter.h"

#include <cstdint>
#include <string>
#include <vector>

namespace tawa {

class Module;

namespace sim {

/// Decoder limits, beside the rank bound ShapeVec::MaxRank. Every committed
/// corpus file and every fuzz case stays well inside them.
constexpr int64_t MaxLaunchDim = 1 << 16;   ///< Per tensor dimension.
constexpr int64_t MaxLaunchElems = 1 << 24; ///< Per tensor.
constexpr int64_t MaxLaunchCtas = 4096;     ///< GridX * GridY.

struct LaunchSpec {
  int64_t GridX = 1, GridY = 1;
  struct Arg {
    bool IsScalar = false;
    int64_t Scalar = 0;         ///< Scalar value.
    std::vector<int64_t> Shape; ///< Tensor shape.
    uint64_t FillSeed = 0;      ///< 0 = zero-filled (outputs).
    /// Explicit integer-valued payload (row-major, cast to float), used for
    /// the grouped family's group-offset table. Non-empty marks the tensor
    /// as an input even when FillSeed == 0.
    std::vector<int64_t> Data;
  };
  std::vector<Arg> Args;
  /// faults::configure() spec, "" = none. Only the fuzz harness arms it;
  /// tawa-serve refuses a request that carries one.
  std::string FaultSpec;
};

/// Stamps \p L onto \p M as `fuzz.grid` / `fuzz.args` / `fuzz.faults`.
void encodeLaunchSpec(Module &M, const LaunchSpec &L);

/// Recovers a LaunchSpec from \p M's `fuzz.*` attributes. Returns "" or an
/// error: a missing or malformed attribute, a token that is not entirely a
/// base-10 number, a rank outside [1, ShapeVec::MaxRank], a dimension
/// outside [1, MaxLaunchDim], a tensor over MaxLaunchElems elements, or a
/// grid axis below 1 or over MaxLaunchCtas CTAs in total.
std::string decodeLaunchSpec(const Module &M, LaunchSpec &L);

/// Sets \p Opts' grid and appends one RuntimeArg per launch argument: the
/// scalar, or a fresh tensor holding the explicit payload, the seeded
/// random fill, or zeros. Returns the zero-filled tensors (the outputs) in
/// argument order.
std::vector<TensorRef> materializeLaunch(const LaunchSpec &L,
                                         RunOptions &Opts);

} // namespace sim
} // namespace tawa

#endif // TAWA_SIM_LAUNCH_H
