//===- TensorData.h - Host-side tensor storage ------------------*- C++ -*-===//
//
// Dense row-major f32 tensors used as the functional backing store of the
// simulator: kernel inputs/outputs bound to TMA descriptors and the values
// flowing through the interpreter. Reduced-precision data is represented as
// f32 that has been round-tripped through the target format.
//
// A tensor's payload lives in one of two places:
//   * owned heap storage (the default; zero-initialized) — host tensors,
//     references, and everything the legacy engine produces;
//   * a TileArena (uninitialized; see Arena.h) — the bytecode executor's
//     per-CTA tile traffic, reclaimed wholesale between CTAs.
// Copying always deep-copies into owned heap storage, so a copy of an
// arena-backed tensor safely outlives the arena reset.
//
//===----------------------------------------------------------------------===//

#ifndef TAWA_SIM_TENSORDATA_H
#define TAWA_SIM_TENSORDATA_H

#include "sim/Arena.h"
#include "support/Support.h"

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

namespace tawa {
namespace sim {

/// Inline small-vector tensor shape: up to 4 dimensions, no heap storage.
/// Every tile and host tensor in the simulator is rank <= 4 (batched host
/// layouts are rank 3), so the historical std::vector<int64_t> shape was a
/// guaranteed heap allocation per produced tile for nothing. Implicitly
/// convertible from std::vector<int64_t> (IR type shapes, window shapes)
/// and initializer lists, so call sites read unchanged.
class ShapeVec {
public:
  static constexpr int64_t MaxRank = 4;

  ShapeVec() = default;
  ShapeVec(std::initializer_list<int64_t> Il) {
    for (int64_t D : Il)
      push_back(D);
  }
  ShapeVec(const std::vector<int64_t> &V) {
    for (int64_t D : V)
      push_back(D);
  }

  size_t size() const { return N; }
  bool empty() const { return N == 0; }
  int64_t operator[](size_t I) const {
    assert(I < N);
    return Dims[I];
  }
  int64_t &operator[](size_t I) {
    assert(I < N);
    return Dims[I];
  }
  const int64_t *begin() const { return Dims; }
  const int64_t *end() const { return Dims + N; }
  const int64_t *data() const { return Dims; }

  void push_back(int64_t D) {
    // Hard check (not assert): the historical std::vector shape accepted
    // any rank, so a rank-5 caller must fail loudly in release builds too,
    // not overflow the inline buffer.
    if (N >= static_cast<size_t>(MaxRank))
      reportFatalError("ShapeVec: tensor rank exceeds 4");
    Dims[N++] = D;
  }
  void clear() { N = 0; }

  friend bool operator==(const ShapeVec &L, const ShapeVec &R) {
    if (L.N != R.N)
      return false;
    for (size_t I = 0; I < L.N; ++I)
      if (L.Dims[I] != R.Dims[I])
        return false;
    return true;
  }
  friend bool operator!=(const ShapeVec &L, const ShapeVec &R) {
    return !(L == R);
  }

private:
  int64_t Dims[MaxRank] = {0, 0, 0, 0};
  size_t N = 0;
};

class TensorData {
public:
  TensorData() = default;

  /// Owned heap payload, zero-filled (the historical behavior).
  explicit TensorData(ShapeVec Shape) : Shape(Shape) {
    Size = computeNumElements();
    Heap.assign(Size, 0.0f);
    Ptr = Heap.data();
  }

  /// Arena-backed payload, UNINITIALIZED: the caller must overwrite or fill
  /// every element. Valid until the arena's next reset().
  TensorData(ShapeVec Shape, TileArena &Arena) : Shape(Shape) {
    Size = computeNumElements();
    Ptr = Arena.alloc(Size);
  }

  /// Deep copy into owned heap storage (detaches from any arena).
  TensorData(const TensorData &O) : Shape(O.Shape), Size(O.Size) {
    if (Size > 0)
      Heap.assign(O.Ptr, O.Ptr + O.Size);
    Ptr = Heap.data();
  }

  /// Deep copy into \p Arena (the executor's clone-and-mutate ops).
  TensorData(const TensorData &O, TileArena &Arena)
      : Shape(O.Shape), Size(O.Size) {
    Ptr = Arena.alloc(Size);
    std::copy(O.Ptr, O.Ptr + O.Size, Ptr);
  }

  /// Moves steal the payload: a moved std::vector keeps its buffer address,
  /// and an arena payload is just a pointer, so Ptr stays valid either way.
  TensorData(TensorData &&O) noexcept
      : Shape(std::move(O.Shape)), Ptr(O.Ptr), Size(O.Size),
        Heap(std::move(O.Heap)) {
    O.Shape.clear();
    O.Ptr = nullptr;
    O.Size = 0;
  }

  TensorData &operator=(const TensorData &O) {
    if (this == &O)
      return *this;
    Shape = O.Shape;
    Size = O.Size;
    if (Size > 0)
      Heap.assign(O.Ptr, O.Ptr + O.Size);
    else
      Heap.clear();
    Ptr = Heap.data();
    return *this;
  }

  TensorData &operator=(TensorData &&O) noexcept {
    if (this == &O)
      return *this;
    Shape = std::move(O.Shape);
    Heap = std::move(O.Heap);
    Ptr = O.Ptr;
    Size = O.Size;
    O.Shape.clear();
    O.Ptr = nullptr;
    O.Size = 0;
    return *this;
  }

  const ShapeVec &getShape() const { return Shape; }
  int64_t getRank() const { return static_cast<int64_t>(Shape.size()); }
  int64_t getDim(int64_t I) const { return Shape[I]; }

  int64_t getNumElements() const { return computeNumElements(); }

  float *data() { return Ptr; }
  const float *data() const { return Ptr; }

  float &at(int64_t I) { return Ptr[I]; }
  float at(int64_t I) const { return Ptr[I]; }

  /// 2-D accessors (row-major).
  float &at(int64_t R, int64_t C) {
    assert(getRank() == 2 && "2-D accessor on non-matrix");
    return Ptr[R * Shape[1] + C];
  }
  float at(int64_t R, int64_t C) const {
    assert(getRank() == 2 && "2-D accessor on non-matrix");
    return Ptr[R * Shape[1] + C];
  }

  /// Fills with a deterministic pseudo-random pattern in [-Scale, Scale].
  void fillRandom(uint64_t Seed, float Scale = 1.0f);
  /// Fills with a constant.
  void fill(float V);

  /// Copies the window starting at \p Offsets (sized \p WindowShape) into a
  /// fresh tensor. Out-of-range reads clamp to zero (TMA's out-of-bounds
  /// fill behaviour).
  TensorData extractWindow(const std::vector<int64_t> &Offsets,
                           const std::vector<int64_t> &WindowShape) const;

  /// Copies the same window into \p Out (row-major; \p Out must hold
  /// exactly the window's element count — its shape may differ, e.g. with
  /// leading 1s stripped). Fully in-range windows take a contiguous-row
  /// memcpy fast path; values are identical to extractWindow either way.
  void extractWindowInto(const std::vector<int64_t> &Offsets,
                         const ShapeVec &WindowShape, float *Out) const;

  /// Writes the row-major \p Window (sized \p WindowShape) back at
  /// \p Offsets; out-of-range writes are dropped. Fully in-range windows
  /// take the same contiguous-row memcpy fast path as extractWindowInto.
  void insertWindow(const std::vector<int64_t> &Offsets,
                    const ShapeVec &WindowShape, const float *Window);

  /// Largest absolute element difference against \p Other (same shape).
  /// +infinity when a pair differs by a non-finite amount: a NaN on either
  /// side, or unequal infinities. Equal pairs count 0.
  double maxAbsDiff(const TensorData &Other) const;
  /// Largest relative difference (|a-b| / max(1, |b|)), non-finite pairs
  /// as in maxAbsDiff.
  double maxRelDiff(const TensorData &Other) const;

private:
  int64_t computeNumElements() const {
    int64_t N = 1;
    for (int64_t D : Shape)
      N *= D;
    return N;
  }

  ShapeVec Shape;
  float *Ptr = nullptr;     ///< Payload: Heap.data() or arena memory.
  int64_t Size = 0;         ///< Payload element count.
  std::vector<float> Heap;  ///< Owned storage; empty when arena-backed.
};

using TensorRef = std::shared_ptr<TensorData>;

/// Reference (double-precision) GEMM: C = A(MxK) * B(NxK)^T, for validating
/// compiled kernels. Inputs are the same f32 buffers the kernel reads.
TensorData referenceGemm(const TensorData &A, const TensorData &B);

/// Reference multi-head attention for one (batch*head): O = softmax(Q K^T /
/// sqrt(d)) V with optional causal masking, computed in double precision.
/// Q/K/V are (L x D).
TensorData referenceAttention(const TensorData &Q, const TensorData &K,
                              const TensorData &V, bool Causal);

} // namespace sim
} // namespace tawa

#endif // TAWA_SIM_TENSORDATA_H
