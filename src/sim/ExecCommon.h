//===- ExecCommon.h - Shared runtime of both execution engines --*- C++ -*-===//
//
// Runtime value representation, per-CTA shared state, tensor math and cost
// helpers used by BOTH execution engines: the legacy tree-walking
// interpreter (LegacyInterp.cpp, the differential-testing oracle) and the
// bytecode executor (Executor.cpp). Keeping the arithmetic in one place is
// what makes the two engines bit-identical: every float operation runs
// through exactly the same code in the same order.
//
// Internal to src/sim — not part of the public simulator API.
//
//===----------------------------------------------------------------------===//

#ifndef TAWA_SIM_EXECCOMMON_H
#define TAWA_SIM_EXECCOMMON_H

#include "ir/Ir.h"
#include "sim/Config.h"
#include "sim/Numerics.h"
#include "sim/TensorData.h"
#include "sim/Trace.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

namespace tawa {
namespace sim {
namespace exec {

//===----------------------------------------------------------------------===//
// Runtime values
//===----------------------------------------------------------------------===//

struct RValue {
  enum class Kind : uint8_t { None, Int, Float, Tensor, Handle };
  Kind K = Kind::None;
  int64_t I = 0;
  double F = 0;
  TensorRef T;       ///< Tensor payload (null in timing-only mode).
  int32_t H = -1;    ///< Binding / smem / mbarrier handle; for pointer
                     ///< tensors, the carried base binding.

  static RValue makeInt(int64_t V) {
    RValue R;
    R.K = Kind::Int;
    R.I = V;
    return R;
  }
  static RValue makeFloat(double V) {
    RValue R;
    R.K = Kind::Float;
    R.F = V;
    return R;
  }
  static RValue makeTensor(TensorRef T, int32_t Base = -1) {
    RValue R;
    R.K = Kind::Tensor;
    R.T = std::move(T);
    R.H = Base;
    return R;
  }
  static RValue makeHandle(int32_t H) {
    RValue R;
    R.K = Kind::Handle;
    R.H = H;
    return R;
  }
};

inline int64_t asInt(const RValue &R) {
  assert(R.K == RValue::Kind::Int && "expected integer value");
  return R.I;
}

//===----------------------------------------------------------------------===//
// Shared CTA state (functional barriers, protocol monitors)
//===----------------------------------------------------------------------===//

struct FunctionalBarrier {
  int64_t Completions = 0;
  int64_t Arrivals = 0;
  int64_t TxExpected = 0;
  int64_t TxArrived = 0;
};

struct BarrierArray {
  int64_t Expected = 1;
  int64_t Channel = -1;
  bool IsFull = false;
  std::vector<FunctionalBarrier> Bars;
};

/// Per-slot protocol monitor: the Fig. 4 machine generalized to tuple slots
/// (several TMA writes fill one slot) and cooperative readers (several
/// consumer warp groups release one slot).
struct SlotMonitor {
  enum class St : uint8_t { Empty, Filling, Full, Borrowed };
  St S = St::Empty;
  int Writes = 0;
  int Releases = 0;
};

struct AgentCtx {
  int Id = 0;
  AgentTrace Trace;
  int64_t Replicas = 1;
  double PendingCuda = 0;
  std::string Error;
  /// Watchdog step counter, in engine-independent units: +1 per loop
  /// iteration started, +1 per mbarrier wait issued. Waits count at issue
  /// whether or not they block — "did the wait block" depends on how far
  /// the *other* agents have run, which under the legacy engine's
  /// preemptive threads is a scheduling race. Counting at issue makes the
  /// counter a pure function of the agent's own control flow, so it — and
  /// any budget trip, and the per-agent step counts in diagnostic
  /// snapshots — is identical across legacy/unfused/fused execution, every
  /// worker count, and every thread interleaving.
  int64_t Steps = 0;
  /// This agent's replica index within its cooperative group (warp_group
  /// attr "replica", 0 when absent). Cooperative replicas each execute the
  /// epilogue functionally — idempotent for stores, NOT for atomics — so
  /// only replica 0 records atomic contributions.
  int64_t ReplicaIdx = 0;
  /// tt.atomic_add contributions this agent recorded (never applied by the
  /// engines themselves). Kept per-agent because the legacy engine runs
  /// agents as preemptive OS threads — a shared CTA-level list would race.
  /// Trace assembly concatenates preamble-first then agent-id order into
  /// CtaTrace::Atomics.
  std::vector<AtomicContrib> Atomics;
};

inline void chargeCuda(AgentCtx &A, double Cycles) { A.PendingCuda += Cycles; }

inline void flushCuda(AgentCtx &A) {
  if (A.PendingCuda <= 0)
    return;
  Action Act;
  Act.Kind = ActionKind::CudaWork;
  Act.Cycles = A.PendingCuda;
  A.Trace.emit(Act);
  A.PendingCuda = 0;
}

//===----------------------------------------------------------------------===//
// Tensor math helpers
//===----------------------------------------------------------------------===//

inline TensorRef makeTensorForType(TensorType *Ty) {
  return std::make_shared<TensorData>(Ty->getShape());
}

/// Arena-backed tile, fully pooled: std::allocate_shared places the
/// shared_ptr control block AND the TensorData object in the arena, and the
/// payload comes from the arena too — producing a tile performs zero heap
/// allocations. UNINITIALIZED — the caller must overwrite or fill every
/// element (Arena.h's contract). All references die before the arena's next
/// reset (agent environments and staging stores are per-CTA), at which
/// point the control block's no-op deallocate has already run.
inline TensorRef makeArenaTile(ShapeVec Shape, TileArena &Arena) {
  return std::allocate_shared<TensorData>(ArenaAllocator<TensorData>(&Arena),
                                          Shape, Arena);
}

inline TensorRef makeTileForType(TensorType *Ty, TileArena &Arena) {
  return makeArenaTile(Ty->getShape(), Arena);
}

/// Arena-backed deep copy, pooled like makeArenaTile (the executor's
/// clone-and-mutate ops: Exp2, Cast, epilogue rounding).
inline TensorRef cloneArenaTile(const TensorData &T, TileArena &Arena) {
  return std::allocate_shared<TensorData>(ArenaAllocator<TensorData>(&Arena),
                                          T, Arena);
}

/// Copies the (possibly higher-rank) host window for a tile into \p Tile,
/// left-padding the window shape with 1s to the host rank. \p Tile must
/// already have the tile shape; padding does not change the row-major
/// element order, so no reshape copy is needed.
inline void loadWindowInto(const TensorData &Host,
                           const std::vector<int64_t> &Offsets,
                           const std::vector<int64_t> &TileShape,
                           TensorData &Tile) {
  if (TileShape.size() == Host.getShape().size()) {
    Host.extractWindowInto(Offsets, TileShape, Tile.data());
    return;
  }
  std::vector<int64_t> Padded = TileShape;
  while (Padded.size() < Host.getShape().size())
    Padded.insert(Padded.begin(), 1);
  Host.extractWindowInto(Offsets, Padded, Tile.data());
}

/// Extracts a tile from a host tensor whose rank may exceed the tile rank
/// (batched layouts): the window shape is left-padded with 1s to the host
/// rank, and the result is reshaped to the tile shape.
inline TensorData loadWindow(const TensorData &Host,
                             const std::vector<int64_t> &Offsets,
                             const std::vector<int64_t> &TileShape) {
  TensorData Out(TileShape);
  loadWindowInto(Host, Offsets, TileShape, Out);
  return Out;
}

/// Writes a tile back into a (possibly higher-rank) host tensor.
inline void storeWindow(TensorData &Host, const std::vector<int64_t> &Offsets,
                        const TensorData &Tile) {
  std::vector<int64_t> Padded = Tile.getShape().vec();
  while (Padded.size() < Host.getShape().size())
    Padded.insert(Padded.begin(), 1);
  TensorData W(Padded);
  for (int64_t I = 0, E = Tile.getNumElements(); I != E; ++I)
    W.at(I) = Tile.at(I);
  Host.insertWindow(Offsets, W);
}

inline TensorRef applyBinary(const TensorRef &A, const TensorRef &B,
                             float (*Fn)(float, float),
                             TileArena *Arena = nullptr) {
  auto Out = Arena ? makeArenaTile(A->getShape(), *Arena)
                   : std::make_shared<TensorData>(A->getShape());
  const float *Ap = A->data(), *Bp = B->data();
  float *Op = Out->data();
  for (int64_t I = 0, E = A->getNumElements(); I != E; ++I)
    Op[I] = Fn(Ap[I], Bp[I]);
  return Out;
}

/// Rounds every element to the storage precision of \p ElemTy.
inline void roundTensorTo(TensorData &T, Type *ElemTy) {
  switch (ElemTy->getKind()) {
  case TypeKind::F16:
    roundToFp16(T.data(), T.getNumElements());
    break;
  case TypeKind::F8E4M3:
    roundToFp8E4M3(T.data(), T.getNumElements());
    break;
  default:
    break; // f32/int: representable as-is.
  }
}

/// C = A (MxK) x B, acc += ; B is (KxN) or, when TransB, (NxK).
///
/// Register-tiled (ExecCommon.cpp): each 4-row x 8-column block of the
/// output stays in vector registers for the whole P loop, reading B as
/// (K x N) rows (TransB is transposed into scratch first). Every output
/// element (I, J) still starts from Acc and adds its f32 products in
/// ascending-P order — the exact addition sequence of the naive triple
/// loop — so the result is bit-identical to it. Both engines call this one
/// function, so the engine diff test cannot see a change here; the oracle
/// tests in tests/tensor_frontend_test.cpp and the goldens in
/// tests/numerics_golden_test.cpp do.
///
/// \p Arena (optional) supplies the result payload and the B-transpose
/// scratch; the legacy engine passes nullptr and uses the heap.
TensorRef matmulAcc(const TensorRef &A, const TensorRef &B,
                    const TensorRef &Acc, bool TransB,
                    TileArena *Arena = nullptr);

//===----------------------------------------------------------------------===//
// Cost model (shared so precomputed and tree-walked costs agree bitwise)
//===----------------------------------------------------------------------===//

inline double tensorOpCycles(const GpuConfig &Config, Operation *Op) {
  auto ElemsOf = [](Value *V) -> double {
    if (auto *TT = dyn_cast<TensorType>(V->getType()))
      return static_cast<double>(TT->getNumElements());
    return 0;
  };
  double Elems = Op->getNumResults() ? ElemsOf(Op->getResult(0)) : 0;
  if (Elems == 0 && Op->getNumOperands())
    Elems = ElemsOf(Op->getOperand(Op->getNumOperands() - 1));
  double Lanes = Config.CudaLanes;
  switch (Op->getKind()) {
  case OpKind::ConstantTensor:
  case OpKind::Splat:
  case OpKind::MakeRange:
  case OpKind::ExpandDims:
  case OpKind::Broadcast:
    return 0.25 * Elems / Lanes;
  case OpKind::DivF:
    return 4.0 * Elems / Lanes;
  case OpKind::Exp2F:
    return Elems / Config.SfuLanes;
  case OpKind::Reduce:
    return 2.0 * ElemsOf(Op->getOperand(0)) / Lanes;
  case OpKind::Transpose:
  case OpKind::Cast:
  case OpKind::Select:
  case OpKind::CmpSlt:
  case OpKind::AddF:
  case OpKind::SubF:
  case OpKind::MulF:
  case OpKind::MaxF:
  case OpKind::AddPtr:
  case OpKind::AddI:
  case OpKind::SubI:
  case OpKind::MulI:
  case OpKind::DivSI:
  case OpKind::RemSI:
  case OpKind::MinSI:
  case OpKind::MaxSI:
    return Elems > 0 ? Elems / Lanes : 1.0;
  default:
    return 1.0;
  }
}

/// WGMMA duration *before* the cooperative-replica division (both engines
/// divide by the agent's replica count at charge time, in the same order the
/// legacy expression `Flops / Rate / Replicas` evaluates).
inline double wgmmaCyclesBase(const GpuConfig &Config, Operation *Op) {
  auto *ATy = cast<TensorType>(Op->getOperand(0)->getType());
  auto *AccTy = cast<TensorType>(Op->getOperand(2)->getType());
  bool Fp8 = ATy->getElementType()->getKind() == TypeKind::F8E4M3;
  double MDim = static_cast<double>(AccTy->getShape()[0]);
  double NDim = static_cast<double>(AccTy->getShape()[1]);
  double KDim = static_cast<double>(ATy->getShape()[1]);
  double Flops = 2.0 * MDim * NDim * KDim;
  double Rate = Config.tcFlopsPerCyclePerSm(Fp8) * Config.WgmmaEfficiency;
  return Flops / Rate;
}

} // namespace exec
} // namespace sim
} // namespace tawa

#endif // TAWA_SIM_EXECCOMMON_H
