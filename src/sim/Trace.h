//===- Trace.h - Timed action traces ----------------------------*- C++ -*-===//
//
// The functional interpreter emits one linear trace of primitive timed
// actions per warp-group agent; the replay engine (Replay.h) then
// co-simulates the traces against shared resources (tensor core, DRAM,
// mbarriers) to produce the kernel's cycle count. Splitting value semantics
// from timing keeps the functional execution deterministic while the timing
// remains faithfully concurrent.
//
// A persistent CTA's trace holds tens of thousands of actions, so their
// storage is recycled: an Action packs into 32 bytes, and each agent's
// vector comes from a process-wide store of cleared vectors that keep
// their capacity (takeActionVector) and goes back to it once nothing reads
// the trace any more (recycleActions; see docs/threading-and-memory.md).
//
//===----------------------------------------------------------------------===//

#ifndef TAWA_SIM_TRACE_H
#define TAWA_SIM_TRACE_H

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace tawa {
namespace sim {

enum class ActionKind : uint8_t {
  CudaWork,     ///< Cycles on the CUDA cores (address math, softmax, ...).
  TensorIssue,  ///< Enqueue an async MMA of Cycles duration.
  TensorWait,   ///< Block until at most `Pendings` MMAs remain in flight.
  TmaIssue,     ///< Enqueue an async TMA copy arriving on (Bar, Idx).
  BarExpectTx,  ///< Set the expected transaction bytes of (Bar, Idx).
  BarArrive,    ///< Arrive on (Bar, Idx).
  BarWait,      ///< Block until (Bar, Idx)'s phase differs from Parity.
  GStoreAsync,  ///< Global store traffic (epilogue), charged to DRAM.
  GLoadSync,    ///< Synchronous global load (non-WS tile execution).
  CopyPipelined,///< cp.async software-pipelined copy with `Lookahead` ring
                ///< slots (Triton baseline); waits for the copy issued
                ///< `Lookahead-1` iterations ago.
  IterMark,     ///< Marks a main-loop iteration boundary (for lookahead).
  CtaSync,      ///< Block-wide named barrier (software pipelining).
};

struct Action {
  double Cycles = 0;   ///< Work duration / issue cost.
  int64_t Bytes = 0;   ///< Transfer size (before reuse scaling).
  int32_t Bar = -1;    ///< Barrier array id.
  int32_t Idx = 0;     ///< Barrier index within the array.
  /// No kind uses both, so they share one field.
  union {
    int32_t Pendings = 0; ///< TensorWait bound (pendingsBound).
    int32_t Lookahead;    ///< CopyPipelined ring depth.
  };
  ActionKind Kind;
  int8_t Parity = 0;   ///< Wait parity (Parity % 2 of the wait's operand).
};
static_assert(sizeof(Action) == 32, "an Action packs into 32 bytes");

/// A TensorWait bound as its 32-bit field holds it. Replay keeps at most
/// max(bound, 0) MMAs in flight, and an agent never has 2^31 of them, so
/// saturating changes no wait.
inline int32_t pendingsBound(int64_t Pendings) {
  return static_cast<int32_t>(
      std::clamp<int64_t>(Pendings, INT32_MIN, INT32_MAX));
}

/// One agent's (warp group's) linear action sequence.
struct AgentTrace {
  std::string Name;          ///< e.g. "cta0/wg0(producer)".
  int64_t Replicas = 1;      ///< Cooperative consumer replica count.
  std::vector<Action> Actions;

  void emit(Action A) { Actions.push_back(A); }
};

/// One tt.atomic_add executed during a CTA: the target runtime-argument
/// tensor plus the (already bounds-checked) linear indices and f32 addends.
/// Engines only RECORD these — the Interpreter facade applies every CTA's
/// contributions in CTA-index order after execution, which makes cross-CTA
/// reduction (split-K) bit-identical across engines and worker counts.
struct AtomicContrib {
  int32_t Arg = -1;           ///< RunOptions::Args index of the target.
  std::vector<int64_t> Index; ///< Linear element indices (in-bounds only).
  std::vector<float> Value;   ///< f32 addends, parallel to Index.
};

/// Everything the replay engine needs for one CTA.
struct CtaTrace {
  std::vector<AgentTrace> Agents;
  /// Number of barrier arrays allocated (ids are dense).
  int32_t NumBarrierArrays = 0;
  /// Expected arrivals per phase, per barrier array.
  std::vector<int64_t> BarrierArrivals;
  /// Barrier array sizes.
  std::vector<int64_t> BarrierSizes;
  /// Total shared memory allocated (for the capacity check).
  int64_t SmemBytes = 0;
  /// Total happens-before events recorded while executing this CTA (used by
  /// the differential tests to check engine equivalence).
  uint64_t HbEvents = 0;
  /// Scheduler rounds the executor copied instead of interpreting
  /// (sim/LoopPeriod.h); 0 in functional mode and on the oracle. Set even
  /// when the CTA fails.
  uint64_t SkippedRounds = 0;
  /// Recorded (not yet applied) tt.atomic_add contributions, preamble first
  /// then agents in id order. Empty for non-functional runs and kernels
  /// without atomics. Consumed by Interpreter::runCta / runCtas.
  std::vector<AtomicContrib> Atomics;
};

/// An empty action vector, with the largest capacity the process-wide store
/// holds (or none when it is empty). bc::executeProgram takes one per agent
/// trace, so a long trace refills memory an earlier one grew and touched
/// instead of regrowing a fresh vector. Thread-safe.
std::vector<Action> takeActionVector();

/// Gives every agent's action vector of \p T back to the store and leaves
/// \p T without agents. Call it only once nothing reads the trace: the
/// Runner recycles its traces after replay. Thread-safe.
void recycleActions(CtaTrace &T);

} // namespace sim
} // namespace tawa

#endif // TAWA_SIM_TRACE_H
