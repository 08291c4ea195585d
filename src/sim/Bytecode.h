//===- Bytecode.h - Flat compiled-program execution format ------*- C++ -*-===//
//
// The compile-then-execute engine: a one-time lowering pass flattens a
// verified, pass-pipelined Module into a CompiledProgram — a dense
// instruction array with a compact opcode enum, operands pre-resolved to
// integer value slots (dense SSA numbering, so the environment is a flat
// std::vector<RValue> instead of a std::map<Value*, RValue>), loop targets
// pre-resolved to instruction indices, attributes materialized into
// immediates/pools, and per-op costs precomputed from the machine model.
//
// The executor (Executor.cpp) dispatches over BcOp by computed goto, one
// label per opcode — no virtual calls, no string-keyed attribute lookups,
// no pointer-keyed maps on the per-op path — and replaces the legacy
// std::function wait-condition machinery with a tagged WaitCond evaluated
// inline. Semantics (numerics,
// trace event sequences, protocol monitors, happens-before recording) are
// bit-identical to the legacy tree-walking interpreter, which the tests
// keep as a differential oracle (tests/oracle/TreeWalk.h).
//
//===----------------------------------------------------------------------===//

#ifndef TAWA_SIM_BYTECODE_H
#define TAWA_SIM_BYTECODE_H

#include "sim/Config.h"
#include "sim/LoopPeriod.h"
#include "sim/Trace.h"

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace tawa {

class IrContext;
class Module;
class TensorType;
class Type;

namespace sim {

struct RunOptions;
class TileArena;

namespace bc {

/// Dense opcodes of the executable subset. Compute ops mirror OpKind;
/// control flow is lowered to LoopBegin/LoopEnd pairs with pre-resolved
/// instruction targets.
enum class BcOp : uint8_t {
  // Control.
  Nop,         ///< tt.return and other executable no-ops.
  LoopBegin,   ///< Aux = LoopInfo id; enters or skips the loop.
  LoopEnd,     ///< Aux = LoopInfo id; yields, steps, branches back or exits.
  Unsupported, ///< MsgId = diagnostic; fails only if actually executed.
  Halt,        ///< End of a region program.

  // Scalars.
  ConstInt,    ///< Imm0 = value.
  ConstFloat,  ///< FImm = value.
  ProgramId,   ///< Imm0 = axis.
  NumPrograms, ///< Imm0 = axis.
  IntBin,      ///< Imm0 = OpKind (AddI..CmpSlt); scalar or elementwise.

  // Tensor construction & math.
  ConstTensor,     ///< FImm = fill value.
  MakeRange,       ///< Imm0 = start.
  Splat,
  ExpandBroadcast, ///< Aux = IntVec id of [DimMap..., SrcDims...] pairs.
  Transpose2D,
  FloatBin,        ///< Imm0 = OpKind (AddF..MaxF); scalar or elementwise.
  Exp2,
  Select,
  Reduce,          ///< Imm0 = axis, Imm1 = IsMax.
  Cast,            ///< ElemTy = rounding target.
  AddPtr,

  // Tile-dialect memory & compute (non-WS paths).
  TmaLoad,  ///< Imm0 = bytes, Imm1 = lookahead, Imm2 = ActionKind, FImm =
            ///< issue cycles (all pre-resolved from the pipeline mode).
  TmaStore, ///< Imm0 = bytes, FImm = cycles base (pre replica division).
  Store,    ///< Imm0 = bytes, FImm = cycles base.
  Dot,      ///< FImm = wgmma cycles base, Imm0 = transB, Imm1 = pendings.

  // Lowered dialect.
  SmemAlloc,        ///< Imm0 = channel, Imm1 = slot bytes, Imm2 = bytes,
                    ///< Imm3 = num slots, Aux = writers<<16 | readers.
  MBarrierAlloc,    ///< Imm0 = expected, Imm1 = channel, Imm2 = is-full,
                    ///< Imm3 = num.
  MBarrierExpectTx, ///< Imm0 = bytes.
  MBarrierArrive,   ///< Optional third operand = predicate.
  MBarrierWait,     ///< Issue half: charges/emits the BarWait action.
  MBarrierWaitBlock,///< Blocking half: the tagged WaitCond (bar, idx,
                    ///< parity); suspends the agent until the phase flips.
  TmaLoadAsync,     ///< Imm0 = num offsets, Imm1 = bytes, Imm2 = field idx,
                    ///< Imm3 = slot offset, Aux = IntVec id of the shape.
  SmemRead,         ///< Imm2 = field idx, Imm3 = slot offset.
  WgmmaIssue,       ///< FImm = wgmma cycles base, Imm0 = transB.
  WgmmaWait,        ///< Imm0 = pendings.
  Fence,

  // Superinstructions (emitted only by the peephole fusion pass —
  // Peephole.h; never by the module compiler). Operand layouts and
  // immediates are documented with each rewrite in docs/bytecode-isa.md.
  IntBinImm,        ///< ConstInt + IntBin, constant slot dead. Imm0 =
                    ///< OpKind, Imm1 = constant, Imm2 = which operand was
                    ///< the constant (0/1); the single remaining operand is
                    ///< the variable side.
  WaitFused,        ///< MBarrierWait + MBarrierWaitBlock: issue + block in
                    ///< one dispatch. Operands = (bar, idx, parity).
  WaitRead,         ///< MBarrierWait + MBarrierWaitBlock + SmemRead.
                    ///< Operands = (bar, idx, parity, smem, slot); Imm2/
                    ///< Imm3/ResultTy/Result = the SmemRead's fields.
  TmaLoadAsyncOff,  ///< AddPtr + TmaLoadAsync address chain. Operands =
                    ///< (ptr, off, offsets..., smem, bar, idx); FImm = the
                    ///< AddPtr's cost; rest = the TmaLoadAsync's fields.
  LoopEndFast,      ///< LoopEnd, non-pipelined, yield slots disjoint from
                    ///< iter slots: the back edge skips the yield-gather
                    ///< staging entirely.
  ConstIntBin,      ///< ConstInt + IntBin, constant slot still live: the
                    ///< write is kept (Imm3 = slot, Imm1 = value), the
                    ///< binop keeps both operand slots.
  IntBin2,          ///< IntBin + IntBin. Imm0/Imm1 = the two OpKinds,
                    ///< Result/Imm3 = the two destinations, Cost/FImm =
                    ///< the two costs, MsgId/Aux = the two diagnostics;
                    ///< operands = (a, b, c, d).
  FloatBin2,        ///< FloatBin + FloatBin, same layout as IntBin2
                    ///< (minus diagnostics).
  WgmmaIssueWait,   ///< WgmmaIssue + WgmmaWait. Issue fields plus Imm1 =
                    ///< the wait's pending count.
  TmaLoadAsyncTx,   ///< MBarrierExpectTx + TmaLoadAsync. Operands =
                    ///< (txbar, txidx, desc, offsets..., smem, bar, idx);
                    ///< FImm = expected transaction bytes; rest = the
                    ///< TmaLoadAsync's fields.

  // Second-pass superinstructions: fusions over first-pass
  // superinstructions (the ring-index math compiles to IntBinImm chains;
  // a two-field staging slot is one wait plus two reads).
  IntBinImm2,       ///< IntBinImm + IntBinImm. Imm0 = K1 | K2<<16 |
                    ///< pos1<<32 | pos2<<33; Imm1/Imm2 = the constants,
                    ///< Result/Imm3 = destinations, Cost/FImm = costs,
                    ///< MsgId/Aux = diagnostics; operands = (var1, var2).
  ConstIntBin2,     ///< ConstIntBin + IntBin. ConstIntBin's fields plus
                    ///< Imm2 = K2 | R2<<16, FImm = cost2, Aux = msg2;
                    ///< operands = (a, b, c, d).
  WaitRead2,        ///< WaitRead + SmemRead: one wait, two staging-field
                    ///< reads. Operands = (bar, idx, parity, smem1, slot1,
                    ///< smem2, slot2); Imm0/Imm1/ResultTy2 = the second
                    ///< read's result slot / field index / tile type.

  //===--- Cross-CTA reduction / ragged-batch surface (split-K, MoE) ------===//
  AtomicAdd,        ///< (ptrs, values): record deferred f32 contributions
                    ///< into the CTA trace (Trace.h AtomicContrib); Imm0 =
                    ///< RMW bytes, FImm = cycle cost, both pre-replica-div.
  LoadScalar,       ///< (desc, index) -> i32: synchronous one-element read
                    ///< of a runtime tensor argument; FImm = cycle cost.
};

/// Number of opcodes (dispatch-table sizing, load-time opcode check). Keep
/// in sync with the last enumerator above.
constexpr int NumBcOps = static_cast<int>(BcOp::LoadScalar) + 1;

/// One flat instruction. Operand value slots live in
/// CompiledProgram::OperandSlots[OpBegin, OpBegin+NumOps).
struct Inst {
  BcOp Op = BcOp::Nop;
  uint8_t NumOps = 0;
  int32_t Result = -1;   ///< Destination slot, or -1.
  int32_t OpBegin = 0;   ///< Index into OperandSlots.
  int32_t Aux = -1;      ///< Loop id / pool id / packed small immediates.
  int32_t MsgId = -1;    ///< Index into Messages (diagnostics).
  int64_t Imm0 = 0, Imm1 = 0, Imm2 = 0, Imm3 = 0;
  double FImm = 0;       ///< Float immediate / pre-resolved cycle cost.
  double Cost = 0;       ///< Precomputed tensorOpCycles (pre replica div).
  TensorType *ResultTy = nullptr; ///< Result tensor type (materialization).
  Type *ElemTy = nullptr;         ///< Storage element type (rounding).
  TensorType *ResultTy2 = nullptr;///< Second result type (WaitRead2 only).
};

/// Pre-resolved control-flow record of one scf.for.
struct LoopInfo {
  int32_t LbSlot = -1, UbSlot = -1, StepSlot = -1, IvSlot = -1;
  std::vector<int32_t> InitSlots; ///< Loop-entry copies into IterSlots.
  std::vector<int32_t> IterSlots; ///< Block-argument slots (per iteration).
  std::vector<int32_t> YieldSlots;///< Gathered at LoopEnd into IterSlots.
  std::vector<int32_t> ResultSlots;///< Loop results (written at exit).
  bool Pipelined = false; ///< Software-pipelined tile loop: emits
                          ///< IterMark/CtaSync per iteration.
  int32_t BodyPc = 0;     ///< First body instruction.
  int32_t ExitPc = 0;     ///< Instruction after LoopEnd.
};

/// One region's flat instruction stream (always Halt-terminated).
struct RegionProgram {
  std::vector<Inst> Code;
};

/// Rewrite counters of the peephole fusion pass (Peephole.h). Recorded on
/// the program (and serialized with it) so benchmarks can report the static
/// fusion coverage of the exact program they executed.
struct FusionStats {
  int64_t InstsBefore = 0;   ///< Static instructions before fusion.
  int64_t InstsAfter = 0;    ///< Static instructions after fusion.
  int64_t NumIntBinImm = 0;
  int64_t NumWaitFused = 0;
  int64_t NumWaitRead = 0;
  int64_t NumTmaLoadAsyncOff = 0;
  int64_t NumLoopEndFast = 0;
  int64_t NumConstIntBin = 0;
  int64_t NumIntBin2 = 0;
  int64_t NumFloatBin2 = 0;
  int64_t NumWgmmaIssueWait = 0;
  int64_t NumTmaLoadAsyncTx = 0;
  int64_t NumIntBinImm2 = 0;   ///< Covers 4 original instructions.
  int64_t NumConstIntBin2 = 0; ///< Covers 3 original instructions.
  int64_t NumWaitRead2 = 0;    ///< Covers 4 original instructions.

  /// Fraction of the original static instructions consumed by (or
  /// specialized into) superinstructions. Pass-2 counters already exclude
  /// the pass-1 superinstructions they absorbed.
  double coverage() const {
    int64_t Covered = 2 * NumIntBinImm + 2 * NumWaitFused + 3 * NumWaitRead +
                      2 * NumTmaLoadAsyncOff + NumLoopEndFast +
                      2 * NumConstIntBin + 2 * NumIntBin2 +
                      2 * NumFloatBin2 + 2 * NumWgmmaIssueWait +
                      2 * NumTmaLoadAsyncTx + 4 * NumIntBinImm2 +
                      3 * NumConstIntBin2 + 4 * NumWaitRead2;
    return InstsBefore > 0
               ? static_cast<double>(Covered) /
                     static_cast<double>(InstsBefore)
               : 0.0;
  }
};

/// Static description of one warp-group agent.
struct AgentInfo {
  int64_t Replicas = 1;
  /// Replica index within the cooperative group (warp_group "replica"
  /// attr): atomic contributions are recorded only by replica 0, since the
  /// replicas redundantly execute the same epilogue.
  int64_t Replica = 0;
  std::string Role;
};

/// The whole lowered module, ready to execute any number of CTAs. Immutable
/// after compilation; safe to share across Runner calls (the program cache)
/// and across CTA executions.
struct CompiledProgram {
  std::string CompileError;  ///< Non-empty: surfaced by the first runCta.

  int64_t SwPipelineDepth = 0;
  int32_t NumSlots = 0;
  std::vector<int32_t> ArgSlots; ///< Slot of each function argument.

  RegionProgram Preamble;
  std::vector<RegionProgram> Agents;
  std::vector<AgentInfo> AgentInfos;

  std::vector<LoopInfo> Loops;
  std::vector<int32_t> OperandSlots;
  std::vector<std::vector<int64_t>> IntVecs;
  std::vector<std::string> Messages;

  /// Sorted distinct slot_offset values across all staging accesses: the
  /// flat field space of every shared-memory staging buffer. A buffer's
  /// store is a dense vector of NumSlots * SlotOffsets.size() tensors —
  /// the open-addressing replacement for the legacy ordered map.
  std::vector<int64_t> SlotOffsets;

  /// Machine parameters baked into precomputed costs (kept for the executor's
  /// runtime costs: barrier ops, syncs).
  GpuConfig Config;

  /// Whether the peephole fusion pass ran on this program (Peephole.h), and
  /// its rewrite counters. Fused and unfused programs are distinct
  /// program-cache entries — the Runner folds the fusion flag into the
  /// compile key — so one can never be executed in place of the other.
  bool Fused = false;
  FusionStats Fusion;

  /// Each loop's slot classification for the executor's period skip
  /// (LoopPeriod.h), never serialized. Derived from the instructions by
  /// the first timing run of two or more agents, so compiles, cache loads
  /// and functional-only programs never pay for it; thread-safe.
  const LoopPeriods &periods() const {
    std::call_once(PeriodsOnce,
                   [this] { Periods = classifyLoopPeriods(*this); });
    return Periods;
  }
  mutable std::once_flag PeriodsOnce;
  mutable LoopPeriods Periods;

  /// For deserialized programs only: the private type context owning every
  /// TensorType/Type the instructions reference (programs compiled from a
  /// module borrow the module's context instead, pinned alive by the
  /// program cache entry).
  std::shared_ptr<IrContext> TypeCtx;
};

/// Flattens \p M for execution under \p Config. Never fails on unsupported
/// ops (they become Unsupported instructions that only error if executed, so
/// diagnostics match the legacy engine); structural problems are reported
/// via CompiledProgram::CompileError. When \p Fuse is set the peephole
/// fusion pass (Peephole.h) rewrites the instruction streams into
/// superinstructions — observably identical execution (the three-way
/// differential test), fewer dispatches.
std::shared_ptr<const CompiledProgram>
compileModule(Module &M, const GpuConfig &Config, bool Fuse = true);

/// Executes CTA (PidX, PidY). Returns "" on success or a diagnostic; the
/// trace is valid only on success. Mirrors the legacy engine observably:
/// identical numerics, traces, violations and deadlock reports.
///
/// \p Arena (optional) backs every tile payload this CTA produces and is
/// reset on entry, so a caller-owned arena reuses its chunks across CTAs
/// (the per-worker pattern of Interpreter::runGrid). Each concurrent
/// executeProgram call needs its own arena — the arena does no locking.
/// When null, a run-local arena is used (correct, but pays chunk setup per
/// CTA).
std::string executeProgram(const CompiledProgram &P, const RunOptions &Opts,
                           int64_t PidX, int64_t PidY, CtaTrace &Out,
                           TileArena *Arena = nullptr);

//===----------------------------------------------------------------------===//
// Binary serialization (the disk layer of support/ProgramCache)
//===----------------------------------------------------------------------===//

/// On-disk format version of serializeProgram. Bump on ANY layout change —
/// opcode renumbering, Inst field changes, cost-model semantics — and every
/// existing cache file silently falls back to recompilation.
///
/// v2: superinstruction opcodes (IntBinImm, WaitFused, WaitRead,
/// TmaLoadAsyncOff, LoopEndFast) plus the CompiledProgram::Fused flag and
/// FusionStats counters in the header.
///
/// v3: AtomicAdd/LoadScalar opcodes (split-K and grouped/MoE families) and
/// the atomic-reduction cost fields appended to the GpuConfig block.
constexpr uint32_t SerialFormatVersion = 3;

/// Serializes \p P into a self-contained, versioned binary blob: magic +
/// format version, the machine config its costs were precomputed from (the
/// analytic cost-model constants), every instruction stream with operand
/// slots and pre-resolved loop targets, the materialized attribute pools,
/// and a type table replacing the raw TensorType/Type pointers; terminated
/// by a checksum over the whole payload. \p P must have compiled cleanly
/// (no CompileError).
std::string serializeProgram(const CompiledProgram &P);

/// Reconstructs a program from serializeProgram's output. Returns null on
/// ANY defect — wrong magic, other format version, truncation, trailing
/// garbage, checksum mismatch — so callers fall back to recompilation
/// rather than executing a corrupt program. On success the program owns a
/// private type context (CompiledProgram::TypeCtx) and is immediately
/// executable without a Module.
std::shared_ptr<const CompiledProgram>
deserializeProgram(const std::string &Bytes);

/// Stable digest of every machine-config field that serializeProgram bakes
/// into precomputed costs. Cache keys and file names include it, so two
/// configs never alias a cache entry.
uint64_t configDigest(const GpuConfig &Config);

} // namespace bc
} // namespace sim
} // namespace tawa

#endif // TAWA_SIM_BYTECODE_H
