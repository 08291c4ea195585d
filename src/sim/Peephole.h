//===- Peephole.h - Bytecode superinstruction fusion ------------*- C++ -*-===//
//
// Post-compile peephole pass over a CompiledProgram's flat instruction
// streams: adjacent hot instruction pairs/triples are rewritten into single
// superinstruction opcodes (Bytecode.h's IntBinImm, WaitFused, WaitRead,
// TmaLoadAsyncOff) and the LoopEnd back edge is specialized for the
// dominant single-yield shape (LoopEndFast). The fusion set was chosen
// from measured dynamic opcode-pair counts, not guessed — see
// docs/bytecode-isa.md for the patterns and the full legality rules.
//
// Every rewrite is observably identical to the sequence it replaces:
// identical numerics, trace event sequences, happens-before counts and
// diagnostics (the three-way differential in tests/bytecode_diff_test.cpp
// proves it against both the unfused bytecode engine and the legacy
// tree-walking oracle). Fusion legality is therefore conservative:
//
//   * the fused-over instructions must be straight-line — no instruction
//     after the first may be a control-flow target (a loop's BodyPc or
//     ExitPc), so a pair split across a LoopBegin/LoopEnd boundary is
//     never fused;
//   * when a rewrite elides the first instruction's destination slot
//     (IntBinImm, TmaLoadAsyncOff), that slot must be dead afterwards:
//     read exactly once in the whole program (by the fused consumer) and
//     referenced by no loop record or argument binding;
//   * an mbarrier wait with a predicate-extended operand list (anything
//     but the canonical 3 operands) is left unfused.
//
//===----------------------------------------------------------------------===//

#ifndef TAWA_SIM_PEEPHOLE_H
#define TAWA_SIM_PEEPHOLE_H

namespace tawa {
namespace sim {
namespace bc {

struct CompiledProgram;
struct FusionStats;

/// Rewrites every region program of \p P in place (appending fused operand
/// tuples to P.OperandSlots and remapping loop BodyPc/ExitPc targets),
/// marks P.Fused, and returns the rewrite counters. Idempotent in effect:
/// superinstructions never match another pattern's head, so re-running
/// finds nothing new.
FusionStats fuseProgram(CompiledProgram &P);

/// The effective fusion switch: \p Requested (RunOptions::FuseBytecode /
/// Runner::FuseBytecode, default on) unless the TAWA_NO_FUSE environment
/// variable is set — the CI kill switch scripts/check.sh uses to run the
/// whole suite unfused.
bool fusionEnabled(bool Requested);

} // namespace bc
} // namespace sim
} // namespace tawa

#endif // TAWA_SIM_PEEPHOLE_H
