//===- LoopPeriod.h - Repeated periods of warp-specialized loops -*- C++ -*-===//
//
// In a warp-specialized main loop every agent repeats one wait / copy /
// MMA / release pattern, and a D-slot aref ring's slots and phases cycle
// every 2D iterations. So once the loop reaches steady state, the CTA's
// state at the start of a round (one round-robin pass of the scheduler
// over its agents) repeats every few rounds, up to counters that only
// move on. In timing mode the executor then interprets one period and
// copies it: this file classifies each loop's integer slots so that the
// executor (Executor.cpp, BcExec::skipPeriods) can prove the copies exact.
//
// The state. At a round's start every live agent is blocked at a wait:
// its pc, wait condition, pending CUDA cycles, slot values and step count;
// every mbarrier's completions, arrivals and transaction bytes; every
// staging slot's monitor; the happens-before tracker's vector clocks. A
// round is a function of that state. Functional mode never skips, and
// neither do programs of one agent (non-warp-specialized kernels, about
// 2% of a figures pass) or of more than 64.
//
// What drifts. Take an agent in a leaf loop (no loop nested in its body)
// and the slots its body writes. In timing mode a tensor slot holds no
// payload and a float reaches nothing observable, so only integers
// matter. Each integer slot of the loop is
//   invariant  the same value every iteration (constants, values defined
//              outside the loop);
//   affine     moving by a loop-invariant amount per iteration (the
//              induction variable, the ring counter `tawa.counter_arg`,
//              sums, differences and invariant multiples of those);
//   quotient   an affine value divided by a constant, plus invariants:
//              monotone, and moving by exactly D/c per period when the
//              divisor c divides the affine move D and the dividend keeps
//              its sign;
//   periodic   a remainder by a constant of an affine or quotient value
//              (the barrier index k % D and the phase (k / D + 1) % 2), or
//              any value computed from periodic, threshold and invariant
//              values only: it repeats when c divides the move and the
//              operand keeps its sign;
//   threshold  a comparison of an affine or quotient value with an
//              invariant (the release predicate 0 < k): monotone, so it
//              flips at most once;
//   opaque     a tensor or float value: in timing mode its payload is null
//              or unread, and its handle is copied from a loop-invariant
//              handle, never computed;
//   unknown    anything else.
// An iteration argument is invariant when it yields itself or a value
// that does not depend on it; affine when it yields itself plus an
// invariant; otherwise it takes the class of a yield that does not depend
// on it, from one iteration later. Classes are assigned only from classes
// already proven (no optimistic fixpoint), and WarmIters counts the
// iterations before every class holds.
//
// Timing-visible uses, read from the handlers in Executor.cpp, fused
// opcodes included (these are the only places a slot's integer reaches an
// action, a branch or a failure):
//   * the loop's own bound test at LoopEnd / LoopEndFast (induction
//     variable against the invariant upper bound);
//   * the (handle, index) of MBarrierExpectTx, of MBarrierArrive and its
//     predicate, and the (handle, index, parity) of every wait:
//     MBarrierWait, MBarrierWaitBlock, WaitFused, WaitRead, WaitRead2;
//   * the staging (handle, slot) of SmemRead, WaitRead and WaitRead2;
//   * the (staging, barrier, index) operands of TmaLoadAsync,
//     TmaLoadAsyncOff and TmaLoadAsyncTx, and TmaLoadAsyncTx's expect-tx
//     (barrier, index);
//   * the divisor of DivSI and RemSI (an integer op that can fail).
// The other operands — TMA offsets and descriptors, store values and
// pointers, LoadScalar's index, every tensor operand — are read only in
// functional mode. Every emitted Action field comes from an immediate, the
// machine config, the replica count, the pending CUDA cycles or one of the
// uses above. A loop is eligible when every use above reads an invariant,
// periodic or threshold slot, no iteration argument is unknown, and the
// body allocates nothing and holds no nested loop, halt or unsupported op.
//
// The argument. Let snapshots at rounds r-p and r agree on everything but
// the drifting counters: same pcs, wait conditions, pending cycles, loop
// instances, periodic and threshold values, barrier parities, arrivals
// and transaction bytes, slot monitors, and happens-before clocks taken
// relative to each agent's own event count (below). Let tau move every
// affine and quotient slot, step count, barrier completion count, clock
// and event count on by its change from r-p to r. A round's transition
// commutes with tau as long as every remainder and quotient divisor
// divides its operand's move, every divided operand keeps its sign, no
// threshold flips and no loop exits: then every periodic value, branch,
// wait outcome and emitted action is the same at corresponding points.
// So rounds r .. r+p repeat rounds r-p .. r shifted by tau, and by
// induction the next n periods do too. The executor appends each agent's
// last period of actions n more times and applies tau n times. It picks n
// so that, over the whole range, every threshold and every divided
// operand's sign stays put (monotone values: checking both ends
// suffices), every agent's loop still takes its back edge for one more
// period, no step count passes MaxSteps (a watchdog trip then happens at
// the same step with the same diagnostic, interpreted) and no counter
// nears overflow. Violations reached in a copied period would have been
// reached in the interpreted one, so the executor never skips once one
// is recorded.
//
// Happens-before clocks. A stored clock component X[b] (a slot's publish,
// free or last-read clock) that is at most every live agent's own entry
// C[a][b] can never fail a leq against a live agent's clock, nor raise one
// through a join, and a join into it takes the agent's value: its value is
// unobservable. The tracker therefore fingerprints such components as
// saturated and leaves them alone when it advances, and moves every other
// component by n times its column's change. Without saturation, attention's
// Q slot, published once and never refreshed, drifts against the agents'
// growing counts and no period ever repeats.
//
// Tests. tests/bytecode_diff_test.cpp (LoopPeriods.*) compares the
// executor with the tree-walking oracle, which interprets every iteration,
// on long warp-specialized loops and on hand-built loops where a naive skip
// goes wrong.
//
//===----------------------------------------------------------------------===//

#ifndef TAWA_SIM_LOOPPERIOD_H
#define TAWA_SIM_LOOPPERIOD_H

#include <cstdint>
#include <vector>

namespace tawa {
namespace sim {
namespace bc {

struct CompiledProgram;

/// An integer operand of a classified op: a slot, or an immediate when
/// Slot < 0.
struct PeriodOperand {
  int32_t Slot = -1;
  int64_t Imm = 0;
};

/// A remainder or quotient by Divisor of the Operand-th shift slot: the
/// divisor must divide that slot's move and the operand keep its sign.
struct PeriodDivision {
  int32_t Operand = 0; ///< Index into LoopPeriod::Shift.
  PeriodOperand Divisor;
};

/// A comparison of the Operand-th shift slot with an invariant Bound:
/// `shift < Bound` when ShiftOnLeft, `Bound < shift` otherwise.
struct PeriodThreshold {
  int32_t Operand = 0; ///< Index into LoopPeriod::Shift.
  PeriodOperand Bound;
  bool ShiftOnLeft = true;
};

/// The classification of one loop.
struct LoopPeriod {
  bool Eligible = false;
  /// Iterations after which every class holds (iteration arguments that
  /// take their class from a yield hold it one iteration later).
  int32_t WarmIters = 0;
  /// Affine and quotient slots; the induction variable comes first.
  std::vector<int32_t> Shift;
  /// Periodic and threshold slots: fingerprinted, never moved.
  std::vector<int32_t> Periodic;
  std::vector<PeriodDivision> Divisions;
  std::vector<PeriodThreshold> Thresholds;
};

/// Every loop's classification plus, per agent region, the innermost loop
/// at each pc (-1 outside loops). Derived data, never serialized: the
/// executor computes it once per program (CompiledProgram::periods()).
struct LoopPeriods {
  std::vector<LoopPeriod> Loops;              ///< Parallel to P.Loops.
  std::vector<std::vector<int32_t>> AgentLoopAt; ///< Parallel to P.Agents.
};

LoopPeriods classifyLoopPeriods(const CompiledProgram &P);

} // namespace bc
} // namespace sim
} // namespace tawa

#endif // TAWA_SIM_LOOPPERIOD_H
