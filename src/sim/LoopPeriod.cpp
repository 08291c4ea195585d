//===- LoopPeriod.cpp - Classification of loop slots (LoopPeriod.h) -------===//

#include "sim/LoopPeriod.h"

#include "ir/Ops.h"
#include "sim/Bytecode.h"

#include <algorithm>

using namespace tawa;
using namespace tawa::sim;
using namespace tawa::sim::bc;

namespace {

enum class Cls : uint8_t { Inv, Aff, Quot, Per, Thr, Opaque, Unknown };

bool isShift(Cls C) { return C == Cls::Aff || C == Cls::Quot; }
bool isRepeating(Cls C) {
  return C == Cls::Inv || C == Cls::Per || C == Cls::Thr;
}

/// One slot write of a (possibly fused) instruction in timing mode.
struct Def {
  enum class Kind : uint8_t { Inv, Binary, Opaque } K;
  int32_t Result;
  OpKind Op = OpKind::AddI;
  PeriodOperand A, B;
};

PeriodOperand slotOp(int32_t Slot) {
  PeriodOperand O;
  O.Slot = Slot;
  return O;
}

PeriodOperand immOp(int64_t Imm) {
  PeriodOperand O;
  O.Imm = Imm;
  return O;
}

/// Appends \p I's slot writes to \p Defs and the slots its timing-visible
/// uses read to \p Sinks (LoopPeriod.h lists them). Returns false for an
/// instruction that makes its loop ineligible.
bool decode(const CompiledProgram &P, const Inst &I, std::vector<Def> &Defs,
            std::vector<int32_t> &Sinks) {
  // A deserialized program is trusted by checksum only: any operand or
  // result out of range makes the loop ineligible instead of indexing out
  // of bounds.
  bool Bad = false;
  auto Checked = [&](int64_t Slot) {
    Bad |= Slot < 0 || Slot >= P.NumSlots;
    return Bad ? 0 : static_cast<int32_t>(Slot);
  };
  auto Op = [&](int64_t K) {
    size_t At = static_cast<size_t>(I.OpBegin) + static_cast<size_t>(K);
    Bad |= I.OpBegin < 0 || K < 0 || K >= I.NumOps ||
           At >= P.OperandSlots.size();
    return Checked(Bad ? -1 : P.OperandSlots[At]);
  };
  auto Inv = [&](int64_t Slot) {
    Defs.push_back({Def::Kind::Inv, Checked(Slot), OpKind::AddI, {}, {}});
  };
  auto Bin = [&](int64_t Slot, int64_t K, PeriodOperand A, PeriodOperand B) {
    OpKind BinOp = static_cast<OpKind>(K);
    Defs.push_back({Def::Kind::Binary, Checked(Slot), BinOp, A, B});
    if ((BinOp == OpKind::DivSI || BinOp == OpKind::RemSI) && B.Slot >= 0)
      Sinks.push_back(B.Slot); // A divisor that reaches 0 fails the op.
  };
  auto Opaque = [&](int64_t Slot) {
    Defs.push_back({Def::Kind::Opaque, Checked(Slot), OpKind::AddI, {}, {}});
  };
  auto SinkOps = [&](std::initializer_list<int64_t> Ks) {
    for (int64_t K : Ks)
      Sinks.push_back(Op(K));
  };
  // TMA copy operands after the offsets: (staging, barrier, index).
  auto TmaSinks = [&](int64_t OpBase) {
    SinkOps({OpBase + I.Imm0, OpBase + 1 + I.Imm0, OpBase + 2 + I.Imm0});
  };
  switch (I.Op) {
  case BcOp::Nop:
  case BcOp::Fence:
  case BcOp::TmaStore:
  case BcOp::Store:
  case BcOp::AtomicAdd:
  case BcOp::WgmmaWait:
    return !Bad;
  case BcOp::ConstInt:
  case BcOp::ProgramId:
  case BcOp::NumPrograms:
  case BcOp::LoadScalar: // Reads no tensor in timing mode: always 0.
    Inv(I.Result);
    return !Bad;
  case BcOp::IntBin:
    Bin(I.Result, I.Imm0, slotOp(Op(0)), slotOp(Op(1)));
    return !Bad;
  case BcOp::IntBinImm:
    if (I.Imm2 == 0)
      Bin(I.Result, I.Imm0, immOp(I.Imm1), slotOp(Op(0)));
    else
      Bin(I.Result, I.Imm0, slotOp(Op(0)), immOp(I.Imm1));
    return !Bad;
  case BcOp::ConstIntBin:
    Inv(I.Imm3);
    Bin(I.Result, I.Imm0, slotOp(Op(0)), slotOp(Op(1)));
    return !Bad;
  case BcOp::IntBin2:
    Bin(I.Result, I.Imm0, slotOp(Op(0)), slotOp(Op(1)));
    Bin(I.Imm3, I.Imm1, slotOp(Op(2)), slotOp(Op(3)));
    return !Bad;
  case BcOp::IntBinImm2: {
    for (int Half = 0; Half < 2; ++Half) {
      int64_t K = (I.Imm0 >> (16 * Half)) & 0xffff;
      bool ConstLeft = ((I.Imm0 >> (32 + Half)) & 1) == 0;
      PeriodOperand C = immOp(Half == 0 ? I.Imm1 : I.Imm2);
      PeriodOperand V = slotOp(Op(Half));
      Bin(Half == 0 ? I.Result : I.Imm3, K,
          ConstLeft ? C : V, ConstLeft ? V : C);
    }
    return !Bad;
  }
  case BcOp::ConstIntBin2:
    Inv(I.Imm3);
    Bin(I.Result, I.Imm0 & 0xffff, slotOp(Op(0)), slotOp(Op(1)));
    Bin(I.Imm2 >> 16, I.Imm2 & 0xffff, slotOp(Op(2)),
        slotOp(Op(3)));
    return !Bad;
  case BcOp::FloatBin2:
    Opaque(I.Imm3);
    Opaque(I.Result);
    return !Bad;
  case BcOp::ConstFloat:
  case BcOp::FloatBin:
  case BcOp::ConstTensor:
  case BcOp::MakeRange:
  case BcOp::Splat:
  case BcOp::ExpandBroadcast:
  case BcOp::Transpose2D:
  case BcOp::Exp2:
  case BcOp::Select:
  case BcOp::Reduce:
  case BcOp::Cast:
  case BcOp::AddPtr:
  case BcOp::TmaLoad:
  case BcOp::Dot:
  case BcOp::WgmmaIssue:
  case BcOp::WgmmaIssueWait:
    Opaque(I.Result);
    return !Bad;
  case BcOp::SmemRead:
    SinkOps({0, 1});
    Opaque(I.Result);
    return !Bad;
  case BcOp::MBarrierExpectTx:
    SinkOps({0, 1});
    return !Bad;
  case BcOp::MBarrierArrive:
    SinkOps({0, 1});
    if (I.NumOps > 2)
      SinkOps({2});
    return !Bad;
  case BcOp::MBarrierWait:
  case BcOp::MBarrierWaitBlock:
  case BcOp::WaitFused:
    SinkOps({0, 1, 2});
    return !Bad;
  case BcOp::WaitRead:
    SinkOps({0, 1, 2, 3, 4});
    Opaque(I.Result);
    return !Bad;
  case BcOp::WaitRead2:
    SinkOps({0, 1, 2, 3, 4, 5, 6});
    Opaque(I.Result);
    Opaque(I.Imm0);
    return !Bad;
  case BcOp::TmaLoadAsync:
    TmaSinks(1);
    return !Bad;
  case BcOp::TmaLoadAsyncOff:
    TmaSinks(2);
    return !Bad;
  case BcOp::TmaLoadAsyncTx:
    SinkOps({0, 1});
    TmaSinks(3);
    return !Bad;
  case BcOp::LoopBegin:
  case BcOp::LoopEnd:
  case BcOp::LoopEndFast:
  case BcOp::Unsupported:
  case BcOp::Halt:
  case BcOp::SmemAlloc:
  case BcOp::MBarrierAlloc:
    return false;
  }
  return false;
}

struct SlotClass {
  Cls C = Cls::Inv; ///< Slots the loop does not write are invariant.
  int32_t Depth = 0;
};

/// The class of an IntBin-family op of kind \p K over \p A and \p B.
Cls classifyBinary(OpKind K, Cls A, Cls B) {
  if (A == Cls::Opaque || B == Cls::Opaque)
    return Cls::Opaque; // Elementwise: a tensor in, a tensor out.
  if (A == Cls::Unknown || B == Cls::Unknown)
    return Cls::Unknown;
  if (A == Cls::Inv && B == Cls::Inv)
    return Cls::Inv;
  if (isRepeating(A) && isRepeating(B))
    return Cls::Per;
  bool InvA = A == Cls::Inv, InvB = B == Cls::Inv;
  switch (K) {
  case OpKind::AddI:
  case OpKind::SubI:
    if ((A == Cls::Aff && (B == Cls::Aff || InvB)) ||
        (InvA && B == Cls::Aff))
      return Cls::Aff;
    if ((A == Cls::Quot && InvB) || (InvA && B == Cls::Quot))
      return Cls::Quot;
    return Cls::Unknown;
  case OpKind::MulI:
    return (A == Cls::Aff && InvB) || (InvA && B == Cls::Aff) ? Cls::Aff
                                                              : Cls::Unknown;
  case OpKind::DivSI:
    return A == Cls::Aff && InvB ? Cls::Quot : Cls::Unknown;
  case OpKind::RemSI:
    return isShift(A) && InvB ? Cls::Per : Cls::Unknown;
  case OpKind::CmpSlt:
    return (isShift(A) && InvB) || (InvA && isShift(B)) ? Cls::Thr
                                                        : Cls::Unknown;
  default:
    return Cls::Unknown;
  }
}

LoopPeriod classifyLoop(const CompiledProgram &P, const LoopInfo &L,
                        const std::vector<Inst> &Code) {
  LoopPeriod Out;
  auto InRange = [&](int32_t Slot) { return Slot >= 0 && Slot < P.NumSlots; };
  if (L.BodyPc < 0 || L.ExitPc > static_cast<int32_t>(Code.size()) ||
      !InRange(L.IvSlot) || !InRange(L.LbSlot) || !InRange(L.UbSlot) ||
      !InRange(L.StepSlot) || L.IterSlots.size() != L.YieldSlots.size() ||
      !std::all_of(L.IterSlots.begin(), L.IterSlots.end(), InRange) ||
      !std::all_of(L.YieldSlots.begin(), L.YieldSlots.end(), InRange))
    return Out;
  std::vector<Def> Defs;
  std::vector<int32_t> Sinks;
  for (int32_t Pc = L.BodyPc; Pc + 1 < L.ExitPc; ++Pc)
    if (!decode(P, Code[Pc], Defs, Sinks))
      return Out;

  std::vector<SlotClass> Slots(P.NumSlots);
  std::vector<int32_t> DefOf(P.NumSlots, -1);
  for (size_t D = 0; D < Defs.size(); ++D)
    DefOf[Defs[D].Result] = static_cast<int32_t>(D);
  auto ClassOf = [&](const PeriodOperand &O) {
    return O.Slot < 0 ? SlotClass() : Slots[O.Slot];
  };

  // Iteration arguments start unresolved (evaluated as unknown) and are
  // resolved only from classes already proven.
  size_t NumIter = L.IterSlots.size();
  std::vector<SlotClass> Iter(NumIter, SlotClass{Cls::Unknown, 0});
  std::vector<bool> Resolved(NumIter, false);
  auto Evaluate = [&] {
    for (size_t K = 0; K < NumIter; ++K)
      Slots[L.IterSlots[K]] = Iter[K];
    Slots[L.IvSlot] = SlotClass{Cls::Aff, 0};
    for (const Def &D : Defs) {
      SlotClass &R = Slots[D.Result];
      if (D.K == Def::Kind::Inv) {
        R = SlotClass();
      } else if (D.K == Def::Kind::Opaque) {
        R = SlotClass{Cls::Opaque, 0};
      } else {
        SlotClass A = ClassOf(D.A), B = ClassOf(D.B);
        R = SlotClass{classifyBinary(D.Op, A.C, B.C),
                      std::max(A.Depth, B.Depth)};
      }
    }
  };
  for (bool Changed = true; Changed;) {
    Changed = false;
    Evaluate();
    for (size_t K = 0; K < NumIter; ++K) {
      if (Resolved[K])
        continue;
      int32_t It = L.IterSlots[K], Y = L.YieldSlots[K];
      const Def *YD = DefOf[Y] >= 0 ? &Defs[DefOf[Y]] : nullptr;
      if (Y == It) {
        Iter[K] = SlotClass();
      } else if (YD && YD->K == Def::Kind::Binary &&
                 (YD->Op == OpKind::AddI || YD->Op == OpKind::SubI) &&
                 ((YD->A.Slot == It && ClassOf(YD->B).C == Cls::Inv) ||
                  (YD->Op == OpKind::AddI && YD->B.Slot == It &&
                   ClassOf(YD->A).C == Cls::Inv))) {
        // It + invariant: affine from the first iteration on.
        const PeriodOperand &Step = YD->A.Slot == It ? YD->B : YD->A;
        Iter[K] = SlotClass{Cls::Aff, ClassOf(Step).Depth};
      } else if (Slots[Y].C != Cls::Unknown) {
        Iter[K] = SlotClass{Slots[Y].C, Slots[Y].Depth + 1};
      } else {
        continue;
      }
      Resolved[K] = true;
      Changed = true;
    }
  }
  Evaluate();

  // Eligibility: every timing-visible use reads a repeating value, the
  // bound test compares the affine induction variable with invariants,
  // and no iteration argument is unknown.
  for (int32_t S : Sinks)
    if (!isRepeating(Slots[S].C))
      return Out;
  if (Slots[L.UbSlot].C != Cls::Inv || Slots[L.StepSlot].C != Cls::Inv ||
      Slots[L.LbSlot].C != Cls::Inv)
    return Out;
  for (size_t K = 0; K < NumIter; ++K)
    if (Iter[K].C == Cls::Unknown)
      return Out;

  // The written slots: induction variable first, then the iteration
  // arguments, then the body's results in program order.
  std::vector<int32_t> Written = {L.IvSlot};
  Written.insert(Written.end(), L.IterSlots.begin(), L.IterSlots.end());
  for (const Def &D : Defs)
    Written.push_back(D.Result);
  std::vector<int32_t> ShiftIdx(P.NumSlots, -1);
  for (int32_t S : Written) {
    const SlotClass &C = Slots[S];
    Out.WarmIters = std::max(Out.WarmIters, C.Depth);
    if (isShift(C.C) && ShiftIdx[S] < 0) {
      ShiftIdx[S] = static_cast<int32_t>(Out.Shift.size());
      Out.Shift.push_back(S);
    } else if ((C.C == Cls::Per || C.C == Cls::Thr) &&
               std::find(Out.Periodic.begin(), Out.Periodic.end(), S) ==
                   Out.Periodic.end()) {
      Out.Periodic.push_back(S);
    }
  }
  for (const Def &D : Defs) {
    if (D.K != Def::Kind::Binary)
      continue;
    Cls R = Slots[D.Result].C, A = ClassOf(D.A).C;
    if ((R == Cls::Quot && D.Op == OpKind::DivSI) ||
        (R == Cls::Per && D.Op == OpKind::RemSI && isShift(A)))
      Out.Divisions.push_back({ShiftIdx[D.A.Slot], D.B});
    else if (R == Cls::Thr && D.Op == OpKind::CmpSlt)
      Out.Thresholds.push_back(
          isShift(A) ? PeriodThreshold{ShiftIdx[D.A.Slot], D.B, true}
                     : PeriodThreshold{ShiftIdx[D.B.Slot], D.A, false});
  }
  Out.Eligible = true;
  return Out;
}

} // namespace

LoopPeriods tawa::sim::bc::classifyLoopPeriods(const CompiledProgram &P) {
  LoopPeriods Out;
  Out.Loops.resize(P.Loops.size());
  for (const RegionProgram &RP : P.Agents) {
    std::vector<int32_t> LoopAt(RP.Code.size(), -1);
    std::vector<int32_t> Open;
    for (size_t Pc = 0; Pc < RP.Code.size(); ++Pc) {
      const Inst &I = RP.Code[Pc];
      if (I.Op == BcOp::LoopEnd || I.Op == BcOp::LoopEndFast) {
        LoopAt[Pc] = I.Aux;
        if (!Open.empty())
          Open.pop_back();
        continue;
      }
      LoopAt[Pc] = Open.empty() ? -1 : Open.back();
      if (I.Op == BcOp::LoopBegin)
        Open.push_back(I.Aux);
    }
    // Leaf loops only: decode() refuses a nested LoopBegin.
    for (size_t Pc = 0; Pc < RP.Code.size(); ++Pc) {
      int32_t Id = RP.Code[Pc].Aux;
      if (RP.Code[Pc].Op == BcOp::LoopBegin && Id >= 0 &&
          Id < static_cast<int32_t>(P.Loops.size()))
        Out.Loops[Id] = classifyLoop(P, P.Loops[Id], RP.Code);
    }
    Out.AgentLoopAt.push_back(std::move(LoopAt));
  }
  return Out;
}
