//===- CoarsePipeline.cpp - Coarse-grained T/C/U pipelining (§III-D2) ---------//
//
// Implements Algorithm 1: loops whose body decomposes into a Tensor Core
// stage T (first dot), a CUDA Core transform C (softmax-style math on T's
// output), and a downstream Tensor Core stage U (second dot) are rotated so
// that iteration j overlaps T_j (tensor cores) with C_{j-1} (CUDA cores):
//
//   prologue:   issue T_0; wait; consumed(K_0)
//   steady j:   issue T_j
//               wait {pendings=1}            // U_{j-2} retired
//               consumed(V_{j-2})            // predicated j >= 2
//               compute C_{j-1}              // overlaps T_j
//               get V_{j-1}; issue U_{j-1}
//               wait {pendings=1}            // T_j retired
//               consumed(K_j)
//   epilogue:   wait; consumed(V_{N-2}); C_{N-1}; issue U_{N-1};
//               wait; consumed(V_{N-1})
//
// Stage identification uses dialect/type cues exactly as §III-D2 describes:
// tensor-core ops and their glue form T (and U when a second tensor-core
// phase exists); float math reading T's output forms C. Aref-use inspection
// decides which stages perform gets/consumed (the MAYBEAREF_* wrappers: a
// stage with no cross-WG reads simply has no get to emit).
//
// Precondition: the loop runs at least one iteration (true for every
// attention launch: there is always at least one KV tile).
//
//===----------------------------------------------------------------------===//

#include "ir/Builder.h"
#include "ir/Ir.h"
#include "passes/Passes.h"
#include "passes/Utils.h"
#include "support/Support.h"

#include <algorithm>

using namespace tawa;

namespace {

struct StageInfo {
  std::vector<Operation *> TOps;    ///< In body program order.
  std::vector<Operation *> COps;    ///< In body program order.
  std::vector<Operation *> UOps;    ///< In body program order.
  std::vector<Operation *> PostOps; ///< Iteration updates, program order.
  Operation *Dot1 = nullptr;
  Operation *Dot2 = nullptr;
  Value *ArefK = nullptr; ///< Channel acquired by T.
  Value *ArefV = nullptr; ///< Channel acquired by U.
  std::vector<unsigned> StateArgs; ///< Iter args updated by C/U.
  std::vector<unsigned> IterArgs;  ///< Iter args updated by POST.
  std::vector<Value *> CrossVals;  ///< Prev-iteration values C/U read.
};

class CoarsePipeliner {
public:
  CoarsePipeliner(IrContext &Ctx) : Ctx(Ctx) {}

  std::string runOnLoop(WarpGroupOp *WG, ForOp *Loop);

private:
  bool classify(ForOp *Loop, StageInfo &Info);
  /// Clones \p Ops in order with \p Map, converting dots to async issues.
  /// Returns the mapped value of the last dot's result if any.
  void cloneSection(const std::vector<Operation *> &Ops, ValueMap &Map,
                    OpBuilder &B);

  IrContext &Ctx;
};

} // namespace

/// Splits the loop body into T/C/U/POST stages. Returns false when the body
/// does not have the two-dot structure (then the fine-grained pass applies
/// instead).
bool CoarsePipeliner::classify(ForOp *Loop, StageInfo &Info) {
  Block &Body = Loop->getBody();
  std::vector<Operation *> Dots;
  for (Operation &Op : Body)
    if (Op.getKind() == OpKind::Dot)
      Dots.push_back(&Op);
  if (Dots.size() != 2)
    return false;
  Info.Dot1 = Dots[0];
  Info.Dot2 = Dots[1];

  // U = Dot2 plus any get feeding only Dot2.
  std::set<Operation *> USet = {Info.Dot2};
  for (Operation &Op : Body) {
    if (Op.getKind() != OpKind::ArefGet)
      continue;
    bool OnlyDot2 = true;
    for (unsigned I = 0, E = Op.getNumResults(); I != E && OnlyDot2; ++I)
      for (const Use &U : Op.getResult(I)->getUses())
        if (U.Owner != Info.Dot2)
          OnlyDot2 = false;
    if (OnlyDot2) {
      USet.insert(&Op);
      Info.ArefV = Op.getOperand(0);
    }
  }

  // T = backward slice of Dot1 (its operands) plus Dot1, minus U.
  std::set<Operation *> TSet = computeBackwardSlice(
      {Info.Dot1->getOperand(0), Info.Dot1->getOperand(1),
       Info.Dot1->getOperand(2)},
      &Body);
  TSet.insert(Info.Dot1);
  for (Operation *Op : USet)
    TSet.erase(Op);
  for (Operation *Op : TSet)
    if (Op->getKind() == OpKind::ArefGet)
      Info.ArefK = Op->getOperand(0);

  // Classify iter args by their update slice: an arg is an iteration arg
  // when its yield slice avoids T/U and produces no float tensors.
  Operation *Yield = Loop->getYield();
  std::set<Operation *> PostSet;
  for (unsigned I = 0, E = Yield->getNumOperands(); I != E; ++I) {
    std::set<Operation *> Slice =
        computeBackwardSlice({Yield->getOperand(I)}, &Body);
    bool Iteration = true;
    for (Operation *Op : Slice) {
      if (TSet.count(Op) || USet.count(Op)) {
        Iteration = false;
        break;
      }
      for (unsigned R = 0, RE = Op->getNumResults(); R != RE; ++R) {
        auto *TT = dyn_cast<TensorType>(Op->getResult(R)->getType());
        if (TT && TT->getElementType()->isFloat()) {
          Iteration = false;
          break;
        }
      }
      if (!Iteration)
        break;
    }
    if (Iteration) {
      Info.IterArgs.push_back(I);
      PostSet.insert(Slice.begin(), Slice.end());
    } else {
      Info.StateArgs.push_back(I);
    }
  }

  // Partition the body in program order.
  for (Operation &Op : Body) {
    if (&Op == Yield || Op.getKind() == OpKind::ArefConsumed)
      continue;
    if (TSet.count(&Op))
      Info.TOps.push_back(&Op);
    else if (USet.count(&Op))
      Info.UOps.push_back(&Op);
    else if (PostSet.count(&Op))
      Info.PostOps.push_back(&Op);
    else
      Info.COps.push_back(&Op);
  }

  // Cross-iteration values: anything C/U reads that T/POST or the block
  // arguments produce must be carried one iteration (state args excepted —
  // they already lag naturally). They become the rotated loop's iter args in
  // first-use order; the set only answers membership, since its pointer
  // order would follow the heap's history.
  std::set<unsigned> StateSet(Info.StateArgs.begin(), Info.StateArgs.end());
  std::set<Value *> Cross;
  auto Carry = [&](Value *V) {
    if (Cross.insert(V).second)
      Info.CrossVals.push_back(V);
  };
  auto Consider = [&](Value *V) {
    if (auto *Arg = dyn_cast<BlockArgument>(V)) {
      if (Arg->getOwner() != &Body)
        return; // Defined outside the loop: shared.
      if (Arg->getArgIndex() > 0 && StateSet.count(Arg->getArgIndex() - 1))
        return; // State args lag naturally.
      Carry(V);
      return;
    }
    Operation *Def = cast<OpResult>(V)->getOwner();
    if (Def->getParentBlock() != &Body)
      return;
    if (TSet.count(Def) || PostSet.count(Def))
      Carry(V);
  };
  for (Operation *Op : Info.COps)
    for (Value *V : Op->getOperands())
      Consider(V);
  for (Operation *Op : Info.UOps)
    for (Value *V : Op->getOperands())
      Consider(V);
  return true;
}

void CoarsePipeliner::cloneSection(const std::vector<Operation *> &Ops,
                                   ValueMap &Map, OpBuilder &B) {
  for (Operation *Op : Ops) {
    if (Op->getKind() == OpKind::Dot) {
      Value *Issue = B.createWgmmaIssue(
          mapValue(Map, Op->getOperand(0)), mapValue(Map, Op->getOperand(1)),
          mapValue(Map, Op->getOperand(2)),
          Op->getIntAttrOr("transB", 0) != 0);
      Map[Op->getResult(0)] = Issue;
      continue;
    }
    cloneOp(Op, Map, B);
  }
}

std::string CoarsePipeliner::runOnLoop(WarpGroupOp *WG, ForOp *Loop) {
  StageInfo Info;
  if (!classify(Loop, Info))
    return ""; // Not a T/C/U loop; leave for the fine-grained pass.
  (void)WG;

  Operation *Yield = Loop->getYield();
  int64_t CounterIdx = Loop->getIntAttr("tawa.counter_arg");
  Value *CounterInit = Loop->getInitArg(CounterIdx);

  OpBuilder B(Ctx);

  //===--- Prologue: T_0, wait, consumed(K_0) -----------------------------===//
  B.setInsertionPoint(Loop);
  ValueMap Map0;
  Map0[Loop->getInductionVar()] = Loop->getLowerBound();
  for (unsigned I = 0, E = Loop->getNumIterArgs(); I != E; ++I)
    Map0[Loop->getIterArg(I)] = Loop->getInitArg(I);
  cloneSection(Info.TOps, Map0, B);
  B.createWgmmaWait(0);
  if (Info.ArefK)
    B.createArefConsumed(Info.ArefK, CounterInit);
  cloneSection(Info.PostOps, Map0, B);

  //===--- Rotated steady-state loop (j = 1 .. N-1) -----------------------===//
  // Iter args: originals (state args seeded with the *original* inits, since
  // C/U have not run yet; iteration args seeded with POST_0's results) plus
  // one "prev" arg per cross value plus a two-deep counter history for the
  // lagged V release.
  std::vector<Value *> Inits;
  std::set<unsigned> IterSet(Info.IterArgs.begin(), Info.IterArgs.end());
  for (unsigned I = 0, E = Loop->getNumIterArgs(); I != E; ++I) {
    if (IterSet.count(I))
      Inits.push_back(mapValue(Map0, Yield->getOperand(I)));
    else
      Inits.push_back(Loop->getInitArg(I));
  }
  unsigned NumOrigArgs = Loop->getNumIterArgs();
  for (Value *V : Info.CrossVals)
    Inits.push_back(mapValue(Map0, V));
  Value *MinusOne = B.createConstantInt(-1);
  Inits.push_back(MinusOne); // prev2 counter sentinel.

  Value *LbPlusStep = B.createAdd(Loop->getLowerBound(), Loop->getStep());
  ForOp *Rot = B.createFor(LbPlusStep, Loop->getUpperBound(), Loop->getStep(),
                           Inits);
  Rot->setAttr("tawa.counter_arg", CounterIdx);
  Rot->setAttr("tawa.main_loop", static_cast<int64_t>(1));
  Rot->setAttr("tawa.coarse_pipelined", static_cast<int64_t>(1));

  {
    OpBuilder RB(Ctx);
    RB.setInsertionPointToEnd(&Rot->getBody());

    // MapT: current-iteration view. MapC: lagged view for C/U.
    ValueMap MapT;
    MapT[Loop->getInductionVar()] = Rot->getInductionVar();
    for (unsigned I = 0; I != NumOrigArgs; ++I)
      MapT[Loop->getIterArg(I)] = Rot->getIterArg(I);
    ValueMap MapC = MapT;
    for (unsigned I = 0, E = Info.CrossVals.size(); I != E; ++I)
      MapC[Info.CrossVals[I]] = Rot->getIterArg(NumOrigArgs + I);
    Value *Prev2Counter = Rot->getIterArg(NumOrigArgs + Info.CrossVals.size());
    Value *CounterArg = Rot->getIterArg(CounterIdx);
    Value *PrevCounter = mapValue(MapC, Loop->getIterArg(CounterIdx));

    // T_j (async issue).
    cloneSection(Info.TOps, MapT, RB);
    // U_{j-2} retired; release V_{j-2}.
    RB.createWgmmaWait(1);
    if (Info.ArefV) {
      Value *Pred = RB.createCmpSlt(RB.createConstantInt(-1), Prev2Counter);
      Operation *Rel = RB.createArefConsumed(Info.ArefV, Prev2Counter);
      Rel->addOperand(Pred);
    }
    // C_{j-1} on CUDA cores, overlapping T_j.
    cloneSection(Info.COps, MapC, RB);
    // U_{j-1} (get V_{j-1} happens inside the section via MapC's counter).
    cloneSection(Info.UOps, MapC, RB);
    // T_j retired; release K_j.
    RB.createWgmmaWait(1);
    if (Info.ArefK)
      RB.createArefConsumed(Info.ArefK, CounterArg);
    // POST_j.
    cloneSection(Info.PostOps, MapT, RB);

    std::vector<Value *> Yields;
    for (unsigned I = 0; I != NumOrigArgs; ++I) {
      ValueMap &Src = IterSet.count(I) ? MapT : MapC;
      Yields.push_back(mapValue(Src, Yield->getOperand(I)));
    }
    for (Value *V : Info.CrossVals)
      Yields.push_back(mapValue(MapT, V));
    Yields.push_back(PrevCounter);
    RB.createYield(Yields);
  }

  //===--- Epilogue: drain C_{N-1}, U_{N-1} -------------------------------===//
  B.setInsertionPointAfter(Rot);
  ValueMap MapE;
  for (unsigned I = 0; I != NumOrigArgs; ++I)
    MapE[Loop->getIterArg(I)] = Rot->getResult(I);
  for (unsigned I = 0, E = Info.CrossVals.size(); I != E; ++I)
    MapE[Info.CrossVals[I]] = Rot->getResult(NumOrigArgs + I);
  Value *Prev2Out = Rot->getResult(NumOrigArgs + Info.CrossVals.size());
  Value *PrevCounterOut = mapValue(MapE, Loop->getIterArg(CounterIdx));
  // The epilogue re-runs C/U for the last iteration; the induction variable
  // value it would observe is ub - step, but no C/U op reads the iv in our
  // kernels — guard by mapping it to the carried value if it was crossed.
  MapE[Loop->getInductionVar()] = Loop->getUpperBound();

  B.createWgmmaWait(0);
  if (Info.ArefV) {
    Value *Pred = B.createCmpSlt(B.createConstantInt(-1), Prev2Out);
    Operation *Rel = B.createArefConsumed(Info.ArefV, Prev2Out);
    Rel->addOperand(Pred);
  }
  cloneSection(Info.COps, MapE, B);
  cloneSection(Info.UOps, MapE, B);
  B.createWgmmaWait(0);
  if (Info.ArefV)
    B.createArefConsumed(Info.ArefV, PrevCounterOut);

  // Rewire the original loop's results: state results come from the drained
  // C/U; iteration results match the rotated loop's own results.
  for (unsigned I = 0; I != NumOrigArgs; ++I) {
    Value *Repl = IterSet.count(I) ? Rot->getResult(I)
                                   : mapValue(MapE, Yield->getOperand(I));
    Loop->getResult(I)->replaceAllUsesWith(Repl);
  }
  Loop->erase();
  return "";
}

std::string tawa::runCoarseGrainedPipeline(Module &M) {
  CoarsePipeliner Pipeliner(M.getContext());
  for (Operation &FuncOpRef : M.getBody()) {
    auto *F = dyn_cast<FuncOp>(&FuncOpRef);
    if (!F)
      continue;
    for (Operation &Op : F->getBody()) {
      auto *WG = dyn_cast<WarpGroupOp>(&Op);
      if (!WG || WG->getRole() != "consumer")
        continue;
      // Find the main loop of this warp group.
      ForOp *Main = nullptr;
      WG->walk([&](Operation *Inner) {
        if (Inner->getKind() == OpKind::For &&
            Inner->getIntAttrOr("tawa.main_loop", 0))
          Main = static_cast<ForOp *>(Inner);
      });
      if (!Main)
        continue;
      if (std::string Err = Pipeliner.runOnLoop(WG, Main); !Err.empty())
        return Err;
    }
  }
  return "";
}
