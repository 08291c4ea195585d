//===- Pipelining.cpp - Fine-grained MMA pipelining (§III-D1) -----------------//
//
// Inside each consumer warp group, converts synchronous dots into a bounded
// asynchronous pipeline of depth P (Fig. 6):
//
//   k:  get(aref[k]); acc = wgmma.issue(a, b, acc); wgmma.wait {pendings=P};
//       consumed(aref[k-P]) if k >= P
//   epilogue: wgmma.wait {pendings=0}; consumed the last min(P, N) slots
//
// Deferring the release by P keeps up to P MMA tiles in flight while
// remaining correct: wait{pendings=P} guarantees the MMA of iteration k-P
// has retired before its operands' slot is recycled.
//
//===----------------------------------------------------------------------===//

#include "ir/Builder.h"
#include "ir/Ir.h"
#include "passes/Passes.h"
#include "passes/Utils.h"
#include "support/Support.h"

using namespace tawa;

namespace {

/// Finds the innermost loop inside \p WG that performs aref gets (the
/// distributed main loop).
ForOp *findConsumerMainLoop(WarpGroupOp *WG) {
  ForOp *Main = nullptr;
  WG->walk([&](Operation *Op) {
    if (Op->getKind() != OpKind::For)
      return;
    if (!Op->getIntAttrOr("tawa.main_loop", 0))
      return;
    Main = static_cast<ForOp *>(Op);
  });
  return Main;
}

std::string pipelineConsumerLoop(IrContext &Ctx, WarpGroupOp *WG,
                                 ForOp *Loop, int64_t P) {
  // Collect the dots and the consumed ops of the loop body.
  std::vector<Operation *> Dots, Consumeds;
  for (Operation &Op : Loop->getBody()) {
    if (Op.getKind() == OpKind::Dot)
      Dots.push_back(&Op);
    else if (Op.getKind() == OpKind::ArefConsumed)
      Consumeds.push_back(&Op);
  }
  if (Dots.empty())
    return ""; // Nothing to pipeline.

  OpBuilder B(Ctx);

  // 1. Dots become asynchronous issues, with one wait{pendings=P} after the
  //    last issue of the iteration.
  Operation *LastIssue = nullptr;
  for (Operation *Dot : Dots) {
    B.setInsertionPoint(Dot);
    Value *Issue =
        B.createWgmmaIssue(Dot->getOperand(0), Dot->getOperand(1),
                           Dot->getOperand(2),
                           Dot->getIntAttrOr("transB", 0) != 0);
    Dot->getResult(0)->replaceAllUsesWith(Issue);
    LastIssue = cast<OpResult>(Issue)->getOwner();
    Dot->erase();
  }
  // wait{pendings = P-1}: after the wait of iteration k, MMAs up to k-P+1
  // have retired, which is exactly what makes the top-of-body release of
  // slot k-P (next iteration) safe.
  B.setInsertionPointAfter(LastIssue);
  B.createWgmmaWait(P - 1);

  // 2. Defer every release by P iterations: consumed(aref, k) becomes
  //    consumed(aref, k - P) predicated on k >= P, emitted at the *top* of
  //    the body. Releasing before this iteration's get is what makes D = P
  //    feasible: the previous iteration's wait{pendings=P} already
  //    guarantees MMA k-P retired, and the producer regains the slot credit
  //    before the consumer blocks on the slot it is about to reuse.
  for (Operation *Consumed : Consumeds) {
    B.setInsertionPoint(&*Loop->getBody().begin());
    Value *Idx = Consumed->getOperand(1);
    Value *PC = B.createConstantInt(P);
    Value *LaggedIdx = B.createSub(Idx, PC);
    // k >= P  <=>  P - 1 < k.
    Value *Pred = B.createCmpSlt(B.createConstantInt(P - 1), Idx);
    Operation *NewConsumed =
        B.createArefConsumed(Consumed->getOperand(0), LaggedIdx);
    NewConsumed->addOperand(Pred);
    Consumed->erase();
  }

  // 3. Drain epilogue: retire all pending MMAs, then release the last
  //    min(P, N) borrowed slots. The release indices come from the *global*
  //    iteration counter, so in a persistent kernel (where the main loop
  //    nests inside a tile loop threading the counter) the drain must run
  //    once after the outermost counter-carrying loop — draining per tile
  //    would double-release slots the next tile's lagged schedule still
  //    releases.
  ForOp *DrainAnchor = Loop;
  while (auto *Parent =
             dyn_cast_if_present<ForOp>(DrainAnchor->getParentOp())) {
    if (!Parent->hasAttr("tawa.counter_arg"))
      break;
    DrainAnchor = static_cast<ForOp *>(Parent);
  }
  // Per-tile epilogue synchronization (§IV-B): the tile's output store must
  // observe a fully materialized accumulator.
  B.setInsertionPointAfter(Loop);
  B.createWgmmaWait(0);
  int64_t CounterIdx = DrainAnchor->getIntAttr("tawa.counter_arg");
  Value *Total = DrainAnchor->getResult(CounterIdx);
  B.setInsertionPointAfter(DrainAnchor);
  if (DrainAnchor != Loop)
    B.createWgmmaWait(0);
  // Recover the aref channels released in this loop, in first-use order;
  // the set only answers membership, since its pointer order would follow
  // the heap's history.
  std::set<Value *> Released;
  std::vector<Value *> Arefs;
  for (Operation &Op : Loop->getBody())
    if (Op.getKind() == OpKind::ArefConsumed &&
        Released.insert(Op.getOperand(0)).second)
      Arefs.push_back(Op.getOperand(0));
  for (int64_t J = 0; J < P; ++J) {
    // idx = N - P + J, released only when it is a real iteration (idx >= 0
    // and idx was not already released in the loop, which holds because the
    // loop released exactly the first N - P).
    Value *Idx = B.createSub(
        Total, B.createConstantInt(P - J));
    Value *Pred = B.createCmpSlt(B.createConstantInt(-1), Idx);
    for (Value *Aref : Arefs) {
      Operation *Rel = B.createArefConsumed(Aref, Idx);
      Rel->addOperand(Pred);
    }
  }
  (void)WG;
  return "";
}

} // namespace

std::string tawa::runFineGrainedPipeline(Module &M, int64_t P) {
  if (P < 1)
    return "fine-grained pipeline depth must be >= 1";
  IrContext &Ctx = M.getContext();
  std::string Error;
  for (Operation &FuncOpRef : M.getBody()) {
    auto *F = dyn_cast<FuncOp>(&FuncOpRef);
    if (!F)
      continue;
    for (Operation &Op : F->getBody()) {
      auto *WG = dyn_cast<WarpGroupOp>(&Op);
      if (!WG || WG->getRole() != "consumer")
        continue;
      ForOp *Main = findConsumerMainLoop(static_cast<WarpGroupOp *>(WG));
      if (!Main)
        continue;
      Error = pipelineConsumerLoop(Ctx, static_cast<WarpGroupOp *>(WG), Main,
                                   P);
      if (!Error.empty())
        return Error;
    }
  }
  return "";
}

//===----------------------------------------------------------------------===//
// Cooperative warp groups (§IV-A)
//===----------------------------------------------------------------------===//

std::string tawa::runCooperativeWarpGroups(Module &M, int64_t NumGroups) {
  if (NumGroups < 2)
    return "";
  IrContext &Ctx = M.getContext();
  for (Operation &FuncOpRef : M.getBody()) {
    auto *F = dyn_cast<FuncOp>(&FuncOpRef);
    if (!F)
      continue;
    std::vector<WarpGroupOp *> Consumers;
    for (Operation &Op : F->getBody())
      if (auto *WG = dyn_cast<WarpGroupOp>(&Op))
        if (WG->getRole() == "consumer")
          Consumers.push_back(static_cast<WarpGroupOp *>(
              const_cast<WarpGroupOp *>(WG)));
    for (WarpGroupOp *WG : Consumers) {
      WG->setAttr("num_replicas", NumGroups);
      WG->setAttr("replica", static_cast<int64_t>(0));
      OpBuilder B(Ctx);
      for (int64_t R = 1; R < NumGroups; ++R) {
        B.setInsertionPointAfter(WG);
        ValueMap Map;
        Operation *Clone = cloneOp(WG, Map, B);
        Clone->setAttr("partition", WG->getPartitionId() + R);
        Clone->setAttr("replica", R);
      }
    }
  }
  return "";
}

//===----------------------------------------------------------------------===//
// Persistent kernels (§IV-B)
//===----------------------------------------------------------------------===//

std::string tawa::runPersistentKernel(Module &M) {
  IrContext &Ctx = M.getContext();
  for (Operation &FuncOpRef : M.getBody()) {
    auto *F = dyn_cast<FuncOp>(&FuncOpRef);
    if (!F)
      continue;
    auto *Func = static_cast<FuncOp *>(const_cast<FuncOp *>(F));
    // The frontend records how the tile count derives from runtime dims.
    if (!Func->hasAttr("tile_m") || !Func->hasAttr("tile_n"))
      return "persistent-kernel: function lacks tile_m/tile_n attributes";
    int64_t TileM = Func->getIntAttr("tile_m");
    int64_t TileN = Func->getIntAttr("tile_n");
    int64_t ArgM = Func->getIntAttr("arg_m");
    int64_t ArgN = Func->getIntAttr("arg_n");
    Block &Body = Func->getBody();

    // Locate (or create) the grid id the kernel decomposes.
    Operation *PidOp = nullptr;
    for (Operation &Op : Body)
      if (Op.getKind() == OpKind::ProgramId && Op.getIntAttr("axis") == 0) {
        PidOp = &Op;
        break;
      }
    if (!PidOp)
      return "persistent-kernel: kernel does not use tt.program_id(0)";

    // numTiles = cdiv(M, TileM) * cdiv(N, TileN); step = gridDim(0).
    OpBuilder B(Ctx);
    B.setInsertionPointAfter(PidOp);
    Value *DimM = Body.getArgument(ArgM);
    Value *DimN = Body.getArgument(ArgN);
    auto EmitCdiv = [&](Value *X, int64_t C) {
      return B.createDiv(B.createAdd(X, B.createConstantInt(C - 1)),
                         B.createConstantInt(C));
    };
    Value *NumTiles =
        B.createMul(EmitCdiv(DimM, TileM), EmitCdiv(DimN, TileN));
    Value *Step = B.createNumPrograms(0);
    ForOp *TileLoop =
        B.createFor(PidOp->getResult(0), NumTiles, Step, {});

    // Move everything after the loop header (except the return) into the
    // tile loop, and retarget uses of pid to the tile induction variable.
    std::vector<Operation *> ToMove;
    for (Operation *Op = TileLoop->getNextNode(); Op; Op = Op->getNextNode())
      if (Op->getKind() != OpKind::Return)
        ToMove.push_back(Op);
    for (Operation *Op : ToMove)
      Op->moveToEnd(&TileLoop->getBody());
    OpBuilder Inner(Ctx);
    Inner.setInsertionPointToEnd(&TileLoop->getBody());
    Inner.createYield({});

    // Retarget pid uses inside the loop body to the induction variable.
    Value *Pid = PidOp->getResult(0);
    std::vector<Use> Uses = Pid->getUses();
    for (const Use &U : Uses) {
      if (U.Owner == TileLoop)
        continue; // The loop's own lower bound stays pid.
      U.Owner->setOperand(U.OperandIndex, TileLoop->getInductionVar());
    }

    Func->setAttr("persistent", static_cast<int64_t>(1));
  }
  return "";
}
