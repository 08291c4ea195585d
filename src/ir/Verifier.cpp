//===- Verifier.cpp - IR structural verification -----------------------------//

#include "ir/Verifier.h"

#include "ir/Ir.h"
#include "support/Support.h"

#include <limits>
#include <set>

using namespace tawa;

namespace {

class VerifierImpl {
public:
  /// Returns the first diagnostic, or "".
  std::string run(const Module &M) {
    // The engines narrow the depth to the int32 lookahead of every
    // pipelined copy (sim/Trace.h), which replay uses as a ring offset.
    auto Depth = M.getAttrs().find("sw_pipeline_depth");
    if (Depth != M.getAttrs().end()) {
      const int64_t *D = std::get_if<int64_t>(&Depth->second);
      if (!D || *D < 0 || *D > std::numeric_limits<int32_t>::max())
        return "module attribute sw_pipeline_depth must be an integer in "
               "[0, 2147483647]";
    }
    for (Operation &Op : M.getBody()) {
      if (!isa<FuncOp>(&Op))
        return "module body may only contain tt.func ops, found " +
               Op.getOneLineSummary();
      if (std::string Err = runOnFunc(&Op); !Err.empty())
        return Err;
    }
    return "";
  }

  std::string runOnFunc(Operation *Func) {
    Visible.clear();
    if (Func->getNumRegions() != 1 || Func->getRegion(0).empty())
      return "tt.func must have one non-empty region";
    Block &Body = Func->getRegion(0).getBlock();
    if (Body.empty() || Body.back()->getKind() != OpKind::Return)
      return "tt.func body must end with tt.return";
    return verifyBlock(Body);
  }

private:
  std::string verifyBlock(Block &B) {
    size_t Mark = ScopeStack.size();
    for (unsigned I = 0, E = B.getNumArguments(); I != E; ++I)
      pushVisible(B.getArgument(I));

    for (Operation &Op : B) {
      if (isTerminator(Op.getKind()) && Op.getNextNode())
        return "terminator is not the last operation in its block: " +
               Op.getOneLineSummary();

      // Dominance: every operand must already be visible.
      for (unsigned I = 0, E = Op.getNumOperands(); I != E; ++I) {
        Value *V = Op.getOperand(I);
        if (!V)
          return "null operand on " + Op.getOneLineSummary();
        if (!Visible.count(V))
          return "operand " + std::to_string(I) +
                 " does not dominate its use: " + Op.getOneLineSummary();
      }

      if (std::string Err = verifyOp(&Op); !Err.empty())
        return Err;

      // Regions see everything visible so far (not isolated from above).
      for (unsigned R = 0, RE = Op.getNumRegions(); R != RE; ++R) {
        if (Op.getRegion(R).empty())
          continue;
        if (std::string Err = verifyBlock(Op.getRegion(R).getBlock());
            !Err.empty())
          return Err;
      }

      for (unsigned I = 0, E = Op.getNumResults(); I != E; ++I)
        pushVisible(Op.getResult(I));
    }

    popVisibleTo(Mark);
    return "";
  }

  std::string verifyOp(Operation *Op) {
    switch (Op->getKind()) {
    case OpKind::For: {
      auto *For = cast<ForOp>(Op);
      if (Op->getNumOperands() < 3)
        return "scf.for needs (lb, ub, step) operands";
      if (Op->getNumResults() != For->getNumIterArgs())
        return "scf.for result count must equal iter_arg count";
      if (Op->getRegion(0).empty())
        return "scf.for needs a body";
      Block &Body = For->getBody();
      if (Body.getNumArguments() != 1 + For->getNumIterArgs())
        return "scf.for body must have (iv, iter_args...) arguments";
      if (Body.empty() || Body.back()->getKind() != OpKind::Yield)
        return "scf.for body must end with scf.yield";
      Operation *Yield = Body.back();
      if (Yield->getNumOperands() != For->getNumIterArgs())
        return "scf.yield arity must match scf.for iter_args";
      for (unsigned I = 0, E = Yield->getNumOperands(); I != E; ++I)
        if (Yield->getOperand(I)->getType() != Op->getResult(I)->getType())
          return "scf.yield operand type mismatch at index " +
                 std::to_string(I);
      break;
    }
    case OpKind::WarpGroup: {
      if (!Op->hasAttr("partition") || !Op->hasAttr("role"))
        return "tawa.warp_group needs partition and role attributes";
      if (Op->getNumResults() != 0)
        return "tawa.warp_group must not produce results";
      break;
    }
    case OpKind::Dot:
    case OpKind::WgmmaIssue: {
      if (Op->getNumOperands() != 3)
        return "dot needs (a, b, acc)";
      auto *A = dyn_cast<TensorType>(Op->getOperand(0)->getType());
      auto *B = dyn_cast<TensorType>(Op->getOperand(1)->getType());
      auto *Acc = dyn_cast<TensorType>(Op->getOperand(2)->getType());
      if (!A || !B || !Acc)
        return "dot operands must be tensors";
      bool TransB = Op->getIntAttrOr("transB", 0);
      int64_t M = A->getShape()[0], K = A->getShape()[1];
      int64_t BK = TransB ? B->getShape()[1] : B->getShape()[0];
      int64_t N = TransB ? B->getShape()[0] : B->getShape()[1];
      if (K != BK)
        return formatString("dot contraction mismatch: K=%lld vs %lld",
                            static_cast<long long>(K),
                            static_cast<long long>(BK));
      if (Acc->getShape()[0] != M || Acc->getShape()[1] != N)
        return "dot accumulator shape mismatch";
      if (Op->getResult(0)->getType() != Acc)
        return "dot result type must match accumulator";
      break;
    }
    case OpKind::ArefPut: {
      if (!isa<ArefType>(Op->getOperand(0)->getType()))
        return "tawa.put first operand must be an aref";
      break;
    }
    case OpKind::ArefGet: {
      auto *AT = dyn_cast<ArefType>(Op->getOperand(0)->getType());
      if (!AT)
        return "tawa.get first operand must be an aref";
      break;
    }
    case OpKind::ArefConsumed: {
      if (!isa<ArefType>(Op->getOperand(0)->getType()))
        return "tawa.consumed first operand must be an aref";
      break;
    }
    case OpKind::MBarrierWait: {
      if (Op->getNumOperands() != 3)
        return "mbarrier_wait needs (mbar, idx, phase)";
      if (Op->getOperand(0)->getType()->getKind() != TypeKind::MBar)
        return "mbarrier_wait first operand must be an mbarrier";
      break;
    }
    case OpKind::Yield:
    case OpKind::Return: {
      Operation *Parent = Op->getParentOp();
      if (!Parent)
        return "terminator outside any region";
      bool YieldOk = Op->getKind() == OpKind::Yield &&
                     Parent->getKind() == OpKind::For;
      bool ReturnOk = Op->getKind() == OpKind::Return && isa<FuncOp>(Parent);
      if (!YieldOk && !ReturnOk)
        return "terminator/parent mismatch: " + Op->getOneLineSummary();
      break;
    }
    default:
      break;
    }
    return "";
  }

  void pushVisible(Value *V) {
    Visible.insert(V);
    ScopeStack.push_back(V);
  }

  void popVisibleTo(size_t Mark) {
    while (ScopeStack.size() > Mark) {
      Visible.erase(ScopeStack.back());
      ScopeStack.pop_back();
    }
  }

  std::set<Value *> Visible;
  std::vector<Value *> ScopeStack;
};

} // namespace

std::string tawa::verify(const Module &M) { return VerifierImpl().run(M); }

std::string tawa::verifyFunc(Operation *Func) {
  return VerifierImpl().runOnFunc(Func);
}
