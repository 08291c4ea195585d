//===- TreeWalk.cpp - Tree-walking interpreter (oracle) -----------------------//
//
// The original execution engine, kept in the test tree as the
// differential-testing oracle: per-op IR walking with pointer-keyed
// environment maps and std::function wait conditions. The bytecode executor
// (Executor.cpp) must stay observably identical to this code.
//
//===----------------------------------------------------------------------===//

#include "tests/oracle/TreeWalk.h"

#include "ir/Ir.h"
#include "sem/ArefSemantics.h"
#include "sem/HappensBefore.h"
#include "sim/Diag.h"
#include "sim/ExecCommon.h"
#include "support/FaultInject.h"
#include "support/Status.h"
#include "support/Support.h"

#include <condition_variable>
#include <exception>
#include <functional>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>

using namespace tawa;
using namespace tawa::sim;
using namespace tawa::sim::exec;

namespace {

using Slot = sem::SlotMonitor::State;

struct Env {
  std::map<Value *, RValue> Local;
  const Env *Outer = nullptr;

  const RValue *lookup(Value *V) const {
    auto It = Local.find(V);
    if (It != Local.end())
      return &It->second;
    return Outer ? Outer->lookup(V) : nullptr;
  }
  void set(Value *V, RValue R) { Local[V] = std::move(R); }
};

/// Staging-buffer state with the legacy ordered-map tensor store. The slot
/// monitors hold the executor's state, but this file spells out their
/// transitions itself: it is the reference the executor's calls into
/// sem::SlotMonitor are diffed against.
struct SmemBuffer {
  int64_t Channel = -1;
  int64_t SlotBytes = 0;
  int64_t Bytes = 0;
  int WritersPerSlot = 1;
  int ReadersPerSlot = 1;
  std::vector<sem::SlotMonitor> Monitors;
  /// Staged tensors keyed by (slot, byte offset inside the slot).
  std::map<std::pair<int64_t, int64_t>, TensorData> Store;
};

//===----------------------------------------------------------------------===//
// CtaExec
//===----------------------------------------------------------------------===//

class CtaExec {
public:
  CtaExec(Module &M, const GpuConfig &Config, const RunOptions &Opts,
          int64_t PidX, int64_t PidY)
      : M(M), Config(Config), Opts(Opts), PidX(PidX), PidY(PidY) {}

  std::string run(CtaTrace &Out);

private:
  bool interpretBlock(Block &B, Env &E, AgentCtx &A);
  bool evalOp(Operation *Op, Env &E, AgentCtx &A);
  bool evalFor(ForOp *Loop, Env &E, AgentCtx &A);

  // Scheduling (single-lock cooperative threading).
  bool agentWaitUntil(AgentCtx &A, const std::function<bool()> &Cond);
  void bumpProgress() {
    ++Progress;
    Cv.notify_all();
  }

  // Barrier / smem helpers (called with the lock held).
  void applyArrival(int32_t BarId, int64_t Idx, int64_t TxBytes);

  void recordViolation(const std::string &S) { Violations.push_back(S); }

  Module &M;
  const GpuConfig &Config;
  const RunOptions &Opts;
  int64_t PidX, PidY;

  std::vector<SmemBuffer> SmemBuffers;
  std::vector<BarrierArray> BarrierArrays;
  std::vector<std::string> Violations;
  std::unique_ptr<sem::HappensBeforeTracker> HB;

  // Cooperative scheduling state.
  std::mutex Mu;
  std::condition_variable Cv;
  uint64_t Progress = 0;
  int Waiting = 0;
  int Alive = 0;
  bool Aborted = false;
  std::string AbortMsg;
  /// Conditions of currently blocked agents; a deadlock is declared only
  /// when every alive agent is blocked and no registered condition holds
  /// (a satisfied condition means its agent was woken but has not been
  /// rescheduled yet).
  std::map<int, std::function<bool()>> WaitConds;

  int64_t SwPipelineDepth = 0;
  bool Functional = true;
  /// Per-agent blocked-wait coordinates (deadlock reports, rendered live).
  struct BlockedOn {
    int32_t Bar;
    int64_t Idx;
    int64_t Parity;
  };
  std::map<int, BlockedOn> BlockInfo;

  /// Execution-watchdog step budget, Opts.MaxSteps as in the bytecode
  /// engine (0 = off). The wall-clock guard is bytecode-only — the oracle
  /// is expected to be slow.
  int64_t MaxSteps = 0;

  /// Watchdog accounting at one step event (loop iteration starting /
  /// mbarrier wait issuing), counted at the same source-level events as the
  /// bytecode engine so trips are engine-identical. Returns true when the
  /// budget tripped; the caller fails the agent (A.Error is set).
  bool watchdogStep(AgentCtx &A) {
    ++A.Steps;
    if (MaxSteps <= 0 || A.Steps <= MaxSteps)
      return false;
    A.Error = formatString(
        "step budget exceeded: agent %d used %lld steps (budget %lld)",
        A.Id, static_cast<long long>(A.Steps),
        static_cast<long long>(MaxSteps));
    return true;
  }

  /// Fills Opts.Diag for deadlock/watchdog aborts (the bytecode engine's
  /// maybeFillDiag counterpart — the snapshots must render byte-identical,
  /// which the diagnostics golden test pins). Called from run() after all
  /// agent threads joined; no locking needed.
  void maybeFillDiag(const std::string &Err,
                     const std::vector<AgentCtx> &Agents) {
    if (!Opts.Diag)
      return;
    ErrorKind K = classifyError(Err);
    if (K != ErrorKind::Deadlock && K != ErrorKind::StepBudget &&
        K != ErrorKind::WallClock)
      return;
    ExecDiagnostic &D = *Opts.Diag;
    D.clear();
    D.Kind = errorKindName(K);
    D.Error = Err;
    D.PidX = PidX;
    D.PidY = PidY;
    D.StepBudget = MaxSteps;
    for (const AgentCtx &A : Agents) {
      ExecDiagnostic::Agent DA;
      DA.Id = A.Id;
      DA.Name = A.Trace.Name;
      DA.Steps = A.Steps;
      auto It = BlockInfo.find(A.Id);
      if (A.Error.empty()) {
        DA.State = "done";
      } else if (A.Error == AbortMsg && It != BlockInfo.end()) {
        DA.State = "blocked";
        const BarrierArray &Arr = BarrierArrays[It->second.Bar];
        DA.HasWait = true;
        DA.WaitKind = Arr.IsFull ? "full" : "empty";
        DA.WaitIndex = It->second.Idx;
        DA.WaitChannel = Arr.Channel;
        DA.WaitParity = It->second.Parity;
        DA.WaitCompletions = Arr.Bars[It->second.Idx].Completions;
      } else {
        DA.State = "failed";
        DA.Error = A.Error;
      }
      D.Agents.push_back(std::move(DA));
    }
    for (const BarrierArray &Arr : BarrierArrays) {
      ExecDiagnostic::Barrier B;
      B.Channel = Arr.Channel;
      B.Kind = Arr.IsFull ? "full" : "empty";
      B.Expected = Arr.Expected;
      for (const FunctionalBarrier &FB : Arr.Bars) {
        B.Completions.push_back(FB.Completions);
        B.Arrivals.push_back(FB.Arrivals);
      }
      D.Barriers.push_back(std::move(B));
    }
    for (const SmemBuffer &Buf : SmemBuffers) {
      ExecDiagnostic::Channel C;
      C.Id = Buf.Channel;
      for (const sem::SlotMonitor &M : Buf.Monitors)
        C.Slots.push_back(M.letter());
      D.Channels.push_back(std::move(C));
    }
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Scheduling
//===----------------------------------------------------------------------===//

bool CtaExec::agentWaitUntil(AgentCtx &A,
                             const std::function<bool()> &Cond) {
  // Called with Mu held (via the unique_lock living in the agent thread's
  // frame — see run()). We re-acquire through a relock-free pattern: the
  // caller passes us control with the lock held in a std::unique_lock that
  // the thread body owns; we access it through the member lock below.
  while (!Cond()) {
    WaitConds[A.Id] = Cond;
    ++Waiting;
    if (Waiting == Alive) {
      bool AnySatisfiable = false;
      for (const auto &[Id, C] : WaitConds)
        if (C()) {
          AnySatisfiable = true;
          break;
        }
      if (!AnySatisfiable) {
        Aborted = true;
        AbortMsg =
            "deadlock: every warp group is blocked on an mbarrier wait";
        for (const auto &[Id, Info] : BlockInfo) {
          const BarrierArray &Arr = BarrierArrays[Info.Bar];
          AbortMsg += formatString(
              "\n  agent %d waits %s[%lld] (channel %lld) parity %lld, "
              "completions %lld",
              Id, Arr.IsFull ? "full" : "empty",
              static_cast<long long>(Info.Idx),
              static_cast<long long>(Arr.Channel),
              static_cast<long long>(Info.Parity),
              static_cast<long long>(Arr.Bars[Info.Idx].Completions));
        }
        --Waiting;
        WaitConds.erase(A.Id);
        Cv.notify_all();
        return false;
      }
    }
    uint64_t Seen = Progress;
    std::unique_lock<std::mutex> Relock(Mu, std::adopt_lock);
    Cv.wait(Relock, [&] { return Progress != Seen || Aborted; });
    Relock.release(); // Keep holding; the thread frame owns the lock.
    --Waiting;
    WaitConds.erase(A.Id);
    if (Aborted)
      return false;
  }
  return true;
}

void CtaExec::applyArrival(int32_t BarId, int64_t Idx, int64_t TxBytes) {
  BarrierArray &Arr = BarrierArrays[BarId];
  FunctionalBarrier &B = Arr.Bars[Idx];
  ++B.Arrivals;
  B.TxArrived += TxBytes;
  if (B.Arrivals >= Arr.Expected && B.TxArrived >= B.TxExpected) {
    ++B.Completions;
    B.Arrivals = 0;
    B.TxArrived = 0;
    B.TxExpected = 0;
    bumpProgress();
  }
}

//===----------------------------------------------------------------------===//
// Interpretation
//===----------------------------------------------------------------------===//

bool CtaExec::evalFor(ForOp *Loop, Env &E, AgentCtx &A) {
  const RValue *LbV = E.lookup(Loop->getLowerBound());
  const RValue *UbV = E.lookup(Loop->getUpperBound());
  const RValue *StV = E.lookup(Loop->getStep());
  assert(LbV && UbV && StV && "loop bounds not evaluated");
  int64_t Lb = asInt(*LbV), Ub = asInt(*UbV), St = asInt(*StV);
  assert(St > 0 && "non-positive loop step");

  // Is this a software-pipelined tile loop (Triton baseline)?
  bool Pipelined = false;
  if (SwPipelineDepth > 0)
    for (Operation &Op : Loop->getBody())
      if (Op.getKind() == OpKind::TmaLoad)
        Pipelined = true;

  std::vector<RValue> Iters;
  for (unsigned I = 0, EIt = Loop->getNumIterArgs(); I != EIt; ++I) {
    const RValue *Init = E.lookup(Loop->getInitArg(I));
    assert(Init && "loop init not evaluated");
    Iters.push_back(*Init);
  }

  for (int64_t Iv = Lb; Iv < Ub; Iv += St) {
    // Iteration starting: one watchdog step event (the bytecode engine
    // counts the same event at LoopBegin fall-through / LoopEnd back edge).
    if (watchdogStep(A))
      return false;
    Env BodyEnv;
    BodyEnv.Outer = &E;
    BodyEnv.set(Loop->getInductionVar(), RValue::makeInt(Iv));
    for (unsigned I = 0, EIt = Loop->getNumIterArgs(); I != EIt; ++I)
      BodyEnv.set(Loop->getIterArg(I), Iters[I]);

    if (Pipelined) {
      flushCuda(A);
      Action Mark;
      Mark.Kind = ActionKind::IterMark;
      A.Trace.emit(Mark);
    }

    for (Operation &Op : Loop->getBody()) {
      if (Op.getKind() == OpKind::Yield) {
        for (unsigned I = 0, EIt = Op.getNumOperands(); I != EIt; ++I) {
          const RValue *V = BodyEnv.lookup(Op.getOperand(I));
          assert(V && "yield operand not evaluated");
          Iters[I] = *V;
        }
        continue;
      }
      if (!evalOp(&Op, BodyEnv, A))
        return false;
    }

    if (Pipelined) {
      // Per-iteration block-wide synchronization of the cp.async scheme.
      flushCuda(A);
      Action Sync;
      Sync.Kind = ActionKind::CtaSync;
      Sync.Cycles = Config.NamedBarrierSyncCycles;
      A.Trace.emit(Sync);
    }
  }

  for (unsigned I = 0, EIt = Loop->getNumIterArgs(); I != EIt; ++I)
    E.set(Loop->getResult(I), Iters[I]);
  return true;
}

bool CtaExec::evalOp(Operation *Op, Env &E, AgentCtx &A) {
  auto Val = [&](unsigned I) -> const RValue & {
    const RValue *V = E.lookup(Op->getOperand(I));
    assert(V && "operand not evaluated (dominance hole)");
    return *V;
  };
  auto SetResult = [&](RValue R) { E.set(Op->getResult(0), std::move(R)); };
  auto ResultTensorType = [&]() {
    return cast<TensorType>(Op->getResult(0)->getType());
  };
  auto EmitAction = [&](Action Act) {
    flushCuda(A);
    A.Trace.emit(Act);
  };

  switch (Op->getKind()) {
  //===--- Structure ------------------------------------------------------===//
  case OpKind::For:
    return evalFor(static_cast<ForOp *>(Op), E, A);
  case OpKind::Return:
    return true;
  case OpKind::Yield:
    assert(false && "yield handled by evalFor");
    return true;
  case OpKind::WarpGroup:
    A.Error = "nested warp_group is not executable";
    return false;

  //===--- Scalars --------------------------------------------------------===//
  case OpKind::ConstantInt:
    SetResult(RValue::makeInt(Op->getIntAttr("value")));
    return true;
  case OpKind::ConstantFloat:
    SetResult(RValue::makeFloat(Op->getFloatAttr("value")));
    return true;
  case OpKind::ProgramId:
    SetResult(RValue::makeInt(Op->getIntAttr("axis") == 0 ? PidX : PidY));
    return true;
  case OpKind::NumPrograms:
    SetResult(RValue::makeInt(Op->getIntAttr("axis") == 0 ? Opts.GridX
                                                          : Opts.GridY));
    return true;

  case OpKind::AddI:
  case OpKind::SubI:
  case OpKind::MulI:
  case OpKind::DivSI:
  case OpKind::RemSI:
  case OpKind::MinSI:
  case OpKind::MaxSI:
  case OpKind::CmpSlt: {
    chargeCuda(A, tensorOpCycles(Config, Op) / A.Replicas);
    const RValue &L = Val(0), &R = Val(1);
    if (L.K == RValue::Kind::Int) {
      int64_t X = L.I, Y = R.I, Z = 0;
      switch (Op->getKind()) {
      case OpKind::AddI:
        Z = X + Y;
        break;
      case OpKind::SubI:
        Z = X - Y;
        break;
      case OpKind::MulI:
        Z = X * Y;
        break;
      case OpKind::DivSI:
        Z = X / Y;
        break;
      case OpKind::RemSI:
        Z = X % Y;
        break;
      case OpKind::MinSI:
        Z = std::min(X, Y);
        break;
      case OpKind::MaxSI:
        Z = std::max(X, Y);
        break;
      case OpKind::CmpSlt:
        Z = X < Y;
        break;
      default:
        break;
      }
      SetResult(RValue::makeInt(Z));
      return true;
    }
    // Tensor (elementwise) integer arithmetic — index math for masks and
    // pointer offsets.
    if (!Functional || !L.T) {
      SetResult(RValue::makeTensor(nullptr, L.H));
      return true;
    }
    float (*Fn)(float, float) = nullptr;
    switch (Op->getKind()) {
    case OpKind::AddI:
      Fn = +[](float X, float Y) { return X + Y; };
      break;
    case OpKind::SubI:
      Fn = +[](float X, float Y) { return X - Y; };
      break;
    case OpKind::MulI:
      Fn = +[](float X, float Y) { return X * Y; };
      break;
    case OpKind::CmpSlt:
      Fn = +[](float X, float Y) { return X < Y ? 1.0f : 0.0f; };
      break;
    default:
      A.Error = "unsupported tensor integer op: " + Op->getOneLineSummary();
      return false;
    }
    SetResult(RValue::makeTensor(applyBinary(L.T, R.T, Fn), L.H));
    return true;
  }

  //===--- Tensor construction & math -------------------------------------===//
  case OpKind::ConstantTensor: {
    chargeCuda(A, tensorOpCycles(Config, Op) / A.Replicas);
    if (!Functional) {
      SetResult(RValue::makeTensor(nullptr));
      return true;
    }
    auto T = makeTensorForType(ResultTensorType());
    T->fill(static_cast<float>(Op->getFloatAttr("value")));
    SetResult(RValue::makeTensor(std::move(T)));
    return true;
  }
  case OpKind::MakeRange: {
    chargeCuda(A, tensorOpCycles(Config, Op) / A.Replicas);
    if (!Functional) {
      SetResult(RValue::makeTensor(nullptr));
      return true;
    }
    auto T = makeTensorForType(ResultTensorType());
    int64_t Start = Op->getIntAttr("start");
    for (int64_t I = 0, EIt = T->getNumElements(); I != EIt; ++I)
      T->at(I) = static_cast<float>(Start + I);
    SetResult(RValue::makeTensor(std::move(T)));
    return true;
  }
  case OpKind::Splat: {
    chargeCuda(A, tensorOpCycles(Config, Op) / A.Replicas);
    const RValue &S = Val(0);
    if (!Functional) {
      SetResult(RValue::makeTensor(nullptr, S.H));
      return true;
    }
    auto T = makeTensorForType(ResultTensorType());
    if (S.K == RValue::Kind::Handle) {
      T->fill(0.0f); // Pointer splat: offsets start at zero.
      SetResult(RValue::makeTensor(std::move(T), S.H));
      return true;
    }
    T->fill(S.K == RValue::Kind::Int ? static_cast<float>(S.I)
                                     : static_cast<float>(S.F));
    SetResult(RValue::makeTensor(std::move(T)));
    return true;
  }
  case OpKind::ExpandDims:
  case OpKind::Broadcast: {
    chargeCuda(A, tensorOpCycles(Config, Op) / A.Replicas);
    const RValue &In = Val(0);
    if (!Functional || !In.T) {
      SetResult(RValue::makeTensor(nullptr, In.H));
      return true;
    }
    auto *OutTy = ResultTensorType();
    auto T = makeTensorForType(OutTy);
    // Broadcast by iterating output coordinates and folding size-1 dims.
    const auto &InShape = In.T->getShape();
    const auto &OutShape = OutTy->getShape();
    // Align ranks: expand_dims output rank = in rank + 1 (a size-1 axis);
    // broadcast keeps rank. Build an index mapping output dim -> input dim.
    std::vector<int64_t> DimMap(OutShape.size(), -1);
    if (Op->getKind() == OpKind::ExpandDims) {
      int64_t Axis = Op->getIntAttr("axis");
      int64_t Src = 0;
      for (size_t D = 0; D < OutShape.size(); ++D)
        DimMap[D] = (static_cast<int64_t>(D) == Axis) ? -1 : Src++;
    } else {
      for (size_t D = 0; D < OutShape.size(); ++D)
        DimMap[D] = static_cast<int64_t>(D);
    }
    std::vector<int64_t> Idx(OutShape.size(), 0);
    for (int64_t Lin = 0, EIt = T->getNumElements(); Lin != EIt; ++Lin) {
      int64_t SrcLin = 0;
      for (size_t D = 0; D < OutShape.size(); ++D) {
        if (DimMap[D] < 0)
          continue;
        int64_t Coord = Idx[D];
        int64_t SrcDim = InShape[DimMap[D]];
        if (Coord >= SrcDim)
          Coord = SrcDim - 1; // Broadcasting a size-1 dim.
        SrcLin = SrcLin * SrcDim + Coord;
      }
      T->at(Lin) = In.T->at(SrcLin);
      for (int64_t D = static_cast<int64_t>(OutShape.size()) - 1; D >= 0;
           --D) {
        if (++Idx[D] < OutShape[D])
          break;
        Idx[D] = 0;
      }
    }
    SetResult(RValue::makeTensor(std::move(T), In.H));
    return true;
  }
  case OpKind::Transpose: {
    chargeCuda(A, tensorOpCycles(Config, Op) / A.Replicas);
    const RValue &In = Val(0);
    if (!Functional || !In.T) {
      SetResult(RValue::makeTensor(nullptr));
      return true;
    }
    auto T = makeTensorForType(ResultTensorType());
    int64_t R = In.T->getDim(0), C = In.T->getDim(1);
    for (int64_t I = 0; I < R; ++I)
      for (int64_t J = 0; J < C; ++J)
        T->at(J, I) = In.T->at(I, J);
    SetResult(RValue::makeTensor(std::move(T)));
    return true;
  }
  case OpKind::AddF:
  case OpKind::SubF:
  case OpKind::MulF:
  case OpKind::DivF:
  case OpKind::MaxF: {
    chargeCuda(A, tensorOpCycles(Config, Op) / A.Replicas);
    const RValue &L = Val(0), &R = Val(1);
    if (L.K == RValue::Kind::Float) {
      double X = L.F, Y = R.F, Z = 0;
      switch (Op->getKind()) {
      case OpKind::AddF:
        Z = X + Y;
        break;
      case OpKind::SubF:
        Z = X - Y;
        break;
      case OpKind::MulF:
        Z = X * Y;
        break;
      case OpKind::DivF:
        Z = X / Y;
        break;
      case OpKind::MaxF:
        Z = std::max(X, Y);
        break;
      default:
        break;
      }
      SetResult(RValue::makeFloat(Z));
      return true;
    }
    if (!Functional || !L.T) {
      SetResult(RValue::makeTensor(nullptr));
      return true;
    }
    float (*Fn)(float, float) = nullptr;
    switch (Op->getKind()) {
    case OpKind::AddF:
      Fn = +[](float X, float Y) { return X + Y; };
      break;
    case OpKind::SubF:
      Fn = +[](float X, float Y) { return X - Y; };
      break;
    case OpKind::MulF:
      Fn = +[](float X, float Y) { return X * Y; };
      break;
    case OpKind::DivF:
      Fn = +[](float X, float Y) { return X / Y; };
      break;
    case OpKind::MaxF:
      Fn = +[](float X, float Y) { return std::max(X, Y); };
      break;
    default:
      break;
    }
    SetResult(RValue::makeTensor(applyBinary(L.T, R.T, Fn)));
    return true;
  }
  case OpKind::Exp2F: {
    chargeCuda(A, tensorOpCycles(Config, Op) / A.Replicas);
    const RValue &In = Val(0);
    if (!Functional || !In.T) {
      SetResult(RValue::makeTensor(nullptr));
      return true;
    }
    auto T = std::make_shared<TensorData>(*In.T);
    for (int64_t I = 0, EIt = T->getNumElements(); I != EIt; ++I)
      T->at(I) = std::exp2(T->at(I));
    SetResult(RValue::makeTensor(std::move(T)));
    return true;
  }
  case OpKind::Select: {
    chargeCuda(A, tensorOpCycles(Config, Op) / A.Replicas);
    const RValue &C = Val(0), &X = Val(1), &Y = Val(2);
    if (!Functional || !C.T) {
      SetResult(RValue::makeTensor(nullptr));
      return true;
    }
    auto T = makeTensorForType(ResultTensorType());
    for (int64_t I = 0, EIt = T->getNumElements(); I != EIt; ++I)
      T->at(I) = C.T->at(I) != 0.0f ? X.T->at(I) : Y.T->at(I);
    SetResult(RValue::makeTensor(std::move(T)));
    return true;
  }
  case OpKind::Reduce: {
    chargeCuda(A, tensorOpCycles(Config, Op) / A.Replicas);
    const RValue &In = Val(0);
    if (!Functional || !In.T) {
      SetResult(RValue::makeTensor(nullptr));
      return true;
    }
    bool IsMax = Op->getStringAttr("kind") == "max";
    int64_t Axis = Op->getIntAttr("axis");
    auto *InTy = cast<TensorType>(Op->getOperand(0)->getType());
    assert(InTy->getRank() == 2 && "reduce implemented for 2-D tensors");
    (void)InTy;
    int64_t R = In.T->getDim(0), Cn = In.T->getDim(1);
    auto T = makeTensorForType(ResultTensorType());
    if (Axis == 1) {
      for (int64_t I = 0; I < R; ++I) {
        float Acc = IsMax ? -std::numeric_limits<float>::infinity() : 0.0f;
        for (int64_t J = 0; J < Cn; ++J)
          Acc = IsMax ? std::max(Acc, In.T->at(I, J)) : Acc + In.T->at(I, J);
        T->at(I) = Acc;
      }
    } else {
      for (int64_t J = 0; J < Cn; ++J) {
        float Acc = IsMax ? -std::numeric_limits<float>::infinity() : 0.0f;
        for (int64_t I = 0; I < R; ++I)
          Acc = IsMax ? std::max(Acc, In.T->at(I, J)) : Acc + In.T->at(I, J);
        T->at(J) = Acc;
      }
    }
    SetResult(RValue::makeTensor(std::move(T)));
    return true;
  }
  case OpKind::Cast: {
    chargeCuda(A, tensorOpCycles(Config, Op) / A.Replicas);
    const RValue &In = Val(0);
    if (!Functional || !In.T) {
      SetResult(RValue::makeTensor(nullptr));
      return true;
    }
    auto T = std::make_shared<TensorData>(*In.T);
    roundTensorTo(*T, ResultTensorType()->getElementType());
    SetResult(RValue::makeTensor(std::move(T)));
    return true;
  }
  case OpKind::AddPtr: {
    chargeCuda(A, tensorOpCycles(Config, Op) / A.Replicas);
    const RValue &P = Val(0), &Off = Val(1);
    if (!Functional || !P.T) {
      SetResult(RValue::makeTensor(nullptr, P.H));
      return true;
    }
    SetResult(RValue::makeTensor(
        applyBinary(P.T, Off.T, +[](float X, float Y) { return X + Y; }),
        P.H));
    return true;
  }

  //===--- Tile-dialect memory & compute (non-WS paths) -------------------===//
  case OpKind::TmaLoad: {
    auto *Ty = ResultTensorType();
    Action Act;
    if (SwPipelineDepth > 0) {
      Act.Kind = ActionKind::CopyPipelined;
      Act.Lookahead = static_cast<int32_t>(SwPipelineDepth);
      // cp.async copies are issued by the CUDA cores.
      Act.Cycles = static_cast<double>(Ty->getNumBytes()) /
                   Config.CpAsyncIssueBytesPerCycle;
    } else {
      Act.Kind = ActionKind::GLoadSync;
      Act.Cycles = Config.TmaIssueCycles;
    }
    Act.Bytes = Ty->getNumBytes();
    EmitAction(Act);
    if (!Functional) {
      SetResult(RValue::makeTensor(nullptr));
      return true;
    }
    const RValue &Desc = Val(0);
    assert(Desc.K == RValue::Kind::Handle && "tma_load needs a descriptor");
    const RuntimeArg &Arg = Opts.Args[Desc.H];
    std::vector<int64_t> Offsets;
    for (unsigned I = 1, EIt = Op->getNumOperands(); I != EIt; ++I)
      Offsets.push_back(asInt(Val(I)));
    auto T = std::make_shared<TensorData>(Ty->getShape());
    A.Error = loadWindowInto(*Arg.Data, Offsets, T->getShape(), T->data());
    if (!A.Error.empty())
      return false;
    SetResult(RValue::makeTensor(std::move(T)));
    return true;
  }
  case OpKind::TmaStore: {
    const RValue &Desc = Val(0);
    auto *Ty = cast<TensorType>(
        Op->getOperand(Op->getNumOperands() - 1)->getType());
    Action Act;
    Act.Kind = ActionKind::GStoreAsync;
    Act.Bytes = Ty->getNumBytes() / A.Replicas;
    Act.Cycles = static_cast<double>(Ty->getNumElements()) /
                 Config.CudaLanes / A.Replicas;
    EmitAction(Act);
    if (!Functional)
      return true;
    const RValue &V = Val(Op->getNumOperands() - 1);
    std::vector<int64_t> Offsets;
    for (unsigned I = 1, EIt = Op->getNumOperands() - 1; I != EIt; ++I)
      Offsets.push_back(asInt(Val(I)));
    TensorData Rounded = *V.T;
    roundTensorTo(Rounded, Ty->getElementType());
    A.Error = storeWindow(*Opts.Args[Desc.H].Data, Offsets,
                          Rounded.getShape(), Rounded.data());
    return A.Error.empty();
  }
  case OpKind::Store: {
    const RValue &Ptr = Val(0);
    const RValue &V = Val(1);
    auto *Ty = cast<TensorType>(Op->getOperand(1)->getType());
    Action Act;
    Act.Kind = ActionKind::GStoreAsync;
    Act.Bytes = Ty->getNumBytes() / A.Replicas;
    Act.Cycles = static_cast<double>(Ty->getNumElements()) /
                 Config.CudaLanes / A.Replicas;
    EmitAction(Act);
    if (!Functional || !Ptr.T)
      return true;
    assert(Ptr.H >= 0 && "store through an unbound pointer tensor");
    TensorData &Out = *Opts.Args[Ptr.H].Data;
    TensorData Rounded = *V.T;
    roundTensorTo(Rounded, Ty->getElementType());
    for (int64_t I = 0, EIt = Rounded.getNumElements(); I != EIt; ++I) {
      // Linear offsets are carried as f32; exact for the functional test
      // sizes (< 2^24 elements).
      int64_t Linear = static_cast<int64_t>(Ptr.T->at(I));
      if (Linear >= 0 && Linear < Out.getNumElements())
        Out.at(Linear) = Rounded.at(I);
    }
    return true;
  }
  case OpKind::Load: {
    A.Error = "tt.load interpretation not implemented";
    return false;
  }
  case OpKind::AtomicAdd: {
    // Deferred-deterministic reduction: record contributions per-agent (the
    // legacy engine runs agents preemptively); the Interpreter facade
    // applies them in CTA-index order. Costs evaluate the exact double
    // expression the bytecode compiler precomputes.
    const RValue &Ptr = Val(0);
    const RValue &V = Val(1);
    auto *Ty = cast<TensorType>(Op->getOperand(1)->getType());
    Action Act;
    Act.Kind = ActionKind::GStoreAsync;
    Act.Bytes = static_cast<int64_t>(2.0 * Ty->getNumBytes() /
                                     Config.AtomicBwEfficiency) /
                A.Replicas;
    Act.Cycles = (static_cast<double>(Ty->getNumElements()) /
                      Config.CudaLanes +
                  Config.AtomicAddLatencyCycles) /
                 A.Replicas;
    EmitAction(Act);
    // Cooperative replicas redundantly execute the epilogue; only replica 0
    // records (stores are idempotent, accumulation is not).
    if (!Functional || !Ptr.T || A.ReplicaIdx != 0)
      return true;
    assert(Ptr.H >= 0 && "atomic add through an unbound pointer tensor");
    {
      const TensorData &Out = *Opts.Args[Ptr.H].Data;
      AtomicContrib C;
      C.Arg = Ptr.H;
      for (int64_t I = 0, EIt = V.T->getNumElements(); I != EIt; ++I) {
        int64_t Linear = static_cast<int64_t>(Ptr.T->at(I));
        if (Linear >= 0 && Linear < Out.getNumElements()) {
          C.Index.push_back(Linear);
          C.Value.push_back(V.T->at(I));
        }
      }
      A.Atomics.push_back(std::move(C));
    }
    return true;
  }
  case OpKind::LoadScalar: {
    const RValue &Desc = Val(0);
    const RValue &IdxV = Val(1);
    Action Act;
    Act.Kind = ActionKind::GLoadSync;
    Act.Bytes = static_cast<int64_t>(4) / A.Replicas;
    Act.Cycles = Config.SyncLoadLatencyCycles / A.Replicas;
    EmitAction(Act);
    int64_t OutV = 0;
    if (Functional && Desc.H >= 0 && Opts.Args[Desc.H].Data) {
      const TensorData &T = *Opts.Args[Desc.H].Data;
      int64_t Idx = asInt(IdxV);
      if (Idx >= 0 && Idx < T.getNumElements())
        OutV = static_cast<int64_t>(T.at(Idx));
    }
    SetResult(RValue::makeInt(OutV));
    return true;
  }
  case OpKind::Dot: {
    // Tensor-core op in plain tile execution. With software pipelining the
    // Triton compiler keeps one WGMMA in flight past dependent CUDA work
    // (async dot lowering); without it the dot is fully synchronous.
    flushCuda(A);
    Action Issue;
    Issue.Kind = ActionKind::TensorIssue;
    Issue.Cycles = wgmmaCyclesBase(Config, Op) / A.Replicas;
    A.Trace.emit(Issue);
    Action Wait;
    Wait.Kind = ActionKind::TensorWait;
    Wait.Pendings = SwPipelineDepth > 0 ? 1 : 0;
    A.Trace.emit(Wait);
    const RValue &X = Val(0), &Y = Val(1), &Acc = Val(2);
    if (!Functional || !X.T) {
      SetResult(RValue::makeTensor(nullptr));
      return true;
    }
    SetResult(RValue::makeTensor(
        matmulAcc(X.T, Y.T, Acc.T, Op->getIntAttrOr("transB", 0) != 0)));
    return true;
  }

  //===--- Lowered dialect -------------------------------------------------===//
  case OpKind::SmemAlloc: {
    SmemBuffer Buf;
    Buf.Channel = Op->getIntAttrOr("channel", -1);
    Buf.SlotBytes = Op->getIntAttr("slot_bytes");
    Buf.Bytes = Op->getIntAttr("bytes");
    Buf.WritersPerSlot =
        static_cast<int>(Op->getIntAttrOr("writers_per_slot", 1));
    Buf.ReadersPerSlot =
        static_cast<int>(Op->getIntAttrOr("readers_per_slot", 1));
    Buf.Monitors.assign(Op->getIntAttrOr("num_slots", 1), sem::SlotMonitor());
    SmemBuffers.push_back(std::move(Buf));
    SetResult(RValue::makeHandle(
        static_cast<int32_t>(SmemBuffers.size() - 1)));
    return true;
  }
  case OpKind::MBarrierAlloc: {
    BarrierArray Arr;
    Arr.Expected = Op->getIntAttrOr("expected_arrivals", 1);
    Arr.Channel = Op->getIntAttrOr("channel", -1);
    Arr.IsFull = Op->hasAttr("kind") && Op->getStringAttr("kind") == "full";
    Arr.Bars.assign(Op->getIntAttr("num"), FunctionalBarrier());
    BarrierArrays.push_back(std::move(Arr));
    SetResult(RValue::makeHandle(
        static_cast<int32_t>(BarrierArrays.size() - 1)));
    return true;
  }
  case OpKind::MBarrierExpectTx: {
    chargeCuda(A, Config.BarrierOpCycles);
    int32_t Bar = Val(0).H;
    int64_t Idx = asInt(Val(1));
    BarrierArrays[Bar].Bars[Idx].TxExpected += Op->getIntAttr("bytes");
    Action Act;
    Act.Kind = ActionKind::BarExpectTx;
    Act.Bar = Bar;
    Act.Idx = static_cast<int32_t>(Idx);
    Act.Bytes = Op->getIntAttr("bytes");
    Act.Cycles = Config.BarrierOpCycles;
    EmitAction(Act);
    return true;
  }
  case OpKind::MBarrierArrive: {
    if (Op->getNumOperands() > 2) {
      const RValue &Pred = Val(2);
      if (Pred.I == 0)
        return true; // Predicated off.
    }
    int32_t Bar = Val(0).H;
    int64_t Idx = asInt(Val(1));
    BarrierArray &Arr = BarrierArrays[Bar];
    Action Act;
    Act.Kind = ActionKind::BarArrive;
    Act.Bar = Bar;
    Act.Idx = static_cast<int32_t>(Idx);
    Act.Cycles = Config.BarrierOpCycles;
    EmitAction(Act);
    // An arrive on an empty barrier is a consumer releasing a slot.
    if (!Arr.IsFull && Arr.Channel >= 0) {
      HB->recordConsumed(A.Id, Arr.Channel, Idx);
      for (SmemBuffer &Buf : SmemBuffers) {
        if (Buf.Channel != Arr.Channel)
          continue;
        sem::SlotMonitor &Mon = Buf.Monitors[Idx];
        if (Mon.S != Slot::Borrowed)
          recordViolation(formatString(
              "channel %lld slot %lld: released while %s (consumed without "
              "get)",
              static_cast<long long>(Arr.Channel),
              static_cast<long long>(Idx),
              Mon.S == Slot::Empty     ? "empty"
              : Mon.S == Slot::Filling ? "filling"
                                       : "full"));
        if (++Mon.Releases >= Buf.ReadersPerSlot) {
          Mon.S = Slot::Empty;
          Mon.Writes = 0;
          Mon.Releases = 0;
        }
      }
    }
    applyArrival(Bar, Idx, 0);
    return true;
  }
  case OpKind::MBarrierWait: {
    chargeCuda(A, Config.BarrierOpCycles);
    int32_t Bar = Val(0).H;
    int64_t Idx = asInt(Val(1));
    int64_t Parity = asInt(Val(2));
    Action Act;
    Act.Kind = ActionKind::BarWait;
    Act.Bar = Bar;
    Act.Idx = static_cast<int32_t>(Idx);
    Act.Parity = static_cast<int32_t>(Parity % 2);
    Act.Cycles = Config.BarrierOpCycles;
    EmitAction(Act);
    BarrierArray &Arr = BarrierArrays[Bar];
    BlockInfo[A.Id] = {Bar, Idx, Parity};
    // Every wait issued is one watchdog step event, blocked or not.
    // Agents here are preemptive OS threads, so whether the phase has
    // already flipped at issue is a scheduling race — counting only
    // blocking waits would make A.Steps (and the diagnostic snapshots
    // the goldens pin byte-identical) nondeterministic.
    if (watchdogStep(A)) {
      // Not blocked (failed): keep the agent out of the deadlock report
      // and diagnostics, like a Failed bytecode agent.
      BlockInfo.erase(A.Id);
      return false;
    }
    if (!agentWaitUntil(
            A, [&] { return Arr.Bars[Idx].Completions % 2 != Parity % 2; })) {
      A.Error = AbortMsg;
      return false;
    }
    BlockInfo.erase(A.Id);
    if (Arr.Channel >= 0) {
      if (Arr.IsFull)
        HB->recordGet(A.Id, Arr.Channel, Idx);
      else
        HB->recordAcquireEmpty(A.Id, Arr.Channel, Idx);
    }
    return true;
  }
  case OpKind::TmaLoadAsync: {
    chargeCuda(A, Config.TmaIssueCycles);
    int64_t NumOffsets = Op->getIntAttr("num_offsets");
    int32_t Smem = Val(1 + NumOffsets).H;
    int32_t Bar = Val(2 + NumOffsets).H;
    int64_t Idx = asInt(Val(3 + NumOffsets));
    int64_t Bytes = Op->getIntAttr("bytes");
    Action Act;
    Act.Kind = ActionKind::TmaIssue;
    Act.Bar = Bar;
    Act.Idx = static_cast<int32_t>(Idx);
    Act.Bytes = Bytes;
    Act.Cycles = Config.TmaIssueCycles;
    EmitAction(Act);

    SmemBuffer &Buf = SmemBuffers[Smem];
    sem::SlotMonitor &Mon = Buf.Monitors[Idx];
    if (Mon.S == Slot::Full || Mon.S == Slot::Borrowed)
      recordViolation(formatString(
          "channel %lld slot %lld: TMA write while %s (overwrite before "
          "consumed)",
          static_cast<long long>(Buf.Channel), static_cast<long long>(Idx),
          Mon.S == Slot::Full ? "full" : "borrowed"));
    Mon.S = Slot::Filling;
    if (++Mon.Writes >= Buf.WritersPerSlot)
      Mon.S = Slot::Full;
    if (std::string Err = HB->recordWrite(A.Id, Buf.Channel, Idx);
        !Err.empty())
      recordViolation(Err);
    HB->recordPut(A.Id, Buf.Channel, Idx);

    if (Functional) {
      const RValue &Desc = Val(0);
      std::vector<int64_t> Offsets;
      for (unsigned I = 0; I < NumOffsets; ++I)
        Offsets.push_back(asInt(Val(1 + I)));
      TensorData Tile(
          std::get<std::vector<int64_t>>(Op->getAttrs().at("shape")));
      A.Error = loadWindowInto(*Opts.Args[Desc.H].Data, Offsets,
                               Tile.getShape(), Tile.data());
      if (!A.Error.empty())
        return false;
      Buf.Store[{Idx, Op->getIntAttr("slot_offset")}] = std::move(Tile);
    }
    // The copy's arrival (with its transaction bytes) is immediate in the
    // functional model; the replay applies the real transfer latency.
    applyArrival(Bar, Idx, Bytes);
    return true;
  }
  case OpKind::SmemRead: {
    const RValue &Smem = Val(0);
    int64_t Idx = asInt(Val(1));
    SmemBuffer &Buf = SmemBuffers[Smem.H];
    sem::SlotMonitor &Mon = Buf.Monitors[Idx];
    if (Mon.S == Slot::Empty || Mon.S == Slot::Filling)
      recordViolation(formatString(
          "channel %lld slot %lld: read while %s (premature get)",
          static_cast<long long>(Buf.Channel), static_cast<long long>(Idx),
          Mon.S == Slot::Empty ? "empty" : "filling"));
    else
      Mon.S = Slot::Borrowed;
    if (std::string Err = HB->recordRead(A.Id, Buf.Channel, Idx);
        !Err.empty())
      recordViolation(Err);
    if (!Functional) {
      SetResult(RValue::makeTensor(nullptr));
      return true;
    }
    auto It = Buf.Store.find({Idx, Op->getIntAttr("slot_offset")});
    if (It == Buf.Store.end()) {
      recordViolation(formatString(
          "channel %lld slot %lld: reading uninitialized staging data",
          static_cast<long long>(Buf.Channel), static_cast<long long>(Idx)));
      auto T = makeTensorForType(ResultTensorType());
      SetResult(RValue::makeTensor(std::move(T)));
      return true;
    }
    SetResult(
        RValue::makeTensor(std::make_shared<TensorData>(It->second)));
    return true;
  }
  case OpKind::WgmmaIssue: {
    flushCuda(A);
    Action Act;
    Act.Kind = ActionKind::TensorIssue;
    Act.Cycles = wgmmaCyclesBase(Config, Op) / A.Replicas;
    A.Trace.emit(Act);
    const RValue &X = Val(0), &Y = Val(1), &Acc = Val(2);
    if (!Functional || !X.T || !Acc.T) {
      SetResult(RValue::makeTensor(nullptr));
      return true;
    }
    SetResult(RValue::makeTensor(
        matmulAcc(X.T, Y.T, Acc.T, Op->getIntAttrOr("transB", 0) != 0)));
    return true;
  }
  case OpKind::WgmmaWait: {
    flushCuda(A);
    Action Act;
    Act.Kind = ActionKind::TensorWait;
    Act.Pendings = Op->getIntAttr("pendings");
    A.Trace.emit(Act);
    return true;
  }
  case OpKind::FenceAsyncShared:
    chargeCuda(A, Config.BarrierOpCycles);
    return true;

  default:
    A.Error = "unsupported op in interpreter: " + Op->getOneLineSummary();
    return false;
  }
}

bool CtaExec::interpretBlock(Block &B, Env &E, AgentCtx &A) {
  for (Operation &Op : B) {
    if (Op.getKind() == OpKind::WarpGroup)
      continue; // Warp groups are forked by run().
    if (!evalOp(&Op, E, A))
      return false;
  }
  flushCuda(A);
  return true;
}

std::string CtaExec::run(CtaTrace &Out) {
  Functional = Opts.Functional;
  SwPipelineDepth = M.getIntAttrOr("sw_pipeline_depth", 0);
  // Execution watchdog, as in the bytecode engine so budget trips are
  // engine-identical.
  MaxSteps = Opts.MaxSteps;

  Operation *Func = nullptr;
  for (Operation &Op : M.getBody())
    if (isa<FuncOp>(&Op)) {
      Func = &Op;
      break;
    }
  if (!Func)
    return "module has no function";
  Block &Body = static_cast<FuncOp *>(Func)->getBody();

  // Bind arguments.
  Env Shared;
  if (Opts.Args.size() != Body.getNumArguments())
    return "argument count mismatch";
  for (unsigned I = 0, E = Body.getNumArguments(); I != E; ++I) {
    const RuntimeArg &Arg = Opts.Args[I];
    if (Arg.K == RuntimeArg::Kind::Scalar)
      Shared.set(Body.getArgument(I), RValue::makeInt(Arg.Scalar));
    else
      Shared.set(Body.getArgument(I), RValue::makeHandle(I));
  }

  // Collect warp groups; everything else at func level is shared preamble
  // (executed redundantly by all warps on real hardware).
  std::vector<WarpGroupOp *> Groups;
  for (Operation &Op : Body)
    if (auto *WG = dyn_cast<WarpGroupOp>(&Op))
      Groups.push_back(static_cast<WarpGroupOp *>(WG));

  int NumAgents = Groups.empty() ? 1 : static_cast<int>(Groups.size());
  HB = std::make_unique<sem::HappensBeforeTracker>(NumAgents);

  // Interpret the preamble single-threaded.
  AgentCtx Preamble;
  Preamble.Id = 0;
  Preamble.Trace.Name = "preamble";
  {
    std::unique_lock<std::mutex> Lock(Mu);
    Alive = 1;
    for (Operation &Op : Body) {
      if (Op.getKind() == OpKind::WarpGroup ||
          Op.getKind() == OpKind::Return)
        continue;
      if (!evalOp(&Op, Shared, Preamble)) {
        std::string Err = Preamble.Error.empty() ? "preamble execution failed"
                                                 : Preamble.Error;
        maybeFillDiag(Err, {Preamble});
        return Err;
      }
    }
    flushCuda(Preamble);
    Alive = 0;
  }

  std::vector<AgentCtx> Agents(NumAgents);
  if (Groups.empty()) {
    // Plain tile-dialect execution: the preamble pass above already ran the
    // whole body (there were no warp groups to skip)... except it did run
    // everything. Reuse its trace as the single agent.
    Agents[0] = std::move(Preamble);
    Agents[0].Trace.Name = formatString("cta(%lld,%lld)/warps",
                                        static_cast<long long>(PidX),
                                        static_cast<long long>(PidY));
  } else {
    // Fork one agent per warp group.
    Alive = NumAgents;
    std::vector<std::thread> Threads;
    for (int G = 0; G < NumAgents; ++G) {
      AgentCtx &A = Agents[G];
      A.Id = G;
      A.Replicas = Groups[G]->getIntAttrOr("num_replicas", 1);
      A.ReplicaIdx = Groups[G]->getIntAttrOr("replica", 0);
      A.Trace.Replicas = A.Replicas;
      A.Trace.Name = formatString(
          "cta(%lld,%lld)/wg%d(%s)", static_cast<long long>(PidX),
          static_cast<long long>(PidY), G, Groups[G]->getRole().c_str());
      A.Trace.Actions = Preamble.Trace.Actions; // Redundant preamble work.
      Threads.emplace_back([this, &A, WG = Groups[G], &Shared] {
        // Crash containment: an exception escaping the agent body (e.g. a
        // fault-injected allocation failure) becomes a structured per-agent
        // error instead of std::terminate. The lock unwinds with the
        // exception, so the bookkeeping below re-acquires it.
        try {
          std::unique_lock<std::mutex> Lock(Mu);
          Env E;
          E.Outer = &Shared;
          interpretBlock(WG->getBody(), E, A);
          --Alive;
          bumpProgress();
          return;
        } catch (const std::exception &Ex) {
          A.Error = std::string("worker crash: ") + Ex.what();
        } catch (...) {
          A.Error = "worker crash: unknown exception";
        }
        std::lock_guard<std::mutex> Lock(Mu);
        WaitConds.erase(A.Id);
        BlockInfo.erase(A.Id);
        --Alive;
        bumpProgress();
      });
    }
    for (std::thread &T : Threads)
      T.join();
  }

  // Gather errors / violations. Protocol violations are reported first:
  // when a corrupted protocol also wedges the machine, the violation is the
  // root cause and the deadlock the symptom.
  if (!Violations.empty()) {
    std::string All = "protocol violations:";
    for (const std::string &V : Violations)
      All += "\n  " + V;
    if (Aborted)
      All += "\n  (additionally: " + AbortMsg + ")";
    return All;
  }
  for (AgentCtx &A : Agents)
    if (!A.Error.empty()) {
      maybeFillDiag(A.Error, Agents);
      return A.Error;
    }
  if (Aborted) {
    maybeFillDiag(AbortMsg, Agents);
    return AbortMsg;
  }

  // Assemble the CTA trace.
  Out.Agents.clear();
  for (AgentCtx &A : Agents)
    Out.Agents.push_back(std::move(A.Trace));
  Out.NumBarrierArrays = static_cast<int32_t>(BarrierArrays.size());
  for (BarrierArray &Arr : BarrierArrays) {
    Out.BarrierArrivals.push_back(Arr.Expected);
    Out.BarrierSizes.push_back(static_cast<int64_t>(Arr.Bars.size()));
  }
  Out.SmemBytes = 0;
  for (SmemBuffer &Buf : SmemBuffers)
    Out.SmemBytes += Buf.Bytes;
  Out.HbEvents = HB->getNumEvents();
  // Deferred atomic contributions, preamble first then agent-id order (the
  // plain-module path moved the preamble ctx into Agents[0], so its list is
  // already empty here — no double count). Matches the bytecode executor.
  Out.Atomics.clear();
  for (AtomicContrib &C : Preamble.Atomics)
    Out.Atomics.push_back(std::move(C));
  for (AgentCtx &A : Agents)
    for (AtomicContrib &C : A.Atomics)
      Out.Atomics.push_back(std::move(C));
  return "";
}

//===----------------------------------------------------------------------===//
// Entry point
//===----------------------------------------------------------------------===//

std::string tawa::sim::runCtaOracle(Module &M, const GpuConfig &Config,
                                    const RunOptions &Opts, int64_t PidX,
                                    int64_t PidY, CtaTrace &Out) {
  CtaExec Exec(M, Config, Opts, PidX, PidY);
  std::string Err = Exec.run(Out);
  if (Err.empty())
    applyAtomicContribs(Opts, Out.Atomics);
  return Err;
}

// The serial half of Interpreter::runGrid, restated: the worker-task fault
// site is keyed by serial CTA index with the same message, atomics are
// applied in CTA order (runCtaOracle applies them as it goes), and the
// first failing CTA stops the loop, so Opts.Diag holds its snapshot and its
// error carries the "cta (x,y): " prefix.
std::string tawa::sim::runGridOracle(Module &M, const GpuConfig &Config,
                                     const RunOptions &Opts,
                                     std::vector<CtaTrace> *AllTraces) {
  if (AllTraces) {
    AllTraces->clear();
    AllTraces->resize(Opts.GridX * Opts.GridY);
  }
  for (int64_t Y = 0; Y < Opts.GridY; ++Y)
    for (int64_t X = 0; X < Opts.GridX; ++X) {
      int64_t Index = Y * Opts.GridX + X;
      CtaTrace Local;
      CtaTrace &T = AllTraces ? (*AllTraces)[Index] : Local;
      std::string Err;
      try {
        if (faults::enabled() &&
            faults::shouldFail(faults::Site::WorkerTask, Index))
          throw std::runtime_error(
              formatString("injected worker-task fault (item %lld)",
                           static_cast<long long>(Index)));
        Err = runCtaOracle(M, Config, Opts, X, Y, T);
      } catch (const std::exception &Ex) {
        Err = std::string("worker crash: ") + Ex.what();
      } catch (...) {
        Err = "worker crash: unknown exception";
      }
      if (!Err.empty())
        return formatString("cta (%lld,%lld): ", static_cast<long long>(X),
                            static_cast<long long>(Y)) +
               Err;
    }
  return "";
}
