//===- Executor.cpp - Slot-indexed bytecode execution -------------------------//
//
// Executes a CompiledProgram for one CTA. The per-op hot path dispatches
// over the dense opcode with all operands pre-resolved to flat vector
// slots, all attributes pre-materialized into immediates, and all cost-model
// values precomputed; shared-memory staging data lives in a flat per-buffer
// vector keyed by (slot, field) instead of an ordered map.
//
// Dispatch is token-threaded through GCC's computed goto ("labels as
// values"): every handler jumps directly through a label table indexed by
// the next opcode, so the branch predictor sees one indirect branch per
// handler instead of one shared switch branch. Computed goto is a GNU
// extension; the library already requires GCC (ExecCommon.cpp calls
// __builtin_shuffle).
//
// The superinstruction opcodes emitted by the peephole pass (Peephole.h)
// execute the exact sequence they replaced — same helper functions, same
// order of charges, trace emissions, monitor updates and happens-before
// records — so fused programs are observably identical to unfused ones
// (tests/bytecode_diff_test.cpp's three-way differential).
//
// Scheduling: warp-group agents are cooperative fibers, not threads.
// Because an agent's entire continuation is its program counter plus the
// flat slot vector, blocking on an mbarrier is "save pc, mark the tagged
// WaitCond, return to the scheduler" — something the recursive tree-walking
// oracle cannot do, which is why it needs one OS thread per agent and a
// global mutex. The round-robin scheduler resumes agents whose wait
// condition holds and declares deadlock when no agent can run; agents
// observe the same data-driven interleaving as the legacy engine (whose
// threads are serialized by one lock and hand off at the same blocking
// points), so traces, protocol monitoring, happens-before recording and
// deadlock reports are observably identical — and execution is fully
// deterministic.
//
//===----------------------------------------------------------------------===//

#include "sim/Bytecode.h"

#include "sem/ArefSemantics.h"
#include "sem/HappensBefore.h"
#include "sim/Diag.h"
#include "sim/ExecCommon.h"
#include "sim/Interpreter.h"
#include "support/Status.h"
#include "support/Support.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <vector>

using namespace tawa;
using namespace tawa::sim;
using namespace tawa::sim::bc;
using namespace tawa::sim::exec;

namespace {

/// A shared-memory staging buffer with flat (slot, field) tensor storage.
/// Tiles are stored by reference: a TMA deposit installs a fresh tensor, so
/// a consumer's SmemRead shares the deposited tile without copying (ops
/// never mutate their operands). Null entries are uninitialized slots.
struct ExecSmem {
  int64_t Channel = -1;
  int64_t SlotBytes = 0;
  int64_t Bytes = 0;
  int Writers = 1;
  int Readers = 1;
  int64_t NumFields = 1;
  std::vector<sem::SlotMonitor> Monitors;
  std::vector<TensorRef> Store;    ///< NumSlots * NumFields, dense.
};

/// The tagged replacement for the legacy std::function wait conditions: an
/// mbarrier phase test the scheduler evaluates inline.
struct WaitCond {
  int32_t Bar = 0;
  int64_t Idx = 0;
  int64_t Parity = 0;
};

/// One cooperative agent: program counter + flat environment. Suspending at
/// a wait is just returning to the scheduler with the pc saved.
struct AgentRun {
  enum class State : uint8_t { Runnable, Blocked, Done, Failed };
  const RegionProgram *RP = nullptr;
  int32_t Pc = 0;
  std::vector<RValue> Env;
  AgentCtx A;
  State St = State::Runnable;
  WaitCond W;
  /// Set by the scheduler when it resumes this agent from Blocked (the
  /// wait condition holds): a fused wait superinstruction must skip its
  /// already-executed issue half on re-entry. Consumed by step().
  bool Resumed = false;
};

class BcExec {
public:
  BcExec(const CompiledProgram &P, const RunOptions &Opts, int64_t PidX,
         int64_t PidY, TileArena *ExternalArena)
      : P(P), Config(P.Config), Opts(Opts), PidX(PidX), PidY(PidY),
        Arena(ExternalArena ? ExternalArena : &LocalArena) {}

  std::string run(CtaTrace &Out);

private:
  void step(AgentRun &R);
  /// Runs \p Agents round-robin until all finish or none can progress
  /// (deadlock). Returns false on deadlock.
  bool schedule(std::vector<AgentRun> &Agents);

  bool waitSatisfied(const WaitCond &W) const {
    return BarrierArrays[W.Bar].Bars[W.Idx].Completions % 2 != W.Parity % 2;
  }

  void applyArrival(int32_t BarId, int64_t Idx, int64_t TxBytes) {
    BarrierArray &Arr = BarrierArrays[BarId];
    FunctionalBarrier &B = Arr.Bars[Idx];
    ++B.Arrivals;
    B.TxArrived += TxBytes;
    if (B.Arrivals >= Arr.Expected && B.TxArrived >= B.TxExpected) {
      ++B.Completions;
      B.Arrivals = 0;
      B.TxArrived = 0;
      B.TxExpected = 0;
    }
  }

  void recordViolation(std::string S) { Violations.push_back(std::move(S)); }

  void emitAction(AgentCtx &A, const Action &Act) {
    flushCuda(A);
    A.Trace.emit(Act);
  }

  const RValue &operand(const Inst &I, std::vector<RValue> &S,
                        int64_t K) const {
    return S[P.OperandSlots[I.OpBegin + K]];
  }

  /// Fresh arena-backed tile, uninitialized (every caller overwrites or
  /// fills it — Arena.h's contract). Control block and payload are both
  /// pooled in the arena: zero heap traffic per produced tile.
  TensorRef makeTile(TensorType *Ty) { return makeTileForType(Ty, *Arena); }
  /// Arena-backed deep copy (the clone-and-mutate ops: Exp2, Cast).
  TensorRef cloneTile(const TensorData &T) {
    return cloneArenaTile(T, *Arena);
  }

  //===--- Handler bodies shared between base ops and superinstructions ---===//
  // Keeping these in exactly one place is what makes fused execution
  // bit-identical: a superinstruction runs the same statements in the same
  // order as the sequence it replaced.

  /// IntBin-family arithmetic (post-charge): kind \p K into slot
  /// \p Result. Returns false when the elementwise path hits the
  /// precompiled unsupported-op diagnostic — the caller fails the agent
  /// with the matching message id.
  bool intBinaryK(OpKind K, int32_t Result, const RValue &L,
                  const RValue &R, std::vector<RValue> &S) {
    if (L.K == RValue::Kind::Int) {
      int64_t X = L.I, Y = R.I, Z = 0;
      switch (K) {
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
      S[Result] = RValue::makeInt(Z);
      return true;
    }
    // Tensor (elementwise) integer arithmetic — index math for masks and
    // pointer offsets.
    if (!Functional || !L.T) {
      S[Result] = RValue::makeTensor(nullptr, L.H);
      return true;
    }
    float (*Fn)(float, float) = nullptr;
    switch (K) {
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
      return false;
    }
    S[Result] = RValue::makeTensor(applyBinary(L.T, R.T, Fn, Arena), L.H);
    return true;
  }

  bool intBinary(const Inst &I, const RValue &L, const RValue &R,
                 std::vector<RValue> &S) {
    return intBinaryK(static_cast<OpKind>(I.Imm0), I.Result, L, R, S);
  }

  /// FloatBin-family arithmetic (post-charge): kind \p K into slot
  /// \p Result. Unsupported kinds behave exactly like the base FloatBin
  /// op (scalar: zero; tensor: null function — unreachable from typed IR).
  void floatBinaryK(OpKind K, int32_t Result, const RValue &L,
                    const RValue &R, std::vector<RValue> &S) {
    if (L.K == RValue::Kind::Float) {
      double X = L.F, Y = R.F, Z = 0;
      switch (K) {
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
      S[Result] = RValue::makeFloat(Z);
      return;
    }
    if (!Functional || !L.T) {
      S[Result] = RValue::makeTensor(nullptr);
      return;
    }
    float (*Fn)(float, float) = nullptr;
    switch (K) {
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
    S[Result] = RValue::makeTensor(applyBinary(L.T, R.T, Fn, Arena));
  }

  /// Issue half of an mbarrier wait: cost + BarWait trace action.
  void waitIssue(AgentCtx &A, int32_t Bar, int64_t Idx, int64_t Parity) {
    chargeCuda(A, Config.BarrierOpCycles);
    Action Act;
    Act.Kind = ActionKind::BarWait;
    Act.Bar = Bar;
    Act.Idx = static_cast<int32_t>(Idx);
    Act.Parity = static_cast<int32_t>(Parity % 2);
    Act.Cycles = Config.BarrierOpCycles;
    emitAction(A, Act);
  }

  /// Issue-then-block-or-resume prologue shared by the fused wait
  /// superinstructions (WaitFused/WaitRead/WaitRead2), whose operands 0-2
  /// are (bar, idx, parity). First entry runs the issue half and blocks
  /// if the phase has not flipped (returns true — the caller saves
  /// nothing further and returns to the scheduler); a scheduler resume
  /// (\p Resumed) skips the already-emitted issue half.
  bool fusedWaitPrologue(AgentRun &Run, int32_t Pc, bool &Resumed,
                         const Inst &I, std::vector<RValue> &S) {
    if (Resumed) {
      Resumed = false;
      return false;
    }
    int32_t Bar = operand(I, S, 0).H;
    int64_t Idx = asInt(operand(I, S, 1));
    int64_t Parity = asInt(operand(I, S, 2));
    waitIssue(Run.A, Bar, Idx, Parity);
    // Every wait issued is one watchdog step event, blocked or not
    // (ExecCommon.h AgentCtx) — counting only waits that happen to block
    // would make step counts depend on agent scheduling.
    if (watchdogStep(Run, Pc))
      return true;
    WaitCond W;
    W.Bar = Bar;
    W.Idx = Idx;
    W.Parity = Parity;
    if (!waitSatisfied(W)) {
      Run.W = W;
      Run.St = AgentRun::State::Blocked;
      Run.Pc = Pc;
      return true;
    }
    return false;
  }

  /// Acquire half, run once the phase has flipped: happens-before records.
  void waitAcquire(AgentCtx &A, int32_t Bar, int64_t Idx) {
    BarrierArray &Arr = BarrierArrays[Bar];
    if (Arr.Channel >= 0) {
      if (Arr.IsFull)
        HB->recordGet(A.Id, Arr.Channel, Idx);
      else
        HB->recordAcquireEmpty(A.Id, Arr.Channel, Idx);
    }
  }

  /// SmemRead body: protocol monitor, happens-before record, result
  /// install. Parametrized over (Result, FieldIdx, Ty) so the fused
  /// two-read WaitRead2 can run it once per field.
  void smemReadBody(int32_t Result, int64_t FieldIdx, TensorType *Ty,
                    AgentCtx &A, int32_t SmemH, int64_t Idx,
                    std::vector<RValue> &S) {
    ExecSmem &Buf = SmemBuffers[SmemH];
    if (std::string Err = Buf.Monitors[Idx].read(Buf.Channel, Idx);
        !Err.empty())
      recordViolation(std::move(Err));
    if (std::string Err = HB->recordRead(A.Id, Buf.Channel, Idx);
        !Err.empty())
      recordViolation(Err);
    if (!Functional) {
      S[Result] = RValue::makeTensor(nullptr);
      return;
    }
    size_t Key = Idx * Buf.NumFields + FieldIdx;
    if (!Buf.Store[Key]) {
      recordViolation(formatString(
          "channel %lld slot %lld: reading uninitialized staging data",
          static_cast<long long>(Buf.Channel),
          static_cast<long long>(Idx)));
      auto T = makeTile(Ty);
      T->fill(0.0f); // Matches the legacy engine's zeroed fallback tile.
      S[Result] = RValue::makeTensor(std::move(T));
      return;
    }
    // Share the deposited tile: ops never mutate operands, and a later
    // deposit installs a new tensor instead of writing this one.
    S[Result] = RValue::makeTensor(Buf.Store[Key]);
  }

  /// TmaLoadAsync body. \p OpBase is where the offset operands start (1
  /// for the plain op whose operand 0 is the descriptor, 2 for
  /// TmaLoadAsyncOff whose operands 0/1 are the fused AddPtr inputs);
  /// \p Desc is the resolved descriptor value. Returns false, with
  /// A.Error set, when the window does not fit the tensor argument.
  bool tmaLoadAsyncBody(const Inst &I, AgentCtx &A, const RValue &Desc,
                        int64_t OpBase, std::vector<RValue> &S) {
    chargeCuda(A, Config.TmaIssueCycles);
    int64_t NumOffsets = I.Imm0;
    int32_t Smem = operand(I, S, OpBase + NumOffsets).H;
    int32_t Bar = operand(I, S, OpBase + 1 + NumOffsets).H;
    int64_t Idx = asInt(operand(I, S, OpBase + 2 + NumOffsets));
    int64_t Bytes = I.Imm1;
    Action Act;
    Act.Kind = ActionKind::TmaIssue;
    Act.Bar = Bar;
    Act.Idx = static_cast<int32_t>(Idx);
    Act.Bytes = Bytes;
    Act.Cycles = Config.TmaIssueCycles;
    emitAction(A, Act);

    ExecSmem &Buf = SmemBuffers[Smem];
    if (std::string Err =
            Buf.Monitors[Idx].write(Buf.Writers, Buf.Channel, Idx);
        !Err.empty())
      recordViolation(std::move(Err));
    if (std::string Err = HB->recordWrite(A.Id, Buf.Channel, Idx);
        !Err.empty())
      recordViolation(Err);
    HB->recordPut(A.Id, Buf.Channel, Idx);

    if (Functional) {
      std::vector<int64_t> Offsets;
      for (int64_t K = 0; K < NumOffsets; ++K)
        Offsets.push_back(asInt(operand(I, S, OpBase + K)));
      size_t Key = Idx * Buf.NumFields + I.Imm2;
      // Install a fresh tile rather than overwriting in place: consumers
      // that already read this slot keep their snapshot.
      auto T = makeArenaTile(P.IntVecs[I.Aux], *Arena);
      A.Error = loadWindowInto(*Opts.Args[Desc.H].Data, Offsets,
                               T->getShape(), T->data());
      if (!A.Error.empty())
        return false;
      Buf.Store[Key] = std::move(T);
    }
    // The copy's arrival (with its transaction bytes) is immediate in the
    // functional model; the replay applies the real transfer latency.
    applyArrival(Bar, Idx, Bytes);
    return true;
  }

  const CompiledProgram &P;
  const GpuConfig &Config;
  const RunOptions &Opts;
  int64_t PidX, PidY;
  TileArena *Arena;      ///< Tile payload arena; reset at the start of run().
  TileArena LocalArena;  ///< Fallback when the caller supplies none.
  bool Functional = true;

  std::vector<ExecSmem> SmemBuffers;
  std::vector<BarrierArray> BarrierArrays;
  std::vector<std::string> Violations;
  std::unique_ptr<sem::HappensBeforeTracker> HB;

  bool Aborted = false;
  std::string AbortMsg;
  std::vector<RValue> Gather; ///< LoopEnd yield staging (single-threaded).

  //===--- Execution watchdog + abort diagnostics (docs/robustness.md) ---===//

  int64_t MaxSteps = 0;  ///< Opts.MaxSteps, read in run(); 0 = off.
  std::chrono::steady_clock::time_point WallDeadline;
  uint32_t WallCheckTick = 0; ///< Clock polled every 1024 step events.
  /// Scheduler state snapshotted after schedule() while the AgentRuns are
  /// still alive, so an abort return can fill Opts.Diag after the AgentCtxs
  /// have been moved out.
  std::vector<ExecDiagnostic::Agent> DiagAgents;

  /// Watchdog accounting at one engine-independent step event (a loop
  /// iteration starting, or an mbarrier wait issuing). Waits count at
  /// issue whether or not they block: "did it block" depends on how far
  /// the other agents have run, which the legacy engine's preemptive
  /// threads cannot decide deterministically. Returns true when a budget
  /// tripped — the agent is Failed with its pc saved and the handler must
  /// return to the scheduler. Counting runs unconditionally (the counter
  /// feeds diagnostics); the compares are off at budget 0.
  bool watchdogStep(AgentRun &Run, int32_t Pc) {
    AgentCtx &A = Run.A;
    ++A.Steps;
    if (MaxSteps > 0 && A.Steps > MaxSteps) {
      A.Error = formatString(
          "step budget exceeded: agent %d used %lld steps (budget %lld)",
          A.Id, static_cast<long long>(A.Steps),
          static_cast<long long>(MaxSteps));
    } else if (Opts.MaxWallMs > 0 && (++WallCheckTick & 1023u) == 0 &&
               std::chrono::steady_clock::now() >= WallDeadline) {
      A.Error = formatString(
          "wall clock budget exceeded: cta did not finish within %lld ms",
          static_cast<long long>(Opts.MaxWallMs));
    } else {
      return false;
    }
    Run.St = AgentRun::State::Failed;
    Run.Pc = Pc;
    return true;
  }

  /// Captures per-agent scheduler state for a later maybeFillDiag. Cheap
  /// and called only when Opts.Diag is set.
  void snapshotAgents(const std::vector<AgentRun> &Runs) {
    DiagAgents.clear();
    for (const AgentRun &R : Runs) {
      ExecDiagnostic::Agent D;
      D.Id = R.A.Id;
      D.Name = R.A.Trace.Name;
      D.Steps = R.A.Steps;
      switch (R.St) {
      case AgentRun::State::Done:
        D.State = "done";
        break;
      case AgentRun::State::Failed:
        D.State = "failed";
        D.Error = R.A.Error;
        break;
      case AgentRun::State::Blocked:
      case AgentRun::State::Runnable:
        D.State = "blocked"; // Post-schedule, unfinished == blocked.
        break;
      }
      if (R.St == AgentRun::State::Blocked) {
        const BarrierArray &Arr = BarrierArrays[R.W.Bar];
        D.HasWait = true;
        D.WaitKind = Arr.IsFull ? "full" : "empty";
        D.WaitIndex = R.W.Idx;
        D.WaitChannel = Arr.Channel;
        D.WaitParity = R.W.Parity; // Raw, matching the deadlock message.
        D.WaitCompletions = Arr.Bars[R.W.Idx].Completions;
      }
      DiagAgents.push_back(std::move(D));
    }
  }

  /// Fills Opts.Diag for the abort kinds that have a machine-state
  /// post-mortem (deadlock and watchdog trips); other errors leave it
  /// untouched.
  void maybeFillDiag(const std::string &Err) {
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
    D.Agents = DiagAgents;
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
    for (const ExecSmem &Buf : SmemBuffers) {
      ExecDiagnostic::Channel C;
      C.Id = Buf.Channel;
      for (const sem::SlotMonitor &M : Buf.Monitors)
        C.Slots.push_back(M.letter());
      D.Channels.push_back(std::move(C));
    }
  }
};

bool BcExec::schedule(std::vector<AgentRun> &Agents) {
  for (;;) {
    bool AllFinished = true;
    bool Progress = false;
    for (AgentRun &R : Agents) {
      if (R.St == AgentRun::State::Done || R.St == AgentRun::State::Failed)
        continue;
      AllFinished = false;
      if (R.St == AgentRun::State::Blocked) {
        if (!waitSatisfied(R.W))
          continue;
        // The fused wait superinstructions use this to skip their
        // already-executed issue half on re-entry.
        R.Resumed = true;
      }
      R.St = AgentRun::State::Runnable;
      step(R);
      Progress = true;
    }
    if (AllFinished)
      return true;
    if (!Progress) {
      // Every unfinished agent is blocked on an unsatisfiable condition.
      Aborted = true;
      AbortMsg = "deadlock: every warp group is blocked on an mbarrier wait";
      for (AgentRun &R : Agents) {
        if (R.St != AgentRun::State::Blocked)
          continue;
        const BarrierArray &Arr = BarrierArrays[R.W.Bar];
        AbortMsg += formatString(
            "\n  agent %d waits %s[%lld] (channel %lld) parity %lld, "
            "completions %lld",
            R.A.Id, Arr.IsFull ? "full" : "empty",
            static_cast<long long>(R.W.Idx),
            static_cast<long long>(Arr.Channel),
            static_cast<long long>(R.W.Parity),
            static_cast<long long>(Arr.Bars[R.W.Idx].Completions));
      }
      for (AgentRun &R : Agents)
        if (R.St == AgentRun::State::Blocked)
          R.A.Error = AbortMsg;
      return false;
    }
  }
}

//===----------------------------------------------------------------------===//
// The dispatch loop
//===----------------------------------------------------------------------===//
//
// Handlers are labels; TAWA_NEXT()/TAWA_JUMP() jump through the label table
// indexed by the next opcode, one indirect branch per handler.
//
// Handler contract: a body either falls off its end via TAWA_NEXT()
// (advance one instruction), sets Pc itself and calls TAWA_JUMP(), or
// returns (Halt / failure / block) with Run.Pc saved.

void BcExec::step(AgentRun &Run) {
  const Inst *Code = Run.RP->Code.data();
  const int32_t *OpSlot = P.OperandSlots.data();
  std::vector<RValue> &S = Run.Env;
  AgentCtx &A = Run.A;
  int32_t Pc = Run.Pc;
  // One-shot resume flag: true only when the scheduler re-entered this
  // agent at a blocked (possibly fused) wait whose condition now holds.
  bool Resumed = Run.Resumed;
  Run.Resumed = false;
  const Inst *IP = Code + Pc;
  auto V = [&](int64_t K) -> const RValue & {
    return S[OpSlot[IP->OpBegin + K]];
  };

  // Label table in exact BcOp order (static_assert below guards drift).
  static const void *const Dispatch[NumBcOps] = {
      &&op_Nop,          &&op_LoopBegin,       &&op_LoopEnd,
      &&op_Unsupported,  &&op_Halt,            &&op_ConstInt,
      &&op_ConstFloat,   &&op_ProgramId,       &&op_NumPrograms,
      &&op_IntBin,       &&op_ConstTensor,     &&op_MakeRange,
      &&op_Splat,        &&op_ExpandBroadcast, &&op_Transpose2D,
      &&op_FloatBin,     &&op_Exp2,            &&op_Select,
      &&op_Reduce,       &&op_Cast,            &&op_AddPtr,
      &&op_TmaLoad,      &&op_TmaStore,        &&op_Store,
      &&op_Dot,          &&op_SmemAlloc,       &&op_MBarrierAlloc,
      &&op_MBarrierExpectTx, &&op_MBarrierArrive, &&op_MBarrierWait,
      &&op_MBarrierWaitBlock, &&op_TmaLoadAsync, &&op_SmemRead,
      &&op_WgmmaIssue,   &&op_WgmmaWait,       &&op_Fence,
      &&op_IntBinImm,    &&op_WaitFused,       &&op_WaitRead,
      &&op_TmaLoadAsyncOff, &&op_LoopEndFast,  &&op_ConstIntBin,
      &&op_IntBin2,      &&op_FloatBin2,       &&op_WgmmaIssueWait,
      &&op_TmaLoadAsyncTx, &&op_IntBinImm2,    &&op_ConstIntBin2,
      &&op_WaitRead2,    &&op_AtomicAdd,       &&op_LoadScalar,
  };
  static_assert(NumBcOps == 51, "update the dispatch table with the enum");
// TAWA_NEXT/TAWA_JUMP are indirect gotos, and GCC does NOT run destructors
// of in-scope nontrivial locals on an indirect goto (the jump target is
// opaque to the cleanup machinery). Handler bodies must therefore close the
// scope of any heap-owning local (std::vector, non-moved shared_ptr,
// TensorData) BEFORE dispatching — the LeakSanitizer leg of scripts/check.sh
// catches violations.
#define TAWA_CASE(name) op_##name
#define TAWA_DISPATCH()                                                     \
  do {                                                                      \
    IP = Code + Pc;                                                         \
    goto *Dispatch[static_cast<size_t>(IP->Op)];                            \
  } while (0)
#define TAWA_NEXT()                                                         \
  do {                                                                      \
    ++Pc;                                                                   \
    TAWA_DISPATCH();                                                        \
  } while (0)
#define TAWA_JUMP() TAWA_DISPATCH()
  TAWA_DISPATCH();

    TAWA_CASE(Nop) : { TAWA_NEXT(); }
    TAWA_CASE(Halt) : {
      flushCuda(A);
      Run.St = AgentRun::State::Done;
      Run.Pc = Pc;
      return;
    }
    TAWA_CASE(Unsupported) : {
      A.Error = P.Messages[IP->MsgId];
      Run.St = AgentRun::State::Failed;
      Run.Pc = Pc;
      return;
    }

    //===--- Control ------------------------------------------------------===//
    TAWA_CASE(LoopBegin) : {
      const Inst &I = *IP;
      const LoopInfo &L = P.Loops[I.Aux];
      int64_t Lb = asInt(S[L.LbSlot]), Ub = asInt(S[L.UbSlot]);
      assert(asInt(S[L.StepSlot]) > 0 && "non-positive loop step");
      for (size_t K = 0, E = L.InitSlots.size(); K != E; ++K)
        S[L.IterSlots[K]] = S[L.InitSlots[K]];
      S[L.IvSlot] = RValue::makeInt(Lb);
      if (Lb >= Ub) {
        for (size_t K = 0, E = L.ResultSlots.size(); K != E; ++K)
          S[L.ResultSlots[K]] = S[L.IterSlots[K]];
        Pc = L.ExitPc;
        TAWA_JUMP();
      }
      // First iteration starting: one watchdog step event.
      if (watchdogStep(Run, Pc))
        return;
      if (L.Pipelined) {
        flushCuda(A);
        Action Mark;
        Mark.Kind = ActionKind::IterMark;
        A.Trace.emit(Mark);
      }
      TAWA_NEXT();
    }
    TAWA_CASE(LoopEnd) : {
      const Inst &I = *IP;
      const LoopInfo &L = P.Loops[I.Aux];
      Gather.clear();
      for (int32_t Y : L.YieldSlots)
        Gather.push_back(S[Y]);
      for (size_t K = 0, E = L.IterSlots.size(); K != E; ++K)
        S[L.IterSlots[K]] = std::move(Gather[K]);
      if (L.Pipelined) {
        // Per-iteration block-wide synchronization of the cp.async scheme.
        flushCuda(A);
        Action Sync;
        Sync.Kind = ActionKind::CtaSync;
        Sync.Cycles = Config.NamedBarrierSyncCycles;
        A.Trace.emit(Sync);
      }
      int64_t Iv = S[L.IvSlot].I + asInt(S[L.StepSlot]);
      if (Iv < asInt(S[L.UbSlot])) {
        // Back edge taken — the next iteration starts: one step event.
        if (watchdogStep(Run, Pc))
          return;
        S[L.IvSlot].I = Iv;
        if (L.Pipelined) {
          flushCuda(A);
          Action Mark;
          Mark.Kind = ActionKind::IterMark;
          A.Trace.emit(Mark);
        }
        Pc = L.BodyPc;
        TAWA_JUMP();
      }
      for (size_t K = 0, E = L.ResultSlots.size(); K != E; ++K)
        S[L.ResultSlots[K]] = S[L.IterSlots[K]];
      Pc = L.ExitPc;
      TAWA_JUMP();
    }
    TAWA_CASE(LoopEndFast) : {
      // Non-pipelined, yield slots disjoint from iter slots (the peephole
      // pass proved it): the aliasing-safe gather staging of the general
      // LoopEnd is unnecessary — direct slot copies are identical.
      const LoopInfo &L = P.Loops[IP->Aux];
      for (size_t K = 0, E = L.YieldSlots.size(); K != E; ++K)
        S[L.IterSlots[K]] = S[L.YieldSlots[K]];
      int64_t Iv = S[L.IvSlot].I + asInt(S[L.StepSlot]);
      if (Iv < asInt(S[L.UbSlot])) {
        // Back edge taken — the next iteration starts: one step event.
        if (watchdogStep(Run, Pc))
          return;
        S[L.IvSlot].I = Iv;
        Pc = L.BodyPc;
        TAWA_JUMP();
      }
      for (size_t K = 0, E = L.ResultSlots.size(); K != E; ++K)
        S[L.ResultSlots[K]] = S[L.IterSlots[K]];
      Pc = L.ExitPc;
      TAWA_JUMP();
    }

    //===--- Scalars ------------------------------------------------------===//
    TAWA_CASE(ConstInt) : {
      S[IP->Result] = RValue::makeInt(IP->Imm0);
      TAWA_NEXT();
    }
    TAWA_CASE(ConstFloat) : {
      S[IP->Result] = RValue::makeFloat(IP->FImm);
      TAWA_NEXT();
    }
    TAWA_CASE(ProgramId) : {
      S[IP->Result] = RValue::makeInt(IP->Imm0 == 0 ? PidX : PidY);
      TAWA_NEXT();
    }
    TAWA_CASE(NumPrograms) : {
      S[IP->Result] =
          RValue::makeInt(IP->Imm0 == 0 ? Opts.GridX : Opts.GridY);
      TAWA_NEXT();
    }

    TAWA_CASE(IntBin) : {
      const Inst &I = *IP;
      chargeCuda(A, I.Cost / A.Replicas);
      if (!intBinary(I, V(0), V(1), S)) {
        A.Error = P.Messages[I.MsgId];
        Run.St = AgentRun::State::Failed;
        Run.Pc = Pc;
        return;
      }
      TAWA_NEXT();
    }
    TAWA_CASE(IntBinImm) : {
      // ConstInt + IntBin, dead constant slot: the constant rides in Imm1
      // (at side Imm2), the one surviving operand in the slot list.
      // Arithmetic and failure behavior are exactly intBinary's — the
      // same helper the base op calls.
      const Inst &I = *IP;
      chargeCuda(A, I.Cost / A.Replicas);
      RValue C = RValue::makeInt(I.Imm1);
      const RValue &Other = V(0);
      const RValue &L = I.Imm2 == 0 ? C : Other;
      const RValue &R = I.Imm2 == 0 ? Other : C;
      if (!intBinary(I, L, R, S)) {
        A.Error = P.Messages[I.MsgId];
        Run.St = AgentRun::State::Failed;
        Run.Pc = Pc;
        return;
      }
      TAWA_NEXT();
    }
    TAWA_CASE(ConstIntBin) : {
      // ConstInt + IntBin, constant slot still live elsewhere: perform
      // the constant's slot write, then the binop over its unchanged
      // operand slots.
      const Inst &I = *IP;
      S[I.Imm3] = RValue::makeInt(I.Imm1);
      chargeCuda(A, I.Cost / A.Replicas);
      if (!intBinary(I, V(0), V(1), S)) {
        A.Error = P.Messages[I.MsgId];
        Run.St = AgentRun::State::Failed;
        Run.Pc = Pc;
        return;
      }
      TAWA_NEXT();
    }
    TAWA_CASE(IntBinImm2) : {
      // IntBinImm + IntBinImm: two constant-folded binops per dispatch.
      // Imm0 packs both kinds and both constant sides; operands are the
      // two variable slots (the second is read after the first result is
      // written, exactly as unfused).
      const Inst &I = *IP;
      OpKind K1 = static_cast<OpKind>(I.Imm0 & 0xffff);
      OpKind K2 = static_cast<OpKind>((I.Imm0 >> 16) & 0xffff);
      chargeCuda(A, I.Cost / A.Replicas);
      {
        RValue C = RValue::makeInt(I.Imm1);
        const RValue &Other = V(0);
        bool ConstLeft = ((I.Imm0 >> 32) & 1) == 0;
        if (!intBinaryK(K1, I.Result, ConstLeft ? C : Other,
                        ConstLeft ? Other : C, S)) {
          A.Error = P.Messages[I.MsgId];
          Run.St = AgentRun::State::Failed;
          Run.Pc = Pc;
          return;
        }
      }
      chargeCuda(A, I.FImm / A.Replicas);
      {
        RValue C = RValue::makeInt(I.Imm2);
        const RValue &Other = V(1);
        bool ConstLeft = ((I.Imm0 >> 33) & 1) == 0;
        if (!intBinaryK(K2, static_cast<int32_t>(I.Imm3),
                        ConstLeft ? C : Other, ConstLeft ? Other : C, S)) {
          A.Error = P.Messages[I.Aux];
          Run.St = AgentRun::State::Failed;
          Run.Pc = Pc;
          return;
        }
      }
      TAWA_NEXT();
    }
    TAWA_CASE(ConstIntBin2) : {
      // ConstIntBin + IntBin: the live constant write, then two binops.
      const Inst &I = *IP;
      S[I.Imm3] = RValue::makeInt(I.Imm1);
      chargeCuda(A, I.Cost / A.Replicas);
      if (!intBinaryK(static_cast<OpKind>(I.Imm0 & 0xffff), I.Result, V(0),
                      V(1), S)) {
        A.Error = P.Messages[I.MsgId];
        Run.St = AgentRun::State::Failed;
        Run.Pc = Pc;
        return;
      }
      chargeCuda(A, I.FImm / A.Replicas);
      if (!intBinaryK(static_cast<OpKind>(I.Imm2 & 0xffff),
                      static_cast<int32_t>(I.Imm2 >> 16), V(2), V(3), S)) {
        A.Error = P.Messages[I.Aux];
        Run.St = AgentRun::State::Failed;
        Run.Pc = Pc;
        return;
      }
      TAWA_NEXT();
    }
    TAWA_CASE(IntBin2) : {
      // IntBin + IntBin: charge/compute, charge/compute, each half with
      // its own kind, destination, cost and diagnostic.
      const Inst &I = *IP;
      chargeCuda(A, I.Cost / A.Replicas);
      if (!intBinaryK(static_cast<OpKind>(I.Imm0), I.Result, V(0), V(1),
                      S)) {
        A.Error = P.Messages[I.MsgId];
        Run.St = AgentRun::State::Failed;
        Run.Pc = Pc;
        return;
      }
      chargeCuda(A, I.FImm / A.Replicas);
      if (!intBinaryK(static_cast<OpKind>(I.Imm1),
                      static_cast<int32_t>(I.Imm3), V(2), V(3), S)) {
        A.Error = P.Messages[I.Aux];
        Run.St = AgentRun::State::Failed;
        Run.Pc = Pc;
        return;
      }
      TAWA_NEXT();
    }

    //===--- Tensor construction & math -----------------------------------===//
    TAWA_CASE(ConstTensor) : {
      const Inst &I = *IP;
      chargeCuda(A, I.Cost / A.Replicas);
      if (!Functional) {
        S[I.Result] = RValue::makeTensor(nullptr);
        TAWA_NEXT();
      }
      auto T = makeTile(I.ResultTy);
      T->fill(static_cast<float>(I.FImm));
      S[I.Result] = RValue::makeTensor(std::move(T));
      TAWA_NEXT();
    }
    TAWA_CASE(MakeRange) : {
      const Inst &I = *IP;
      chargeCuda(A, I.Cost / A.Replicas);
      if (!Functional) {
        S[I.Result] = RValue::makeTensor(nullptr);
        TAWA_NEXT();
      }
      auto T = makeTile(I.ResultTy);
      for (int64_t K = 0, E = T->getNumElements(); K != E; ++K)
        T->at(K) = static_cast<float>(I.Imm0 + K);
      S[I.Result] = RValue::makeTensor(std::move(T));
      TAWA_NEXT();
    }
    TAWA_CASE(Splat) : {
      const Inst &I = *IP;
      chargeCuda(A, I.Cost / A.Replicas);
      const RValue &In = V(0);
      if (!Functional) {
        S[I.Result] = RValue::makeTensor(nullptr, In.H);
        TAWA_NEXT();
      }
      auto T = makeTile(I.ResultTy);
      if (In.K == RValue::Kind::Handle) {
        T->fill(0.0f); // Pointer splat: offsets start at zero.
        S[I.Result] = RValue::makeTensor(std::move(T), In.H);
        TAWA_NEXT();
      }
      T->fill(In.K == RValue::Kind::Int ? static_cast<float>(In.I)
                                        : static_cast<float>(In.F));
      S[I.Result] = RValue::makeTensor(std::move(T));
      TAWA_NEXT();
    }
    TAWA_CASE(ExpandBroadcast) : {
      const Inst &I = *IP;
      chargeCuda(A, I.Cost / A.Replicas);
      const RValue &In = V(0);
      if (!Functional || !In.T) {
        S[I.Result] = RValue::makeTensor(nullptr, In.H);
        TAWA_NEXT();
      }
      {
        auto T = makeTile(I.ResultTy);
        const auto &OutShape = I.ResultTy->getShape();
        const auto &Packed = P.IntVecs[I.Aux];
        size_t Rank = OutShape.size();
        const int64_t *DimMap = Packed.data();
        const int64_t *SrcDims = Packed.data() + Rank;
        std::vector<int64_t> Idx(Rank, 0);
        for (int64_t Lin = 0, EIt = T->getNumElements(); Lin != EIt; ++Lin) {
          int64_t SrcLin = 0;
          for (size_t D = 0; D < Rank; ++D) {
            if (DimMap[D] < 0)
              continue;
            int64_t Coord = Idx[D];
            int64_t SrcDim = SrcDims[D];
            if (Coord >= SrcDim)
              Coord = SrcDim - 1; // Broadcasting a size-1 dim.
            SrcLin = SrcLin * SrcDim + Coord;
          }
          T->at(Lin) = In.T->at(SrcLin);
          for (int64_t D = static_cast<int64_t>(Rank) - 1; D >= 0; --D) {
            if (++Idx[D] < OutShape[D])
              break;
            Idx[D] = 0;
          }
        }
        S[I.Result] = RValue::makeTensor(std::move(T), In.H);
      }
      TAWA_NEXT();
    }
    TAWA_CASE(Transpose2D) : {
      const Inst &I = *IP;
      chargeCuda(A, I.Cost / A.Replicas);
      const RValue &In = V(0);
      if (!Functional || !In.T) {
        S[I.Result] = RValue::makeTensor(nullptr);
        TAWA_NEXT();
      }
      auto T = makeTile(I.ResultTy);
      int64_t R = In.T->getDim(0), C = In.T->getDim(1);
      for (int64_t Y = 0; Y < R; ++Y)
        for (int64_t X = 0; X < C; ++X)
          T->at(X, Y) = In.T->at(Y, X);
      S[I.Result] = RValue::makeTensor(std::move(T));
      TAWA_NEXT();
    }
    TAWA_CASE(FloatBin) : {
      const Inst &I = *IP;
      chargeCuda(A, I.Cost / A.Replicas);
      floatBinaryK(static_cast<OpKind>(I.Imm0), I.Result, V(0), V(1), S);
      TAWA_NEXT();
    }
    TAWA_CASE(FloatBin2) : {
      // FloatBin + FloatBin: charge/compute, charge/compute — the exact
      // unfused sequence through the same floatBinaryK helper.
      const Inst &I = *IP;
      chargeCuda(A, I.Cost / A.Replicas);
      floatBinaryK(static_cast<OpKind>(I.Imm0), I.Result, V(0), V(1), S);
      chargeCuda(A, I.FImm / A.Replicas);
      floatBinaryK(static_cast<OpKind>(I.Imm1),
                   static_cast<int32_t>(I.Imm3), V(2), V(3), S);
      TAWA_NEXT();
    }
    TAWA_CASE(Exp2) : {
      const Inst &I = *IP;
      chargeCuda(A, I.Cost / A.Replicas);
      const RValue &In = V(0);
      if (!Functional || !In.T) {
        S[I.Result] = RValue::makeTensor(nullptr);
        TAWA_NEXT();
      }
      auto T = cloneTile(*In.T);
      for (int64_t K = 0, E = T->getNumElements(); K != E; ++K)
        T->at(K) = std::exp2(T->at(K));
      S[I.Result] = RValue::makeTensor(std::move(T));
      TAWA_NEXT();
    }
    TAWA_CASE(Select) : {
      const Inst &I = *IP;
      chargeCuda(A, I.Cost / A.Replicas);
      const RValue &C = V(0), &X = V(1), &Y = V(2);
      if (!Functional || !C.T) {
        S[I.Result] = RValue::makeTensor(nullptr);
        TAWA_NEXT();
      }
      auto T = makeTile(I.ResultTy);
      for (int64_t K = 0, E = T->getNumElements(); K != E; ++K)
        T->at(K) = C.T->at(K) != 0.0f ? X.T->at(K) : Y.T->at(K);
      S[I.Result] = RValue::makeTensor(std::move(T));
      TAWA_NEXT();
    }
    TAWA_CASE(Reduce) : {
      const Inst &I = *IP;
      chargeCuda(A, I.Cost / A.Replicas);
      const RValue &In = V(0);
      if (!Functional || !In.T) {
        S[I.Result] = RValue::makeTensor(nullptr);
        TAWA_NEXT();
      }
      bool IsMax = I.Imm1 != 0;
      int64_t R = In.T->getDim(0), Cn = In.T->getDim(1);
      auto T = makeTile(I.ResultTy);
      if (I.Imm0 == 1) {
        for (int64_t Y = 0; Y < R; ++Y) {
          float Acc = IsMax ? -std::numeric_limits<float>::infinity() : 0.0f;
          for (int64_t X = 0; X < Cn; ++X)
            Acc = IsMax ? std::max(Acc, In.T->at(Y, X))
                        : Acc + In.T->at(Y, X);
          T->at(Y) = Acc;
        }
      } else {
        for (int64_t X = 0; X < Cn; ++X) {
          float Acc = IsMax ? -std::numeric_limits<float>::infinity() : 0.0f;
          for (int64_t Y = 0; Y < R; ++Y)
            Acc = IsMax ? std::max(Acc, In.T->at(Y, X))
                        : Acc + In.T->at(Y, X);
          T->at(X) = Acc;
        }
      }
      S[I.Result] = RValue::makeTensor(std::move(T));
      TAWA_NEXT();
    }
    TAWA_CASE(Cast) : {
      const Inst &I = *IP;
      chargeCuda(A, I.Cost / A.Replicas);
      const RValue &In = V(0);
      if (!Functional || !In.T) {
        S[I.Result] = RValue::makeTensor(nullptr);
        TAWA_NEXT();
      }
      auto T = cloneTile(*In.T);
      roundTensorTo(*T, I.ElemTy);
      S[I.Result] = RValue::makeTensor(std::move(T));
      TAWA_NEXT();
    }
    TAWA_CASE(AddPtr) : {
      const Inst &I = *IP;
      chargeCuda(A, I.Cost / A.Replicas);
      const RValue &Ptr = V(0), &Off = V(1);
      if (!Functional || !Ptr.T) {
        S[I.Result] = RValue::makeTensor(nullptr, Ptr.H);
        TAWA_NEXT();
      }
      S[I.Result] = RValue::makeTensor(
          applyBinary(Ptr.T, Off.T,
                      +[](float X, float Y) { return X + Y; }, Arena),
          Ptr.H);
      TAWA_NEXT();
    }

    //===--- Tile-dialect memory & compute --------------------------------===//
    TAWA_CASE(TmaLoad) : {
      const Inst &I = *IP;
      Action Act;
      Act.Kind = static_cast<ActionKind>(I.Imm2);
      Act.Lookahead = static_cast<int32_t>(I.Imm1);
      Act.Cycles = I.FImm;
      Act.Bytes = I.Imm0;
      emitAction(A, Act);
      if (!Functional) {
        S[I.Result] = RValue::makeTensor(nullptr);
        TAWA_NEXT();
      }
      {
        const RValue &Desc = V(0);
        assert(Desc.K == RValue::Kind::Handle &&
               "tma_load needs a descriptor");
        const RuntimeArg &Arg = Opts.Args[Desc.H];
        std::vector<int64_t> Offsets;
        for (int64_t K = 1; K < I.NumOps; ++K)
          Offsets.push_back(asInt(V(K)));
        auto T = makeTile(I.ResultTy);
        A.Error = loadWindowInto(*Arg.Data, Offsets, T->getShape(),
                                 T->data());
        if (!A.Error.empty()) {
          Run.St = AgentRun::State::Failed;
          Run.Pc = Pc;
          return;
        }
        S[I.Result] = RValue::makeTensor(std::move(T));
      }
      TAWA_NEXT();
    }
    TAWA_CASE(TmaStore) : {
      const Inst &I = *IP;
      const RValue &Desc = V(0);
      Action Act;
      Act.Kind = ActionKind::GStoreAsync;
      Act.Bytes = I.Imm0 / A.Replicas;
      Act.Cycles = I.FImm / A.Replicas;
      emitAction(A, Act);
      if (!Functional)
        TAWA_NEXT();
      {
        const RValue &Val = V(I.NumOps - 1);
        std::vector<int64_t> Offsets;
        for (int64_t K = 1; K < I.NumOps - 1; ++K)
          Offsets.push_back(asInt(V(K)));
        TensorData Rounded(*Val.T, *Arena);
        roundTensorTo(Rounded, I.ElemTy);
        A.Error = storeWindow(*Opts.Args[Desc.H].Data, Offsets,
                              Rounded.getShape(), Rounded.data());
        if (!A.Error.empty()) {
          Run.St = AgentRun::State::Failed;
          Run.Pc = Pc;
          return;
        }
      }
      TAWA_NEXT();
    }
    TAWA_CASE(Store) : {
      const Inst &I = *IP;
      const RValue &Ptr = V(0);
      const RValue &Val = V(1);
      Action Act;
      Act.Kind = ActionKind::GStoreAsync;
      Act.Bytes = I.Imm0 / A.Replicas;
      Act.Cycles = I.FImm / A.Replicas;
      emitAction(A, Act);
      if (!Functional || !Ptr.T)
        TAWA_NEXT();
      assert(Ptr.H >= 0 && "store through an unbound pointer tensor");
      {
        TensorData &OutT = *Opts.Args[Ptr.H].Data;
        TensorData Rounded(*Val.T, *Arena);
        roundTensorTo(Rounded, I.ElemTy);
        for (int64_t K = 0, E = Rounded.getNumElements(); K != E; ++K) {
          // Linear offsets are carried as f32; exact for the functional
          // test sizes (< 2^24 elements).
          int64_t Linear = static_cast<int64_t>(Ptr.T->at(K));
          if (Linear >= 0 && Linear < OutT.getNumElements())
            OutT.at(Linear) = Rounded.at(K);
        }
      }
      TAWA_NEXT();
    }
    TAWA_CASE(AtomicAdd) : {
      // Deferred-deterministic reduction: record the (index, addend) pairs
      // into the agent; the Interpreter facade applies all CTAs'
      // contributions in CTA-index order after execution. Costs mirror
      // Store with the atomic RMW factors folded in at compile time.
      const Inst &I = *IP;
      const RValue &Ptr = V(0);
      const RValue &Val = V(1);
      Action Act;
      Act.Kind = ActionKind::GStoreAsync;
      Act.Bytes = I.Imm0 / A.Replicas;
      Act.Cycles = I.FImm / A.Replicas;
      emitAction(A, Act);
      // Cooperative replicas redundantly execute the epilogue; only
      // replica 0 records (stores are idempotent, accumulation is not).
      if (!Functional || !Ptr.T || A.ReplicaIdx != 0)
        TAWA_NEXT();
      assert(Ptr.H >= 0 && "atomic add through an unbound pointer tensor");
      {
        const TensorData &OutT = *Opts.Args[Ptr.H].Data;
        AtomicContrib C;
        C.Arg = Ptr.H;
        for (int64_t K = 0, E = Val.T->getNumElements(); K != E; ++K) {
          int64_t Linear = static_cast<int64_t>(Ptr.T->at(K));
          if (Linear >= 0 && Linear < OutT.getNumElements()) {
            C.Index.push_back(Linear);
            C.Value.push_back(Val.T->at(K));
          }
        }
        A.Atomics.push_back(std::move(C));
      }
      TAWA_NEXT();
    }
    TAWA_CASE(LoadScalar) : {
      const Inst &I = *IP;
      const RValue &Desc = V(0);
      const RValue &IdxV = V(1);
      Action Act;
      Act.Kind = ActionKind::GLoadSync;
      Act.Bytes = I.Imm0 / A.Replicas;
      Act.Cycles = I.FImm / A.Replicas;
      emitAction(A, Act);
      {
        int64_t Out = 0;
        if (Functional && Desc.H >= 0 && Opts.Args[Desc.H].Data) {
          const TensorData &T = *Opts.Args[Desc.H].Data;
          int64_t Idx = asInt(IdxV);
          if (Idx >= 0 && Idx < T.getNumElements())
            Out = static_cast<int64_t>(T.at(Idx));
        }
        S[I.Result] = RValue::makeInt(Out);
      }
      TAWA_NEXT();
    }
    TAWA_CASE(Dot) : {
      // Tensor-core op in plain tile execution (async past dependent CUDA
      // work under software pipelining, synchronous otherwise).
      const Inst &I = *IP;
      flushCuda(A);
      Action Issue;
      Issue.Kind = ActionKind::TensorIssue;
      Issue.Cycles = I.FImm / A.Replicas;
      A.Trace.emit(Issue);
      Action Wait;
      Wait.Kind = ActionKind::TensorWait;
      Wait.Pendings = I.Imm1;
      A.Trace.emit(Wait);
      const RValue &X = V(0), &Y = V(1), &Acc = V(2);
      if (!Functional || !X.T) {
        S[I.Result] = RValue::makeTensor(nullptr);
        TAWA_NEXT();
      }
      S[I.Result] = RValue::makeTensor(
          matmulAcc(X.T, Y.T, Acc.T, I.Imm0 != 0, Arena));
      TAWA_NEXT();
    }

    //===--- Lowered dialect ----------------------------------------------===//
    TAWA_CASE(SmemAlloc) : {
      const Inst &I = *IP;
      ExecSmem Buf;
      Buf.Channel = I.Imm0;
      Buf.SlotBytes = I.Imm1;
      Buf.Bytes = I.Imm2;
      Buf.Writers = static_cast<int>(I.Aux >> 16);
      Buf.Readers = static_cast<int>(I.Aux & 0xffff);
      Buf.NumFields =
          std::max<int64_t>(1, static_cast<int64_t>(P.SlotOffsets.size()));
      Buf.Monitors.assign(I.Imm3, sem::SlotMonitor());
      if (Functional)
        Buf.Store.assign(I.Imm3 * Buf.NumFields, nullptr);
      SmemBuffers.push_back(std::move(Buf));
      S[I.Result] = RValue::makeHandle(
          static_cast<int32_t>(SmemBuffers.size() - 1));
      TAWA_NEXT();
    }
    TAWA_CASE(MBarrierAlloc) : {
      const Inst &I = *IP;
      BarrierArray Arr;
      Arr.Expected = I.Imm0;
      Arr.Channel = I.Imm1;
      Arr.IsFull = I.Imm2 != 0;
      Arr.Bars.assign(I.Imm3, FunctionalBarrier());
      BarrierArrays.push_back(std::move(Arr));
      S[I.Result] = RValue::makeHandle(
          static_cast<int32_t>(BarrierArrays.size() - 1));
      TAWA_NEXT();
    }
    TAWA_CASE(MBarrierExpectTx) : {
      const Inst &I = *IP;
      chargeCuda(A, Config.BarrierOpCycles);
      int32_t Bar = V(0).H;
      int64_t Idx = asInt(V(1));
      BarrierArrays[Bar].Bars[Idx].TxExpected += I.Imm0;
      Action Act;
      Act.Kind = ActionKind::BarExpectTx;
      Act.Bar = Bar;
      Act.Idx = static_cast<int32_t>(Idx);
      Act.Bytes = I.Imm0;
      Act.Cycles = Config.BarrierOpCycles;
      emitAction(A, Act);
      TAWA_NEXT();
    }
    TAWA_CASE(MBarrierArrive) : {
      const Inst &I = *IP;
      if (I.NumOps > 2) {
        const RValue &Pred = V(2);
        if (Pred.I == 0)
          TAWA_NEXT(); // Predicated off.
      }
      int32_t Bar = V(0).H;
      int64_t Idx = asInt(V(1));
      BarrierArray &Arr = BarrierArrays[Bar];
      Action Act;
      Act.Kind = ActionKind::BarArrive;
      Act.Bar = Bar;
      Act.Idx = static_cast<int32_t>(Idx);
      Act.Cycles = Config.BarrierOpCycles;
      emitAction(A, Act);
      // An arrive on an empty barrier is a consumer releasing a slot.
      if (!Arr.IsFull && Arr.Channel >= 0) {
        HB->recordConsumed(A.Id, Arr.Channel, Idx);
        for (ExecSmem &Buf : SmemBuffers) {
          if (Buf.Channel != Arr.Channel)
            continue;
          if (std::string Err =
                  Buf.Monitors[Idx].release(Buf.Readers, Arr.Channel, Idx);
              !Err.empty())
            recordViolation(std::move(Err));
        }
      }
      applyArrival(Bar, Idx, 0);
      TAWA_NEXT();
    }
    TAWA_CASE(MBarrierWait) : {
      // Issue half: cost + trace. The blocking half follows immediately.
      waitIssue(A, V(0).H, asInt(V(1)), asInt(V(2)));
      // Every wait issued is one watchdog step event, blocked or not
      // (ExecCommon.h AgentCtx). Counted here, not in MBarrierWaitBlock,
      // so a scheduler resume cannot double-count the wait.
      if (watchdogStep(Run, Pc))
        return;
      TAWA_NEXT();
    }
    TAWA_CASE(MBarrierWaitBlock) : {
      // Blocking half: re-executed on every resume until the phase flips.
      // The watchdog step was already counted at the issue half.
      Resumed = false; // This op re-checks the phase itself.
      WaitCond W;
      W.Bar = V(0).H;
      W.Idx = asInt(V(1));
      W.Parity = asInt(V(2));
      if (!waitSatisfied(W)) {
        Run.W = W;
        Run.St = AgentRun::State::Blocked;
        Run.Pc = Pc;
        return;
      }
      waitAcquire(A, W.Bar, W.Idx);
      TAWA_NEXT();
    }
    TAWA_CASE(WaitFused) : {
      // MBarrierWait + MBarrierWaitBlock in one dispatch.
      if (fusedWaitPrologue(Run, Pc, Resumed, *IP, S))
        return;
      waitAcquire(A, V(0).H, asInt(V(1)));
      TAWA_NEXT();
    }
    TAWA_CASE(WaitRead) : {
      // MBarrierWait + MBarrierWaitBlock + SmemRead. Operands are
      // (bar, idx, parity, smem, slot); the read fields (Result, ResultTy,
      // field index) ride in the SmemRead positions of the Inst.
      if (fusedWaitPrologue(Run, Pc, Resumed, *IP, S))
        return;
      waitAcquire(A, V(0).H, asInt(V(1)));
      smemReadBody(IP->Result, IP->Imm2, IP->ResultTy, A, V(3).H,
                   asInt(V(4)), S);
      TAWA_NEXT();
    }
    TAWA_CASE(WaitRead2) : {
      // WaitRead + SmemRead: one wait acquiring a two-field staging slot,
      // then both reads — each the exact SmemRead body.
      if (fusedWaitPrologue(Run, Pc, Resumed, *IP, S))
        return;
      waitAcquire(A, V(0).H, asInt(V(1)));
      smemReadBody(IP->Result, IP->Imm2, IP->ResultTy, A, V(3).H,
                   asInt(V(4)), S);
      smemReadBody(static_cast<int32_t>(IP->Imm0), IP->Imm1,
                   IP->ResultTy2, A, V(5).H, asInt(V(6)), S);
      TAWA_NEXT();
    }
    TAWA_CASE(TmaLoadAsync) : {
      if (!tmaLoadAsyncBody(*IP, A, V(0), /*OpBase=*/1, S)) {
        Run.St = AgentRun::State::Failed;
        Run.Pc = Pc;
        return;
      }
      TAWA_NEXT();
    }
    TAWA_CASE(TmaLoadAsyncOff) : {
      // AddPtr + TmaLoadAsync: the advanced descriptor is computed inline
      // (same arithmetic and charge order as the unfused pair — the
      // AddPtr's precomputed cost rides in FImm) and never written back:
      // the peephole pass proved its slot dead.
      const Inst &I = *IP;
      chargeCuda(A, I.FImm / A.Replicas);
      const RValue &Ptr = V(0), &Off = V(1);
      RValue Desc;
      if (!Functional || !Ptr.T)
        Desc = RValue::makeTensor(nullptr, Ptr.H);
      else
        Desc = RValue::makeTensor(
            applyBinary(Ptr.T, Off.T,
                        +[](float X, float Y) { return X + Y; }, Arena),
            Ptr.H);
      if (!tmaLoadAsyncBody(I, A, Desc, /*OpBase=*/2, S)) {
        Run.St = AgentRun::State::Failed;
        Run.Pc = Pc;
        return;
      }
      TAWA_NEXT();
    }
    TAWA_CASE(TmaLoadAsyncTx) : {
      // MBarrierExpectTx + TmaLoadAsync: the expect half (charge, tx
      // bookkeeping, BarExpectTx action) followed by the copy — the exact
      // unfused order. Operands: (txbar, txidx, desc, offsets..., smem,
      // bar, idx); the expected bytes ride in FImm.
      const Inst &I = *IP;
      chargeCuda(A, Config.BarrierOpCycles);
      int32_t TxBar = V(0).H;
      int64_t TxIdx = asInt(V(1));
      int64_t TxBytes = static_cast<int64_t>(I.FImm);
      BarrierArrays[TxBar].Bars[TxIdx].TxExpected += TxBytes;
      Action Act;
      Act.Kind = ActionKind::BarExpectTx;
      Act.Bar = TxBar;
      Act.Idx = static_cast<int32_t>(TxIdx);
      Act.Bytes = TxBytes;
      Act.Cycles = Config.BarrierOpCycles;
      emitAction(A, Act);
      if (!tmaLoadAsyncBody(I, A, V(2), /*OpBase=*/3, S)) {
        Run.St = AgentRun::State::Failed;
        Run.Pc = Pc;
        return;
      }
      TAWA_NEXT();
    }
    TAWA_CASE(SmemRead) : {
      smemReadBody(IP->Result, IP->Imm2, IP->ResultTy, A, V(0).H,
                   asInt(V(1)), S);
      TAWA_NEXT();
    }
    TAWA_CASE(WgmmaIssue) : {
      const Inst &I = *IP;
      flushCuda(A);
      Action Act;
      Act.Kind = ActionKind::TensorIssue;
      Act.Cycles = I.FImm / A.Replicas;
      A.Trace.emit(Act);
      const RValue &X = V(0), &Y = V(1), &Acc = V(2);
      if (!Functional || !X.T || !Acc.T) {
        S[I.Result] = RValue::makeTensor(nullptr);
        TAWA_NEXT();
      }
      S[I.Result] = RValue::makeTensor(
          matmulAcc(X.T, Y.T, Acc.T, I.Imm0 != 0, Arena));
      TAWA_NEXT();
    }
    TAWA_CASE(WgmmaWait) : {
      flushCuda(A);
      Action Act;
      Act.Kind = ActionKind::TensorWait;
      Act.Pendings = IP->Imm0;
      A.Trace.emit(Act);
      TAWA_NEXT();
    }
    TAWA_CASE(WgmmaIssueWait) : {
      // WgmmaIssue + WgmmaWait: issue action, MMA, drain action — the
      // unfused sequence verbatim (the wait's flushCuda is kept: it is a
      // no-op here exactly as it was unfused, since the MMA charges
      // nothing to the CUDA pipe).
      const Inst &I = *IP;
      flushCuda(A);
      Action Issue;
      Issue.Kind = ActionKind::TensorIssue;
      Issue.Cycles = I.FImm / A.Replicas;
      A.Trace.emit(Issue);
      const RValue &X = V(0), &Y = V(1), &Acc = V(2);
      if (!Functional || !X.T || !Acc.T)
        S[I.Result] = RValue::makeTensor(nullptr);
      else
        S[I.Result] = RValue::makeTensor(
            matmulAcc(X.T, Y.T, Acc.T, I.Imm0 != 0, Arena));
      flushCuda(A);
      Action Wait;
      Wait.Kind = ActionKind::TensorWait;
      Wait.Pendings = I.Imm1;
      A.Trace.emit(Wait);
      TAWA_NEXT();
    }
    TAWA_CASE(Fence) : {
      chargeCuda(A, Config.BarrierOpCycles);
      TAWA_NEXT();
    }

#undef TAWA_CASE
#undef TAWA_NEXT
#undef TAWA_JUMP
#undef TAWA_DISPATCH
}

std::string BcExec::run(CtaTrace &Out) {
  if (!P.CompileError.empty())
    return P.CompileError;
  Functional = Opts.Functional;
  // Execution watchdog (docs/robustness.md).
  MaxSteps = Opts.MaxSteps;
  if (Opts.MaxWallMs > 0)
    WallDeadline = std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(Opts.MaxWallMs);
  // Everything the previous CTA allocated is dead; reclaim it wholesale so
  // a worker's chunks stay warm for the whole grid.
  Arena->reset();

  // Bind arguments.
  if (Opts.Args.size() != P.ArgSlots.size())
    return "argument count mismatch";
  std::vector<RValue> Shared(P.NumSlots);
  for (size_t I = 0, E = P.ArgSlots.size(); I != E; ++I) {
    const RuntimeArg &Arg = Opts.Args[I];
    if (Arg.K == RuntimeArg::Kind::Scalar)
      Shared[P.ArgSlots[I]] = RValue::makeInt(Arg.Scalar);
    else
      Shared[P.ArgSlots[I]] = RValue::makeHandle(static_cast<int32_t>(I));
  }

  int NumAgents =
      P.Agents.empty() ? 1 : static_cast<int>(P.Agents.size());
  HB = std::make_unique<sem::HappensBeforeTracker>(NumAgents);

  // Run the preamble (shared work every warp executes redundantly on real
  // hardware) as a lone agent so even preamble-level waits can deadlock.
  std::vector<AgentRun> PreRuns(1);
  {
    AgentRun &R = PreRuns[0];
    R.RP = &P.Preamble;
    R.Env = std::move(Shared);
    R.A.Id = 0;
    R.A.Trace.Name = "preamble";
    if (!schedule(PreRuns) || PreRuns[0].St == AgentRun::State::Failed) {
      std::string Err = PreRuns[0].A.Error.empty() ? "preamble execution failed"
                                                   : PreRuns[0].A.Error;
      if (Opts.Diag) {
        snapshotAgents(PreRuns);
        maybeFillDiag(Err);
      }
      return Err;
    }
    Shared = std::move(PreRuns[0].Env);
  }
  AgentCtx Preamble = std::move(PreRuns[0].A);

  std::vector<AgentCtx> Agents;
  if (P.Agents.empty()) {
    // Plain tile-dialect execution: the preamble program is the whole
    // kernel. Reuse its trace as the single agent.
    Agents.push_back(std::move(Preamble));
    Agents[0].Trace.Name = formatString("cta(%lld,%lld)/warps",
                                        static_cast<long long>(PidX),
                                        static_cast<long long>(PidY));
  } else {
    // Fork one cooperative fiber per warp group.
    std::vector<AgentRun> Runs(NumAgents);
    for (int G = 0; G < NumAgents; ++G) {
      AgentRun &R = Runs[G];
      R.RP = &P.Agents[G];
      R.Env = Shared; // Agents read preamble slots, write only their own.
      R.A.Id = G;
      R.A.Replicas = P.AgentInfos[G].Replicas;
      R.A.ReplicaIdx = P.AgentInfos[G].Replica;
      R.A.Trace.Replicas = R.A.Replicas;
      R.A.Trace.Name = formatString(
          "cta(%lld,%lld)/wg%d(%s)", static_cast<long long>(PidX),
          static_cast<long long>(PidY), G, P.AgentInfos[G].Role.c_str());
      R.A.Trace.Actions = Preamble.Trace.Actions; // Redundant preamble work.
    }
    schedule(Runs);
    // Snapshot scheduler state (block conditions, per-agent steps) before
    // the AgentCtxs are moved out, so an abort below can fill Opts.Diag.
    if (Opts.Diag)
      snapshotAgents(Runs);
    for (AgentRun &R : Runs)
      Agents.push_back(std::move(R.A));
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
      maybeFillDiag(A.Error);
      return A.Error;
    }
  if (Aborted) {
    maybeFillDiag(AbortMsg);
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
  for (ExecSmem &Buf : SmemBuffers)
    Out.SmemBytes += Buf.Bytes;
  Out.HbEvents = HB->getNumEvents();
  // Deferred atomic contributions, preamble first then agent-id order (the
  // plain-module path moved the preamble ctx into Agents[0], so its list is
  // already empty here — no double count).
  Out.Atomics.clear();
  for (AtomicContrib &C : Preamble.Atomics)
    Out.Atomics.push_back(std::move(C));
  for (AgentCtx &A : Agents)
    for (AtomicContrib &C : A.Atomics)
      Out.Atomics.push_back(std::move(C));
  return "";
}

} // namespace

std::string tawa::sim::bc::executeProgram(const CompiledProgram &P,
                                          const RunOptions &Opts,
                                          int64_t PidX, int64_t PidY,
                                          CtaTrace &Out, TileArena *Arena) {
  BcExec Exec(P, Opts, PidX, PidY, Arena);
  return Exec.run(Out);
}
