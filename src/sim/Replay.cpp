//===- Replay.cpp - Timed co-simulation of agent traces -----------------------//

#include "sim/Replay.h"

#include "support/Support.h"

#include <algorithm>
#include <bitset>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <limits>

using namespace tawa;
using namespace tawa::sim;

namespace {

/// One transaction mbarrier (a single index of a barrier array).
struct TimedBarrier {
  int64_t ExpectedArrivals = 1;
  int64_t Arrivals = 0;
  int64_t ExpectedTxBytes = 0;
  int64_t ArrivedTxBytes = 0;
  double PhaseMaxTime = 0;
  int64_t Completions = 0;
  /// Time of the latest phase flip. A waiter blocks for the next flip and
  /// is woken by it, so no earlier completion time is ever read.
  double LastCompletion = 0;

  bool phaseComplete() const {
    return Arrivals >= ExpectedArrivals && ArrivedTxBytes >= ExpectedTxBytes;
  }
};

/// FIFO of times over a power-of-two ring that grows on demand. clear()
/// keeps the storage, so a replay allocates only while rings first grow.
class TimeRing {
public:
  void clear() { Head = Count = 0; }
  size_t size() const { return Count; }
  bool empty() const { return Count == 0; }
  double front() const { return Buf[Head]; }
  double operator[](size_t I) const {
    return Buf[(Head + I) & (Buf.size() - 1)];
  }
  void pushBack(double T) {
    if (Count == Buf.size())
      grow();
    Buf[(Head + Count) & (Buf.size() - 1)] = T;
    ++Count;
  }
  void popFront() {
    Head = (Head + 1) & (Buf.size() - 1);
    --Count;
  }

private:
  void grow() {
    std::vector<double> Next(std::max<size_t>(16, 2 * Buf.size()));
    for (size_t I = 0; I < Count; ++I)
      Next[I] = (*this)[I];
    Buf = std::move(Next);
    Head = 0;
  }

  std::vector<double> Buf;
  size_t Head = 0, Count = 0;
};

struct AgentState {
  const Action *Pc = nullptr;
  const Action *End = nullptr;
  double ReadyAt = 0;
  bool Done = false;
  bool Blocked = false;
  size_t BlockSlot = 0; ///< Flat barrier index the agent waits on.
  int64_t BlockTargetCompletion = 0;
  TimeRing TensorInflight;   ///< Completion times, FIFO.
  TimeRing IterStartHistory; ///< For pipelined-copy lookahead (last 64).

  void reset(const AgentTrace &T, double Start) {
    Pc = T.Actions.data();
    End = Pc + T.Actions.size();
    ReadyAt = Start;
    Done = Blocked = false;
    TensorInflight.clear();
    IterStartHistory.clear();
  }
};

/// The running values a wave advances, as they stood when it started.
struct WaveStart {
  double SmTime, BaseTime, TcFree, DramFree, TensorBusyCycles,
      DramBusyCycles;
  int64_t DramBytes;
};

/// A set of binades [2^E, 2^(E+1)) of normal doubles, indexed by E + 1024.
using BinadeSet = std::bitset<2048>;

/// What one CTA trace adds to the running sums (Replay.h, "Repeated
/// waves").
struct WaveAddends {
  bool FiniteNonNegative = true;
  /// The largest latency a DRAM completion time adds to the server's time.
  double MaxLatency = 0;
  /// Per running sum (times and the two busy-cycle sums): the binades in
  /// which adding one of its addends can round half to even.
  BinadeSet TimeTies, TensorBusyTies, DramBusyTies;
};

/// Marks the binade in which adding \p C (finite, > 0) to a value rounds
/// half to even: the one whose unit in the last place is twice C's lowest
/// set bit.
void markTieBinade(BinadeSet &Set, double C) {
  uint64_t Bits;
  std::memcpy(&Bits, &C, sizeof(Bits));
  int BiasedExp = static_cast<int>(Bits >> 52);
  uint64_t Mantissa = Bits & ((uint64_t(1) << 52) - 1);
  if (BiasedExp != 0)
    Mantissa |= uint64_t(1) << 52;
  int LowestBit = std::max(BiasedExp, 1) - 1075 + __builtin_ctzll(Mantissa);
  int E = LowestBit + 53; // At least -1021; past 1023 no double lies there.
  if (E <= 1023)
    Set.set(static_cast<size_t>(E + 1024));
}

/// The largest K <= \p Limit for which K more waves can each move a running
/// sum by the same step the last one did (\p From to \p To, reaching at most
/// \p Hi) with every rounding exactly shifted: From and Hi + K*step lie in
/// one binade, and the step is an even number of units there unless no
/// addend can tie in it.
int64_t shiftableWaves(double From, double To, double Hi,
                       const BinadeSet &TieBinades, int64_t Limit) {
  if (To == From && std::isfinite(To))
    return Limit; // Unchanged: every such wave leaves it as it is.
  if (!(From >= DBL_MIN) || !(To > From))
    return 0;
  int E = std::ilogb(From);
  double Unit = std::ldexp(1.0, E - 52);
  double Top = std::ldexp(1.0, E + 1);
  if (!(Hi < Top))
    return 0;
  // Both are whole numbers of units below 2^53, so the divisions are exact.
  auto Room = static_cast<int64_t>((Top - Hi) / Unit);
  auto Step = static_cast<int64_t>((To - From) / Unit);
  if (Step % 2 != 0 && TieBinades.test(static_cast<size_t>(E + 1024)))
    return 0;
  return std::min(Limit, (Room - 1) / Step);
}

class ReplayEngine {
public:
  ReplayEngine(const GpuConfig &Config, const ReplayParams &Params)
      : Config(Config), Params(Params),
        BwPerSm(Config.HbmTBps * 1e12 /
                (Params.BwShareSms * Config.ClockGhz * 1e9)) {}

  ReplayResult run(const std::vector<const CtaTrace *> &Ctas);

private:
  /// Service cycles of a transfer (shared by the DRAM server and the
  /// addend scan, so both see the same bits).
  double serviceCycles(int64_t Bytes, double BwEfficiency,
                       double Reuse) const {
    return static_cast<double>(Bytes) * Reuse / (BwPerSm * BwEfficiency);
  }
  WaveAddends scanAddends(const CtaTrace &Cta) const;
  /// How many of the \p Repeats waves that follow the one just replayed,
  /// all of the same trace, would replay it exactly shifted.
  int64_t skippableWaves(const WaveStart &Start, double SmTime,
                         const WaveAddends &Addends, int64_t Repeats) const;
  void resetBarriers(const CtaTrace &Cta);
  /// Replays one CTA's agents to completion; false on deadlock.
  bool coSimulate();
  bool step(AgentState &Agent);
  void arrive(size_t Slot, double Time, int64_t TxBytes);
  size_t slot(const Action &A) const {
    return BarrierBase[A.Bar] + static_cast<size_t>(A.Idx);
  }
  /// Schedules a DRAM transfer issued at \p IssueTime; returns completion.
  /// \p Reuse scales the bytes that actually consume DRAM bandwidth (loads
  /// benefit from L2 reuse across CTAs; stores do not).
  double scheduleTransfer(double IssueTime, int64_t Bytes, double Latency,
                          double BwEfficiency, double Reuse);
  void wakeWaiters(size_t Slot);

  const GpuConfig &Config;
  const ReplayParams &Params;
  /// Per-SM HBM bytes per cycle before the engine's efficiency factor.
  const double BwPerSm;
  std::vector<AgentState> Agents;
  /// Every barrier of the current CTA, array after array; BarrierBase[B]
  /// is array B's first index. Storage is reused across CTAs.
  std::vector<TimedBarrier> Barriers;
  std::vector<size_t> BarrierBase;
  bool Woke = false; ///< Set when a phase flip unblocked an agent.
  double TcFree = 0;   ///< Tensor-core server.
  double DramFree = 0; ///< DRAM bandwidth server (per-SM share).
  ReplayResult Result;
  double BaseTime = 0; ///< Start offset of the current CTA.
};

} // namespace

double ReplayEngine::scheduleTransfer(double IssueTime, int64_t Bytes,
                                      double Latency, double BwEfficiency,
                                      double Reuse) {
  double Service = serviceCycles(Bytes, BwEfficiency, Reuse);
  double ServiceStart = std::max(IssueTime, DramFree);
  DramFree = ServiceStart + Service;
  Result.DramBusyCycles += Service;
  Result.DramBytes +=
      static_cast<int64_t>(static_cast<double>(Bytes) * Reuse);
  return DramFree + Latency;
}

WaveAddends ReplayEngine::scanAddends(const CtaTrace &Cta) const {
  WaveAddends W;
  auto Add = [&](BinadeSet &Ties, double C) {
    if (!(std::isfinite(C) && C >= 0))
      W.FiniteNonNegative = false;
    else if (C != 0)
      markTieBinade(Ties, C);
  };
  // A transfer adds its issue cost to the agent's time, its service time to
  // the server's and the busy cycles, and its latency to the completion.
  auto Transfer = [&](const Action &A, double Latency, double BwEfficiency,
                      double Reuse) {
    double Service = serviceCycles(A.Bytes, BwEfficiency, Reuse);
    Add(W.TimeTies, A.Cycles);
    Add(W.TimeTies, Service);
    Add(W.DramBusyTies, Service);
    Add(W.TimeTies, Latency);
    W.MaxLatency = std::max(W.MaxLatency, Latency);
  };
  Add(W.TimeTies, Config.CtaStartCycles);
  Add(W.TimeTies, Params.CtaGapCycles);
  for (const AgentTrace &T : Cta.Agents)
    for (const Action &A : T.Actions) {
      switch (A.Kind) {
      case ActionKind::CudaWork:
      case ActionKind::CtaSync:
        Add(W.TimeTies, A.Cycles * Params.CudaPenalty);
        break;
      case ActionKind::TensorIssue:
        Add(W.TimeTies, Config.WgmmaIssueCycles);
        Add(W.TimeTies, A.Cycles * Params.TensorPenalty);
        Add(W.TensorBusyTies, A.Cycles * Params.TensorPenalty);
        break;
      case ActionKind::TensorWait:
      case ActionKind::IterMark:
        break;
      case ActionKind::BarExpectTx:
      case ActionKind::BarArrive:
      case ActionKind::BarWait:
        Add(W.TimeTies, A.Cycles);
        break;
      case ActionKind::TmaIssue:
        Transfer(A, Config.TmaLatencyCycles, Config.TmaBwEfficiency,
                 Params.DramReuseFactor);
        break;
      case ActionKind::GStoreAsync:
        Transfer(A, 0, Config.TmaBwEfficiency, /*Reuse=*/1.0);
        break;
      case ActionKind::GLoadSync:
        Transfer(A, Config.SyncLoadLatencyCycles, Config.TmaBwEfficiency,
                 Params.DramReuseFactor);
        break;
      case ActionKind::CopyPipelined:
        Transfer(A, Config.CpAsyncLatencyCycles, Config.CpAsyncBwEfficiency,
                 Params.DramReuseFactor);
        break;
      }
    }
  return W;
}

int64_t ReplayEngine::skippableWaves(const WaveStart &Start, double SmTime,
                                     const WaveAddends &Addends,
                                     int64_t Repeats) const {
  // Both servers must be free when the wave starts, so that it read none
  // of their earlier values, and the tensor core when the next one starts,
  // so that the next wave starts alike. (DramFree always is: a CTA of a
  // multi-CTA schedule retires only after the DRAM drains.)
  double NextBase = SmTime + Config.CtaStartCycles;
  if (!Addends.FiniteNonNegative || Start.TcFree > Start.BaseTime ||
      Start.DramFree > Start.BaseTime || TcFree > NextBase)
    return 0;
  // Every time the wave computed is at most the next start, TcFree, or a
  // DRAM completion: DramFree plus a latency.
  double Hi = std::max(NextBase, DramFree + Addends.MaxLatency);
  int64_t K =
      shiftableWaves(Start.SmTime, SmTime, Hi, Addends.TimeTies, Repeats);
  K = shiftableWaves(Start.TensorBusyCycles, Result.TensorBusyCycles,
                     Result.TensorBusyCycles, Addends.TensorBusyTies, K);
  return shiftableWaves(Start.DramBusyCycles, Result.DramBusyCycles,
                        Result.DramBusyCycles, Addends.DramBusyTies, K);
}

void ReplayEngine::wakeWaiters(size_t Slot) {
  const TimedBarrier &B = Barriers[Slot];
  for (AgentState &A : Agents) {
    if (!A.Blocked || A.BlockSlot != Slot)
      continue;
    if (B.Completions >= A.BlockTargetCompletion) {
      A.Blocked = false;
      A.ReadyAt = std::max(A.ReadyAt, B.LastCompletion);
      Woke = true;
    }
  }
}

void ReplayEngine::arrive(size_t Slot, double Time, int64_t TxBytes) {
  TimedBarrier &B = Barriers[Slot];
  ++B.Arrivals;
  B.ArrivedTxBytes += TxBytes;
  B.PhaseMaxTime = std::max(B.PhaseMaxTime, Time);
  if (!B.phaseComplete())
    return;
  // Phase flip: record completion, reset for the next phase.
  ++B.Completions;
  B.LastCompletion = B.PhaseMaxTime;
  B.Arrivals = 0;
  B.ArrivedTxBytes = 0;
  B.ExpectedTxBytes = 0;
  B.PhaseMaxTime = 0;
  wakeWaiters(Slot);
}

/// Executes one action of \p Agent. Returns false if the agent blocked (or
/// finished) without consuming the action.
bool ReplayEngine::step(AgentState &Agent) {
  if (Agent.Pc == Agent.End) {
    Agent.Done = true;
    return false;
  }
  const Action &A = *Agent.Pc;
  switch (A.Kind) {
  case ActionKind::CudaWork:
  case ActionKind::CtaSync:
    Agent.ReadyAt += A.Cycles * Params.CudaPenalty;
    break;
  case ActionKind::TensorIssue: {
    Agent.ReadyAt += Config.WgmmaIssueCycles;
    double Start = std::max(Agent.ReadyAt, TcFree);
    double Done = Start + A.Cycles * Params.TensorPenalty;
    TcFree = Done;
    Result.TensorBusyCycles += A.Cycles * Params.TensorPenalty;
    Agent.TensorInflight.pushBack(Done);
    break;
  }
  case ActionKind::TensorWait: {
    TimeRing &Inflight = Agent.TensorInflight;
    // The bound comes from a wgmma_wait attribute; a negative one (only a
    // crafted module carries it) waits for every MMA, like zero.
    size_t Keep = static_cast<size_t>(std::max<int64_t>(A.Pendings, 0));
    while (Inflight.size() > Keep) {
      Agent.ReadyAt = std::max(Agent.ReadyAt, Inflight.front());
      Inflight.popFront();
    }
    // Retire anything that has already finished.
    while (!Inflight.empty() && Inflight.front() <= Agent.ReadyAt)
      Inflight.popFront();
    break;
  }
  case ActionKind::TmaIssue: {
    Agent.ReadyAt += A.Cycles;
    double Done =
        scheduleTransfer(Agent.ReadyAt, A.Bytes, Config.TmaLatencyCycles,
                         Config.TmaBwEfficiency, Params.DramReuseFactor);
    arrive(slot(A), Done, A.Bytes);
    break;
  }
  case ActionKind::BarExpectTx: {
    Agent.ReadyAt += A.Cycles;
    Barriers[slot(A)].ExpectedTxBytes += A.Bytes;
    break;
  }
  case ActionKind::BarArrive: {
    Agent.ReadyAt += A.Cycles;
    arrive(slot(A), Agent.ReadyAt, 0);
    break;
  }
  case ActionKind::BarWait: {
    Agent.ReadyAt += A.Cycles;
    size_t Slot = slot(A);
    const TimedBarrier &B = Barriers[Slot];
    if (B.Completions % 2 != A.Parity) {
      // Already flipped; data became available at the last completion.
      if (B.Completions > 0)
        Agent.ReadyAt = std::max(Agent.ReadyAt, B.LastCompletion);
      break;
    }
    // Must wait for the next phase flip.
    Agent.Blocked = true;
    Agent.BlockSlot = Slot;
    Agent.BlockTargetCompletion = B.Completions + 1;
    ++Agent.Pc; // The wait completes when woken.
    return false;
  }
  case ActionKind::GStoreAsync: {
    Agent.ReadyAt += A.Cycles;
    scheduleTransfer(Agent.ReadyAt, A.Bytes, 0, Config.TmaBwEfficiency,
                     /*Reuse=*/1.0);
    break;
  }
  case ActionKind::GLoadSync: {
    Agent.ReadyAt += A.Cycles;
    double Done = scheduleTransfer(Agent.ReadyAt, A.Bytes,
                                   Config.SyncLoadLatencyCycles,
                                   Config.TmaBwEfficiency,
                                   Params.DramReuseFactor);
    Agent.ReadyAt = Done;
    break;
  }
  case ActionKind::CopyPipelined: {
    // Software pipelining: the copy consumed now was issued Lookahead-1
    // iterations ago (or at the start of the CTA for the prologue). The
    // verifier bounds sw_pipeline_depth for parsed modules; a lookahead
    // below 1 from any other source also issues at the CTA start rather
    // than indexing past the history.
    Agent.ReadyAt += A.Cycles; // cp.async CUDA-core issue cost.
    double IssueTime = BaseTime;
    const TimeRing &History = Agent.IterStartHistory;
    if (A.Lookahead >= 1 &&
        static_cast<int64_t>(History.size()) >= A.Lookahead)
      IssueTime = History[History.size() - A.Lookahead];
    double Done = scheduleTransfer(std::max(IssueTime, BaseTime), A.Bytes,
                                   Config.CpAsyncLatencyCycles,
                                   Config.CpAsyncBwEfficiency,
                                   Params.DramReuseFactor);
    Agent.ReadyAt = std::max(Agent.ReadyAt, Done);
    break;
  }
  case ActionKind::IterMark: {
    Agent.IterStartHistory.pushBack(Agent.ReadyAt);
    if (Agent.IterStartHistory.size() > 64)
      Agent.IterStartHistory.popFront();
    break;
  }
  }
  ++Agent.Pc;
  return true;
}

void ReplayEngine::resetBarriers(const CtaTrace &Cta) {
  BarrierBase.clear();
  size_t Total = 0;
  for (int32_t B = 0; B < Cta.NumBarrierArrays; ++B) {
    BarrierBase.push_back(Total);
    Total += static_cast<size_t>(Cta.BarrierSizes[B]);
  }
  Barriers.assign(Total, TimedBarrier());
  for (int32_t B = 0; B < Cta.NumBarrierArrays; ++B)
    for (int64_t I = 0; I < Cta.BarrierSizes[B]; ++I)
      Barriers[BarrierBase[B] + I].ExpectedArrivals = Cta.BarrierArrivals[B];
}

bool ReplayEngine::coSimulate() {
  const size_t N = Agents.size();
  while (true) {
    // Always advance the runnable agent furthest behind (the lowest index
    // on ties), so shared-server (DRAM / tensor core) contention is
    // processed in approximately global time order. Next is the agent the
    // same rule picks from the others.
    size_t Best = N, Next = N;
    for (size_t I = 0; I < N; ++I) {
      const AgentState &A = Agents[I];
      if (A.Done || A.Blocked)
        continue;
      if (Best == N) {
        Best = I;
      } else if (A.ReadyAt < Agents[Best].ReadyAt) {
        Next = Best;
        Best = I;
      } else if (Next == N || A.ReadyAt < Agents[Next].ReadyAt) {
        Next = I;
      }
    }
    if (Best == N) {
      for (const AgentState &A : Agents)
        if (A.Blocked) {
          Result.Deadlock = true;
          Result.Error = "replay deadlock: all agents blocked on mbarriers";
          return false;
        }
      return true; // All done.
    }
    // A step changes no other runnable agent; only a woken waiter joins
    // them. So until one wakes, Best stays the pick while it is below
    // Next (or level with it and ahead in index order).
    AgentState &A = Agents[Best];
    double Bound = Next == N ? std::numeric_limits<double>::infinity()
                             : Agents[Next].ReadyAt;
    bool KeepOnTie = Best < Next;
    Woke = false;
    while (step(A) && !Woke &&
           (A.ReadyAt < Bound || (KeepOnTie && A.ReadyAt == Bound)))
      ;
  }
}

ReplayResult ReplayEngine::run(const std::vector<const CtaTrace *> &Ctas) {
  double SmTime = Config.launchCycles();
  size_t RunEnd = 0; // One past the last entry equal to the current one.
  WaveAddends Addends;
  for (size_t Wave = 0; Wave < Ctas.size(); ++Wave) {
    const CtaTrace *Cta = Ctas[Wave];
    if (Wave >= RunEnd) {
      RunEnd = Wave + 1;
      while (RunEnd < Ctas.size() && Ctas[RunEnd] == Cta)
        ++RunEnd;
      if (RunEnd - Wave > 1)
        Addends = scanAddends(*Cta);
    }
    BaseTime = SmTime + Config.CtaStartCycles;
    WaveStart Start{SmTime,
                    BaseTime,
                    TcFree,
                    DramFree,
                    Result.TensorBusyCycles,
                    Result.DramBusyCycles,
                    Result.DramBytes};

    // Fresh barrier and agent state per CTA.
    resetBarriers(*Cta);
    Agents.resize(Cta->Agents.size());
    for (size_t I = 0; I < Agents.size(); ++I)
      Agents[I].reset(Cta->Agents[I], BaseTime);

    if (!coSimulate())
      return Result;
    ++Result.SimulatedCtas;

    double CtaEnd = BaseTime;
    for (AgentState &A : Agents)
      CtaEnd = std::max(CtaEnd, A.ReadyAt);
    // A CTA retires only after its asynchronous global stores drain; the
    // next wave's CTA cannot occupy the SM before that. Persistent kernels
    // have a single CTA per SM and thus fully hide their epilogues.
    if (Ctas.size() > 1)
      CtaEnd = std::max(CtaEnd, DramFree);
    SmTime = CtaEnd + Params.CtaGapCycles;

    // Skip the waves of this run that would replay this one exactly
    // shifted: move every running value on by K of its steps at once.
    int64_t Repeats = static_cast<int64_t>(RunEnd - Wave) - 1;
    int64_t K =
        Repeats > 0 ? skippableWaves(Start, SmTime, Addends, Repeats) : 0;
    if (K == 0)
      continue;
    double Steps = static_cast<double>(K);
    double Shift = Steps * (SmTime - Start.SmTime);
    SmTime += Shift;
    TcFree += Shift;
    DramFree += Shift;
    Result.TensorBusyCycles +=
        Steps * (Result.TensorBusyCycles - Start.TensorBusyCycles);
    Result.DramBusyCycles +=
        Steps * (Result.DramBusyCycles - Start.DramBusyCycles);
    Result.DramBytes += K * (Result.DramBytes - Start.DramBytes);
    Wave += static_cast<size_t>(K);
  }

  // Let the DRAM drain (epilogue stores in flight).
  Result.Cycles = std::max(SmTime, DramFree);
  return Result;
}

ReplayResult tawa::sim::replaySmSchedule(
    const std::vector<const CtaTrace *> &Ctas, const GpuConfig &Config,
    const ReplayParams &Params) {
  return ReplayEngine(Config, Params).run(Ctas);
}
