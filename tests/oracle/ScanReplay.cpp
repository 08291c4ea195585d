//===- ScanReplay.cpp - Scan-every-action replay (oracle) ---------------------//

#include "tests/oracle/ScanReplay.h"

#include "support/Support.h"

#include <algorithm>
#include <cstring>
#include <deque>

using namespace tawa;
using namespace tawa::sim;

namespace {

struct OracleBarrier {
  int64_t ExpectedArrivals = 1;
  int64_t Arrivals = 0;
  int64_t ExpectedTxBytes = 0;
  int64_t ArrivedTxBytes = 0;
  double PhaseMaxTime = 0;
  int64_t Completions = 0;
  std::vector<double> CompletionTimes;

  bool phaseComplete() const {
    return Arrivals >= ExpectedArrivals && ArrivedTxBytes >= ExpectedTxBytes;
  }
};

struct OracleAgent {
  const AgentTrace *Trace = nullptr;
  size_t Pc = 0;
  double ReadyAt = 0;
  bool Done = false;
  bool Blocked = false;
  int32_t BlockBar = -1, BlockIdx = 0;
  int64_t BlockTargetCompletion = 0;
  std::deque<double> TensorInflight;
  std::deque<double> IterStartHistory;
};

class OracleReplay {
public:
  OracleReplay(const GpuConfig &Config, const ReplayParams &Params)
      : Config(Config), Params(Params) {}

  ReplayResult run(const std::vector<const CtaTrace *> &Ctas) {
    double SmTime = Config.launchCycles();
    for (const CtaTrace *Cta : Ctas) {
      BaseTime = SmTime + Config.CtaStartCycles;
      Barriers.assign(Cta->NumBarrierArrays, {});
      for (int32_t B = 0; B < Cta->NumBarrierArrays; ++B) {
        Barriers[B].assign(Cta->BarrierSizes[B], OracleBarrier());
        for (OracleBarrier &Bar : Barriers[B])
          Bar.ExpectedArrivals = Cta->BarrierArrivals[B];
      }
      Agents.clear();
      for (const AgentTrace &T : Cta->Agents) {
        OracleAgent S;
        S.Trace = &T;
        S.ReadyAt = BaseTime;
        Agents.push_back(std::move(S));
      }
      while (true) {
        OracleAgent *Best = nullptr;
        for (OracleAgent &A : Agents)
          if (!A.Done && !A.Blocked && (!Best || A.ReadyAt < Best->ReadyAt))
            Best = &A;
        if (!Best) {
          bool AnyBlocked = false;
          for (OracleAgent &A : Agents)
            AnyBlocked |= A.Blocked;
          if (AnyBlocked) {
            Result.Deadlock = true;
            Result.Error = "replay deadlock: all agents blocked on mbarriers";
            return Result;
          }
          break;
        }
        step(*Best);
      }
      ++Result.SimulatedCtas;
      double CtaEnd = BaseTime;
      for (OracleAgent &A : Agents)
        CtaEnd = std::max(CtaEnd, A.ReadyAt);
      if (Ctas.size() > 1)
        CtaEnd = std::max(CtaEnd, DramFree);
      SmTime = CtaEnd + Params.CtaGapCycles;
    }
    Result.Cycles = std::max(SmTime, DramFree);
    return Result;
  }

private:
  double scheduleTransfer(double IssueTime, int64_t Bytes, double Latency,
                          double BwEfficiency, double Reuse) {
    double EffBytes = static_cast<double>(Bytes) * Reuse;
    double BwPerSm = Config.HbmTBps * 1e12 /
                     (Params.BwShareSms * Config.ClockGhz * 1e9) *
                     BwEfficiency;
    double ServiceStart = std::max(IssueTime, DramFree);
    DramFree = ServiceStart + EffBytes / BwPerSm;
    Result.DramBusyCycles += EffBytes / BwPerSm;
    Result.DramBytes += static_cast<int64_t>(EffBytes);
    return DramFree + Latency;
  }

  void arrive(int32_t Bar, int32_t Idx, double Time, int64_t TxBytes) {
    OracleBarrier &B = Barriers[Bar][Idx];
    ++B.Arrivals;
    B.ArrivedTxBytes += TxBytes;
    B.PhaseMaxTime = std::max(B.PhaseMaxTime, Time);
    if (!B.phaseComplete())
      return;
    ++B.Completions;
    B.CompletionTimes.push_back(B.PhaseMaxTime);
    B.Arrivals = 0;
    B.ArrivedTxBytes = 0;
    B.ExpectedTxBytes = 0;
    B.PhaseMaxTime = 0;
    for (OracleAgent &A : Agents) {
      if (!A.Blocked || A.BlockBar != Bar || A.BlockIdx != Idx)
        continue;
      if (B.Completions >= A.BlockTargetCompletion) {
        A.Blocked = false;
        A.ReadyAt = std::max(A.ReadyAt,
                             B.CompletionTimes[A.BlockTargetCompletion - 1]);
      }
    }
  }

  void step(OracleAgent &Agent) {
    if (Agent.Pc >= Agent.Trace->Actions.size()) {
      Agent.Done = true;
      return;
    }
    const Action &A = Agent.Trace->Actions[Agent.Pc];
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
      Agent.TensorInflight.push_back(Done);
      break;
    }
    case ActionKind::TensorWait:
      while (static_cast<int64_t>(Agent.TensorInflight.size()) > A.Pendings) {
        Agent.ReadyAt = std::max(Agent.ReadyAt, Agent.TensorInflight.front());
        Agent.TensorInflight.pop_front();
      }
      while (!Agent.TensorInflight.empty() &&
             Agent.TensorInflight.front() <= Agent.ReadyAt)
        Agent.TensorInflight.pop_front();
      break;
    case ActionKind::TmaIssue: {
      Agent.ReadyAt += A.Cycles;
      double Done =
          scheduleTransfer(Agent.ReadyAt, A.Bytes, Config.TmaLatencyCycles,
                           Config.TmaBwEfficiency, Params.DramReuseFactor);
      arrive(A.Bar, A.Idx, Done, A.Bytes);
      break;
    }
    case ActionKind::BarExpectTx:
      Agent.ReadyAt += A.Cycles;
      Barriers[A.Bar][A.Idx].ExpectedTxBytes += A.Bytes;
      break;
    case ActionKind::BarArrive:
      Agent.ReadyAt += A.Cycles;
      arrive(A.Bar, A.Idx, Agent.ReadyAt, 0);
      break;
    case ActionKind::BarWait: {
      Agent.ReadyAt += A.Cycles;
      OracleBarrier &B = Barriers[A.Bar][A.Idx];
      if (B.Completions % 2 != A.Parity) {
        if (B.Completions > 0)
          Agent.ReadyAt =
              std::max(Agent.ReadyAt, B.CompletionTimes[B.Completions - 1]);
        break;
      }
      Agent.Blocked = true;
      Agent.BlockBar = A.Bar;
      Agent.BlockIdx = A.Idx;
      Agent.BlockTargetCompletion = B.Completions + 1;
      ++Agent.Pc;
      return;
    }
    case ActionKind::GStoreAsync:
      Agent.ReadyAt += A.Cycles;
      scheduleTransfer(Agent.ReadyAt, A.Bytes, 0, Config.TmaBwEfficiency,
                       /*Reuse=*/1.0);
      break;
    case ActionKind::GLoadSync:
      Agent.ReadyAt += A.Cycles;
      Agent.ReadyAt = scheduleTransfer(Agent.ReadyAt, A.Bytes,
                                       Config.SyncLoadLatencyCycles,
                                       Config.TmaBwEfficiency,
                                       Params.DramReuseFactor);
      break;
    case ActionKind::CopyPipelined: {
      Agent.ReadyAt += A.Cycles;
      double IssueTime = BaseTime;
      if (static_cast<int64_t>(Agent.IterStartHistory.size()) >= A.Lookahead)
        IssueTime = Agent.IterStartHistory[Agent.IterStartHistory.size() -
                                           A.Lookahead];
      double Done = scheduleTransfer(std::max(IssueTime, BaseTime), A.Bytes,
                                     Config.CpAsyncLatencyCycles,
                                     Config.CpAsyncBwEfficiency,
                                     Params.DramReuseFactor);
      Agent.ReadyAt = std::max(Agent.ReadyAt, Done);
      break;
    }
    case ActionKind::IterMark:
      Agent.IterStartHistory.push_back(Agent.ReadyAt);
      if (Agent.IterStartHistory.size() > 64)
        Agent.IterStartHistory.pop_front();
      break;
    }
    ++Agent.Pc;
  }

  const GpuConfig &Config;
  const ReplayParams &Params;
  std::vector<OracleAgent> Agents;
  std::vector<std::vector<OracleBarrier>> Barriers;
  double TcFree = 0;
  double DramFree = 0;
  ReplayResult Result;
  double BaseTime = 0;
};

bool sameBits(double A, double B) {
  return std::memcmp(&A, &B, sizeof(double)) == 0;
}

} // namespace

ReplayResult
tawa::sim::replaySmScheduleOracle(const std::vector<const CtaTrace *> &Ctas,
                                  const GpuConfig &Config,
                                  const ReplayParams &Params) {
  return OracleReplay(Config, Params).run(Ctas);
}

std::string tawa::sim::replayDiff(const ReplayResult &Ref,
                                  const ReplayResult &R) {
  if (R.Deadlock != Ref.Deadlock || R.Error != Ref.Error)
    return formatString("status '%s' vs reference '%s'", R.Error.c_str(),
                        Ref.Error.c_str());
  const std::pair<const char *, double ReplayResult::*> Fields[] = {
      {"cycles", &ReplayResult::Cycles},
      {"tensor busy cycles", &ReplayResult::TensorBusyCycles},
      {"DRAM busy cycles", &ReplayResult::DramBusyCycles}};
  for (const auto &[Name, Field] : Fields)
    if (!sameBits(R.*Field, Ref.*Field))
      return formatString("%s %.17g vs reference %.17g", Name, R.*Field,
                          Ref.*Field);
  if (R.DramBytes != Ref.DramBytes)
    return formatString("DRAM bytes %lld vs reference %lld",
                        static_cast<long long>(R.DramBytes),
                        static_cast<long long>(Ref.DramBytes));
  return "";
}
