//===- replay_test.cpp - Timed co-simulation engine tests ---------------------//
//
// Hand-built action traces exercising the replay engine: mbarrier parity
// waits and transaction counts, tensor-core FIFO waits, async-TMA overlap,
// deadlock detection, DRAM serialization, and the software-pipelined copy
// lookahead.
//
// Every replay here also runs through the scan-every-action oracle
// (tests/oracle/ScanReplay.h), the replay model in its plainest form.
// replaySmSchedule must match it bit for bit on the hand-built traces, on
// the traces of every ok-path tests/corpus module, and on seeded random
// multi-agent schedules, long runs of one trace among them.
//
//===----------------------------------------------------------------------===//

#include "tests/fuzz/Gen.h"
#include "tests/oracle/ScanReplay.h"

#include "sim/Interpreter.h"
#include "sim/Replay.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

using namespace tawa;
using namespace tawa::sim;

namespace {

/// replaySmSchedule, checked field by field against the oracle.
ReplayResult replayChecked(const std::vector<const CtaTrace *> &Ctas,
                           const GpuConfig &Cfg, const ReplayParams &Params) {
  ReplayResult R = replaySmSchedule(Ctas, Cfg, Params);
  EXPECT_EQ(replayDiff(replaySmScheduleOracle(Ctas, Cfg, Params), R), "");
  return R;
}

//===----------------------------------------------------------------------===//
// Hand-built traces
//===----------------------------------------------------------------------===//

Action cuda(double Cycles) {
  Action A;
  A.Kind = ActionKind::CudaWork;
  A.Cycles = Cycles;
  return A;
}
Action tensorIssue(double Cycles) {
  Action A;
  A.Kind = ActionKind::TensorIssue;
  A.Cycles = Cycles;
  return A;
}
Action tensorWait(int64_t Pendings) {
  Action A;
  A.Kind = ActionKind::TensorWait;
  A.Pendings = pendingsBound(Pendings);
  return A;
}
Action tmaIssue(int32_t Bar, int32_t Idx, int64_t Bytes) {
  Action A;
  A.Kind = ActionKind::TmaIssue;
  A.Bar = Bar;
  A.Idx = Idx;
  A.Bytes = Bytes;
  A.Cycles = 10;
  return A;
}
Action expectTx(int32_t Bar, int32_t Idx, int64_t Bytes) {
  Action A;
  A.Kind = ActionKind::BarExpectTx;
  A.Bar = Bar;
  A.Idx = Idx;
  A.Bytes = Bytes;
  return A;
}
Action arrive(int32_t Bar, int32_t Idx) {
  Action A;
  A.Kind = ActionKind::BarArrive;
  A.Bar = Bar;
  A.Idx = Idx;
  return A;
}
Action wait(int32_t Bar, int32_t Idx, int8_t Parity) {
  Action A;
  A.Kind = ActionKind::BarWait;
  A.Bar = Bar;
  A.Idx = Idx;
  A.Parity = Parity;
  return A;
}

CtaTrace makeCta(std::vector<AgentTrace> Agents, int32_t NumBars,
                 std::vector<int64_t> Arrivals) {
  CtaTrace T;
  T.Agents = std::move(Agents);
  T.NumBarrierArrays = NumBars;
  for (int I = 0; I < NumBars; ++I) {
    T.BarrierArrivals.push_back(Arrivals[I]);
    T.BarrierSizes.push_back(4);
  }
  return T;
}

TEST(Replay, PureComputeAccumulates) {
  AgentTrace A;
  A.Name = "wg";
  A.emit(cuda(1000));
  A.emit(cuda(500));
  CtaTrace T = makeCta({A}, 0, {});
  GpuConfig Cfg;
  ReplayResult R = replayChecked({&T}, Cfg, ReplayParams());
  EXPECT_FALSE(R.Deadlock);
  EXPECT_GE(R.Cycles, 1500.0);
}

TEST(Replay, BarrierWaitBlocksUntilArrival) {
  // Agent 0 arrives at t~5000; agent 1 waits from t~0.
  AgentTrace P, C;
  P.Name = "producer";
  P.emit(cuda(5000));
  P.emit(arrive(0, 0));
  C.Name = "consumer";
  C.emit(wait(0, 0, /*Parity=*/0)); // Blocks until the first completion.
  C.emit(cuda(100));
  CtaTrace T = makeCta({P, C}, 1, {1});
  GpuConfig Cfg;
  ReplayResult R = replayChecked({&T}, Cfg, ReplayParams());
  EXPECT_FALSE(R.Deadlock);
  double Base = Cfg.launchCycles() + Cfg.CtaStartCycles;
  EXPECT_GE(R.Cycles, Base + 5000 + 100);
}

TEST(Replay, ParityOneSailsThroughFreshBarrier) {
  AgentTrace A;
  A.Name = "wg";
  A.emit(wait(0, 0, /*Parity=*/1)); // Phase bit 0 != 1: no blocking.
  A.emit(cuda(10));
  CtaTrace T = makeCta({A}, 1, {1});
  GpuConfig Cfg;
  ReplayResult R = replayChecked({&T}, Cfg, ReplayParams());
  EXPECT_FALSE(R.Deadlock);
}

TEST(Replay, DeadlockDetected) {
  AgentTrace A, B;
  A.Name = "a";
  A.emit(wait(0, 0, 0));
  B.Name = "b";
  B.emit(wait(1, 0, 0));
  CtaTrace T = makeCta({A, B}, 2, {1, 1});
  GpuConfig Cfg;
  ReplayResult R = replayChecked({&T}, Cfg, ReplayParams());
  EXPECT_TRUE(R.Deadlock);
}

TEST(Replay, TransactionCountGatesCompletion) {
  // The barrier expects 2 arrivals AND the full byte count; a single TMA
  // must not complete the phase.
  AgentTrace P, C;
  P.Name = "producer";
  P.emit(expectTx(0, 0, 2048));
  P.emit(tmaIssue(0, 0, 1024));
  P.emit(cuda(200));
  P.emit(tmaIssue(0, 0, 1024));
  C.Name = "consumer";
  C.emit(wait(0, 0, 0));
  CtaTrace T = makeCta({P, C}, 1, {2});
  GpuConfig Cfg;
  ReplayResult R = replayChecked({&T}, Cfg, ReplayParams());
  EXPECT_FALSE(R.Deadlock);
  // Completion requires the second copy (issued after 200 cycles of work).
  double Base = Cfg.launchCycles() + Cfg.CtaStartCycles;
  EXPECT_GE(R.Cycles, Base + 200 + Cfg.TmaLatencyCycles);
}

TEST(Replay, TensorWaitHonorsFifoOrder) {
  AgentTrace A;
  A.Name = "wg";
  A.emit(tensorIssue(1000));
  A.emit(tensorIssue(1000));
  A.emit(tensorWait(1)); // Retire the first only.
  A.emit(cuda(1));
  CtaTrace T = makeCta({A}, 0, {});
  GpuConfig Cfg;
  ReplayResult R = replayChecked({&T}, Cfg, ReplayParams());
  double Base = Cfg.launchCycles() + Cfg.CtaStartCycles;
  // Finishes after the *second* MMA only because makespan covers agents'
  // issued work... the agent itself resumed after the first: its own time
  // is Base + issue costs + 1000 + 1. Total cycles include DRAM drain (none)
  // and the agent end, not the TC tail.
  EXPECT_GE(R.Cycles, Base + 1000);
  EXPECT_LT(R.Cycles, Base + 2 * 1000 + 500);
  EXPECT_NEAR(R.TensorBusyCycles, 2000, 1);
}

TEST(Replay, NegativePendingsWaitsForEveryMma) {
  // A crafted module can carry wgmma_wait {pendings = -1}; the wait must
  // drain the FIFO like pendings = 0, not read past its front.
  auto Trace = [](int64_t Pendings) {
    AgentTrace A;
    A.Name = "wg";
    A.emit(tensorIssue(1000));
    A.emit(tensorIssue(1000));
    A.emit(tensorWait(Pendings));
    A.emit(tensorWait(Pendings));
    A.emit(cuda(1));
    return A;
  };
  CtaTrace Negative = makeCta({Trace(-1)}, 0, {});
  CtaTrace Zero = makeCta({Trace(0)}, 0, {});
  GpuConfig Cfg;
  EXPECT_EQ(replaySmSchedule({&Negative}, Cfg, ReplayParams()).Cycles,
            replayChecked({&Zero}, Cfg, ReplayParams()).Cycles);
}

TEST(Replay, AsyncTmaOverlapsCompute) {
  // Producer issues a copy, consumer computes 10k cycles, then waits: the
  // transfer (latency ~750 + service) hides entirely under the compute.
  AgentTrace P, C;
  P.Name = "producer";
  P.emit(expectTx(0, 0, 1024));
  P.emit(tmaIssue(0, 0, 1024));
  C.Name = "consumer";
  C.emit(cuda(10000));
  C.emit(wait(0, 0, 0));
  C.emit(cuda(100));
  CtaTrace T = makeCta({P, C}, 1, {1});
  GpuConfig Cfg;
  ReplayResult R = replayChecked({&T}, Cfg, ReplayParams());
  double Base = Cfg.launchCycles() + Cfg.CtaStartCycles;
  EXPECT_LT(R.Cycles, Base + 10000 + 100 + 200); // No added stall.
}

TEST(Replay, DramSerializesTransfers) {
  // Two large copies back-to-back: the second's completion reflects queueing
  // behind the first on the shared bandwidth server.
  GpuConfig Cfg;
  ReplayParams Params;
  Params.DramReuseFactor = 1.0;
  AgentTrace P, C;
  P.Name = "producer";
  int64_t Big = 1 << 20; // 1 MiB each.
  P.emit(expectTx(0, 0, 2 * Big));
  P.emit(tmaIssue(0, 0, Big));
  P.emit(tmaIssue(0, 0, Big));
  C.Name = "consumer";
  C.emit(wait(0, 0, 0));
  CtaTrace T = makeCta({P, C}, 1, {2});
  ReplayResult R = replayChecked({&T}, Cfg, Params);
  double BwPerSm = Cfg.HbmTBps * 1e12 /
                   (Params.BwShareSms * Cfg.ClockGhz * 1e9) *
                   Cfg.TmaBwEfficiency;
  double Base = Cfg.launchCycles() + Cfg.CtaStartCycles;
  EXPECT_GE(R.Cycles, Base + 2 * Big / BwPerSm);
  EXPECT_EQ(R.DramBytes, 2 * Big);
}

TEST(Replay, ReuseFactorScalesDramTraffic) {
  GpuConfig Cfg;
  ReplayParams Params;
  Params.DramReuseFactor = 0.25;
  AgentTrace P, C;
  P.Name = "producer";
  P.emit(expectTx(0, 0, 1 << 20));
  P.emit(tmaIssue(0, 0, 1 << 20));
  C.Name = "consumer";
  C.emit(wait(0, 0, 0));
  CtaTrace T = makeCta({P, C}, 1, {1});
  ReplayResult R = replayChecked({&T}, Cfg, Params);
  EXPECT_EQ(R.DramBytes, (1 << 20) / 4);
}

TEST(Replay, TensorPenaltySlowsMmas) {
  AgentTrace A;
  A.Name = "wg";
  A.emit(tensorIssue(1000));
  A.emit(tensorWait(0));
  CtaTrace T = makeCta({A}, 0, {});
  GpuConfig Cfg;
  ReplayParams Fast, Slow;
  Slow.TensorPenalty = 1.5;
  double FastCycles = replayChecked({&T}, Cfg, Fast).Cycles;
  double SlowCycles = replayChecked({&T}, Cfg, Slow).Cycles;
  EXPECT_NEAR(SlowCycles - FastCycles, 500, 1);
}

TEST(Replay, MultiCtaSchedulesSequentially) {
  AgentTrace A;
  A.Name = "wg";
  A.emit(cuda(1000));
  CtaTrace T = makeCta({A}, 0, {});
  GpuConfig Cfg;
  double OneCta = replayChecked({&T}, Cfg, ReplayParams()).Cycles;
  double ThreeCtas = replayChecked({&T, &T, &T}, Cfg, ReplayParams()).Cycles;
  EXPECT_NEAR(ThreeCtas - OneCta, 2 * (1000 + Cfg.CtaStartCycles), 1);
}

TEST(Replay, PipelinedCopyUsesLookahead) {
  // Five iterations of (IterMark, CopyPipelined(lookahead=3), compute):
  // with the lookahead the copy for iteration k was issued at iteration
  // k-2's start, so the steady-state stall is far below the full
  // latency+service time.
  GpuConfig Cfg;
  auto MakeTrace = [&](int32_t Lookahead) {
    AgentTrace A;
    A.Name = "wg";
    for (int K = 0; K < 5; ++K) {
      Action Mark;
      Mark.Kind = ActionKind::IterMark;
      A.emit(Mark);
      Action Copy;
      Copy.Kind = ActionKind::CopyPipelined;
      Copy.Bytes = 64 << 10;
      Copy.Lookahead = Lookahead;
      Copy.Cycles = 10;
      A.emit(Copy);
      A.emit(cuda(2000));
    }
    return A;
  };
  CtaTrace Deep = makeCta({MakeTrace(3)}, 0, {});
  CtaTrace Shallow = makeCta({MakeTrace(1)}, 0, {});
  double DeepCycles = replayChecked({&Deep}, Cfg, ReplayParams()).Cycles;
  double ShallowCycles =
      replayChecked({&Shallow}, Cfg, ReplayParams()).Cycles;
  EXPECT_LT(DeepCycles, ShallowCycles);
}

TEST(Replay, PipelinedCopyLookaheadPastHistory) {
  // The history keeps the last 64 iteration starts, so a lookahead of 65
  // or more never finds its iteration: every copy issues at the CTA start,
  // exactly as with an unbounded lookahead.
  GpuConfig Cfg;
  auto MakeTrace = [&](int32_t Lookahead) {
    AgentTrace A;
    A.Name = "wg";
    for (int K = 0; K < 70; ++K) {
      Action Mark;
      Mark.Kind = ActionKind::IterMark;
      A.emit(Mark);
      Action Copy;
      Copy.Kind = ActionKind::CopyPipelined;
      Copy.Bytes = 16 << 10;
      Copy.Lookahead = Lookahead;
      Copy.Cycles = 10;
      A.emit(Copy);
      A.emit(cuda(300));
    }
    return A;
  };
  CtaTrace At1 = makeCta({MakeTrace(1)}, 0, {});
  CtaTrace At64 = makeCta({MakeTrace(64)}, 0, {});
  CtaTrace At65 = makeCta({MakeTrace(65)}, 0, {});
  CtaTrace Huge = makeCta({MakeTrace(1 << 30)}, 0, {});
  double Cycles1 = replayChecked({&At1}, Cfg, ReplayParams()).Cycles;
  replayChecked({&At64}, Cfg, ReplayParams());
  double Cycles65 = replayChecked({&At65}, Cfg, ReplayParams()).Cycles;
  double CyclesHuge = replayChecked({&Huge}, Cfg, ReplayParams()).Cycles;
  EXPECT_EQ(Cycles65, CyclesHuge);
  EXPECT_GT(Cycles1, Cycles65);
}

//===----------------------------------------------------------------------===//
// Oracle comparisons on interpreter traces and random schedules
//===----------------------------------------------------------------------===//

std::vector<ReplayParams> paramVariants() {
  ReplayParams Skewed;
  Skewed.DramReuseFactor = 0.25;
  Skewed.BwShareSms = 17;
  Skewed.TensorPenalty = 1.3;
  Skewed.CudaPenalty = 0.9;
  Skewed.CtaGapCycles = 40;
  return {ReplayParams(), Skewed};
}

std::string readCorpus(const std::string &Name) {
  std::ifstream In(std::string(TAWA_SOURCE_DIR) + "/tests/corpus/" + Name);
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

TEST(ReplayOracle, CorpusTracesMatch) {
  std::istringstream Manifest(readCorpus("MANIFEST"));
  std::string Name;
  GpuConfig Cfg;
  size_t Replayed = 0;
  int64_t Scheduled = 0, Simulated = 0;
  while (std::getline(Manifest, Name)) {
    if (Name.empty() || Name[0] == '#')
      continue;
    SCOPED_TRACE(Name);
    fuzz::PreparedCase P;
    ASSERT_EQ(fuzz::loadCase(readCorpus(Name), P), "");
    RunOptions Opts;
    Opts.MaxSteps = 1000000;
    materializeLaunch(P.Launch, Opts);
    Interpreter Interp(*P.Mod, Cfg);
    std::vector<CtaTrace> Traces;
    if (!Interp.runGrid(Opts, nullptr, &Traces).empty())
      continue; // Error-path files (deadlocks) leave no traces to replay.
    ASSERT_FALSE(Traces.empty());
    std::vector<const CtaTrace *> Grid;
    for (const CtaTrace &T : Traces)
      Grid.push_back(&T);
    // The whole grid on one SM, the first CTA alone, and the first CTA
    // repeated the way the Runner's sample classes repeat a pointer, for as
    // many waves as a large figure point runs.
    for (const ReplayParams &Params : paramVariants()) {
      replayChecked(Grid, Cfg, Params);
      replayChecked({Grid[0]}, Cfg, Params);
      std::vector<const CtaTrace *> Long(300, Grid[0]);
      Simulated += replayChecked(Long, Cfg, Params).SimulatedCtas;
      Scheduled += static_cast<int64_t>(Long.size());
    }
    ++Replayed;
  }
  EXPECT_GE(Replayed, 9u);
  // Most of the long runs' waves are skipped, not replayed action by action.
  EXPECT_LT(Simulated * 4, Scheduled);
}

/// A cycle cost whose lowest set bit is 2^(E-53) for a random E in 12..30
/// (and below 2^E, so exact): adding it to a time in the binade
/// [2^E, 2^(E+1)) rounds half to even.
double tieProneCycles(fuzz::Rng &R) {
  int E = static_cast<int>(R.range(12, 30));
  double Whole = std::ldexp(static_cast<double>(R.range(0, 1000)),
                            static_cast<int>(R.range(0, E - 10)));
  return Whole +
         std::ldexp(static_cast<double>(2 * R.range(0, 100) + 1), E - 53);
}

/// A random CTA: up to four agents over up to three barrier arrays. Cycle
/// costs come from a short list, so agents often tie on ReadyAt; waits make
/// some schedules deadlock. A quarter of the agents run a software-
/// pipelined loop long enough to overflow the 64-entry history, with
/// lookaheads on both sides of it. With \p TieProne, a quarter of the
/// costs are tieProneCycles instead.
CtaTrace randomCta(fuzz::Rng &R, bool Waits, bool TieProne = false) {
  CtaTrace T;
  T.NumBarrierArrays = static_cast<int32_t>(R.range(0, 3));
  for (int32_t B = 0; B < T.NumBarrierArrays; ++B) {
    T.BarrierArrivals.push_back(R.range(1, 3));
    T.BarrierSizes.push_back(R.range(1, 4));
  }
  auto Cycles = [&] {
    if (TieProne && R.chance(25))
      return tieProneCycles(R);
    return R.pick({0.0, 0.0, 1.0, 2.0, 2.0, 0.5, 10.0, 100.0, 1000.0});
  };
  int64_t NumAgents = R.range(1, 4);
  for (int64_t G = 0; G < NumAgents; ++G) {
    AgentTrace A;
    A.Name = "wg" + std::to_string(G);
    if (R.chance(25)) {
      int32_t Lookahead = R.pick({1, 3, 64, 65, 100});
      for (int64_t K = 0, E = R.range(60, 140); K < E; ++K) {
        Action Mark;
        Mark.Kind = ActionKind::IterMark;
        A.emit(Mark);
        Action Copy;
        Copy.Kind = ActionKind::CopyPipelined;
        Copy.Bytes = R.pick<int64_t>({0, 4096, 65536});
        Copy.Lookahead = Lookahead;
        Copy.Cycles = Cycles();
        A.emit(Copy);
        A.emit(cuda(Cycles()));
      }
      T.Agents.push_back(std::move(A));
      continue;
    }
    for (int64_t K = 0, E = R.range(0, 80); K < E; ++K) {
      Action X;
      X.Kind = static_cast<ActionKind>(
          R.range(0, static_cast<int64_t>(ActionKind::CtaSync)));
      bool OnBarrier = X.Kind == ActionKind::TmaIssue ||
                       X.Kind == ActionKind::BarExpectTx ||
                       X.Kind == ActionKind::BarArrive ||
                       X.Kind == ActionKind::BarWait;
      if (OnBarrier && T.NumBarrierArrays == 0)
        X.Kind = ActionKind::CudaWork;
      else if (X.Kind == ActionKind::BarWait && !Waits)
        X.Kind = ActionKind::BarArrive;
      X.Cycles = Cycles();
      X.Bytes = R.pick<int64_t>({0, 128, 4096, 65536});
      if (T.NumBarrierArrays > 0) {
        X.Bar = static_cast<int32_t>(R.range(0, T.NumBarrierArrays - 1));
        X.Idx = static_cast<int32_t>(R.range(0, T.BarrierSizes[X.Bar] - 1));
      }
      X.Parity = static_cast<int8_t>(R.range(0, 1));
      int32_t Pendings = static_cast<int32_t>(R.range(0, 3));
      int32_t Lookahead = R.pick({1, 2, 3, 64, 65, 100});
      // The two share one field; each kind reads its own.
      if (X.Kind == ActionKind::CopyPipelined)
        X.Lookahead = Lookahead;
      else
        X.Pendings = Pendings;
      A.emit(X);
    }
    T.Agents.push_back(std::move(A));
  }
  return T;
}

TEST(ReplayOracle, RandomSchedulesMatch) {
  GpuConfig Cfg;
  int Deadlocks = 0, Completed = 0, RepeatedMultiCta = 0;
  for (uint64_t Seed = 1; Seed <= 2000; ++Seed) {
    SCOPED_TRACE(Seed);
    fuzz::Rng R(Seed);
    bool Waits = !R.chance(30);
    std::vector<CtaTrace> Ctas;
    for (int64_t I = 0, E = R.range(1, 3); I < E; ++I)
      Ctas.push_back(randomCta(R, Waits));
    // A schedule of up to six CTAs that repeats pointers.
    std::vector<const CtaTrace *> Schedule;
    for (int64_t I = 0, E = R.range(1, 6); I < E; ++I)
      Schedule.push_back(&Ctas[R.range(0, static_cast<int64_t>(Ctas.size()) -
                                             1)]);
    ReplayParams Params;
    Params.DramReuseFactor = R.pick({1.0, 0.25});
    Params.BwShareSms = R.pick({132.0, 7.0});
    Params.TensorPenalty = R.pick({1.0, 1.5});
    Params.CudaPenalty = R.pick({1.0, 0.75});
    Params.CtaGapCycles = R.pick({0.0, 25.0});
    ReplayResult Rep = replayChecked(Schedule, Cfg, Params);
    if (Rep.Deadlock) {
      ++Deadlocks;
      continue;
    }
    ++Completed;
    if (Schedule.size() > 1 &&
        std::count(Schedule.begin(), Schedule.end(), Schedule[0]) > 1)
      ++RepeatedMultiCta;
  }
  // The seeds exercise both outcomes and pointer-repeating schedules.
  EXPECT_GT(Deadlocks, 100);
  EXPECT_GT(Completed, 100);
  EXPECT_GT(RepeatedMultiCta, 50);
}

//===----------------------------------------------------------------------===//
// Repeated waves: long runs of one trace
//===----------------------------------------------------------------------===//

TEST(ReplayOracle, LongRepeatedSchedulesMatch) {
  // Runs of one pointer long enough to cross many binades, alone or mixed
  // with short runs of other traces, under the Runner's kinds of penalty
  // (products like 1.04 and 1.15 * 1.08 fill the low bits) and
  // tie-prone costs.
  GpuConfig Cfg;
  int64_t Scheduled = 0, Simulated = 0;
  int Completed = 0;
  for (uint64_t Seed = 1; Seed <= 300; ++Seed) {
    SCOPED_TRACE(Seed);
    fuzz::Rng R(Seed);
    bool Waits = R.chance(50);
    std::vector<CtaTrace> Ctas;
    for (int64_t I = 0, E = R.range(1, 3); I < E; ++I)
      Ctas.push_back(randomCta(R, Waits, /*TieProne=*/true));
    std::vector<const CtaTrace *> Schedule;
    if (R.chance(50)) {
      Schedule.assign(static_cast<size_t>(R.range(50, 600)), &Ctas[0]);
    } else {
      while (Schedule.size() < 300) {
        const CtaTrace *Cta =
            &Ctas[R.range(0, static_cast<int64_t>(Ctas.size()) - 1)];
        Schedule.insert(Schedule.end(),
                        static_cast<size_t>(R.pick<int64_t>(
                            {1, 2, R.range(50, 200)})),
                        Cta);
      }
    }
    ReplayParams Params;
    Params.DramReuseFactor = R.pick({1.0, 0.8, 0.25});
    Params.BwShareSms = R.pick({132.0, 7.0});
    Params.TensorPenalty = R.pick({1.0, 1.04, 1.15 * 1.08, 1.45});
    Params.CudaPenalty = R.pick({1.0, 0.8, 1.45});
    Params.CtaGapCycles = R.pick({0.0, 0.3, 2500.0});
    ReplayResult Rep = replayChecked(Schedule, Cfg, Params);
    if (Rep.Deadlock)
      continue;
    ++Completed;
    Scheduled += static_cast<int64_t>(Schedule.size());
    Simulated += Rep.SimulatedCtas;
  }
  EXPECT_GT(Completed, 100);
  // Most waves are skipped, not replayed action by action.
  EXPECT_LT(Simulated * 4, Scheduled);
}

/// One agent: an MMA it waits for, some CUDA-core work, then, if
/// \p LeakCycles is positive, an MMA of that many cycles it never waits
/// for, which keeps the tensor core busy into the next wave.
CtaTrace mmaCta(double LeakCycles) {
  AgentTrace A;
  A.Name = "wg";
  A.emit(tensorIssue(300));
  A.emit(tensorWait(0));
  A.emit(cuda(200));
  if (LeakCycles > 0)
    A.emit(tensorIssue(LeakCycles));
  return makeCta({A}, 0, {});
}

TEST(RepeatedWaves, WaveLeavingTensorCoreBusyIsNotRepeated) {
  // Each Leaky wave keeps the tensor core busy past the next wave's start,
  // delaying that wave's first MMA. So the first Leaky wave, which started
  // with the core free, is no pattern for the ones after it.
  CtaTrace Clean = mmaCta(0), Leaky = mmaCta(5000);
  std::vector<const CtaTrace *> Schedule(300, &Clean);
  Schedule.insert(Schedule.end(), 300, &Leaky);
  GpuConfig Cfg;
  ReplayResult R = replayChecked(Schedule, Cfg, ReplayParams());
  EXPECT_LT(R.SimulatedCtas, 400); // The Clean run is still skipped.
}

TEST(RepeatedWaves, WaveStartingWithTensorCoreBusyIsNotRepeated) {
  // The Clean wave after the Leaky one waits for the leaked MMA; the Clean
  // waves after it start with the core free and run shorter.
  CtaTrace Clean = mmaCta(0), Leaky = mmaCta(5000);
  std::vector<const CtaTrace *> Schedule(300, &Clean);
  Schedule.push_back(&Leaky);
  Schedule.insert(Schedule.end(), 300, &Clean);
  GpuConfig Cfg;
  ReplayResult R = replayChecked(Schedule, Cfg, ReplayParams());
  EXPECT_LT(R.SimulatedCtas, 100); // Both Clean runs are still skipped.
}

} // namespace
