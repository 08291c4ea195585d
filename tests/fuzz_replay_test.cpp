//===- fuzz_replay_test.cpp - Replay engine over fuzzed traces ----------------//
//
// sim/Replay coverage with generator-produced kernels (tests/fuzz/Gen.h):
// the replayed cycle totals are a function of the traces alone, so they
// must be identical whichever engine or worker count produced the traces,
// identical on re-replay, and identical after the module takes a textual
// print -> parse round trip.
//
//===----------------------------------------------------------------------===//

#include "tests/fuzz/Gen.h"

#include "sim/Interpreter.h"
#include "sim/Replay.h"
#include "tests/oracle/ScanReplay.h"
#include "tests/oracle/TreeWalk.h"

#include <gtest/gtest.h>

using namespace tawa;
using namespace tawa::fuzz;
using namespace tawa::sim;

namespace {

/// Runs every CTA of \p P on the oracle or one bytecode engine/worker combo
/// and returns the grid's traces ("" error expected from the caller).
std::string runForTraces(const PreparedCase &P, bool Oracle, bool Fuse,
                         int64_t Workers, std::vector<CtaTrace> &Out) {
  GpuConfig Cfg;
  RunOptions Opts;
  Opts.FuseBytecode = Fuse;
  Opts.NumWorkers = Workers;
  Opts.MaxSteps = 1000000;
  materializeLaunch(P.Launch, Opts);
  if (Oracle)
    return runGridOracle(*P.Mod, Cfg, Opts, &Out);
  Interpreter Interp(*P.Mod, Cfg);
  return Interp.runGrid(Opts, nullptr, &Out);
}

ReplayResult replayAll(const std::vector<CtaTrace> &Traces) {
  std::vector<const CtaTrace *> Ptrs;
  for (const CtaTrace &T : Traces)
    Ptrs.push_back(&T);
  GpuConfig Cfg;
  return replaySmSchedule(Ptrs, Cfg, ReplayParams());
}

/// Clean (no faults, no deadlock bug) fuzzed case for \p Seed, or nullopt
/// behavior via the bool return.
bool prepareClean(uint64_t Seed, PreparedCase &P) {
  FuzzCase C = generateCase(Seed);
  C.Faults = false;
  C.RingSkipRelease = false;
  return prepareCase(C, P).empty();
}

TEST(FuzzReplay, TotalsMatchAcrossEnginesAndWorkers) {
  struct ComboSpec {
    bool Oracle;
    bool Fuse;
    int64_t Workers;
  };
  const ComboSpec Combos[] = {
      {true, false, 1}, {false, false, 2}, {false, true, 4}};

  int Checked = 0;
  for (uint64_t Seed = 100; Checked < 4 && Seed < 140; ++Seed) {
    PreparedCase P;
    if (!prepareClean(Seed, P))
      continue;

    std::vector<CtaTrace> RefTraces;
    ASSERT_EQ(runForTraces(P, Combos[0].Oracle, Combos[0].Fuse,
                           Combos[0].Workers, RefTraces),
              "");
    ReplayResult Ref = replayAll(RefTraces);
    // Deterministic: replaying the same traces twice gives the same
    // totals.
    EXPECT_EQ(replayDiff(Ref, replayAll(RefTraces)), "");

    for (size_t I = 1; I < 3; ++I) {
      std::vector<CtaTrace> Traces;
      ASSERT_EQ(runForTraces(P, Combos[I].Oracle, Combos[I].Fuse,
                             Combos[I].Workers, Traces),
                "");
      EXPECT_EQ(replayDiff(Ref, replayAll(Traces)), "");
    }
    ++Checked;
  }
  EXPECT_GE(Checked, 3) << "generator produced too few clean cases";
}

TEST(FuzzReplay, TextualRoundTripPreservesReplayTotals) {
  int Checked = 0;
  for (uint64_t Seed = 200; Checked < 3 && Seed < 230; ++Seed) {
    PreparedCase P;
    if (!prepareClean(Seed, P))
      continue;

    std::vector<CtaTrace> Traces;
    ASSERT_EQ(runForTraces(P, false, true, 1, Traces), "");
    ReplayResult Ref = replayAll(Traces);

    // Print the compiled module, parse it back, run the reparsed module,
    // and replay: totals must survive the textual round trip.
    PreparedCase Loaded;
    ASSERT_EQ(loadCase(P.Mod->print(), Loaded), "");
    std::vector<CtaTrace> LoadedTraces;
    ASSERT_EQ(runForTraces(Loaded, false, true, 1, LoadedTraces), "");
    EXPECT_EQ(replayDiff(Ref, replayAll(LoadedTraces)), "");
    ++Checked;
  }
  EXPECT_GE(Checked, 2) << "generator produced too few clean cases";
}

} // namespace
