//===- diagnostics_test.cpp - Watchdog, taxonomy, diag goldens ----------------//
//
// Robustness contract of the execution guardrails (docs/robustness.md):
//   * the step-budget watchdog terminates a runaway kernel with a
//     deterministic "step budget exceeded" error — bit-identical across
//     the serial tree-walking oracle and the unfused-bytecode and
//     fused-bytecode engines at NumWorkers 1, 2 and 8;
//   * a deadlock or watchdog abort fills RunOptions::Diag with a snapshot
//     whose renderText()/renderJson() output is byte-identical across all
//     seven engine x worker combinations — pinned here against embedded
//     golden strings;
//   * classifyError maps every engine message prefix onto the ErrorKind
//     taxonomy (support/Status.h).
//
// Regenerating the goldens after an intentional diag-format change:
//   TAWA_DUMP_DIAG=1 ./diagnostics_test 2>diag.txt
// and paste the dumped blocks over the kGolden* constants below.
//
//===----------------------------------------------------------------------===//

#include "ir/Builder.h"
#include "ir/Verifier.h"
#include "sim/Diag.h"
#include "sim/Interpreter.h"
#include "support/Env.h"
#include "support/Status.h"
#include "tests/oracle/TreeWalk.h"

#include <gtest/gtest.h>

#include <cstdio>

using namespace tawa;
using namespace tawa::sim;

namespace {

constexpr int64_t WorkerCounts[] = {1, 2, 8};

/// A kernel that never finishes on its own: a no-arg function whose body is
/// one scalar loop with an astronomically large trip count. No warp groups,
/// so both engines execute it as the lone "preamble" agent — the step
/// counting of the two engines (bytecode LoopBegin/LoopEnd events vs the
/// oracle's evalFor iteration counter) must agree exactly for the budget trip
/// to be engine-identical.
std::unique_ptr<Module> buildRunawayLoop(IrContext &Ctx) {
  auto M = std::make_unique<Module>(Ctx);
  OpBuilder B(Ctx);
  B.setInsertionPointToEnd(&M->getBody());
  FuncOp *F = B.createFunc("runaway", {});
  B.setInsertionPointToEnd(&F->getBody());
  Value *Zero = B.createConstantInt(0);
  Value *One = B.createConstantInt(1);
  Value *Huge = B.createConstantInt(int64_t(1) << 40);
  ForOp *Loop = B.createFor(Zero, Huge, One, {});
  OpBuilder L(Ctx);
  L.setInsertionPointToEnd(&Loop->getBody());
  L.createAdd(Loop->getInductionVar(), One);
  L.createYield({});
  B.createReturn();
  return M;
}

/// Producer/consumer mbarrier ring whose consumer never releases: every CTA
/// deadlocks with the same diagnostic. Mirrors the ring of
/// parallel_determinism_test.cpp, here sized to an 8-CTA grid so the
/// parallel fan-out path (not the small-grid serial fallback) fills the
/// first-failing-CTA diagnostic.
std::unique_ptr<Module> buildDeadlockRing(IrContext &Ctx) {
  int64_t Depth = 2, Iters = 6;
  auto M = std::make_unique<Module>(Ctx);
  OpBuilder B(Ctx);
  B.setInsertionPointToEnd(&M->getBody());
  FuncOp *F = B.createFunc("k", {Ctx.getPtrType(), Ctx.getPtrType()});
  Block &Body = F->getBody();
  B.setInsertionPointToEnd(&Body);
  Value *InDesc = Body.getArgument(0);
  Value *OutDesc = Body.getArgument(1);
  auto *TileTy = Ctx.getTensorType({16, 16}, Ctx.getF16Type());
  int64_t Bytes = TileTy->getNumBytes();

  Value *Smem = B.createSmemAlloc(Depth * Bytes, "ring");
  Operation *SmemOp = cast<OpResult>(Smem)->getOwner();
  SmemOp->setAttr("slot_bytes", Bytes);
  SmemOp->setAttr("channel", static_cast<int64_t>(0));
  SmemOp->setAttr("num_slots", Depth);
  Value *Full = B.createMBarrierAlloc(Depth, "full");
  Operation *FullOp = cast<OpResult>(Full)->getOwner();
  FullOp->setAttr("channel", static_cast<int64_t>(0));
  FullOp->setAttr("kind", std::string("full"));
  Value *Empty = B.createMBarrierAlloc(Depth, "empty");
  Operation *EmptyOp = cast<OpResult>(Empty)->getOwner();
  EmptyOp->setAttr("channel", static_cast<int64_t>(0));
  EmptyOp->setAttr("kind", std::string("empty"));

  Value *Zero = B.createConstantInt(0);
  Value *One = B.createConstantInt(1);
  Value *Two = B.createConstantInt(2);
  Value *DepthC = B.createConstantInt(Depth);
  Value *N = B.createConstantInt(Iters);

  WarpGroupOp *WG0 = B.createWarpGroup(0, "producer");
  {
    OpBuilder P(Ctx);
    P.setInsertionPointToEnd(&WG0->getBody());
    ForOp *Loop = P.createFor(Zero, N, One, {});
    OpBuilder L(Ctx);
    L.setInsertionPointToEnd(&Loop->getBody());
    Value *K = Loop->getInductionVar();
    Value *Slot = L.createRem(K, DepthC);
    Value *Wrap = L.createDiv(K, DepthC);
    Value *Parity = L.createRem(L.createAdd(Wrap, One), Two);
    L.createMBarrierWait(Empty, Slot, Parity);
    L.createMBarrierExpectTx(Full, Slot, Bytes);
    Operation *Copy = L.createTmaLoadAsync(InDesc, {Slot, Slot}, Smem, Full,
                                           Slot, Bytes, 0);
    Copy->setAttr("shape", std::vector<int64_t>{16, 16});
    L.createYield({});
  }
  WarpGroupOp *WG1 = B.createWarpGroup(1, "consumer");
  {
    OpBuilder Cb(Ctx);
    Cb.setInsertionPointToEnd(&WG1->getBody());
    ForOp *Loop = Cb.createFor(Zero, N, One, {});
    OpBuilder L(Ctx);
    L.setInsertionPointToEnd(&Loop->getBody());
    Value *K = Loop->getInductionVar();
    Value *Slot = L.createRem(K, DepthC);
    Value *Wrap = L.createDiv(K, DepthC);
    Value *Parity = L.createRem(Wrap, Two);
    L.createMBarrierWait(Full, Slot, Parity);
    Value *Tile = L.createSmemRead(Smem, Slot, TileTy, 0);
    L.createTmaStore(OutDesc, {Slot, Slot}, Tile);
    // Missing MBarrierArrive(Empty): the ring wedges on every CTA.
    L.createYield({});
  }
  B.createReturn();
  return M;
}

/// One engine x worker-count execution of runGrid with a diagnostic slot.
struct DiagCapture {
  std::string Label;
  std::string Err;
  std::string Text;
  std::string Json;
};

enum class Engine { Oracle, Unfused, Fused };
constexpr Engine Engines[] = {Engine::Oracle, Engine::Unfused,
                              Engine::Fused};

const char *engineName(Engine E) {
  switch (E) {
  case Engine::Oracle:
    return "oracle";
  case Engine::Unfused:
    return "unfused";
  case Engine::Fused:
    return "fused";
  }
  return "?";
}

DiagCapture runGridDiag(Module &M, const RunOptions &Base, Engine E,
                        int64_t Workers) {
  RunOptions Opts = Base;
  Opts.FuseBytecode = E == Engine::Fused;
  Opts.NumWorkers = Workers;
  ExecDiagnostic D;
  Opts.Diag = &D;
  GpuConfig Cfg;
  Interpreter Interp(M, Cfg);
  DiagCapture C;
  C.Label = std::string(engineName(E)) + "/workers=" +
            std::to_string(Workers);
  C.Err = E == Engine::Oracle ? runGridOracle(M, Cfg, Opts)
                              : Interp.runGrid(Opts);
  C.Text = D.renderText();
  C.Json = D.renderJson();
  return C;
}

/// Asserts all combos are byte-identical and match the goldens; with
/// TAWA_DUMP_DIAG=1 dumps the actual output for golden regeneration.
void expectDiagGolden(Module &M, const RunOptions &Base,
                      const std::string &GoldenErr, const char *GoldenText,
                      const char *GoldenJson) {
  bool Dumped = false;
  for (Engine E : Engines)
    for (int64_t W : WorkerCounts) {
      if (E == Engine::Oracle && W != WorkerCounts[0])
        continue; // The oracle ignores NumWorkers: one run covers it.
      DiagCapture C = runGridDiag(M, Base, E, W);
      if (!Dumped && envFlag("TAWA_DUMP_DIAG")) {
        std::fprintf(stderr, "=== ERR ===\n%s\n=== TEXT ===\n%s=== JSON "
                             "===\n%s\n=== END ===\n",
                     C.Err.c_str(), C.Text.c_str(), C.Json.c_str());
        Dumped = true;
      }
      EXPECT_EQ(C.Err, GoldenErr) << C.Label;
      EXPECT_EQ(C.Text, GoldenText) << C.Label;
      EXPECT_EQ(C.Json, GoldenJson) << C.Label;
    }
}

//===----------------------------------------------------------------------===//
// Taxonomy
//===----------------------------------------------------------------------===//

TEST(Taxonomy, KindNamesStable) {
  // These names appear in the tawa-diag-v1 JSON schema — renaming one is a
  // schema break, which is what this pin is for.
  EXPECT_STREQ(errorKindName(ErrorKind::None), "none");
  EXPECT_STREQ(errorKindName(ErrorKind::Deadlock), "deadlock");
  EXPECT_STREQ(errorKindName(ErrorKind::StepBudget), "step-budget");
  EXPECT_STREQ(errorKindName(ErrorKind::WallClock), "wall-clock");
  EXPECT_STREQ(errorKindName(ErrorKind::ProtocolViolation),
               "protocol-violation");
  EXPECT_STREQ(errorKindName(ErrorKind::WorkerCrash), "worker-crash");
  EXPECT_STREQ(errorKindName(ErrorKind::CompileError), "compile-error");
  EXPECT_STREQ(errorKindName(ErrorKind::Unsupported), "unsupported");
  EXPECT_STREQ(errorKindName(ErrorKind::Infeasible), "infeasible");
  EXPECT_STREQ(errorKindName(ErrorKind::Internal), "internal");
}

TEST(Taxonomy, ClassifiesEngineMessagePrefixes) {
  EXPECT_EQ(classifyError(""), ErrorKind::None);
  EXPECT_EQ(classifyError(
                "deadlock: every warp group is blocked on an mbarrier wait"),
            ErrorKind::Deadlock);
  EXPECT_EQ(classifyError("cta (3,1): deadlock: every warp group is "
                          "blocked on an mbarrier wait"),
            ErrorKind::Deadlock);
  EXPECT_EQ(classifyError("step budget exceeded: agent 0 used 101 steps "
                          "(budget 100)"),
            ErrorKind::StepBudget);
  EXPECT_EQ(classifyError("cta (0,0): wall clock budget exceeded: cta did "
                          "not finish within 50 ms"),
            ErrorKind::WallClock);
  EXPECT_EQ(classifyError("protocol violations:\n  slot 0 written while "
                          "full"),
            ErrorKind::ProtocolViolation);
  EXPECT_EQ(classifyError("cta (2,0): worker crash: std::bad_alloc"),
            ErrorKind::WorkerCrash);
  EXPECT_EQ(classifyError("compile: unknown op"), ErrorKind::CompileError);
  EXPECT_EQ(classifyError("cta (0,0): unsupported launch: TMA store of a "
                          "rank-2 tile at 3 offsets into a rank-2 tensor "
                          "argument"),
            ErrorKind::Unsupported);
  EXPECT_EQ(classifyError("argument count mismatch"), ErrorKind::Internal);
  // A malformed coordinate prefix is not skipped — the message classifies
  // as-is (and lands on Internal).
  EXPECT_EQ(classifyError("cta (x,y): deadlock: ..."), ErrorKind::Internal);
}

//===----------------------------------------------------------------------===//
// Step-budget watchdog
//===----------------------------------------------------------------------===//

const char kStepBudgetErr[] =
    "cta (0,0): step budget exceeded: agent 0 used 101 steps (budget 100)";

const char kStepBudgetText[] = R"gold(tawa execution diagnostic
  kind: step-budget
  cta: (0,0)
  step budget: 100
  error: step budget exceeded: agent 0 used 101 steps (budget 100)
  agents:
    agent 0 "preamble": failed after 101 steps
      error: step budget exceeded: agent 0 used 101 steps (budget 100)
)gold";

const char kStepBudgetJson[] = R"gold({
  "schema": "tawa-diag-v1",
  "kind": "step-budget",
  "cta": {
    "x": 0,
    "y": 0
  },
  "step_budget": 100,
  "error": "step budget exceeded: agent 0 used 101 steps (budget 100)",
  "agents": [
    {
      "id": 0,
      "name": "preamble",
      "state": "failed",
      "steps": 101,
      "error": "step budget exceeded: agent 0 used 101 steps (budget 100)"
    }
  ],
  "barriers": [],
  "channels": []
}
)gold";

TEST(StepBudget, GoldenAcrossEnginesAndWorkers) {
  IrContext Ctx;
  auto Mod = buildRunawayLoop(Ctx);
  ASSERT_EQ(verify(*Mod), "");

  RunOptions Base;
  // 8 CTAs: >= SerialGridCtaThreshold, so worker counts > 1 exercise the
  // parallel fan-out's first-failing-CTA diagnostic merge.
  Base.GridX = 8;
  ASSERT_GE(Base.GridX, SerialGridCtaThreshold);
  Base.MaxSteps = 100;
  expectDiagGolden(*Mod, Base, kStepBudgetErr, kStepBudgetText,
                   kStepBudgetJson);
}

TEST(StepBudget, RunCtaBatchReportsFirstInListOrder) {
  IrContext Ctx;
  auto Mod = buildRunawayLoop(Ctx);
  GpuConfig Cfg;
  RunOptions Opts;
  Opts.GridX = 4;
  Opts.MaxSteps = 100;
  std::vector<CtaCoord> Coords = {{2, 0}, {1, 0}, {3, 0}};
  std::string Ref;
  for (int64_t W : WorkerCounts) {
    Opts.NumWorkers = W;
    Interpreter Interp(*Mod, Cfg);
    std::vector<CtaTrace> Traces;
    std::string Err = Interp.runCtaBatch(Opts, Coords, Traces);
    EXPECT_EQ(Err.rfind("cta (2,0): step budget exceeded", 0), 0u) << Err;
    if (Ref.empty())
      Ref = Err;
    else
      EXPECT_EQ(Err, Ref);
  }
}

//===----------------------------------------------------------------------===//
// Wall-clock watchdog (bytecode only; timing is NOT deterministic, so only
// the classification and the diagnostic kind are pinned)
//===----------------------------------------------------------------------===//

TEST(WallClock, TripsAndClassifies) {
  IrContext Ctx;
  auto Mod = buildRunawayLoop(Ctx);
  GpuConfig Cfg;
  RunOptions Opts;
  Opts.MaxWallMs = 50;
  ExecDiagnostic D;
  Opts.Diag = &D;
  Interpreter Interp(*Mod, Cfg);
  std::string Err = Interp.runGrid(Opts);
  EXPECT_EQ(Err.rfind("cta (0,0): wall clock budget exceeded", 0), 0u)
      << Err;
  EXPECT_EQ(classifyError(Err), ErrorKind::WallClock);
  ASSERT_FALSE(D.empty());
  EXPECT_EQ(D.Kind, "wall-clock");
  EXPECT_EQ(D.Error, Err.substr(std::string("cta (0,0): ").size()));
}

//===----------------------------------------------------------------------===//
// Deadlock diagnostic golden
//===----------------------------------------------------------------------===//

const char kDeadlockErr[] =
    "cta (0,0): deadlock: every warp group is blocked on an mbarrier wait"
    "\n  agent 0 waits empty[0] (channel 0) parity 0, completions 0"
    "\n  agent 1 waits full[0] (channel 0) parity 1, completions 1";

const char kDeadlockText[] = R"gold(tawa execution diagnostic
  kind: deadlock
  cta: (0,0)
  error: deadlock: every warp group is blocked on an mbarrier wait
  agent 0 waits empty[0] (channel 0) parity 0, completions 0
  agent 1 waits full[0] (channel 0) parity 1, completions 1
  agents:
    agent 0 "cta(0,0)/wg0(producer)": blocked after 6 steps, waits empty[0] (channel 0) parity 0, completions 0
    agent 1 "cta(0,0)/wg1(consumer)": blocked after 6 steps, waits full[0] (channel 0) parity 1, completions 1
  barriers:
    barrier 0: full (channel 0) expected 1, completions [1 1], arrivals [0 0]
    barrier 1: empty (channel 0) expected 1, completions [0 0], arrivals [0 0]
  channels:
    channel 0: slots BB
)gold";

const char kDeadlockJson[] = R"gold({
  "schema": "tawa-diag-v1",
  "kind": "deadlock",
  "cta": {
    "x": 0,
    "y": 0
  },
  "error": "deadlock: every warp group is blocked on an mbarrier wait\n  agent 0 waits empty[0] (channel 0) parity 0, completions 0\n  agent 1 waits full[0] (channel 0) parity 1, completions 1",
  "agents": [
    {
      "id": 0,
      "name": "cta(0,0)/wg0(producer)",
      "state": "blocked",
      "steps": 6,
      "wait": {
        "kind": "empty",
        "index": 0,
        "channel": 0,
        "parity": 0,
        "completions": 0
      }
    },
    {
      "id": 1,
      "name": "cta(0,0)/wg1(consumer)",
      "state": "blocked",
      "steps": 6,
      "wait": {
        "kind": "full",
        "index": 0,
        "channel": 0,
        "parity": 1,
        "completions": 1
      }
    }
  ],
  "barriers": [
    {
      "channel": 0,
      "kind": "full",
      "expected": 1,
      "completions": [
        1,
        1
      ],
      "arrivals": [
        0,
        0
      ]
    },
    {
      "channel": 0,
      "kind": "empty",
      "expected": 1,
      "completions": [
        0,
        0
      ],
      "arrivals": [
        0,
        0
      ]
    }
  ],
  "channels": [
    {
      "channel": 0,
      "slots": "BB"
    }
  ]
}
)gold";

TEST(DeadlockDiag, GoldenAcrossEnginesAndWorkers) {
  IrContext Ctx;
  auto Mod = buildDeadlockRing(Ctx);
  ASSERT_EQ(verify(*Mod), "");

  auto In = std::make_shared<TensorData>(std::vector<int64_t>{64, 64});
  auto Out = std::make_shared<TensorData>(std::vector<int64_t>{64, 64});
  In->fillRandom(3);
  RunOptions Base;
  Base.GridX = 8;
  ASSERT_GE(Base.GridX, SerialGridCtaThreshold);
  Base.Args = {RuntimeArg::tensor(In), RuntimeArg::tensor(Out)};
  // Timing mode: every CTA of this ring stores the SAME output windows, so
  // a functional parallel run would violate the disjoint-output-tiles
  // contract (docs/threading-and-memory.md) and race under TSan. Payload
  // computation changes no step counts, waits or protocol state, so the
  // diagnostics are identical either way.
  Base.Functional = false;
  expectDiagGolden(*Mod, Base, kDeadlockErr, kDeadlockText, kDeadlockJson);
}

//===----------------------------------------------------------------------===//
// Diag slot discipline
//===----------------------------------------------------------------------===//

TEST(Diag, UntouchedOnSuccessAndEmptyByDefault) {
  IrContext Ctx;
  // A loop that finishes well under budget.
  auto M = std::make_unique<Module>(Ctx);
  OpBuilder B(Ctx);
  B.setInsertionPointToEnd(&M->getBody());
  FuncOp *F = B.createFunc("ok", {});
  B.setInsertionPointToEnd(&F->getBody());
  ForOp *Loop = B.createFor(B.createConstantInt(0), B.createConstantInt(10),
                            B.createConstantInt(1), {});
  OpBuilder L(Ctx);
  L.setInsertionPointToEnd(&Loop->getBody());
  L.createYield({});
  B.createReturn();

  GpuConfig Cfg;
  RunOptions Opts;
  Opts.MaxSteps = 100;
  ExecDiagnostic D;
  Opts.Diag = &D;
  Interpreter Interp(*M, Cfg);
  EXPECT_EQ(Interp.runGrid(Opts), "");
  EXPECT_TRUE(D.empty());
  EXPECT_EQ(runGridOracle(*M, Cfg, Opts), "");
  EXPECT_TRUE(D.empty());
}

} // namespace
