//===- bytecode_diff_test.cpp - Engine equivalence proofs ---------------------//
//
// Runs every kernel family (GEMM variants, MHA variants, hand-built aref
// protocol rings) through THREE engines — the tree-walking oracle
// (tests/oracle/TreeWalk.h), the unfused bytecode executor
// (RunOptions::FuseBytecode = false), and the fused bytecode executor
// (superinstructions, the default) — and asserts bit-identical numerics,
// identical trace event sequences, identical happens-before event counts,
// and identical diagnostics (including the deadlock report). Any drift
// from the oracle is a bytecode compiler/executor (or peephole fusion)
// bug.
//
//===----------------------------------------------------------------------===//

#include "frontend/Kernels.h"
#include "ir/Builder.h"
#include "ir/Verifier.h"
#include "passes/Passes.h"
#include "sim/Diag.h"
#include "sim/Interpreter.h"
#include "support/Support.h"
#include "tests/oracle/TreeWalk.h"
#include "tests/support/TraceDiff.h"

#include <gtest/gtest.h>

#include <cstring>

using namespace tawa;
using namespace tawa::sim;

namespace {

/// The three engine configurations every differential case runs:
/// 0 = tree-walking oracle, 1 = unfused bytecode, 2 = fused bytecode.
constexpr int NumEngines = 3;

/// Runs CTA (X, Y) of \p M on one engine configuration.
std::string runEngineCta(Module &M, RunOptions Opts, int Engine, int64_t X,
                         int64_t Y, CtaTrace &Out) {
  GpuConfig Cfg;
  if (Engine == 0)
    return runCtaOracle(M, Cfg, Opts, X, Y, Out);
  Opts.FuseBytecode = Engine == 2;
  Interpreter Interp(M, Cfg);
  return Interp.runCta(Opts, X, Y, Out);
}

/// Runs every CTA of the grid serially on one engine configuration;
/// returns the first error.
std::string runEngineGrid(Module &M, RunOptions Opts, int Engine,
                          std::vector<CtaTrace> &Out) {
  GpuConfig Cfg;
  if (Engine == 0)
    return runGridOracle(M, Cfg, Opts, &Out);
  Opts.FuseBytecode = Engine == 2;
  Opts.NumWorkers = 1;
  Interpreter Interp(M, Cfg);
  return Interp.runGrid(Opts, nullptr, &Out);
}

void expectTensorsBitIdentical(const TensorData &A, const TensorData &B) {
  ASSERT_EQ(A.getShape(), B.getShape());
  ASSERT_EQ(std::memcmp(A.data(), B.data(),
                        sizeof(float) * A.getNumElements()),
            0)
      << "engine outputs differ bitwise (maxAbsDiff=" << A.maxAbsDiff(B)
      << ")";
}

//===----------------------------------------------------------------------===//
// GEMM differential harness
//===----------------------------------------------------------------------===//

struct GemmDiffCase {
  GemmKernelConfig Kernel;
  TawaOptions Options;
  int64_t SwPipelineDepth = 0;
  int64_t M = 256, N = 256, K = 128, Batch = 1;
};

void diffGemm(const GemmDiffCase &C) {
  GpuConfig Cfg;
  IrContext Ctx;
  auto Mod = buildGemmModule(Ctx, C.Kernel);
  PassManager PM;
  buildTawaPipeline(PM, C.Options);
  ASSERT_EQ(PM.run(*Mod), "");
  if (!C.Options.EnableWarpSpecialization && C.SwPipelineDepth > 0)
    runSoftwarePipeline(*Mod, C.SwPipelineDepth);

  int64_t Tiles =
      ceilDiv(C.M, C.Kernel.TileM) * ceilDiv(C.N, C.Kernel.TileN);
  bool Persistent =
      C.Options.Persistent && C.Options.EnableWarpSpecialization;
  int64_t GridX =
      Persistent ? std::min<int64_t>(Cfg.NumSms, Tiles) : Tiles;
  int64_t GridY = C.Batch;

  TensorRef Outputs[NumEngines];
  std::vector<CtaTrace> Traces[NumEngines];
  std::string Errors[NumEngines];
  for (int Engine = 0; Engine < NumEngines; ++Engine) {
    std::vector<int64_t> AShape = {C.M, C.K};
    std::vector<int64_t> BShape = {C.N, C.K};
    std::vector<int64_t> CShape = {C.M, C.N};
    if (C.Kernel.Batched) {
      AShape.insert(AShape.begin(), C.Batch);
      BShape.insert(BShape.begin(), C.Batch);
      CShape.insert(CShape.begin(), C.Batch);
    }
    auto A = std::make_shared<TensorData>(AShape);
    auto B = std::make_shared<TensorData>(BShape);
    auto Cc = std::make_shared<TensorData>(CShape);
    A->fillRandom(1, 1.0f);
    B->fillRandom(2, 1.0f);

    RunOptions Launch;
    Launch.GridX = GridX;
    Launch.GridY = GridY;
    Launch.Functional = true;
    Launch.Args = {RuntimeArg::tensor(A),  RuntimeArg::tensor(B),
                   RuntimeArg::tensor(Cc), RuntimeArg::scalar(C.M),
                   RuntimeArg::scalar(C.N), RuntimeArg::scalar(C.K)};

    Errors[Engine] = runEngineGrid(*Mod, Launch, Engine, Traces[Engine]);
    Outputs[Engine] = Cc;
  }

  ASSERT_EQ(Errors[0], "");
  for (int Engine = 1; Engine < NumEngines; ++Engine) {
    EXPECT_EQ(Errors[0], Errors[Engine]);
    expectTensorsBitIdentical(*Outputs[0], *Outputs[Engine]);
    ASSERT_EQ(Traces[0].size(), Traces[Engine].size());
    for (size_t I = 0; I < Traces[0].size(); ++I)
      EXPECT_EQ(traceDiff(Traces[0][I], Traces[Engine][I]), "");
  }

  // Timing-only mode (the benchmark hot path) must also agree exactly.
  RunOptions Timing;
  Timing.GridX = GridX;
  Timing.GridY = GridY;
  Timing.Functional = false;
  Timing.Args = {RuntimeArg::tensor(nullptr), RuntimeArg::tensor(nullptr),
                 RuntimeArg::tensor(nullptr), RuntimeArg::scalar(C.M),
                 RuntimeArg::scalar(C.N),     RuntimeArg::scalar(C.K)};
  CtaTrace TimingTraces[NumEngines];
  for (int Engine = 0; Engine < NumEngines; ++Engine)
    ASSERT_EQ(runEngineCta(*Mod, Timing, Engine, 0, 0, TimingTraces[Engine]),
              "");
  EXPECT_EQ(traceDiff(TimingTraces[0], TimingTraces[1]), "");
  EXPECT_EQ(traceDiff(TimingTraces[0], TimingTraces[2]), "");
}

TEST(BytecodeDiff, GemmWarpSpecialized) {
  GemmDiffCase C;
  C.Options.ArefDepth = 3;
  C.Options.MmaPipelineDepth = 2;
  diffGemm(C);
}

TEST(BytecodeDiff, GemmCooperativePersistent) {
  GemmDiffCase C;
  C.Options.ArefDepth = 2;
  C.Options.NumConsumerGroups = 2;
  C.Options.Persistent = true;
  diffGemm(C);
}

TEST(BytecodeDiff, GemmFp8) {
  GemmDiffCase C;
  C.Kernel.InPrecision = Precision::FP8;
  C.Options.ArefDepth = 2;
  diffGemm(C);
}

TEST(BytecodeDiff, GemmBatched) {
  GemmDiffCase C;
  C.Kernel.Batched = true;
  C.Batch = 2;
  C.Options.ArefDepth = 2;
  diffGemm(C);
}

TEST(BytecodeDiff, GemmTritonSoftwarePipelined) {
  GemmDiffCase C;
  C.Options.EnableWarpSpecialization = false;
  C.SwPipelineDepth = 3;
  diffGemm(C);
}

TEST(BytecodeDiff, GemmPlainTile) {
  GemmDiffCase C;
  C.Options.EnableWarpSpecialization = false;
  diffGemm(C);
}

TEST(BytecodeDiff, GemmPointerEpilogue) {
  GemmDiffCase C;
  C.Kernel.PointerEpilogue = true;
  C.Options.EnableWarpSpecialization = false;
  C.SwPipelineDepth = 2;
  diffGemm(C);
}

TEST(BytecodeDiff, GemmBatchedPointerEpilogue) {
  // Found by tawa-fuzz (seed 52): the pointer epilogue's linear index had
  // no batch term, so with Batched every batch wrote batch 0's plane of C
  // and parallel grids produced worker-count-dependent output.
  GemmDiffCase C;
  C.Kernel.Batched = true;
  C.Batch = 2;
  C.Kernel.PointerEpilogue = true;
  C.Options.EnableWarpSpecialization = false;
  C.SwPipelineDepth = 3;
  diffGemm(C);
}

//===----------------------------------------------------------------------===//
// Attention differential harness
//===----------------------------------------------------------------------===//

struct MhaDiffCase {
  AttentionKernelConfig Kernel;
  TawaOptions Options;
  int64_t SeqLen = 256, Batch = 1, Heads = 2;
};

void diffAttention(const MhaDiffCase &C) {
  IrContext Ctx;
  auto Mod = buildAttentionModule(Ctx, C.Kernel);
  PassManager PM;
  buildTawaPipeline(PM, C.Options);
  ASSERT_EQ(PM.run(*Mod), "");

  int64_t QTiles = ceilDiv(C.SeqLen, C.Kernel.TileQ);
  int64_t BH = C.Batch * C.Heads;

  TensorRef Outputs[NumEngines];
  std::vector<CtaTrace> Traces[NumEngines];
  std::string Errors[NumEngines];
  for (int Engine = 0; Engine < NumEngines; ++Engine) {
    std::vector<int64_t> Shape = {BH, C.SeqLen, C.Kernel.HeadDim};
    auto Q = std::make_shared<TensorData>(Shape);
    auto K = std::make_shared<TensorData>(Shape);
    auto V = std::make_shared<TensorData>(Shape);
    auto O = std::make_shared<TensorData>(Shape);
    Q->fillRandom(11, 1.0f);
    K->fillRandom(12, 1.0f);
    V->fillRandom(13, 1.0f);

    RunOptions Launch;
    Launch.GridX = QTiles;
    Launch.GridY = BH;
    Launch.Functional = true;
    Launch.Args = {RuntimeArg::tensor(Q), RuntimeArg::tensor(K),
                   RuntimeArg::tensor(V), RuntimeArg::tensor(O),
                   RuntimeArg::scalar(C.SeqLen)};

    Errors[Engine] = runEngineGrid(*Mod, Launch, Engine, Traces[Engine]);
    Outputs[Engine] = O;
  }

  ASSERT_EQ(Errors[0], "");
  for (int Engine = 1; Engine < NumEngines; ++Engine) {
    EXPECT_EQ(Errors[0], Errors[Engine]);
    expectTensorsBitIdentical(*Outputs[0], *Outputs[Engine]);
    ASSERT_EQ(Traces[0].size(), Traces[Engine].size());
    for (size_t I = 0; I < Traces[0].size(); ++I)
      EXPECT_EQ(traceDiff(Traces[0][I], Traces[Engine][I]), "");
  }
}

TEST(BytecodeDiff, AttentionWarpSpecialized) {
  MhaDiffCase C;
  C.Options.ArefDepth = 2;
  diffAttention(C);
}

TEST(BytecodeDiff, AttentionCausalCoarsePipelined) {
  MhaDiffCase C;
  C.Kernel.Causal = true;
  C.Options.ArefDepth = 2;
  C.Options.CoarsePipeline = true;
  diffAttention(C);
}

TEST(BytecodeDiff, AttentionCooperative) {
  MhaDiffCase C;
  C.Options.ArefDepth = 2;
  C.Options.NumConsumerGroups = 2;
  diffAttention(C);
}

//===----------------------------------------------------------------------===//
// Hand-built aref protocol ring (the protocol-example family)
//===----------------------------------------------------------------------===//

/// Variants of the protocol ring.
enum class Ring {
  Clean,
  SkipRelease,     ///< The consumer never releases: a deadlock.
  SideArriveUntil, ///< The consumer also arrives on a barrier nobody
                   ///< waits on while k < Flip: a predicate that flips.
  LateRelease,     ///< The consumer also releases an unused channel-1
                   ///< slot once Flip < k: a late protocol bug.
  SlowSlot,        ///< Depth 2, slot (k / 64) % 2: the slot moves every
                   ///< 64 iterations, not with the ring's phase.
};

/// Builds the producer/consumer mbarrier ring of the protocol tests, in
/// one of the variants above.
std::unique_ptr<Module> buildProtocolRing(IrContext &Ctx, int64_t Depth,
                                          int64_t Iters, Ring Variant,
                                          int64_t Flip = 0) {
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

  Value *Side = nullptr;
  if (Variant == Ring::SideArriveUntil) {
    Side = B.createMBarrierAlloc(1, "side");
  } else if (Variant == Ring::LateRelease) {
    Value *Unused = B.createSmemAlloc(Bytes, "unused");
    Operation *UnusedOp = cast<OpResult>(Unused)->getOwner();
    UnusedOp->setAttr("slot_bytes", Bytes);
    UnusedOp->setAttr("channel", static_cast<int64_t>(1));
    UnusedOp->setAttr("num_slots", static_cast<int64_t>(1));
    Side = B.createMBarrierAlloc(1, "unused.empty");
    Operation *SideOp = cast<OpResult>(Side)->getOwner();
    SideOp->setAttr("channel", static_cast<int64_t>(1));
    SideOp->setAttr("kind", std::string("empty"));
  }

  Value *Zero = B.createConstantInt(0);
  Value *One = B.createConstantInt(1);
  Value *Two = B.createConstantInt(2);
  Value *DepthC = B.createConstantInt(Depth);
  Value *N = B.createConstantInt(Iters);
  Value *FlipC = B.createConstantInt(Flip);
  Value *SlowC = B.createConstantInt(64);
  // The slot of iteration K and its parity count: the use count's parity
  // is K's own when every slot serves 64 consecutive iterations.
  auto SlotOf = [&](OpBuilder &L, Value *K) {
    return Variant == Ring::SlowSlot ? L.createRem(L.createDiv(K, SlowC), Two)
                                     : L.createRem(K, DepthC);
  };
  auto UsesOf = [&](OpBuilder &L, Value *K) {
    return Variant == Ring::SlowSlot ? K : L.createDiv(K, DepthC);
  };

  WarpGroupOp *WG0 = B.createWarpGroup(0, "producer");
  {
    OpBuilder P(Ctx);
    P.setInsertionPointToEnd(&WG0->getBody());
    ForOp *Loop = P.createFor(Zero, N, One, {});
    OpBuilder L(Ctx);
    L.setInsertionPointToEnd(&Loop->getBody());
    Value *K = Loop->getInductionVar();
    Value *Slot = SlotOf(L, K);
    Value *Wrap = UsesOf(L, K);
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
    Value *Slot = SlotOf(L, K);
    Value *Wrap = UsesOf(L, K);
    Value *Parity = L.createRem(Wrap, Two);
    L.createMBarrierWait(Full, Slot, Parity);
    Value *Tile = L.createSmemRead(Smem, Slot, TileTy, 0);
    L.createTmaStore(OutDesc, {Slot, Slot}, Tile);
    if (Variant != Ring::SkipRelease)
      L.createMBarrierArrive(Empty, Slot);
    if (Side) {
      Value *Pred = Variant == Ring::SideArriveUntil
                        ? L.createCmpSlt(K, FlipC)
                        : L.createCmpSlt(FlipC, K);
      L.createMBarrierArrive(Side, Zero)->addOperand(Pred);
    }
    L.createYield({});
  }
  B.createReturn();
  return M;
}

TEST(BytecodeDiff, ArefProtocolRing) {
  IrContext Ctx;
  auto Mod = buildProtocolRing(Ctx, /*Depth=*/2, /*Iters=*/6, Ring::Clean);
  ASSERT_EQ(verify(*Mod), "");

  CtaTrace Traces[NumEngines];
  TensorRef Outputs[NumEngines];
  std::string Errors[NumEngines];
  for (int Engine = 0; Engine < NumEngines; ++Engine) {
    auto In = std::make_shared<TensorData>(std::vector<int64_t>{64, 64});
    auto Out = std::make_shared<TensorData>(std::vector<int64_t>{64, 64});
    In->fillRandom(3);
    RunOptions Opts;
    Opts.Args = {RuntimeArg::tensor(In), RuntimeArg::tensor(Out)};
    Errors[Engine] = runEngineCta(*Mod, Opts, Engine, 0, 0, Traces[Engine]);
    Outputs[Engine] = Out;
  }
  EXPECT_EQ(Errors[0], "");
  for (int Engine = 1; Engine < NumEngines; ++Engine) {
    EXPECT_EQ(Errors[Engine], "");
    expectTensorsBitIdentical(*Outputs[0], *Outputs[Engine]);
    EXPECT_EQ(traceDiff(Traces[0], Traces[Engine]), "");
  }
}

TEST(BytecodeDiff, NestedWarpGroupAtAgentTopLevelIgnored) {
  // The oracle's interpretBlock silently skips warp_group ops at the top
  // level of an agent body (they are forked only from function level); the
  // bytecode compiler must do the same rather than reject them.
  IrContext Ctx;
  Module Mod(Ctx);
  OpBuilder B(Ctx);
  B.setInsertionPointToEnd(&Mod.getBody());
  FuncOp *F = B.createFunc("k", {});
  B.setInsertionPointToEnd(&F->getBody());
  WarpGroupOp *WG = B.createWarpGroup(0, "producer");
  {
    OpBuilder Inner(Ctx);
    Inner.setInsertionPointToEnd(&WG->getBody());
    Inner.createConstantInt(7);
    Inner.createWarpGroup(1, "consumer"); // Nested: both engines ignore it.
  }
  B.createReturn();

  CtaTrace Traces[NumEngines];
  std::string Errors[NumEngines];
  for (int Engine = 0; Engine < NumEngines; ++Engine)
    Errors[Engine] =
        runEngineCta(Mod, RunOptions(), Engine, 0, 0, Traces[Engine]);
  EXPECT_EQ(Errors[0], "");
  for (int Engine = 1; Engine < NumEngines; ++Engine) {
    EXPECT_EQ(Errors[Engine], "");
    EXPECT_EQ(traceDiff(Traces[0], Traces[Engine]), "");
  }
}

TEST(BytecodeDiff, DeadlockDiagnosticsMatch) {
  // The consumer never releases: both engines must converge to the same
  // blocked fixpoint and render the identical deadlock report.
  IrContext Ctx;
  auto Mod = buildProtocolRing(Ctx, /*Depth=*/2, /*Iters=*/6,
                               Ring::SkipRelease);
  ASSERT_EQ(verify(*Mod), "");

  std::string Errors[NumEngines];
  for (int Engine = 0; Engine < NumEngines; ++Engine) {
    auto In = std::make_shared<TensorData>(std::vector<int64_t>{64, 64});
    auto Out = std::make_shared<TensorData>(std::vector<int64_t>{64, 64});
    In->fillRandom(3);
    RunOptions Opts;
    Opts.Args = {RuntimeArg::tensor(In), RuntimeArg::tensor(Out)};
    CtaTrace T;
    Errors[Engine] = runEngineCta(*Mod, Opts, Engine, 0, 0, T);
  }
  EXPECT_NE(Errors[0].find("deadlock"), std::string::npos) << Errors[0];
  for (int Engine = 1; Engine < NumEngines; ++Engine)
    EXPECT_EQ(Errors[0], Errors[Engine]);
}

//===----------------------------------------------------------------------===//
// Repeated loop periods (sim/LoopPeriod.h)
//===----------------------------------------------------------------------===//
//
// In timing mode the executor copies repeated periods of warp-specialized
// loops; the oracle interprets every iteration. Every case compares whole
// traces, errors and tawa-diag-v1 snapshots, and states whether the
// bytecode engines must have skipped rounds, so a case cannot pass by
// never reaching the skip.

/// Runs CTA (X, Y) of \p M in timing mode on the three engines and diffs
/// the bytecode engines against the oracle.
void diffPeriods(Module &M, RunOptions Opts, int64_t X, int64_t Y,
                 bool ExpectSkip) {
  Opts.Functional = false;
  CtaTrace Traces[NumEngines];
  std::string Errors[NumEngines];
  ExecDiagnostic Diags[NumEngines];
  for (int Engine = 0; Engine < NumEngines; ++Engine) {
    RunOptions O = Opts;
    O.Diag = &Diags[Engine];
    Errors[Engine] = runEngineCta(M, O, Engine, X, Y, Traces[Engine]);
  }
  EXPECT_EQ(Traces[0].SkippedRounds, 0u);
  for (int Engine = 1; Engine < NumEngines; ++Engine) {
    SCOPED_TRACE(Engine == 1 ? "unfused" : "fused");
    EXPECT_EQ(Errors[0], Errors[Engine]);
    EXPECT_EQ(Diags[0].renderJson(), Diags[Engine].renderJson());
    if (Errors[0].empty())
      EXPECT_EQ(traceDiff(Traces[0], Traces[Engine]), "");
    if (ExpectSkip)
      EXPECT_GT(Traces[Engine].SkippedRounds, 0u);
    else
      EXPECT_EQ(Traces[Engine].SkippedRounds, 0u);
  }
}

RunOptions gemmTiming(int64_t M, int64_t N, int64_t K) {
  RunOptions Timing;
  Timing.Args = {RuntimeArg::tensor(nullptr), RuntimeArg::tensor(nullptr),
                 RuntimeArg::tensor(nullptr), RuntimeArg::scalar(M),
                 RuntimeArg::scalar(N),       RuntimeArg::scalar(K)};
  return Timing;
}

void diffGemmPeriods(TawaOptions Options, int64_t K) {
  IrContext Ctx;
  GemmKernelConfig Kernel;
  auto Mod = buildGemmModule(Ctx, Kernel);
  PassManager PM;
  buildTawaPipeline(PM, Options);
  ASSERT_EQ(PM.run(*Mod), "");
  // 2048 x 2048: a persistent CTA takes two tiles, so the skip runs in
  // two instances of the K loop.
  RunOptions Timing = gemmTiming(2048, 2048, K);
  GpuConfig Cfg;
  Timing.GridX = Options.Persistent ? Cfg.NumSms : 256;
  diffPeriods(*Mod, Timing, 0, 0, /*ExpectSkip=*/true);
}

TEST(LoopPeriods, GemmRingDepths) {
  for (bool Persistent : {false, true})
    for (int64_t D = 1; D <= 3; ++D) {
      SCOPED_TRACE(testing::Message() << (Persistent ? "persistent" : "plain")
                                      << " D=" << D);
      TawaOptions Options;
      Options.ArefDepth = D;
      Options.MmaPipelineDepth = std::min<int64_t>(D, 2);
      Options.Persistent = Persistent;
      diffGemmPeriods(Options, 4096);
    }
}

TEST(LoopPeriods, GemmCooperativeConsumers) {
  TawaOptions Options;
  Options.ArefDepth = 3;
  Options.MmaPipelineDepth = 2;
  Options.NumConsumerGroups = 2;
  Options.Persistent = true;
  diffGemmPeriods(Options, 8192);
}

void diffAttentionPeriods(TawaOptions Options, bool Causal,
                          int64_t ConsumerGroups) {
  IrContext Ctx;
  AttentionKernelConfig Kernel;
  Kernel.Causal = Causal;
  auto Mod = buildAttentionModule(Ctx, Kernel);
  Options.NumConsumerGroups = ConsumerGroups;
  PassManager PM;
  buildTawaPipeline(PM, Options);
  ASSERT_EQ(PM.run(*Mod), "");
  const int64_t SeqLen = 8192;
  int64_t QTiles = ceilDiv(SeqLen, Kernel.TileQ);
  RunOptions Timing;
  Timing.GridX = QTiles;
  Timing.GridY = 2;
  Timing.Args = {RuntimeArg::tensor(nullptr), RuntimeArg::tensor(nullptr),
                 RuntimeArg::tensor(nullptr), RuntimeArg::tensor(nullptr),
                 RuntimeArg::scalar(SeqLen)};
  // Causal CTAs differ by their KV trip count: the last Q tile runs the
  // whole loop, a later middle one three quarters of it, the first one
  // too little to fingerprint.
  for (int64_t X : {QTiles - 1, 3 * QTiles / 4, int64_t{0}}) {
    SCOPED_TRACE(testing::Message() << "q tile " << X);
    diffPeriods(*Mod, Timing, X, 1, /*ExpectSkip=*/!Causal || X > 0);
  }
}

TEST(LoopPeriods, AttentionNonCausal) {
  TawaOptions Options;
  Options.ArefDepth = 2;
  diffAttentionPeriods(Options, /*Causal=*/false, 1);
}

TEST(LoopPeriods, AttentionCausalClasses) {
  for (int64_t Depth : {2, 3}) {
    SCOPED_TRACE(testing::Message() << "D=" << Depth);
    TawaOptions Options;
    Options.ArefDepth = Depth;
    Options.CoarsePipeline = true;
    diffAttentionPeriods(Options, /*Causal=*/true, 2);
  }
}

TEST(LoopPeriods, AttentionCooperativeConsumers) {
  TawaOptions Options;
  Options.ArefDepth = 2;
  diffAttentionPeriods(Options, /*Causal=*/false, 2);
}

RunOptions ringTiming() {
  RunOptions Opts;
  Opts.Args = {RuntimeArg::tensor(nullptr), RuntimeArg::tensor(nullptr)};
  return Opts;
}

TEST(LoopPeriods, PredicateFlipsMidLoop) {
  // The side arrive stops at iteration 300 of 600: a skip must stop short
  // of the flip and interpret across it.
  IrContext Ctx;
  auto Mod = buildProtocolRing(Ctx, 2, 600, Ring::SideArriveUntil, 300);
  ASSERT_EQ(verify(*Mod), "");
  diffPeriods(*Mod, ringTiming(), 0, 0, /*ExpectSkip=*/true);
}

TEST(LoopPeriods, SlotThatIsNotPeriodicInTheRingPhase) {
  // The state repeats every two iterations for 64 iterations at a time,
  // but the slot moves on at every 64th: no period the fingerprint can
  // see divides the slot's, so nothing may be skipped.
  IrContext Ctx;
  auto Mod = buildProtocolRing(Ctx, 2, 600, Ring::SlowSlot);
  ASSERT_EQ(verify(*Mod), "");
  diffPeriods(*Mod, ringTiming(), 0, 0, /*ExpectSkip=*/false);
}

TEST(LoopPeriods, StepBudgetTripsInsideASkippableStretch) {
  // 600 iterations cost each agent about 1,200 steps; a budget of 700
  // trips in the middle of the loop, after a skip, at the same step and
  // with the same diagnostic as when every iteration is interpreted.
  IrContext Ctx;
  auto Mod = buildProtocolRing(Ctx, 3, 600, Ring::Clean);
  ASSERT_EQ(verify(*Mod), "");
  RunOptions Opts = ringTiming();
  Opts.MaxSteps = 700;
  diffPeriods(*Mod, Opts, 0, 0, /*ExpectSkip=*/true);
  CtaTrace T;
  ExecDiagnostic D;
  Opts.Functional = false;
  Opts.Diag = &D;
  EXPECT_NE(runEngineCta(*Mod, Opts, 2, 0, 0, T).find("step budget exceeded"),
            std::string::npos);
  EXPECT_EQ(D.Kind, "step-budget");
}

TEST(LoopPeriods, ProtocolBugThatFirstAppearsLate) {
  // From iteration 400 on the consumer releases a slot of channel 1 that
  // nothing ever filled: the violation must be found, and reported alike,
  // after the skip.
  IrContext Ctx;
  auto Mod = buildProtocolRing(Ctx, 2, 600, Ring::LateRelease, 400);
  ASSERT_EQ(verify(*Mod), "");
  diffPeriods(*Mod, ringTiming(), 0, 0, /*ExpectSkip=*/true);
  CtaTrace T;
  RunOptions Opts = ringTiming();
  Opts.Functional = false;
  EXPECT_NE(runEngineCta(*Mod, Opts, 2, 0, 0, T)
                .find("channel 1 slot 0: released while empty"),
            std::string::npos);
}

} // namespace
