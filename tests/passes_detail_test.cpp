//===- passes_detail_test.cpp - Structural pass-level checks ------------------//
//
// Finer-grained assertions about what each transformation emits: semantic
// tags, duplicated iteration statements, lowering's parity arithmetic and
// barrier metadata, the fine-grained pipeline's deferred releases, the
// coarse pipeline's rotation, and the persistent tile loop.
//
//===----------------------------------------------------------------------===//

#include "frontend/Kernels.h"
#include "ir/Verifier.h"
#include "passes/Passes.h"

#include <gtest/gtest.h>

using namespace tawa;

namespace {

int64_t countIn(Operation *Root, OpKind Kind) {
  int64_t N = 0;
  Root->walk([&](Operation *Op) {
    if (Op->getKind() == Kind)
      ++N;
  });
  return N;
}

WarpGroupOp *findWg(Module &M, const std::string &Role, int64_t Replica = 0) {
  WarpGroupOp *Found = nullptr;
  for (Operation &F : M.getBody())
    F.walk([&](Operation *Op) {
      auto *WG = dyn_cast<WarpGroupOp>(Op);
      if (WG && WG->getRole() == Role &&
          WG->getIntAttrOr("replica", 0) == Replica && !Found)
        Found = static_cast<WarpGroupOp *>(WG);
    });
  return Found;
}

TEST(SemanticTagging, ClassifiesGemmOps) {
  IrContext Ctx;
  GemmKernelConfig C;
  auto M = buildGemmModule(Ctx, C);
  ASSERT_EQ(runSemanticTagging(*M), "");
  int64_t Iter = 0, Tile = 0, Load = 0;
  M->lookupFunc("matmul")->walk([&](Operation *Op) {
    if (!Op->hasAttr("tawa.tag"))
      return;
    const std::string &Tag = Op->getStringAttr("tawa.tag");
    if (Tag == "iter")
      ++Iter;
    else if (Tag == "tile")
      ++Tile;
    else if (Tag == "load")
      ++Load;
  });
  EXPECT_EQ(Load, 2);  // The two TMA loads.
  EXPECT_GE(Iter, 8);  // pid decomposition + offsets + o_k update.
  EXPECT_GE(Tile, 3);  // acc init, dot, cast, store.
}

TEST(WarpSpecialize, DuplicatesIterationStatementsForCausalMask) {
  // The causal mask consumes the loop-carried KV offset inside the
  // *consumer*; the producer needs the same offset for addresses. §III-C:
  // shared iteration statements are duplicated into both partitions.
  IrContext Ctx;
  AttentionKernelConfig C;
  C.Causal = true;
  auto M = buildAttentionModule(Ctx, C);
  ASSERT_EQ(runSemanticTagging(*M), "");
  ASSERT_EQ(runWarpSpecialize(*M, 2), "");
  ASSERT_EQ(verify(*M), "");
  WarpGroupOp *Prod = findWg(*M, "producer");
  WarpGroupOp *Cons = findWg(*M, "consumer");
  ASSERT_NE(Prod, nullptr);
  ASSERT_NE(Cons, nullptr);
  // Both partitions carry an AddI chain updating the KV offset.
  EXPECT_GE(countIn(Prod, OpKind::AddI), 1);
  EXPECT_GE(countIn(Cons, OpKind::AddI), 1);
  // Mask construction (select + compares) lives only in the consumer.
  EXPECT_EQ(countIn(Prod, OpKind::Select), 0);
  EXPECT_GE(countIn(Cons, OpKind::Select), 1);
}

TEST(WarpSpecialize, ThreeChannelsForAttention) {
  IrContext Ctx;
  AttentionKernelConfig C;
  auto M = buildAttentionModule(Ctx, C);
  ASSERT_EQ(runSemanticTagging(*M), "");
  ASSERT_EQ(runWarpSpecialize(*M, 2), "");
  std::vector<int64_t> Depths;
  M->lookupFunc("mha")->walk([&](Operation *Op) {
    if (Op->getKind() == OpKind::CreateAref)
      Depths.push_back(
          cast<ArefType>(Op->getResult(0)->getType())->getDepth());
  });
  // Q (loop-invariant, depth 1) + K + V (ring depth 2 each).
  ASSERT_EQ(Depths.size(), 3u);
  int64_t Ones = 0, Twos = 0;
  for (int64_t D : Depths)
    (D == 1 ? Ones : Twos) += 1;
  EXPECT_EQ(Ones, 1);
  EXPECT_EQ(Twos, 2);
}

TEST(FineGrainedPipeline, ReleasesLagAndDrain) {
  IrContext Ctx;
  GemmKernelConfig C;
  auto M = buildGemmModule(Ctx, C);
  ASSERT_EQ(runSemanticTagging(*M), "");
  ASSERT_EQ(runWarpSpecialize(*M, 3), "");
  ASSERT_EQ(runFineGrainedPipeline(*M, 2), "");
  ASSERT_EQ(verify(*M), "") << M->print();

  WarpGroupOp *Cons = findWg(*M, "consumer");
  ASSERT_NE(Cons, nullptr);
  // One in-loop release + P=2 drain releases, all predicated (3 operands).
  int64_t Predicated = 0, Total = 0;
  Cons->walk([&](Operation *Op) {
    if (Op->getKind() != OpKind::ArefConsumed)
      return;
    ++Total;
    if (Op->getNumOperands() > 2)
      ++Predicated;
  });
  EXPECT_EQ(Total, 3);
  EXPECT_EQ(Predicated, 3);
  // wait{pendings = P-1} inside the loop; wait{0} in the drain.
  std::vector<int64_t> Pendings;
  Cons->walk([&](Operation *Op) {
    if (Op->getKind() == OpKind::WgmmaWait)
      Pendings.push_back(Op->getIntAttr("pendings"));
  });
  ASSERT_EQ(Pendings.size(), 2u);
  EXPECT_EQ(Pendings[0], 1); // P - 1.
  EXPECT_EQ(Pendings[1], 0); // Drain.
}

TEST(CoarsePipeline, RotatesIntoPrologueSteadyEpilogue) {
  IrContext Ctx;
  AttentionKernelConfig C;
  auto M = buildAttentionModule(Ctx, C);
  ASSERT_EQ(runSemanticTagging(*M), "");
  ASSERT_EQ(runWarpSpecialize(*M, 2), "");
  ASSERT_EQ(runCoarseGrainedPipeline(*M), "");
  ASSERT_EQ(verify(*M), "") << M->print();

  WarpGroupOp *Cons = findWg(*M, "consumer");
  ASSERT_NE(Cons, nullptr);
  // Issues: prologue T + steady (T, U) + epilogue U = 4 WgmmaIssue sites.
  EXPECT_EQ(countIn(Cons, OpKind::WgmmaIssue), 4);
  // The steady-state loop is marked and runs from lb+step.
  ForOp *Rot = nullptr;
  Cons->walk([&](Operation *Op) {
    if (Op->getKind() == OpKind::For &&
        Op->getIntAttrOr("tawa.coarse_pipelined", 0))
      Rot = static_cast<ForOp *>(Op);
  });
  ASSERT_NE(Rot, nullptr);
  // Carried state grew: original args + counter + cross values + prev2.
  EXPECT_GT(Rot->getNumIterArgs(), 5u);
}

TEST(ArefLowering, EmitsParityArithmeticAndMetadata) {
  IrContext Ctx;
  GemmKernelConfig C;
  auto M = buildGemmModule(Ctx, C);
  TawaOptions Options;
  Options.ArefDepth = 2;
  Options.MmaPipelineDepth = 1;
  PassManager PM;
  buildTawaPipeline(PM, Options);
  ASSERT_EQ(PM.run(*M), "");

  Operation *Func = M->lookupFunc("matmul");
  // No abstract aref ops survive lowering.
  EXPECT_EQ(countIn(Func, OpKind::CreateAref), 0);
  EXPECT_EQ(countIn(Func, OpKind::ArefPut), 0);
  EXPECT_EQ(countIn(Func, OpKind::ArefGet), 0);
  EXPECT_EQ(countIn(Func, OpKind::ArefConsumed), 0);
  // The full barrier expects two TMA arrivals (tuple of a and b); the empty
  // barrier expects one consumer.
  int64_t FullArrivals = -1, EmptyArrivals = -1;
  Func->walk([&](Operation *Op) {
    if (Op->getKind() != OpKind::MBarrierAlloc)
      return;
    if (Op->getStringAttr("kind") == "full")
      FullArrivals = Op->getIntAttr("expected_arrivals");
    else
      EmptyArrivals = Op->getIntAttr("expected_arrivals");
  });
  EXPECT_EQ(FullArrivals, 2);
  EXPECT_EQ(EmptyArrivals, 1);
  // Parity arithmetic: remsi ops feed every wait.
  EXPECT_GE(countIn(Func, OpKind::MBarrierWait), 2);
  EXPECT_GE(countIn(Func, OpKind::RemSI), 4);
}

TEST(ArefLowering, CooperativeGroupsRaiseEmptyArrivals) {
  IrContext Ctx;
  GemmKernelConfig C;
  auto M = buildGemmModule(Ctx, C);
  TawaOptions Options;
  Options.ArefDepth = 2;
  Options.MmaPipelineDepth = 1;
  Options.NumConsumerGroups = 2;
  PassManager PM;
  buildTawaPipeline(PM, Options);
  ASSERT_EQ(PM.run(*M), "");
  int64_t EmptyArrivals = -1;
  M->lookupFunc("matmul")->walk([&](Operation *Op) {
    if (Op->getKind() == OpKind::MBarrierAlloc &&
        Op->getStringAttr("kind") == "empty")
      EmptyArrivals = Op->getIntAttr("expected_arrivals");
  });
  EXPECT_EQ(EmptyArrivals, 2); // Both replicas must release.
}

TEST(PersistentKernel, WrapsBodyInTileLoop) {
  IrContext Ctx;
  GemmKernelConfig C;
  auto M = buildGemmModule(Ctx, C);
  ASSERT_EQ(runPersistentKernel(*M), "");
  ASSERT_EQ(verify(*M), "") << M->print();
  Operation *Func = M->lookupFunc("matmul");
  EXPECT_EQ(Func->getIntAttrOr("persistent", 0), 1);
  // The tile loop steps by tt.num_programs and the main K loop nests in it.
  ForOp *TileLoop = nullptr;
  for (Operation &Op : static_cast<FuncOp *>(Func)->getBody())
    if (Op.getKind() == OpKind::For)
      TileLoop = static_cast<ForOp *>(&Op);
  ASSERT_NE(TileLoop, nullptr);
  auto *StepDef = cast<OpResult>(TileLoop->getStep())->getOwner();
  EXPECT_EQ(StepDef->getKind(), OpKind::NumPrograms);
  EXPECT_EQ(countIn(TileLoop, OpKind::For), 2); // Itself + the K loop.
}

TEST(Canonicalize, StripsDeadPreambleAfterSpecialization) {
  IrContext Ctx;
  GemmKernelConfig C;
  auto M = buildGemmModule(Ctx, C);
  TawaOptions Options;
  PassManager PM;
  buildTawaPipeline(PM, Options);
  ASSERT_EQ(PM.run(*M), "");
  // The original loop, loads, dot and store were all consumed by the
  // rewrite: outside the warp groups only scalar preamble, allocations, and
  // still-referenced loop inits (e.g. the accumulator constant) remain.
  Operation *Func = M->lookupFunc("matmul");
  for (Operation &Op : static_cast<FuncOp *>(Func)->getBody()) {
    if (isa<WarpGroupOp>(&Op))
      continue;
    EXPECT_NE(Op.getKind(), OpKind::For) << "undistributed loop survived";
    EXPECT_NE(Op.getKind(), OpKind::TmaLoad);
    EXPECT_NE(Op.getKind(), OpKind::Dot);
    EXPECT_NE(Op.getKind(), OpKind::TmaStore);
    // Anything left must be live (DCE ran to fixpoint).
    bool Live = Op.getNumResults() == 0 || Op.hasResultUses();
    EXPECT_TRUE(Live) << Op.getOneLineSummary();
  }
}

/// Compiles the attention kernel (causal or not) with \p Options after
/// \p Earlier other compiles, keeping every second earlier module alive, so
/// each call sees the heap in a different state. Returns the printed IR.
std::string printAttentionAfter(int Earlier, bool Causal,
                                const TawaOptions &Options) {
  struct Compiled {
    IrContext Ctx;
    std::unique_ptr<Module> M;
  };
  std::vector<std::unique_ptr<Compiled>> Kept;
  for (int I = 0; I < Earlier; ++I) {
    auto Other = std::make_unique<Compiled>();
    GemmKernelConfig G;
    G.TileK = 32 << (I % 3);
    Other->M = buildGemmModule(Other->Ctx, G);
    PassManager PM;
    buildTawaPipeline(PM, TawaOptions());
    EXPECT_EQ(PM.run(*Other->M), "");
    if (I % 2)
      Kept.push_back(std::move(Other));
  }
  IrContext Ctx;
  AttentionKernelConfig C;
  C.Causal = Causal;
  auto M = buildAttentionModule(Ctx, C);
  PassManager PM;
  buildTawaPipeline(PM, Options);
  EXPECT_EQ(PM.run(*M), "");
  return M->print();
}

TEST(CoarsePipeline, IterArgOrderIndependentOfHeapHistory) {
  // The rotated loop carries one iter arg per cross-iteration value; their
  // order must follow the loop body, not where the values sit on the heap.
  TawaOptions Options;
  Options.CoarsePipeline = true;
  const std::string Reference = printAttentionAfter(0, true, Options);
  for (int Earlier = 1; Earlier < 12; ++Earlier)
    EXPECT_EQ(printAttentionAfter(Earlier, true, Options), Reference)
        << "after " << Earlier << " earlier compiles";
}

TEST(FineGrainedPipeline, DrainOrderIndependentOfHeapHistory) {
  // The drain after the loop releases each channel the loop released; the
  // releases must follow the loop body, not where the arefs sit on the heap.
  TawaOptions Options;
  Options.ArefDepth = 3;
  Options.MmaPipelineDepth = 2;
  for (bool Causal : {false, true}) {
    const std::string Reference = printAttentionAfter(0, Causal, Options);
    for (int Earlier = 1; Earlier < 12; ++Earlier)
      EXPECT_EQ(printAttentionAfter(Earlier, Causal, Options), Reference)
          << "causal " << Causal << ", after " << Earlier
          << " earlier compiles";
  }
}

} // namespace
