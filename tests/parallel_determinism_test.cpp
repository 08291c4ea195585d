//===- parallel_determinism_test.cpp - Worker-count invariance ----------------//
//
// The contract of docs/threading-and-memory.md: running a grid through
// Interpreter::runGrid at any NumWorkers produces bit-identical outputs,
// identical per-CTA traces (including happens-before event counts), and the
// identical first-in-serial-order error, because every CTA executes in
// isolation and results are merged by CTA index. These tests pin the
// contract at NumWorkers = 1, 2 and 8 and against a serial loop of runCta
// calls; scripts/check.sh additionally runs them under
// ThreadSanitizer so pool/arena races fail CI. SamplerClasses.* checks the
// Runner's attention sampler, which interprets one CTA per trace class,
// against SM0's full CTA list.
//
//===----------------------------------------------------------------------===//

#include "driver/Runner.h"
#include "frontend/Kernels.h"
#include "ir/Builder.h"
#include "ir/Verifier.h"
#include "passes/Passes.h"
#include "sim/Interpreter.h"
#include "sim/Replay.h"
#include "support/Support.h"
#include "support/WorkerPool.h"
#include "tests/support/TraceDiff.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <thread>

using namespace tawa;
using namespace tawa::sim;

namespace {

void expectTensorsBitIdentical(const TensorData &A, const TensorData &B) {
  ASSERT_EQ(A.getShape(), B.getShape());
  ASSERT_EQ(std::memcmp(A.data(), B.data(),
                        sizeof(float) * A.getNumElements()),
            0)
      << "outputs differ bitwise (maxAbsDiff=" << A.maxAbsDiff(B) << ")";
}

constexpr int64_t WorkerCounts[] = {1, 2, 8};

//===----------------------------------------------------------------------===//
// GEMM grid: 4 CTAs of the warp-specialized pipeline
//===----------------------------------------------------------------------===//

TEST(ParallelDeterminism, GemmGridWorkerCountInvariant) {
  GpuConfig Cfg;
  IrContext Ctx;
  GemmKernelConfig Kernel;
  auto Mod = buildGemmModule(Ctx, Kernel);
  TawaOptions Options;
  Options.ArefDepth = 3;
  Options.MmaPipelineDepth = 2;
  PassManager PM;
  buildTawaPipeline(PM, Options);
  ASSERT_EQ(PM.run(*Mod), "");

  // 4x2 grid of 128x128 tiles: >= SerialGridCtaThreshold, so the parallel
  // fan-out path (not the small-grid serial fallback) is what runs here —
  // and what the TSan leg races against.
  const int64_t M = 512, N = 256, K = 128;
  int64_t GridX =
      ceilDiv(M, Kernel.TileM) * ceilDiv(N, Kernel.TileN);
  ASSERT_EQ(GridX, 8);
  ASSERT_GE(GridX, SerialGridCtaThreshold);

  TensorRef RefC;
  std::vector<CtaTrace> RefTraces;
  CtaTrace RefSample;
  for (size_t WI = 0; WI < std::size(WorkerCounts); ++WI) {
    auto A = std::make_shared<TensorData>(std::vector<int64_t>{M, K});
    auto B = std::make_shared<TensorData>(std::vector<int64_t>{N, K});
    auto C = std::make_shared<TensorData>(std::vector<int64_t>{M, N});
    A->fillRandom(1, 1.0f);
    B->fillRandom(2, 1.0f);

    RunOptions Launch;
    Launch.GridX = GridX;
    Launch.Functional = true;
    Launch.NumWorkers = WorkerCounts[WI];
    Launch.Args = {RuntimeArg::tensor(A), RuntimeArg::tensor(B),
                   RuntimeArg::tensor(C), RuntimeArg::scalar(M),
                   RuntimeArg::scalar(N), RuntimeArg::scalar(K)};

    Interpreter Interp(*Mod, Cfg);
    std::vector<CtaTrace> Traces;
    CtaTrace Sample;
    ASSERT_EQ(Interp.runGrid(Launch, &Sample, &Traces), "");
    ASSERT_EQ(Traces.size(), static_cast<size_t>(GridX));

    if (WI == 0) {
      RefC = C;
      RefTraces = std::move(Traces);
      RefSample = std::move(Sample);
      // NumWorkers=1 must match a serial loop of runCta calls.
      auto C2 = std::make_shared<TensorData>(std::vector<int64_t>{M, N});
      RunOptions Serial = Launch;
      Serial.Args[2] = RuntimeArg::tensor(C2);
      Interpreter SerialInterp(*Mod, Cfg);
      for (int64_t P = 0; P < GridX; ++P) {
        CtaTrace T;
        ASSERT_EQ(SerialInterp.runCta(Serial, P, 0, T), "");
        EXPECT_EQ(traceDiff(RefTraces[P], T), "");
      }
      expectTensorsBitIdentical(*RefC, *C2);
      continue;
    }
    expectTensorsBitIdentical(*RefC, *C);
    EXPECT_EQ(traceDiff(RefSample, Sample), "");
    for (int64_t P = 0; P < GridX; ++P)
      EXPECT_EQ(traceDiff(RefTraces[P], Traces[P]), "");
  }
}

//===----------------------------------------------------------------------===//
// Attention grid: 2 heads x 2 query tiles
//===----------------------------------------------------------------------===//

TEST(ParallelDeterminism, AttentionGridWorkerCountInvariant) {
  GpuConfig Cfg;
  IrContext Ctx;
  AttentionKernelConfig Kernel;
  auto Mod = buildAttentionModule(Ctx, Kernel);
  TawaOptions Options;
  Options.ArefDepth = 2;
  PassManager PM;
  buildTawaPipeline(PM, Options);
  ASSERT_EQ(PM.run(*Mod), "");

  const int64_t SeqLen = 256, BH = 2;
  int64_t QTiles = ceilDiv(SeqLen, Kernel.TileQ);

  TensorRef RefO;
  std::vector<CtaTrace> RefTraces;
  for (size_t WI = 0; WI < std::size(WorkerCounts); ++WI) {
    std::vector<int64_t> Shape = {BH, SeqLen, Kernel.HeadDim};
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
    Launch.NumWorkers = WorkerCounts[WI];
    Launch.Args = {RuntimeArg::tensor(Q), RuntimeArg::tensor(K),
                   RuntimeArg::tensor(V), RuntimeArg::tensor(O),
                   RuntimeArg::scalar(SeqLen)};

    Interpreter Interp(*Mod, Cfg);
    std::vector<CtaTrace> Traces;
    ASSERT_EQ(Interp.runGrid(Launch, nullptr, &Traces), "");

    if (WI == 0) {
      RefO = O;
      RefTraces = std::move(Traces);
      continue;
    }
    expectTensorsBitIdentical(*RefO, *O);
    ASSERT_EQ(RefTraces.size(), Traces.size());
    for (size_t I = 0; I < Traces.size(); ++I)
      EXPECT_EQ(traceDiff(RefTraces[I], Traces[I]), "");
  }
}

//===----------------------------------------------------------------------===//
// Error determinism: the first failing CTA in serial order is reported
//===----------------------------------------------------------------------===//

/// Producer/consumer mbarrier ring whose consumer never releases: every CTA
/// deadlocks with the same diagnostic.
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

TEST(ParallelDeterminism, FirstErrorInSerialOrder) {
  GpuConfig Cfg;
  IrContext Ctx;
  auto Mod = buildDeadlockRing(Ctx);
  ASSERT_EQ(verify(*Mod), "");

  auto In = std::make_shared<TensorData>(std::vector<int64_t>{64, 64});
  auto Out = std::make_shared<TensorData>(std::vector<int64_t>{64, 64});
  In->fillRandom(3);
  RunOptions Opts;
  Opts.GridX = 3;
  Opts.Args = {RuntimeArg::tensor(In), RuntimeArg::tensor(Out)};

  std::string Errors[std::size(WorkerCounts)];
  for (size_t WI = 0; WI < std::size(WorkerCounts); ++WI) {
    Opts.NumWorkers = WorkerCounts[WI];
    Interpreter Interp(*Mod, Cfg);
    Errors[WI] = Interp.runGrid(Opts);
    EXPECT_NE(Errors[WI].find("deadlock"), std::string::npos) << Errors[WI];
    // Every CTA fails identically; the report must name the first in
    // serial order regardless of which worker hit one first.
    EXPECT_EQ(Errors[WI].rfind("cta (0,0): ", 0), 0u) << Errors[WI];
  }
  EXPECT_EQ(Errors[0], Errors[1]);
  EXPECT_EQ(Errors[0], Errors[2]);
}

//===----------------------------------------------------------------------===//
// Timing-sampler batch (Interpreter::runCtaBatch)
//===----------------------------------------------------------------------===//

TEST(SamplerDeterminism, TimingBatchWorkerCountInvariant) {
  // Causal attention: per-CTA trip counts vary with the query-tile index —
  // exactly why the Runner samples SM0's CTA list individually.
  GpuConfig Cfg;
  IrContext Ctx;
  AttentionKernelConfig Kernel;
  Kernel.Causal = true;
  auto Mod = buildAttentionModule(Ctx, Kernel);
  TawaOptions Options;
  Options.ArefDepth = 2;
  Options.CoarsePipeline = true;
  PassManager PM;
  buildTawaPipeline(PM, Options);
  ASSERT_EQ(PM.run(*Mod), "");

  const int64_t SeqLen = 2048, BH = 4;
  int64_t QTiles = ceilDiv(SeqLen, Kernel.TileQ);
  RunOptions Launch;
  Launch.GridX = QTiles;
  Launch.GridY = BH;
  Launch.Functional = false;
  Launch.Args = {RuntimeArg::tensor(nullptr), RuntimeArg::tensor(nullptr),
                 RuntimeArg::tensor(nullptr), RuntimeArg::tensor(nullptr),
                 RuntimeArg::scalar(SeqLen)};

  // A strided sample list mirroring the Runner's one-CTA-per-SM pattern,
  // with a stride that lands on several distinct causal trip counts.
  std::vector<CtaCoord> Coords;
  for (int64_t Pid = 0; Pid < QTiles * BH; Pid += 7)
    Coords.push_back({Pid % QTiles, Pid / QTiles});
  ASSERT_GT(Coords.size(), 4u);

  std::vector<CtaTrace> Ref;
  double RefCycles = 0;
  for (size_t WI = 0; WI < std::size(WorkerCounts); ++WI) {
    Launch.NumWorkers = WorkerCounts[WI];
    Interpreter Interp(*Mod, Cfg);
    std::vector<CtaTrace> Traces;
    ASSERT_EQ(Interp.runCtaBatch(Launch, Coords, Traces), "");
    ASSERT_EQ(Traces.size(), Coords.size());

    // The Runner-facing invariant: the replayed cycle total (the timing
    // report) must be bit-identical, not merely close.
    std::vector<const CtaTrace *> Schedule;
    for (const CtaTrace &T : Traces)
      Schedule.push_back(&T);
    ReplayResult Rep = replaySmSchedule(Schedule, Cfg, ReplayParams());
    ASSERT_FALSE(Rep.Deadlock) << Rep.Error;

    if (WI == 0) {
      Ref = std::move(Traces);
      RefCycles = Rep.Cycles;
      // NumWorkers=1 must match a serial loop of runCta calls.
      Interpreter Serial(*Mod, Cfg);
      for (size_t I = 0; I < Coords.size(); ++I) {
        CtaTrace T;
        ASSERT_EQ(Serial.runCta(Launch, Coords[I].X, Coords[I].Y, T), "");
        EXPECT_EQ(traceDiff(Ref[I], T), "");
      }
      continue;
    }
    EXPECT_EQ(Rep.Cycles, RefCycles)
        << "cycle totals differ at workers=" << WorkerCounts[WI];
    for (size_t I = 0; I < Traces.size(); ++I)
      EXPECT_EQ(traceDiff(Ref[I], Traces[I]), "");
  }
}

TEST(SamplerDeterminism, BatchFirstErrorInListOrder) {
  GpuConfig Cfg;
  IrContext Ctx;
  auto Mod = buildDeadlockRing(Ctx);
  ASSERT_EQ(verify(*Mod), "");

  // Timing mode, as the Runner's samplers run: no tensors, so the CTAs of
  // this ring (which all store to the same window) share no host memory.
  RunOptions Opts;
  Opts.GridX = 4;
  Opts.Functional = false;
  Opts.Args = {RuntimeArg::tensor(nullptr), RuntimeArg::tensor(nullptr)};

  // Every sampled CTA deadlocks; the report must name the first in LIST
  // order — (2,0) — regardless of which worker wedges first.
  std::vector<CtaCoord> Coords = {{2, 0}, {1, 0}, {3, 0}};
  std::string Errors[std::size(WorkerCounts)];
  for (size_t WI = 0; WI < std::size(WorkerCounts); ++WI) {
    Opts.NumWorkers = WorkerCounts[WI];
    Interpreter Interp(*Mod, Cfg);
    std::vector<CtaTrace> Traces;
    Errors[WI] = Interp.runCtaBatch(Opts, Coords, Traces);
    EXPECT_NE(Errors[WI].find("deadlock"), std::string::npos) << Errors[WI];
    EXPECT_EQ(Errors[WI].rfind("cta (2,0): ", 0), 0u) << Errors[WI];
  }
  EXPECT_EQ(Errors[0], Errors[1]);
  EXPECT_EQ(Errors[0], Errors[2]);
}

TEST(SamplerDeterminism, RunnerAttentionTimingWorkerInvariant) {
  // End to end through the Runner: the attention timing report (which
  // replays SM0's list from the fanned-out class samples) is identical at
  // any worker count, with causal masking (one class per query tile) and
  // without (one class).
  for (bool Causal : {true, false}) {
    SCOPED_TRACE(Causal ? "causal" : "non-causal");
    AttentionWorkload W;
    W.SeqLen = 2048;
    W.Batch = 2;
    W.Heads = 32;
    W.Causal = Causal;

    RunResult Ref;
    for (size_t WI = 0; WI < std::size(WorkerCounts); ++WI) {
      Runner R;
      R.NumWorkers = WorkerCounts[WI];
      RunResult Res = R.runAttention(Framework::Tawa, W);
      ASSERT_TRUE(Res.ok()) << Res.Error;
      if (WI == 0) {
        Ref = Res;
        continue;
      }
      EXPECT_EQ(Res.Micros, Ref.Micros);
      EXPECT_EQ(Res.TFlops, Ref.TFlops);
      EXPECT_EQ(Res.TensorUtilization, Ref.TensorUtilization);
      EXPECT_EQ(Res.SmemBytes, Ref.SmemBytes);
    }
  }
}

//===----------------------------------------------------------------------===//
// Sampler classes: the Runner interprets one CTA per trace class
//===----------------------------------------------------------------------===//

/// Interprets every CTA of SM0's list (Pid += NumSms) for an attention
/// point, checks each trace against the first trace of its class (one
/// class without causal masking, one per query-tile index with it), and
/// checks that Runner::runAttentionCustom reports exactly what a replay of
/// the full list gives. The replay parameters restate the Runner's model.
void expectSamplerClassesHold(const AttentionWorkload &W,
                              const FrameworkEnvelope &E) {
  GpuConfig Cfg;
  Runner Rn(Cfg);
  RunResult Res = Rn.runAttentionCustom(W, E, /*Functional=*/false);
  ASSERT_TRUE(Res.ok()) << Res.Error;

  AttentionKernelConfig Kernel;
  Kernel.TileQ = E.TileQ;
  Kernel.TileKv = E.TileKv;
  Kernel.HeadDim = W.HeadDim;
  Kernel.Causal = W.Causal;
  Kernel.InPrecision = W.Prec;
  IrContext Ctx;
  auto Mod = buildAttentionModule(Ctx, Kernel);
  PassManager PM;
  buildTawaPipeline(PM, E.Options);
  ASSERT_EQ(PM.run(*Mod), "");
  if (!E.Options.EnableWarpSpecialization && E.SwPipelineDepth > 0)
    ASSERT_EQ(runSoftwarePipeline(*Mod, E.SwPipelineDepth), "");

  int64_t QTiles = ceilDiv(W.SeqLen, Kernel.TileQ);
  int64_t BH = W.Batch * W.Heads;
  int64_t TotalCtas = QTiles * BH;
  RunOptions Launch;
  Launch.GridX = QTiles;
  Launch.GridY = BH;
  Launch.Functional = false;
  Launch.Args = {RuntimeArg::tensor(nullptr), RuntimeArg::tensor(nullptr),
                 RuntimeArg::tensor(nullptr), RuntimeArg::tensor(nullptr),
                 RuntimeArg::scalar(W.SeqLen)};
  std::vector<CtaCoord> Sm0;
  for (int64_t Pid = 0; Pid < TotalCtas; Pid += Cfg.NumSms)
    Sm0.push_back({Pid % QTiles, Pid / QTiles});
  Interpreter Interp(*Mod, Cfg);
  std::vector<CtaTrace> Traces;
  ASSERT_EQ(Interp.runCtaBatch(Launch, Sm0, Traces), "");

  size_t Repeats = 0;
  std::vector<const CtaTrace *> Schedule;
  for (size_t I = 0; I < Sm0.size(); ++I) {
    size_t Rep = 0;
    while (W.Causal && Sm0[Rep].X != Sm0[I].X)
      ++Rep;
    if (Rep != I) {
      SCOPED_TRACE(testing::Message() << "cta " << I << " vs class rep "
                                      << Rep);
      EXPECT_EQ(traceDiff(Traces[Rep], Traces[I], /*SameCta=*/false), "");
      ++Repeats;
    }
    Schedule.push_back(&Traces[I]);
  }
  EXPECT_GT(Repeats, 0u) << "the list should revisit a class";

  int64_t Budget = Cfg.RegsPerSm / 256;
  if (E.Options.EnableWarpSpecialization)
    Budget = std::min<int64_t>((Cfg.RegsPerSm - 128 * 24) /
                                   (128 * E.Options.NumConsumerGroups),
                               Cfg.MaxRegsPerThread);
  bool Spills = Res.RegsPerThread > Budget;
  int64_t Wave = std::min<int64_t>(TotalCtas, Cfg.NumSms);
  double HeadsCovered =
      std::min<double>(static_cast<double>(ceilDiv(Wave, QTiles)) + 1,
                       static_cast<double>(BH));
  double KvBytes = 2.0 * static_cast<double>(W.SeqLen) * W.HeadDim *
                   getPrecisionBytes(W.Prec);
  double QBytes = static_cast<double>(Kernel.TileQ) * W.HeadDim *
                  getPrecisionBytes(W.Prec);
  double KvReuse = HeadsCovered / static_cast<double>(Wave);
  ReplayParams Params;
  Params.BwShareSms = static_cast<double>(Wave);
  Params.DramReuseFactor =
      std::min(1.0, (QBytes + KvBytes * KvReuse) / (QBytes + KvBytes));
  Params.TensorPenalty = E.ComputeScale * (Spills ? Cfg.SpillPenalty : 1.0);
  Params.CudaPenalty = E.CudaScale * (Spills ? Cfg.SpillPenalty : 1.0);
  Params.CtaGapCycles = E.ExtraCtaCycles;
  ReplayResult Rep = replaySmSchedule(Schedule, Cfg, Params);
  ASSERT_FALSE(Rep.Deadlock) << Rep.Error;
  double Micros = Cfg.cyclesToMicros(Rep.Cycles) + E.ExtraLaunchMicros;
  EXPECT_EQ(Res.Micros, Micros);
  EXPECT_EQ(Res.TFlops, W.flops() / (Micros * 1e-6) / 1e12);
  EXPECT_EQ(Res.TensorUtilization,
            Rep.TensorBusyCycles / std::max(1.0, Rep.Cycles));
  EXPECT_EQ(Res.SmemBytes, Traces.front().SmemBytes);
}

TEST(SamplerClasses, EveryTraceMatchesItsClassRepresentative) {
  // L = 2048 at TileQ 128 is 16 query tiles; 64 heads make 1024 CTAs, so
  // SM0 runs 8 of them and, with causal masking, visits X = 0, 4, 8, 12
  // twice each.
  for (bool Causal : {false, true}) {
    SCOPED_TRACE(Causal ? "causal" : "non-causal");
    AttentionWorkload W;
    W.SeqLen = 2048;
    W.Batch = 1;
    W.Heads = 64;
    W.Causal = Causal;
    for (bool Coarse : {false, true})
      for (int64_t Groups : {1, 2}) {
        SCOPED_TRACE(testing::Message()
                     << "ws coarse=" << Coarse << " groups=" << Groups);
        FrameworkEnvelope E;
        E.Options.CoarsePipeline = Coarse;
        E.Options.NumConsumerGroups = Groups;
        expectSamplerClassesHold(W, E);
      }
    {
      SCOPED_TRACE("triton non-ws");
      FrameworkEnvelope E = getAttentionEnvelope(Framework::Triton, W);
      ASSERT_FALSE(E.Options.EnableWarpSpecialization);
      expectSamplerClassesHold(W, E);
    }
    SCOPED_TRACE("tawa fp8");
    AttentionWorkload Fp8 = W;
    Fp8.Prec = Precision::FP8;
    expectSamplerClassesHold(Fp8, getAttentionEnvelope(Framework::Tawa, Fp8));
  }
}

//===----------------------------------------------------------------------===//
// WorkerPool unit coverage
//===----------------------------------------------------------------------===//

TEST(WorkerPool, CoversEveryIndexExactlyOnce) {
  const int64_t N = 1000;
  std::vector<std::atomic<int>> Hits(N);
  for (auto &H : Hits)
    H.store(0);
  std::atomic<int64_t> BadWorker{0};
  WorkerPool::shared().parallelFor(N, 8, [&](int64_t I, int64_t W) {
    Hits[I].fetch_add(1);
    if (W < 0 || W >= 8)
      BadWorker.fetch_add(1);
  });
  for (int64_t I = 0; I < N; ++I)
    EXPECT_EQ(Hits[I].load(), 1) << "index " << I;
  EXPECT_EQ(BadWorker.load(), 0);
}

TEST(WorkerPool, NestedCallsRunInline) {
  std::atomic<int64_t> Total{0};
  WorkerPool::shared().parallelFor(4, 4, [&](int64_t, int64_t) {
    // A nested job must not deadlock waiting for occupied pool threads.
    WorkerPool::shared().parallelFor(8, 4, [&](int64_t, int64_t W) {
      EXPECT_EQ(W, 0); // Inline on the calling worker.
      Total.fetch_add(1);
    });
  });
  EXPECT_EQ(Total.load(), 32);
}

TEST(WorkerPool, SerialFallbackPreservesOrder) {
  std::vector<int64_t> Order;
  WorkerPool::shared().parallelFor(16, 1, [&](int64_t I, int64_t W) {
    EXPECT_EQ(W, 0);
    Order.push_back(I);
  });
  ASSERT_EQ(Order.size(), 16u);
  for (int64_t I = 0; I < 16; ++I)
    EXPECT_EQ(Order[I], I);
}

TEST(WorkerPool, DestroyWhileJobInFlightDrainsFirst) {
  // Shutdown ordering: destroying a pool while another thread's
  // parallelFor is mid-job must drain the job (every index runs, the
  // caller returns normally) before the threads stop — not strand the
  // caller or drop queued indices. Historically only exercised at process
  // exit with an idle pool; tawa-serve destroys pools with work queued.
  for (int Round = 0; Round < 8; ++Round) {
    auto Pool = std::make_unique<WorkerPool>(4);
    const int64_t N = 64;
    std::atomic<int64_t> Ran{0};
    std::atomic<bool> CallerDone{false};
    std::thread Caller([&] {
      Pool->parallelFor(N, 4, [&](int64_t, int64_t) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        Ran.fetch_add(1);
      });
      CallerDone.store(true);
    });
    // Wait until the job is published and running, then destroy mid-job.
    // (Publishing a NEW job after destruction begins stays a caller bug;
    // the guarantee under test is that an in-flight one drains.)
    while (Ran.load() == 0)
      std::this_thread::yield();
    Pool.reset();
    // The destructor waited for the job to drain: every index ran.
    EXPECT_EQ(Ran.load(), N);
    Caller.join();
    EXPECT_TRUE(CallerDone.load());
  }
}

TEST(WorkerPool, DestroyWithThrowingJobStillDrains) {
  auto Pool = std::make_unique<WorkerPool>(4);
  std::atomic<int64_t> Ran{0};
  std::string Caught;
  std::thread Caller([&] {
    try {
      Pool->parallelFor(32, 4, [&](int64_t I, int64_t) {
        Ran.fetch_add(1);
        if (I == 3)
          throw std::runtime_error("boom");
      });
    } catch (const std::exception &E) {
      Caught = E.what();
    }
  });
  while (Ran.load() == 0)
    std::this_thread::yield();
  Pool.reset();
  Caller.join();
  EXPECT_EQ(Caught, "boom");
}

} // namespace
