//===- Gen.cpp - Deterministic fuzz-case generation ---------------------------//

#include "tests/fuzz/Gen.h"

#include "ir/Builder.h"
#include "ir/Parser.h"
#include "ir/Verifier.h"
#include "sim/Config.h"
#include "support/Support.h"

#include <algorithm>

using namespace tawa;
using namespace tawa::fuzz;

const char *tawa::fuzz::familyName(Family F) {
  switch (F) {
  case Family::Gemm:
    return "gemm";
  case Family::Attention:
    return "attention";
  case Family::ProtocolRing:
    return "protocol-ring";
  case Family::SplitK:
    return "splitk";
  case Family::Grouped:
    return "grouped";
  }
  return "?";
}

std::string FuzzCase::describe() const {
  std::string S = formatString("seed=%llu %s",
                               static_cast<unsigned long long>(Seed),
                               familyName(Kind));
  switch (Kind) {
  case Family::Gemm:
    S += formatString(" M=%lld N=%lld K=%lld tile=%lldx%lldx%lld %s%s%s",
                      static_cast<long long>(M), static_cast<long long>(N),
                      static_cast<long long>(K),
                      static_cast<long long>(Gemm.TileM),
                      static_cast<long long>(Gemm.TileN),
                      static_cast<long long>(Gemm.TileK),
                      Gemm.InPrecision == Precision::FP8 ? "fp8" : "fp16",
                      Gemm.Batched ? " batched" : "",
                      Gemm.PointerEpilogue ? " ptr-epilogue" : "");
    break;
  case Family::Attention:
    S += formatString(" L=%lld H=%lld tile=%lldx%lld d=%lld%s",
                      static_cast<long long>(SeqLen),
                      static_cast<long long>(Heads),
                      static_cast<long long>(Mha.TileQ),
                      static_cast<long long>(Mha.TileKv),
                      static_cast<long long>(Mha.HeadDim),
                      Mha.Causal ? " causal" : "");
    break;
  case Family::ProtocolRing:
    S += formatString(" depth=%lld iters=%lld%s",
                      static_cast<long long>(RingDepth),
                      static_cast<long long>(RingIters),
                      RingSkipRelease ? " skip-release" : "");
    break;
  case Family::SplitK:
    S += formatString(" M=%lld N=%lld K=%lld tile=%lldx%lldx%lld split=%lld %s",
                      static_cast<long long>(M), static_cast<long long>(N),
                      static_cast<long long>(K),
                      static_cast<long long>(Gemm.TileM),
                      static_cast<long long>(Gemm.TileN),
                      static_cast<long long>(Gemm.TileK),
                      static_cast<long long>(SplitKFactor),
                      Gemm.InPrecision == Precision::FP8 ? "fp8" : "fp16");
    break;
  case Family::Grouped: {
    S += formatString(" N=%lld K=%lld tile=%lldx%lldx%lld %s groups=[",
                      static_cast<long long>(N), static_cast<long long>(K),
                      static_cast<long long>(Gemm.TileM),
                      static_cast<long long>(Gemm.TileN),
                      static_cast<long long>(Gemm.TileK),
                      Gemm.InPrecision == Precision::FP8 ? "fp8" : "fp16");
    for (size_t I = 0; I < GroupMs.size(); ++I)
      S += formatString(I ? ",%lld" : "%lld",
                        static_cast<long long>(GroupMs[I]));
    S += "]";
    break;
  }
  }
  if (Options.EnableWarpSpecialization)
    S += formatString(" ws D=%lld P=%lld G=%lld%s%s",
                      static_cast<long long>(Options.ArefDepth),
                      static_cast<long long>(Options.MmaPipelineDepth),
                      static_cast<long long>(Options.NumConsumerGroups),
                      Options.Persistent ? " persistent" : "",
                      Options.CoarsePipeline ? " coarse" : "");
  else
    S += formatString(" swp=%lld", static_cast<long long>(SwPipelineDepth));
  if (Faults)
    S += formatString(" faults=%lld%%:%llu",
                      static_cast<long long>(FaultRatePct),
                      static_cast<unsigned long long>(FaultSeed));
  return S;
}

FuzzCase tawa::fuzz::generateCase(uint64_t Seed) {
  Rng R(Seed);
  FuzzCase C;
  C.Seed = Seed;
  int Roll = static_cast<int>(R.range(0, 99));
  C.Kind = Roll < 30   ? Family::Gemm
           : Roll < 55 ? Family::Attention
           : Roll < 70 ? Family::ProtocolRing
           : Roll < 85 ? Family::SplitK
                       : Family::Grouped;

  C.Options.EnableWarpSpecialization = R.chance(75);
  C.Options.ArefDepth = R.range(1, 4);
  C.Options.MmaPipelineDepth =
      R.range(0, std::min<int64_t>(C.Options.ArefDepth, 2));
  C.Options.NumConsumerGroups = R.chance(30) ? 2 : 1;
  // The persistent-kernel pass needs the GEMM tile_m/tile_n attributes and
  // a flat tile queue on grid axis 0 — plain GEMM only.
  C.Options.Persistent = C.Kind == Family::Gemm && R.chance(25);
  // Coarse pipelining targets the two-dot (attention) loop structure.
  C.Options.CoarsePipeline = C.Kind == Family::Attention && R.chance(35);
  if (!C.Options.EnableWarpSpecialization)
    C.SwPipelineDepth = R.range(0, 3);

  switch (C.Kind) {
  case Family::Gemm:
    C.Gemm.TileM = R.pick({static_cast<int64_t>(32), static_cast<int64_t>(64)});
    C.Gemm.TileN = R.pick({static_cast<int64_t>(32), static_cast<int64_t>(64)});
    C.Gemm.TileK = R.pick({static_cast<int64_t>(16), static_cast<int64_t>(32)});
    C.Gemm.InPrecision = R.chance(25) ? Precision::FP8 : Precision::FP16;
    C.Gemm.Batched = R.chance(25);
    // The pointer-arithmetic epilogue is a tile-dialect feature; mirror the
    // repo's coverage and exercise it on the non-WS path.
    C.Gemm.PointerEpilogue =
        !C.Options.EnableWarpSpecialization && R.chance(40);
    C.M = C.Gemm.TileM * R.range(2, 4);
    C.N = C.Gemm.TileN * R.range(2, 4);
    C.K = C.Gemm.TileK * R.range(1, 3);
    C.Batch = C.Gemm.Batched ? 2 : 1;
    break;
  case Family::Attention:
    C.Mha.TileQ = R.pick({static_cast<int64_t>(32), static_cast<int64_t>(64)});
    C.Mha.TileKv = R.pick({static_cast<int64_t>(32), static_cast<int64_t>(64)});
    C.Mha.HeadDim =
        R.pick({static_cast<int64_t>(32), static_cast<int64_t>(64)});
    C.Mha.Causal = R.chance(40);
    C.Mha.InPrecision = R.chance(20) ? Precision::FP8 : Precision::FP16;
    // Multiple of 64 => divisible by either tile choice.
    C.SeqLen = 64 * R.range(2, 4);
    C.Heads = R.range(1, 2);
    break;
  case Family::ProtocolRing:
    C.RingDepth = R.range(1, 3);
    C.RingIters = R.range(2, 8);
    C.RingSkipRelease = R.chance(20);
    break;
  case Family::SplitK:
    C.Gemm.SplitK = true;
    C.Gemm.TileM = R.pick({static_cast<int64_t>(32), static_cast<int64_t>(64)});
    C.Gemm.TileN = R.pick({static_cast<int64_t>(32), static_cast<int64_t>(64)});
    C.Gemm.TileK = R.pick({static_cast<int64_t>(16), static_cast<int64_t>(32)});
    C.Gemm.InPrecision = R.chance(25) ? Precision::FP8 : Precision::FP16;
    C.M = C.Gemm.TileM * R.range(1, 3);
    C.N = C.Gemm.TileN * R.range(1, 3);
    // Several K tiles so the split actually partitions work — including
    // splits that do not divide the tile count (ceil-div remainder CTAs).
    C.K = C.Gemm.TileK * R.range(2, 6);
    C.SplitKFactor = R.range(2, 4);
    break;
  case Family::Grouped: {
    C.Gemm.Grouped = true;
    C.Gemm.TileM = R.pick({static_cast<int64_t>(32), static_cast<int64_t>(64)});
    C.Gemm.TileN = R.pick({static_cast<int64_t>(32), static_cast<int64_t>(64)});
    C.Gemm.TileK = R.pick({static_cast<int64_t>(16), static_cast<int64_t>(32)});
    C.Gemm.InPrecision = R.chance(25) ? Precision::FP8 : Precision::FP16;
    C.N = C.Gemm.TileN * R.range(1, 2);
    C.K = C.Gemm.TileK * R.range(1, 3);
    int64_t Experts = R.range(2, 4);
    C.GroupMs.clear();
    for (int64_t Ex = 0; Ex < Experts; ++Ex)
      // Arbitrary row counts: zero (empty expert) through ~2.5 tiles, most
      // of them NOT tile multiples, so partial-tile store masking is the
      // common case.
      C.GroupMs.push_back(R.range(0, C.Gemm.TileM * 5 / 2));
    // Invariant: at least one expert has rows (prepareCase rejects an
    // all-empty batch — there would be nothing to diff).
    bool AllEmpty = true;
    for (int64_t G : C.GroupMs)
      AllEmpty &= G == 0;
    if (AllEmpty)
      C.GroupMs[0] = C.Gemm.TileM / 2 + 1;
    break;
  }
  }

  if (!C.Options.validate().empty()) {
    C.Options.ArefDepth = 2;
    C.Options.MmaPipelineDepth = 1;
  }

  C.Faults = R.chance(15);
  if (C.Faults) {
    C.FaultRatePct = R.range(20, 60);
    C.FaultSeed = R.next() % 1024;
  }
  return C;
}

//===----------------------------------------------------------------------===//
// Module construction
//===----------------------------------------------------------------------===//

namespace {

/// The hand-built producer/consumer mbarrier ring of the protocol tests
/// (tests/bytecode_diff_test.cpp), with an optional missing-release bug so
/// deadlock diagnostics get differential coverage too.
std::unique_ptr<Module> buildProtocolRing(IrContext &Ctx, int64_t Depth,
                                          int64_t Iters, bool SkipRelease) {
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
    if (!SkipRelease)
      L.createMBarrierArrive(Empty, Slot);
    L.createYield({});
  }
  B.createReturn();
  return M;
}

sim::LaunchSpec::Arg tensorArg(std::vector<int64_t> Shape,
                               uint64_t FillSeed) {
  sim::LaunchSpec::Arg A;
  A.Shape = std::move(Shape);
  A.FillSeed = FillSeed;
  return A;
}

sim::LaunchSpec::Arg scalarArg(int64_t V) {
  sim::LaunchSpec::Arg A;
  A.IsScalar = true;
  A.Scalar = V;
  return A;
}

std::string faultSpecFor(const FuzzCase &C) {
  if (!C.Faults)
    return "";
  return formatString("worker-task:%.2f:%llu", C.FaultRatePct / 100.0,
                      static_cast<unsigned long long>(C.FaultSeed));
}

} // namespace

std::string tawa::fuzz::prepareCase(const FuzzCase &C, PreparedCase &Out) {
  Out.Ctx = std::make_unique<IrContext>();
  IrContext &Ctx = *Out.Ctx;
  sim::LaunchSpec L;
  L.FaultSpec = faultSpecFor(C);
  std::unique_ptr<Module> M;

  switch (C.Kind) {
  case Family::Gemm: {
    M = buildGemmModule(Ctx, C.Gemm);
    PassManager PM;
    buildTawaPipeline(PM, C.Options);
    if (std::string Err = PM.run(*M); !Err.empty())
      return "compile: " + Err;
    if (!C.Options.EnableWarpSpecialization && C.SwPipelineDepth > 0)
      if (std::string Err = runSoftwarePipeline(*M, C.SwPipelineDepth);
          !Err.empty())
        return "swp: " + Err;
    int64_t Tiles = ceilDiv(C.M, C.Gemm.TileM) * ceilDiv(C.N, C.Gemm.TileN);
    bool Persistent =
        C.Options.Persistent && C.Options.EnableWarpSpecialization;
    L.GridX = Persistent
                  ? std::min<int64_t>(sim::GpuConfig().NumSms, Tiles)
                  : Tiles;
    L.GridY = C.Batch;
    std::vector<int64_t> AShape = {C.M, C.K};
    std::vector<int64_t> BShape = {C.N, C.K};
    std::vector<int64_t> CShape = {C.M, C.N};
    if (C.Gemm.Batched) {
      AShape.insert(AShape.begin(), C.Batch);
      BShape.insert(BShape.begin(), C.Batch);
      CShape.insert(CShape.begin(), C.Batch);
    }
    L.Args = {tensorArg(AShape, 1), tensorArg(BShape, 2),
              tensorArg(CShape, 0), scalarArg(C.M), scalarArg(C.N),
              scalarArg(C.K)};
    break;
  }
  case Family::Attention: {
    M = buildAttentionModule(Ctx, C.Mha);
    PassManager PM;
    buildTawaPipeline(PM, C.Options);
    if (std::string Err = PM.run(*M); !Err.empty())
      return "compile: " + Err;
    int64_t QTiles = ceilDiv(C.SeqLen, C.Mha.TileQ);
    int64_t BH = C.Heads;
    L.GridX = QTiles;
    L.GridY = BH;
    std::vector<int64_t> Shape = {BH, C.SeqLen, C.Mha.HeadDim};
    L.Args = {tensorArg(Shape, 11), tensorArg(Shape, 12),
              tensorArg(Shape, 13), tensorArg(Shape, 0),
              scalarArg(C.SeqLen)};
    break;
  }
  case Family::ProtocolRing: {
    M = buildProtocolRing(Ctx, C.RingDepth, C.RingIters, C.RingSkipRelease);
    if (std::string Err = verify(*M); !Err.empty())
      return "verify: " + Err;
    L.GridX = 1;
    L.GridY = 1;
    L.Args = {tensorArg({64, 64}, 3), tensorArg({64, 64}, 0)};
    break;
  }
  case Family::SplitK: {
    M = buildSplitKGemmModule(Ctx, C.Gemm);
    PassManager PM;
    buildTawaPipeline(PM, C.Options);
    if (std::string Err = PM.run(*M); !Err.empty())
      return "compile: " + Err;
    if (!C.Options.EnableWarpSpecialization && C.SwPipelineDepth > 0)
      if (std::string Err = runSoftwarePipeline(*M, C.SwPipelineDepth);
          !Err.empty())
        return "swp: " + Err;
    // Grid axis 1 IS the split factor (num_programs(1)); C accumulates raw
    // f32 partials, so it is a zero-filled output like the plain family's.
    L.GridX = ceilDiv(C.M, C.Gemm.TileM) * ceilDiv(C.N, C.Gemm.TileN);
    L.GridY = C.SplitKFactor;
    L.Args = {tensorArg({C.M, C.K}, 1), tensorArg({C.N, C.K}, 2),
              tensorArg({C.M, C.N}, 0), scalarArg(C.M), scalarArg(C.N),
              scalarArg(C.K)};
    break;
  }
  case Family::Grouped: {
    M = buildGroupedGemmModule(Ctx, C.Gemm);
    PassManager PM;
    buildTawaPipeline(PM, C.Options);
    if (std::string Err = PM.run(*M); !Err.empty())
      return "compile: " + Err;
    if (!C.Options.EnableWarpSpecialization && C.SwPipelineDepth > 0)
      if (std::string Err = runSoftwarePipeline(*M, C.SwPipelineDepth);
          !Err.empty())
        return "swp: " + Err;
    // Rectangular over-approximation of the ragged CTA list: axis 1 is the
    // expert, axis 0 is sized for the LARGEST expert. Tiles past a short
    // expert's row count are fully masked by the kernel's store predicate,
    // so the rectangle is observably identical to the ragged list — and
    // soaks the all-masked path differentially for free.
    int64_t NumPidN = ceilDiv(C.N, C.Gemm.TileN);
    int64_t Experts = static_cast<int64_t>(C.GroupMs.size());
    int64_t MaxCtas = 1;
    int64_t SumM = 0;
    sim::LaunchSpec::Arg Table;
    Table.Shape = {Experts, 2};
    for (int64_t Ex = 0; Ex < Experts; ++Ex) {
      Table.Data.push_back(SumM);
      Table.Data.push_back(C.GroupMs[Ex]);
      SumM += C.GroupMs[Ex];
      MaxCtas = std::max(MaxCtas,
                         ceilDiv(C.GroupMs[Ex], C.Gemm.TileM) * NumPidN);
    }
    if (SumM == 0)
      return "grouped case with no rows"; // Generator/shrinker invariant.
    L.GridX = MaxCtas;
    L.GridY = Experts;
    L.Args = {tensorArg({SumM, C.K}, 1),
              tensorArg({Experts, C.N, C.K}, 2),
              tensorArg({SumM, C.N}, 0), std::move(Table), scalarArg(C.N),
              scalarArg(C.K)};
    break;
  }
  }

  sim::encodeLaunchSpec(*M, L);
  M->setAttr("fuzz.seed", static_cast<int64_t>(C.Seed));
  M->setAttr("fuzz.family", std::string(familyName(C.Kind)));
  Out.Mod = std::move(M);
  Out.Launch = std::move(L);
  return "";
}

std::string tawa::fuzz::loadCase(const std::string &Text, PreparedCase &Out) {
  Out.Ctx = std::make_unique<IrContext>();
  std::string Err;
  Out.Mod = parseModule(*Out.Ctx, Text, Err);
  if (!Out.Mod)
    return "parse: " + Err;
  if (std::string DErr = sim::decodeLaunchSpec(*Out.Mod, Out.Launch);
      !DErr.empty())
    return "launch: " + DErr;
  return "";
}

//===----------------------------------------------------------------------===//
// Shrinking
//===----------------------------------------------------------------------===//

std::vector<FuzzCase> tawa::fuzz::shrinkCandidates(const FuzzCase &C) {
  std::vector<FuzzCase> Out;
  auto Add = [&](const std::function<void(FuzzCase &)> &Mutate) {
    FuzzCase N = C;
    Mutate(N);
    if (N.Options.validate().empty())
      Out.push_back(std::move(N));
  };
  // Halves \p V down to the next multiple of \p Unit, never below Unit.
  auto HalveTo = [](int64_t V, int64_t Unit) {
    int64_t Halved = std::max(Unit, (V / 2 / Unit) * Unit);
    return Halved;
  };

  switch (C.Kind) {
  case Family::Gemm:
    if (C.M > C.Gemm.TileM)
      Add([&](FuzzCase &N) { N.M = HalveTo(C.M, C.Gemm.TileM); });
    if (C.N > C.Gemm.TileN)
      Add([&](FuzzCase &N) { N.N = HalveTo(C.N, C.Gemm.TileN); });
    if (C.K > C.Gemm.TileK)
      Add([&](FuzzCase &N) { N.K = HalveTo(C.K, C.Gemm.TileK); });
    if (C.Gemm.TileM > 32)
      Add([&](FuzzCase &N) { N.Gemm.TileM = 32; });
    if (C.Gemm.TileN > 32)
      Add([&](FuzzCase &N) { N.Gemm.TileN = 32; });
    if (C.Gemm.TileK > 16)
      Add([&](FuzzCase &N) { N.Gemm.TileK = 16; });
    if (C.Gemm.Batched)
      Add([&](FuzzCase &N) {
        N.Gemm.Batched = false;
        N.Batch = 1;
      });
    if (C.Gemm.PointerEpilogue)
      Add([&](FuzzCase &N) { N.Gemm.PointerEpilogue = false; });
    if (C.Gemm.InPrecision == Precision::FP8)
      Add([&](FuzzCase &N) { N.Gemm.InPrecision = Precision::FP16; });
    break;
  case Family::Attention:
    if (C.SeqLen > std::max(C.Mha.TileQ, C.Mha.TileKv))
      Add([&](FuzzCase &N) {
        N.SeqLen = HalveTo(C.SeqLen, std::max(C.Mha.TileQ, C.Mha.TileKv));
      });
    if (C.Heads > 1)
      Add([&](FuzzCase &N) { N.Heads = 1; });
    if (C.Mha.HeadDim > 32)
      Add([&](FuzzCase &N) { N.Mha.HeadDim = 32; });
    if (C.Mha.TileQ > 32)
      Add([&](FuzzCase &N) { N.Mha.TileQ = 32; });
    if (C.Mha.TileKv > 32)
      Add([&](FuzzCase &N) { N.Mha.TileKv = 32; });
    if (C.Mha.Causal)
      Add([&](FuzzCase &N) { N.Mha.Causal = false; });
    if (C.Mha.InPrecision == Precision::FP8)
      Add([&](FuzzCase &N) { N.Mha.InPrecision = Precision::FP16; });
    break;
  case Family::ProtocolRing:
    if (C.RingIters > 2)
      Add([&](FuzzCase &N) { N.RingIters = std::max<int64_t>(2, C.RingIters / 2); });
    if (C.RingDepth > 1)
      Add([&](FuzzCase &N) {
        N.RingDepth = C.RingDepth - 1;
      });
    break;
  case Family::SplitK:
    if (C.M > C.Gemm.TileM)
      Add([&](FuzzCase &N) { N.M = HalveTo(C.M, C.Gemm.TileM); });
    if (C.N > C.Gemm.TileN)
      Add([&](FuzzCase &N) { N.N = HalveTo(C.N, C.Gemm.TileN); });
    // Keep K >= 2 * TileK so the split axis stays meaningful.
    if (C.K > 2 * C.Gemm.TileK)
      Add([&](FuzzCase &N) {
        N.K = std::max<int64_t>(2 * C.Gemm.TileK, HalveTo(C.K, C.Gemm.TileK));
      });
    if (C.SplitKFactor > 2)
      Add([&](FuzzCase &N) {
        N.SplitKFactor = std::max<int64_t>(2, C.SplitKFactor / 2);
      });
    if (C.Gemm.TileM > 32)
      Add([&](FuzzCase &N) { N.Gemm.TileM = 32; });
    if (C.Gemm.TileN > 32)
      Add([&](FuzzCase &N) { N.Gemm.TileN = 32; });
    if (C.Gemm.TileK > 16)
      Add([&](FuzzCase &N) { N.Gemm.TileK = 16; });
    if (C.Gemm.InPrecision == Precision::FP8)
      Add([&](FuzzCase &N) { N.Gemm.InPrecision = Precision::FP16; });
    break;
  case Family::Grouped: {
    // Expert-list shrinks, all preserving sum(GroupMs) > 0.
    if (C.GroupMs.size() > 1)
      Add([&](FuzzCase &N) {
        N.GroupMs.pop_back();
        bool AnyRows = false;
        for (int64_t G : N.GroupMs)
          AnyRows |= G > 0;
        if (!AnyRows)
          N.GroupMs.back() = C.Gemm.TileM / 2 + 1;
      });
    int64_t Largest = 0;
    for (size_t E = 0; E < C.GroupMs.size(); ++E)
      if (C.GroupMs[E] > C.GroupMs[Largest])
        Largest = static_cast<int64_t>(E);
    if (!C.GroupMs.empty() && C.GroupMs[Largest] > 1) {
      Add([&](FuzzCase &N) { N.GroupMs[Largest] = C.GroupMs[Largest] / 2; });
      int64_t NonEmpty = 0;
      for (int64_t G : C.GroupMs)
        NonEmpty += G > 0;
      if (NonEmpty > 1)
        Add([&](FuzzCase &N) { N.GroupMs[Largest] = 0; });
    }
    if (C.N > C.Gemm.TileN)
      Add([&](FuzzCase &N) { N.N = HalveTo(C.N, C.Gemm.TileN); });
    if (C.K > C.Gemm.TileK)
      Add([&](FuzzCase &N) { N.K = HalveTo(C.K, C.Gemm.TileK); });
    if (C.Gemm.TileM > 32)
      Add([&](FuzzCase &N) { N.Gemm.TileM = 32; });
    if (C.Gemm.TileN > 32)
      Add([&](FuzzCase &N) { N.Gemm.TileN = 32; });
    if (C.Gemm.TileK > 16)
      Add([&](FuzzCase &N) { N.Gemm.TileK = 16; });
    if (C.Gemm.InPrecision == Precision::FP8)
      Add([&](FuzzCase &N) { N.Gemm.InPrecision = Precision::FP16; });
    break;
  }
  }

  // Pipeline simplifications (shared).
  if (C.Options.Persistent)
    Add([&](FuzzCase &N) { N.Options.Persistent = false; });
  if (C.Options.CoarsePipeline)
    Add([&](FuzzCase &N) { N.Options.CoarsePipeline = false; });
  if (C.Options.NumConsumerGroups > 1)
    Add([&](FuzzCase &N) { N.Options.NumConsumerGroups = 1; });
  if (C.Options.MmaPipelineDepth > 0)
    Add([&](FuzzCase &N) { N.Options.MmaPipelineDepth -= 1; });
  if (C.Options.ArefDepth > 1)
    Add([&](FuzzCase &N) {
      N.Options.ArefDepth -= 1;
      N.Options.MmaPipelineDepth =
          std::min(N.Options.MmaPipelineDepth, N.Options.ArefDepth);
    });
  if (C.SwPipelineDepth > 0)
    Add([&](FuzzCase &N) { N.SwPipelineDepth -= 1; });
  if (C.Faults)
    Add([&](FuzzCase &N) { N.Faults = false; });
  return Out;
}

FuzzCase tawa::fuzz::minimizeCase(
    const FuzzCase &C,
    const std::function<std::string(const FuzzCase &)> &Oracle,
    int *StepsOut) {
  FuzzCase Cur = C;
  int Steps = 0;
  bool Progress = true;
  while (Progress) {
    Progress = false;
    for (const FuzzCase &Cand : shrinkCandidates(Cur)) {
      if (!Oracle(Cand).empty()) {
        Cur = Cand;
        ++Steps;
        Progress = true;
        break;
      }
    }
  }
  if (StepsOut)
    *StepsOut = Steps;
  return Cur;
}
