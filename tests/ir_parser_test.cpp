//===- ir_parser_test.cpp - Textual IR round-trip properties ----------------===//
//
// The property the fuzz harness depends on: Printer output parses back,
// and print -> parse -> print is byte-identical. Covered here for every
// opcode in ir/Ops.h, for the attribute edge cases (floats that %g used
// to print ambiguously, escaped strings), for full kernel modules before
// and after the Tawa pipeline, for the pinned golden corpus under
// tests/corpus/, and for the fuzz.* launch attributes (sim/Launch.h).
//
//===----------------------------------------------------------------------===//

#include "frontend/Kernels.h"
#include "ir/Builder.h"
#include "ir/Parser.h"
#include "ir/Verifier.h"
#include "passes/Passes.h"
#include "sim/Launch.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>

using namespace tawa;

namespace {

/// print -> parse -> print must be byte-identical; parse -> print a second
/// time must be a fixed point too.
void expectRoundTrip(const Module &M) {
  std::string First = M.print();
  IrContext Ctx2;
  std::string Err;
  auto Reparsed = parseModule(Ctx2, First, Err);
  ASSERT_TRUE(Reparsed) << Err << "\nwhile parsing:\n" << First;
  std::string Second = Reparsed->print();
  EXPECT_EQ(First, Second);

  IrContext Ctx3;
  auto Again = parseModule(Ctx3, Second, Err);
  ASSERT_TRUE(Again) << Err;
  EXPECT_EQ(Second, Again->print());
}

TEST(OpNames, LookupIsInverseOfGetOpName) {
  for (uint16_t K = 0; K <= static_cast<uint16_t>(OpKind::AtomicAdd); ++K) {
    OpKind Kind = static_cast<OpKind>(K);
    OpKind Back;
    ASSERT_TRUE(lookupOpKind(getOpName(Kind), Back)) << getOpName(Kind);
    EXPECT_EQ(Back, Kind);
  }
  OpKind Out;
  EXPECT_FALSE(lookupOpKind("tt.not_an_op", Out));
  EXPECT_FALSE(lookupOpKind("", Out));
}

/// One module exercising every OpKind in ir/Ops.h, structured so the
/// verifier accepts it. A static_assert-style guard below keeps this in
/// sync when opcodes are added.
std::unique_ptr<Module> buildAllOpsModule(IrContext &Ctx) {
  auto M = std::make_unique<Module>(Ctx);
  M->setAttr("num-warps", static_cast<int64_t>(8));
  M->setAttr("tawa.target", std::string("sim-h100"));
  OpBuilder B(Ctx);

  auto *F32 = Ctx.getF32Type();
  auto *F16 = Ctx.getF16Type();
  auto *I32 = Ctx.getI32Type();
  auto *T64x64F32 = Ctx.getTensorType({64, 64}, F32);
  auto *T64x64F16 = Ctx.getTensorType({64, 64}, F16);
  auto *T64x64I32 = Ctx.getTensorType({64, 64}, I32);
  auto *T64x64Ptr = Ctx.getTensorType({64, 64}, Ctx.getPtrType());

  // Function 1: tile dialect (scalars, tensors, memory, dot, control flow).
  B.setInsertionPointToEnd(&M->getBody());
  FuncOp *Tile = B.createFunc(
      "tile_ops", {Ctx.getPtrType(), Ctx.getPtrType(), I32});
  B.setInsertionPointToEnd(&Tile->getBody());
  Value *APtr = Tile->getBody().getArgument(0);
  Value *Desc = Tile->getBody().getArgument(1);
  Value *N = Tile->getBody().getArgument(2);

  Value *C0 = B.createConstantInt(0);
  Value *C1 = B.createConstantInt(1);
  Value *CF = B.createConstantFloat(0.5, F32);
  Value *Pid = B.createProgramId(0);
  Value *Np = B.createNumPrograms(1);
  Value *S = B.createAdd(Pid, Np);
  S = B.createSub(S, C1);
  S = B.createMul(S, N);
  S = B.createDiv(S, N);
  S = B.createRem(S, N);
  S = B.createMin(S, N);
  S = B.createBinaryI(OpKind::MaxSI, S, C0);
  B.createCmpSlt(S, N);

  Value *Range = B.createMakeRange(0, 64);
  Value *CT = B.createConstantTensor(0.0, T64x64F32);
  Value *Expand = B.createExpandDims(Range, 0);
  Value *Bcast = B.createBroadcast(
      Expand, T64x64I32);
  Value *Ptrs = B.createAddPtr(B.createSplat(APtr, T64x64Ptr), Bcast);
  Value *Loaded = B.createLoad(Ptrs, T64x64F32);
  Value *X = B.createBinaryF(OpKind::AddF, Loaded, CT);
  X = B.createBinaryF(OpKind::SubF, X, CT);
  X = B.createBinaryF(OpKind::MulF, X, Loaded);
  X = B.createBinaryF(OpKind::DivF, X, Loaded);
  X = B.createBinaryF(OpKind::MaxF, X, CT);
  X = B.createExp2(X);
  Value *CondT = B.createCmpSlt(Bcast, Bcast);
  X = B.createSelect(CondT, X, CT);
  B.createReduce(X, "max", 1);
  Value *XF16 = B.createCast(X, F16);
  Value *BT = B.createTranspose(XF16);
  Value *Acc = B.createConstantTensor(0.0, T64x64F32);
  Value *DotOut = B.createDot(XF16, BT, Acc, /*TransB=*/true);
  Value *Tma = B.createTmaLoad(Desc, {Pid, C0}, T64x64F16);
  (void)Tma;
  B.createTmaStore(Desc, {Pid, C0}, XF16);
  B.createStore(Ptrs, DotOut);
  B.create(OpKind::AtomicAdd, {}, {Ptrs, DotOut});

  // scf.for with an iter_arg (exercises ^bb block-arg syntax).
  ForOp *Loop = B.createFor(C0, N, C1, {CF});
  B.setInsertionPointToEnd(&Loop->getBody());
  Value *IterNext =
      B.createBinaryF(OpKind::AddF, Loop->getIterArg(0), CF);
  B.createYield({IterNext});
  B.setInsertionPointToEnd(&Tile->getBody());
  B.createReturn();

  // Function 2: tawa + lowered dialects (arefs, barriers, TMA, WGMMA).
  B.setInsertionPointToEnd(&M->getBody());
  FuncOp *Ws = B.createFunc("ws_ops", {Ctx.getPtrType()});
  B.setInsertionPointToEnd(&Ws->getBody());
  Value *WsDesc = Ws->getBody().getArgument(0);
  Value *Slot = B.createConstantInt(0);

  Value *Aref = B.createAref(
      Ctx.getTupleType({T64x64F16, T64x64F16}), 3);
  Value *P0 = B.createTmaLoad(WsDesc, {Slot, Slot}, T64x64F16);
  Value *P1 = B.createTmaLoad(WsDesc, {Slot, Slot}, T64x64F16);
  B.createArefPut(Aref, Slot, {P0, P1});
  B.createArefGet(Aref, Slot);
  B.createArefConsumed(Aref, Slot);

  WarpGroupOp *Producer = B.createWarpGroup(0, "producer");
  B.setInsertionPointToEnd(&Producer->getBody());
  Value *Smem = B.createSmemAlloc(32768, "ring");
  Value *MBar = B.createMBarrierAlloc(4, "full");
  B.createMBarrierArrive(MBar, Slot);
  B.createMBarrierExpectTx(MBar, Slot, 16384);
  B.createMBarrierWait(MBar, Slot, Slot);
  B.createTmaLoadAsync(WsDesc, {Slot, Slot}, Smem, MBar, Slot,
                       /*Bytes=*/16384, /*SlotOffset=*/0);
  B.create(OpKind::FenceAsyncShared, {}, {});

  B.setInsertionPointToEnd(&Ws->getBody());
  WarpGroupOp *Consumer = B.createWarpGroup(1, "consumer");
  B.setInsertionPointToEnd(&Consumer->getBody());
  Value *CSmem = B.createSmemAlloc(32768, "acc");
  Value *SA = B.createSmemRead(CSmem, Slot, T64x64F16, 0);
  Value *SB = B.createSmemRead(CSmem, Slot, T64x64F16, 8192);
  Value *CAcc = B.createConstantTensor(0.0, T64x64F32);
  B.createWgmmaIssue(SA, SB, CAcc, /*TransB=*/true);
  B.createWgmmaWait(0);

  B.setInsertionPointToEnd(&Ws->getBody());
  // A region-carrying op whose region has no block prints as `{}` — the
  // parser must keep it blockless (the verifier allows it on warp_group).
  Operation *Empty = B.create(OpKind::WarpGroup, {}, {}, /*NumRegions=*/1);
  Empty->setAttr("partition", static_cast<int64_t>(2));
  Empty->setAttr("role", std::string("consumer"));
  B.createReturn();
  return M;
}

TEST(ParserRoundTrip, EveryOpKind) {
  // If this fires, extend buildAllOpsModule for the new opcode(s).
  ASSERT_EQ(static_cast<uint16_t>(OpKind::AtomicAdd), 52u)
      << "ir/Ops.h changed: cover the new ops below and update this count";
  IrContext Ctx;
  auto M = buildAllOpsModule(Ctx);
  ASSERT_EQ(verify(*M), "");

  // Every opcode must actually appear.
  std::vector<bool> Seen(static_cast<uint16_t>(OpKind::AtomicAdd) + 1, false);
  for (Operation &F : M->getBody())
    F.walk([&](Operation *Op) {
      Seen[static_cast<uint16_t>(Op->getKind())] = true;
    });
  for (uint16_t K = 0; K < Seen.size(); ++K)
    EXPECT_TRUE(Seen[K]) << "opcode not covered: "
                         << getOpName(static_cast<OpKind>(K));

  expectRoundTrip(*M);
}

TEST(ParserRoundTrip, AttributeEdgeCases) {
  IrContext Ctx;
  Module M(Ctx);
  // Module attributes use the `module attributes {...}` header.
  M.setAttr("int-neg", static_cast<int64_t>(-42));
  M.setAttr("int-min", std::numeric_limits<int64_t>::min());
  M.setAttr("f-integral", 2.0);   // used to print "2" and reparse as int
  M.setAttr("f-half", 0.5);
  M.setAttr("f-third", 1.0 / 3.0); // %g alone loses bits
  M.setAttr("f-huge", 1e30);
  M.setAttr("f-tiny", 1.5e-300);
  M.setAttr("f-neg-zero", -0.0);
  M.setAttr("f-inf", std::numeric_limits<double>::infinity());
  M.setAttr("f-ninf", -std::numeric_limits<double>::infinity());
  M.setAttr("f-nan", std::nan(""));
  M.setAttr("s-plain", std::string("producer"));
  M.setAttr("s-quotes", std::string("say \"hi\" \\ back"));
  M.setAttr("s-control", std::string("line1\nline2\ttab\rcr\x01"));
  M.setAttr("s-empty", std::string(""));
  M.setAttr("v-empty", std::vector<int64_t>{});
  M.setAttr("v-neg", std::vector<int64_t>{-1, 0, 7});

  OpBuilder B(Ctx);
  B.setInsertionPointToEnd(&M.getBody());
  FuncOp *F = B.createFunc("f", {});
  B.setInsertionPointToEnd(&F->getBody());
  Operation *Op = B.create(OpKind::FenceAsyncShared, {}, {});
  Op->setAttr("fuzz.args", std::string("t:64x64,s:7")); // dotted attr name
  Op->setAttr("weight", 3.0);
  B.createReturn();

  ASSERT_EQ(verify(M), "");
  expectRoundTrip(M);

  // The reparsed attributes must compare equal as values, not just bytes.
  IrContext Ctx2;
  std::string Err;
  auto R = parseModule(Ctx2, M.print(), Err);
  ASSERT_TRUE(R) << Err;
  EXPECT_EQ(std::get<double>(R->getAttrs().at("f-third")), 1.0 / 3.0);
  EXPECT_EQ(std::get<double>(R->getAttrs().at("f-integral")), 2.0);
  EXPECT_TRUE(std::isnan(std::get<double>(R->getAttrs().at("f-nan"))));
  EXPECT_EQ(std::get<std::string>(R->getAttrs().at("s-control")),
            "line1\nline2\ttab\rcr\x01");
  EXPECT_EQ(std::get<int64_t>(R->getAttrs().at("int-min")),
            std::numeric_limits<int64_t>::min());
  EXPECT_EQ(std::get<std::vector<int64_t>>(R->getAttrs().at("v-neg")),
            (std::vector<int64_t>{-1, 0, 7}));
}

TEST(ParserRoundTrip, KernelModulesThroughPipeline) {
  // Unspecialized tile dialect straight out of the frontend.
  {
    IrContext Ctx;
    GemmKernelConfig G;
    auto M = buildGemmModule(Ctx, G);
    expectRoundTrip(*M);
  }
  {
    IrContext Ctx;
    GemmKernelConfig G;
    G.Batched = true;
    G.PointerEpilogue = true;
    G.InPrecision = Precision::FP8;
    auto M = buildGemmModule(Ctx, G);
    expectRoundTrip(*M);
  }
  {
    IrContext Ctx;
    AttentionKernelConfig A;
    A.Causal = true;
    auto M = buildAttentionModule(Ctx, A);
    expectRoundTrip(*M);
  }
  // Fully lowered warp-specialized output (lowered dialect ops, warp
  // groups, arefs already gone).
  {
    IrContext Ctx;
    GemmKernelConfig G;
    auto M = buildGemmModule(Ctx, G);
    TawaOptions Options;
    Options.ArefDepth = 3;
    Options.MmaPipelineDepth = 2;
    Options.Persistent = true;
    PassManager PM;
    buildTawaPipeline(PM, Options);
    ASSERT_EQ(PM.run(*M), "");
    expectRoundTrip(*M);
  }
  {
    IrContext Ctx;
    AttentionKernelConfig A;
    auto M = buildAttentionModule(Ctx, A);
    TawaOptions Options;
    Options.CoarsePipeline = true;
    Options.NumConsumerGroups = 2;
    PassManager PM;
    buildTawaPipeline(PM, Options);
    ASSERT_EQ(PM.run(*M), "");
    expectRoundTrip(*M);
  }
  // Non-WS software-pipelined baseline.
  {
    IrContext Ctx;
    GemmKernelConfig G;
    auto M = buildGemmModule(Ctx, G);
    TawaOptions Options;
    Options.EnableWarpSpecialization = false;
    PassManager PM;
    buildTawaPipeline(PM, Options);
    ASSERT_EQ(PM.run(*M), "");
    runSoftwarePipeline(*M, 2);
    expectRoundTrip(*M);
  }
}

TEST(Parser, RejectsMalformedInput) {
  IrContext Ctx;
  std::string Err;

  EXPECT_FALSE(parseModule(Ctx, "", Err));
  EXPECT_FALSE(parseModule(Ctx, "modul {}", Err));

  // Unknown op name.
  Err.clear();
  EXPECT_FALSE(parseModule(
      Ctx, "module {\n  tt.func @f() {sym_name = \"f\"} {\n"
           "    tt.bogus_op\n    tt.return\n  }\n}\n",
      Err));
  EXPECT_NE(Err.find("unknown operation"), std::string::npos) << Err;

  // Unknown value.
  Err.clear();
  EXPECT_FALSE(parseModule(
      Ctx, "module {\n  tt.func @f() {sym_name = \"f\"} {\n"
           "    tt.store(%nope, %nope)\n    tt.return\n  }\n}\n",
      Err));
  EXPECT_NE(Err.find("unknown value"), std::string::npos) << Err;

  // Unbalanced region brace.
  EXPECT_FALSE(parseModule(
      Ctx, "module {\n  tt.func @f() {sym_name = \"f\"} {\n    tt.return\n",
      Err));

  // Trailing garbage after the module.
  EXPECT_FALSE(parseModule(
      Ctx,
      "module {\n  tt.func @f() {sym_name = \"f\"} {\n    tt.return\n  }\n}\n"
      "extra",
      Err));

  // Bad type.
  EXPECT_FALSE(parseModule(
      Ctx, "module {\n  tt.func @f(%arg0: f128() {sym_name = \"f\"} {\n"
           "    tt.return\n  }\n}\n",
      Err));

  // Verifier runs on parse: non-func at module level.
  Err.clear();
  EXPECT_FALSE(parseModule(Ctx, "module {\n  ttng.fence_async_shared\n}\n",
                           Err));
  EXPECT_NE(Err.find("verification"), std::string::npos) << Err;
}

TEST(Parser, AcceptsCommentsAndWhitespace) {
  IrContext Ctx;
  std::string Err;
  auto M = parseModule(Ctx,
                       "// a committed fuzz regression file\n"
                       "module   {\n"
                       "  // header comment\n"
                       "  tt.func @f() {sym_name = \"f\"} { // trailing\n"
                       "    tt.return\n"
                       "  }\n"
                       "}\n",
                       Err);
  ASSERT_TRUE(M) << Err;
  EXPECT_TRUE(M->lookupFunc("f"));
}

TEST(ParserRoundTrip, GoldenCorpus) {
  std::string Dir = std::string(TAWA_SOURCE_DIR) + "/tests/corpus";
  std::vector<std::string> Files;
  {
    // No <filesystem> dependency: the corpus manifest pins the file list,
    // so a stray unlisted file cannot silently skip coverage.
    std::ifstream Manifest(Dir + "/MANIFEST");
    ASSERT_TRUE(Manifest.good()) << "missing " << Dir << "/MANIFEST";
    std::string Line;
    while (std::getline(Manifest, Line))
      if (!Line.empty() && Line[0] != '#')
        Files.push_back(Line);
  }
  ASSERT_GE(Files.size(), 4u);
  for (const std::string &Name : Files) {
    std::ifstream In(Dir + "/" + Name);
    ASSERT_TRUE(In.good()) << "missing corpus file " << Name;
    std::ostringstream Buf;
    Buf << In.rdbuf();
    std::string Text = Buf.str();

    IrContext Ctx;
    std::string Err;
    auto M = parseModule(Ctx, Text, Err);
    ASSERT_TRUE(M) << Name << ": " << Err;
    // Pinned files are stored in printed form (comments stripped), so
    // parse -> print must reproduce the file bytes exactly.
    EXPECT_EQ(M->print(), Text) << Name;
    // So must re-encoding the decoded launch over the fuzz.* attributes.
    sim::LaunchSpec L;
    ASSERT_EQ(sim::decodeLaunchSpec(*M, L), "") << Name;
    sim::encodeLaunchSpec(*M, L);
    EXPECT_EQ(M->print(), Text) << Name;
  }
}

void expectSameLaunch(const sim::LaunchSpec &A, const sim::LaunchSpec &B) {
  EXPECT_EQ(A.GridX, B.GridX);
  EXPECT_EQ(A.GridY, B.GridY);
  EXPECT_EQ(A.FaultSpec, B.FaultSpec);
  ASSERT_EQ(A.Args.size(), B.Args.size());
  for (size_t I = 0; I < A.Args.size(); ++I) {
    SCOPED_TRACE(I);
    EXPECT_EQ(A.Args[I].IsScalar, B.Args[I].IsScalar);
    EXPECT_EQ(A.Args[I].Scalar, B.Args[I].Scalar);
    EXPECT_EQ(A.Args[I].Shape, B.Args[I].Shape);
    EXPECT_EQ(A.Args[I].FillSeed, B.Args[I].FillSeed);
    EXPECT_EQ(A.Args[I].Data, B.Args[I].Data);
  }
}

TEST(LaunchCodec, EncodePrintParseDecodeRoundTrip) {
  auto Tensor = [](std::vector<int64_t> Shape, uint64_t Seed) {
    sim::LaunchSpec::Arg A;
    A.Shape = std::move(Shape);
    A.FillSeed = Seed;
    return A;
  };
  auto Scalar = [](int64_t V) {
    sim::LaunchSpec::Arg A;
    A.IsScalar = true;
    A.Scalar = V;
    return A;
  };
  sim::LaunchSpec::Arg Table;
  Table.Shape = {2, 2};
  Table.Data = {0, -1, 40, 17};
  sim::LaunchSpec L;
  L.GridX = 64;
  L.GridY = 64; // Exactly MaxLaunchCtas.
  L.Args = {Tensor({64}, 7),
            Tensor({2, 3, 4, 5}, 0),
            Tensor({sim::MaxLaunchDim, 256},
                   std::numeric_limits<uint64_t>::max()),
            Scalar(std::numeric_limits<int64_t>::min()),
            Scalar(std::numeric_limits<int64_t>::max()),
            Table};
  for (const char *Faults : {"", "worker-task:0.50:7"}) {
    SCOPED_TRACE(Faults);
    L.FaultSpec = Faults;
    IrContext Ctx;
    Module M(Ctx);
    sim::encodeLaunchSpec(M, L);
    IrContext Ctx2;
    std::string Err;
    auto Parsed = parseModule(Ctx2, M.print(), Err);
    ASSERT_TRUE(Parsed) << Err;
    sim::LaunchSpec Back;
    ASSERT_EQ(sim::decodeLaunchSpec(*Parsed, Back), "");
    expectSameLaunch(L, Back);
  }
}

} // namespace
