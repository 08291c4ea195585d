//===- Kernels.cpp - Tile-level kernel builders -------------------------------//

#include "frontend/Kernels.h"

#include "support/Support.h"

#include <cmath>

using namespace tawa;

Type *tawa::getInputType(IrContext &Ctx, Precision P) {
  return P == Precision::FP16 ? static_cast<Type *>(Ctx.getF16Type())
                              : static_cast<Type *>(Ctx.getF8Type());
}

/// Emits `(X + C - 1) / C` — the IR form of tl.cdiv with a constant divisor.
static Value *emitCeilDiv(OpBuilder &B, Value *X, int64_t C) {
  Value *Cm1 = B.createConstantInt(C - 1);
  Value *CV = B.createConstantInt(C);
  return B.createDiv(B.createAdd(X, Cm1), CV);
}

//===----------------------------------------------------------------------===//
// GEMM (Fig. 2b)
//===----------------------------------------------------------------------===//

std::unique_ptr<Module> tawa::buildGemmModule(IrContext &Ctx,
                                              const GemmKernelConfig &Config) {
  auto M = std::make_unique<Module>(Ctx);
  M->setAttr("num-warps", static_cast<int64_t>(8));

  OpBuilder B(Ctx);
  B.setInsertionPointToEnd(&M->getBody());

  Type *Ptr = Ctx.getPtrType();
  Type *I32 = Ctx.getI32Type();
  FuncOp *Func =
      B.createFunc("matmul", {Ptr, Ptr, Ptr, I32, I32, I32});
  // Recorded so the persistent-kernel pass can derive the tile count from
  // the runtime dimensions (§IV-B).
  Func->setAttr("tile_m", Config.TileM);
  Func->setAttr("tile_n", Config.TileN);
  Func->setAttr("tile_k", Config.TileK);
  Func->setAttr("arg_m", static_cast<int64_t>(3));
  Func->setAttr("arg_n", static_cast<int64_t>(4));
  Block &Body = Func->getBody();
  B.setInsertionPointToEnd(&Body);

  Value *ADesc = Body.getArgument(0);
  Value *BDesc = Body.getArgument(1);
  Value *CDesc = Body.getArgument(2);
  Value *DimM = Body.getArgument(3);
  Value *DimN = Body.getArgument(4);
  Value *DimK = Body.getArgument(5);
  (void)DimN;

  Type *InTy = getInputType(Ctx, Config.InPrecision);
  auto *ATileTy = Ctx.getTensorType({Config.TileM, Config.TileK}, InTy);
  auto *BTileTy = Ctx.getTensorType({Config.TileN, Config.TileK}, InTy);
  auto *AccTy =
      Ctx.getTensorType({Config.TileM, Config.TileN}, Ctx.getF32Type());

  // Grid decomposition: pid -> (pid_m, pid_n) as in Fig. 2b L6-11.
  Value *Pid = B.createProgramId(0);
  Value *PidZ = Config.Batched ? B.createProgramId(1) : nullptr;
  Value *NumPidM = emitCeilDiv(B, DimM, Config.TileM);
  Value *PidM = B.createRem(Pid, NumPidM);
  Value *PidN = B.createDiv(Pid, NumPidM);
  Value *OffAm = B.createMul(PidM, B.createConstantInt(Config.TileM));
  Value *OffBn = B.createMul(PidN, B.createConstantInt(Config.TileN));

  Value *AccInit = B.createConstantTensor(0.0, AccTy);
  Value *Zero = B.createConstantInt(0);
  Value *One = B.createConstantInt(1);
  Value *KTiles = emitCeilDiv(B, DimK, Config.TileK);

  // Main loop: iter_args are (acc, o_k); o_k's update is the "iteration
  // statement" the partitioner must peel away from the dot (§III-C1).
  ForOp *Loop = B.createFor(Zero, KTiles, One, {AccInit, Zero});
  {
    OpBuilder LB(Ctx);
    LB.setInsertionPointToEnd(&Loop->getBody());
    Value *Acc = Loop->getIterArg(0);
    Value *OffK = Loop->getIterArg(1);
    std::vector<Value *> AOffs = {OffAm, OffK};
    std::vector<Value *> BOffs = {OffBn, OffK};
    if (Config.Batched) {
      AOffs.insert(AOffs.begin(), PidZ);
      BOffs.insert(BOffs.begin(), PidZ);
    }
    Value *ATile = LB.createTmaLoad(ADesc, AOffs, ATileTy);
    Value *BTile = LB.createTmaLoad(BDesc, BOffs, BTileTy);
    Value *AccNext = LB.createDot(ATile, BTile, Acc, /*TransB=*/true);
    Value *OffKNext =
        LB.createAdd(OffK, LB.createConstantInt(Config.TileK));
    LB.createYield({AccNext, OffKNext});
  }

  // Epilogue: convert and write back C.
  Value *AccOut = Loop->getResult(0);
  Value *COut = B.createCast(AccOut, Ctx.getF16Type());

  if (!Config.PointerEpilogue) {
    std::vector<Value *> COffs = {OffAm, OffBn};
    if (Config.Batched)
      COffs.insert(COffs.begin(), PidZ);
    B.createTmaStore(CDesc, COffs, COut);
  } else {
    // Fig. 2b L21-25: explicit pointer arithmetic epilogue.
    auto *RowTy = Ctx.getTensorType({Config.TileM}, I32);
    auto *ColTy = Ctx.getTensorType({Config.TileN}, I32);
    auto *IdxTy =
        Ctx.getTensorType({Config.TileM, Config.TileN}, I32);
    auto *PtrTy =
        Ctx.getTensorType({Config.TileM, Config.TileN}, Ptr);
    Value *OffsCm = B.createBinaryI(
        OpKind::AddI, B.createSplat(OffAm, RowTy), B.createMakeRange(0, Config.TileM));
    Value *OffsCn = B.createBinaryI(
        OpKind::AddI, B.createSplat(OffBn, ColTy), B.createMakeRange(0, Config.TileN));
    Value *RowIdx =
        B.createBroadcast(B.createExpandDims(OffsCm, 1), IdxTy);
    Value *ColIdx =
        B.createBroadcast(B.createExpandDims(OffsCn, 0), IdxTy);
    // Linear index: row * N + col (row-major C with leading dim N).
    Value *StrideCm = B.createSplat(DimN, IdxTy);
    Value *Linear = B.createBinaryI(
        OpKind::AddI, B.createBinaryI(OpKind::MulI, RowIdx, StrideCm),
        ColIdx);
    if (Config.Batched) {
      // C is (batch, M, N): skip pid_z full M*N planes, or every batch
      // races on batch 0's plane and results depend on CTA scheduling.
      Value *BatchOff = B.createMul(PidZ, B.createMul(DimM, DimN));
      Linear = B.createBinaryI(OpKind::AddI, Linear,
                               B.createSplat(BatchOff, IdxTy));
    }
    Value *CPtrs = B.createAddPtr(B.createSplat(CDesc, PtrTy), Linear);
    B.createStore(CPtrs, COut);
  }

  B.createReturn();
  return M;
}

//===----------------------------------------------------------------------===//
// Split-K GEMM (cross-CTA reduction epilogue)
//===----------------------------------------------------------------------===//

std::unique_ptr<Module>
tawa::buildSplitKGemmModule(IrContext &Ctx, const GemmKernelConfig &Config) {
  auto M = std::make_unique<Module>(Ctx);
  M->setAttr("num-warps", static_cast<int64_t>(8));

  OpBuilder B(Ctx);
  B.setInsertionPointToEnd(&M->getBody());

  Type *Ptr = Ctx.getPtrType();
  Type *I32 = Ctx.getI32Type();
  FuncOp *Func =
      B.createFunc("matmul_splitk", {Ptr, Ptr, Ptr, I32, I32, I32});
  Func->setAttr("tile_m", Config.TileM);
  Func->setAttr("tile_n", Config.TileN);
  Func->setAttr("tile_k", Config.TileK);
  Func->setAttr("arg_m", static_cast<int64_t>(3));
  Func->setAttr("arg_n", static_cast<int64_t>(4));
  Block &Body = Func->getBody();
  B.setInsertionPointToEnd(&Body);

  Value *ADesc = Body.getArgument(0);
  Value *BDesc = Body.getArgument(1);
  Value *CDesc = Body.getArgument(2);
  Value *DimM = Body.getArgument(3);
  Value *DimN = Body.getArgument(4);
  Value *DimK = Body.getArgument(5);

  Type *InTy = getInputType(Ctx, Config.InPrecision);
  auto *ATileTy = Ctx.getTensorType({Config.TileM, Config.TileK}, InTy);
  auto *BTileTy = Ctx.getTensorType({Config.TileN, Config.TileK}, InTy);
  auto *AccTy =
      Ctx.getTensorType({Config.TileM, Config.TileN}, Ctx.getF32Type());

  // Grid: axis 0 walks output tiles exactly like @matmul; axis 1 is the K
  // split. num_programs(1) IS the split factor — a pure launch parameter,
  // so one compiled program serves every split factor.
  Value *Pid = B.createProgramId(0);
  Value *Split = B.createProgramId(1);
  Value *NumSplits = B.createNumPrograms(1);
  Value *NumPidM = emitCeilDiv(B, DimM, Config.TileM);
  Value *PidM = B.createRem(Pid, NumPidM);
  Value *PidN = B.createDiv(Pid, NumPidM);
  Value *OffAm = B.createMul(PidM, B.createConstantInt(Config.TileM));
  Value *OffBn = B.createMul(PidN, B.createConstantInt(Config.TileN));

  Value *AccInit = B.createConstantTensor(0.0, AccTy);
  Value *One = B.createConstantInt(1);
  Value *KTiles = emitCeilDiv(B, DimK, Config.TileK);
  // This CTA's contiguous K-tile slice: [k0, min(kTiles, k0 + kPerSplit)).
  // ceil-div with a RUNTIME divisor, so trailing splits run fewer (possibly
  // zero) iterations when the split factor does not divide the tile count.
  Value *KPerSplit = B.createDiv(
      B.createAdd(KTiles, B.createBinaryI(OpKind::SubI, NumSplits, One)),
      NumSplits);
  Value *K0 = B.createMul(Split, KPerSplit);
  Value *K1 = B.createMin(KTiles, B.createAdd(K0, KPerSplit));
  Value *OffK0 = B.createMul(K0, B.createConstantInt(Config.TileK));

  ForOp *Loop = B.createFor(K0, K1, One, {AccInit, OffK0});
  {
    OpBuilder LB(Ctx);
    LB.setInsertionPointToEnd(&Loop->getBody());
    Value *Acc = Loop->getIterArg(0);
    Value *OffK = Loop->getIterArg(1);
    Value *ATile = LB.createTmaLoad(ADesc, {OffAm, OffK}, ATileTy);
    Value *BTile = LB.createTmaLoad(BDesc, {OffBn, OffK}, BTileTy);
    Value *AccNext = LB.createDot(ATile, BTile, Acc, /*TransB=*/true);
    Value *OffKNext =
        LB.createAdd(OffK, LB.createConstantInt(Config.TileK));
    LB.createYield({AccNext, OffKNext});
  }
  Value *AccOut = Loop->getResult(0);

  if (Config.DeadlockEpilogue) {
    // Wait on an mbarrier nobody arrives on: a deterministic wedged
    // cross-CTA reduction for the pinned tawa-diag-v1 post-mortem test.
    Value *Bar = B.createMBarrierAlloc(1, "splitk_stuck");
    Value *Z = B.createConstantInt(0);
    B.createMBarrierWait(Bar, Z, Z);
    B.createReturn();
    return M;
  }

  // Reduction epilogue: atomically accumulate the RAW f32 partial sum into
  // C (f32, host-zero-initialized). Same pointer arithmetic as Fig. 2b
  // L21-25, but tt.atomic_add instead of tt.store — the cross-CTA surface.
  auto *RowTy = Ctx.getTensorType({Config.TileM}, I32);
  auto *ColTy = Ctx.getTensorType({Config.TileN}, I32);
  auto *IdxTy = Ctx.getTensorType({Config.TileM, Config.TileN}, I32);
  auto *PtrTy = Ctx.getTensorType({Config.TileM, Config.TileN}, Ptr);
  Value *OffsCm = B.createBinaryI(OpKind::AddI, B.createSplat(OffAm, RowTy),
                                  B.createMakeRange(0, Config.TileM));
  Value *OffsCn = B.createBinaryI(OpKind::AddI, B.createSplat(OffBn, ColTy),
                                  B.createMakeRange(0, Config.TileN));
  Value *RowIdx = B.createBroadcast(B.createExpandDims(OffsCm, 1), IdxTy);
  Value *ColIdx = B.createBroadcast(B.createExpandDims(OffsCn, 0), IdxTy);
  Value *StrideCm = B.createSplat(DimN, IdxTy);
  Value *Linear = B.createBinaryI(
      OpKind::AddI, B.createBinaryI(OpKind::MulI, RowIdx, StrideCm), ColIdx);
  Value *CPtrs = B.createAddPtr(B.createSplat(CDesc, PtrTy), Linear);
  B.createAtomicAdd(CPtrs, AccOut);

  B.createReturn();
  return M;
}

//===----------------------------------------------------------------------===//
// Grouped / MoE GEMM (ragged per-expert batches)
//===----------------------------------------------------------------------===//

std::unique_ptr<Module>
tawa::buildGroupedGemmModule(IrContext &Ctx, const GemmKernelConfig &Config) {
  auto M = std::make_unique<Module>(Ctx);
  M->setAttr("num-warps", static_cast<int64_t>(8));

  OpBuilder B(Ctx);
  B.setInsertionPointToEnd(&M->getBody());

  Type *Ptr = Ctx.getPtrType();
  Type *I32 = Ctx.getI32Type();
  FuncOp *Func =
      B.createFunc("matmul_grouped", {Ptr, Ptr, Ptr, Ptr, I32, I32});
  Func->setAttr("tile_m", Config.TileM);
  Func->setAttr("tile_n", Config.TileN);
  Func->setAttr("tile_k", Config.TileK);
  Block &Body = Func->getBody();
  B.setInsertionPointToEnd(&Body);

  Value *ADesc = Body.getArgument(0);
  Value *BDesc = Body.getArgument(1);
  Value *CDesc = Body.getArgument(2);
  Value *Table = Body.getArgument(3);
  Value *DimN = Body.getArgument(4);
  Value *DimK = Body.getArgument(5);

  Type *InTy = getInputType(Ctx, Config.InPrecision);
  auto *ATileTy = Ctx.getTensorType({Config.TileM, Config.TileK}, InTy);
  auto *BTileTy = Ctx.getTensorType({Config.TileN, Config.TileK}, InTy);
  auto *AccTy =
      Ctx.getTensorType({Config.TileM, Config.TileN}, Ctx.getF32Type());

  // Grid: axis 1 is the expert id; axis 0 flattens this expert's
  // (m tile, n tile) pairs n-major. The per-expert row range comes from the
  // (E, 2) offset table [row_start, m_size] read with tt.load_scalar — the
  // data-dependent part the driver mirrors when it builds the ragged CTA
  // list for runCtaBatch.
  Value *Pid = B.createProgramId(0);
  Value *Expert = B.createProgramId(1);
  Value *One = B.createConstantInt(1);
  Value *TblBase = B.createMul(Expert, B.createConstantInt(2));
  Value *RowStart = B.createLoadScalar(Table, TblBase);
  Value *MSize = B.createLoadScalar(Table, B.createAdd(TblBase, One));
  Value *NumPidN = emitCeilDiv(B, DimN, Config.TileN);
  Value *PidM = B.createDiv(Pid, NumPidN);
  Value *PidN = B.createRem(Pid, NumPidN);
  Value *RowInExpert = B.createMul(PidM, B.createConstantInt(Config.TileM));
  Value *OffAm = B.createAdd(RowStart, RowInExpert);
  Value *OffBn = B.createMul(PidN, B.createConstantInt(Config.TileN));

  Value *AccInit = B.createConstantTensor(0.0, AccTy);
  Value *Zero = B.createConstantInt(0);
  Value *KTiles = emitCeilDiv(B, DimK, Config.TileK);

  ForOp *Loop = B.createFor(Zero, KTiles, One, {AccInit, Zero});
  {
    OpBuilder LB(Ctx);
    LB.setInsertionPointToEnd(&Loop->getBody());
    Value *Acc = Loop->getIterArg(0);
    Value *OffK = Loop->getIterArg(1);
    // A over-reads past the expert's rows on partial tiles; TMA's
    // out-of-bounds zero fill makes that harmless (rows are independent
    // and the store below masks them off).
    Value *ATile = LB.createTmaLoad(ADesc, {OffAm, OffK}, ATileTy);
    Value *BTile = LB.createTmaLoad(BDesc, {Expert, OffBn, OffK}, BTileTy);
    Value *AccNext = LB.createDot(ATile, BTile, Acc, /*TransB=*/true);
    Value *OffKNext =
        LB.createAdd(OffK, LB.createConstantInt(Config.TileK));
    LB.createYield({AccNext, OffKNext});
  }
  Value *AccOut = Loop->getResult(0);
  Value *COut = B.createCast(AccOut, Ctx.getF16Type());

  // Masked pointer epilogue: rows at or past m_size (and, with
  // MaskColumns, columns at or past N) select a -1 linear index, which
  // tt.store's bounds check drops (partial-tile masking).
  auto *RowTy = Ctx.getTensorType({Config.TileM}, I32);
  auto *ColTy = Ctx.getTensorType({Config.TileN}, I32);
  auto *IdxTy = Ctx.getTensorType({Config.TileM, Config.TileN}, I32);
  auto *PtrTy = Ctx.getTensorType({Config.TileM, Config.TileN}, Ptr);
  Value *RowIota = B.createMakeRange(0, Config.TileM);
  Value *OffsCm = B.createBinaryI(OpKind::AddI, B.createSplat(OffAm, RowTy),
                                  RowIota);
  Value *RowLocal = B.createBinaryI(
      OpKind::AddI, B.createSplat(RowInExpert, RowTy), RowIota);
  Value *OffsCn = B.createBinaryI(OpKind::AddI, B.createSplat(OffBn, ColTy),
                                  B.createMakeRange(0, Config.TileN));
  Value *RowIdx = B.createBroadcast(B.createExpandDims(OffsCm, 1), IdxTy);
  Value *RowLoc2 = B.createBroadcast(B.createExpandDims(RowLocal, 1), IdxTy);
  Value *ColIdx = B.createBroadcast(B.createExpandDims(OffsCn, 0), IdxTy);
  Value *StrideCm = B.createSplat(DimN, IdxTy);
  Value *Linear = B.createBinaryI(
      OpKind::AddI, B.createBinaryI(OpKind::MulI, RowIdx, StrideCm), ColIdx);
  Value *Valid = B.createCmpSlt(RowLoc2, B.createSplat(MSize, IdxTy));
  Value *Masked =
      B.createSelect(Valid, Linear, B.createConstantTensor(-1.0, IdxTy));
  if (Config.MaskColumns)
    Masked = B.createSelect(B.createCmpSlt(ColIdx, StrideCm), Masked,
                            B.createConstantTensor(-1.0, IdxTy));
  Value *CPtrs = B.createAddPtr(B.createSplat(CDesc, PtrTy), Masked);
  B.createStore(CPtrs, COut);

  B.createReturn();
  return M;
}

//===----------------------------------------------------------------------===//
// Multi-head attention (§V-D; T/C/U structure of Algorithm 1)
//===----------------------------------------------------------------------===//

std::unique_ptr<Module>
tawa::buildAttentionModule(IrContext &Ctx, const AttentionKernelConfig &C) {
  auto M = std::make_unique<Module>(Ctx);
  M->setAttr("num-warps", static_cast<int64_t>(8));

  OpBuilder B(Ctx);
  B.setInsertionPointToEnd(&M->getBody());

  Type *Ptr = Ctx.getPtrType();
  Type *I32 = Ctx.getI32Type();
  Type *F32 = Ctx.getF32Type();
  FuncOp *Func = B.createFunc("mha", {Ptr, Ptr, Ptr, Ptr, I32});
  Block &Body = Func->getBody();
  B.setInsertionPointToEnd(&Body);

  Value *QDesc = Body.getArgument(0);
  Value *KDesc = Body.getArgument(1);
  Value *VDesc = Body.getArgument(2);
  Value *ODesc = Body.getArgument(3);
  Value *SeqLen = Body.getArgument(4);

  Type *InTy = getInputType(Ctx, C.InPrecision);
  auto *QTileTy = Ctx.getTensorType({C.TileQ, C.HeadDim}, InTy);
  auto *KvTileTy = Ctx.getTensorType({C.TileKv, C.HeadDim}, InTy);
  auto *ScoreTy = Ctx.getTensorType({C.TileQ, C.TileKv}, F32);
  auto *RowVecTy = Ctx.getTensorType({C.TileQ}, F32);
  auto *AccTy = Ctx.getTensorType({C.TileQ, C.HeadDim}, F32);

  Value *Pid = B.createProgramId(0);
  Value *BatchHead = B.createProgramId(1);
  Value *OffQ = B.createMul(Pid, B.createConstantInt(C.TileQ));
  Value *Zero = B.createConstantInt(0);
  Value *One = B.createConstantInt(1);

  Value *Q = B.createTmaLoad(QDesc, {BatchHead, OffQ, Zero}, QTileTy);

  Value *MInit = B.createConstantTensor(-1e30, RowVecTy);
  Value *LInit = B.createConstantTensor(0.0, RowVecTy);
  Value *AccInit = B.createConstantTensor(0.0, AccTy);

  Value *KvTiles = emitCeilDiv(B, SeqLen, C.TileKv);
  if (C.Causal) {
    // Only KV tiles at or before the diagonal contribute.
    Value *QEnd = B.createAdd(OffQ, B.createConstantInt(C.TileQ));
    KvTiles = B.createMin(KvTiles, emitCeilDiv(B, QEnd, C.TileKv));
  }

  const double Log2E = 1.4426950408889634;
  const double Scale = 1.0 / std::sqrt(static_cast<double>(C.HeadDim));

  ForOp *Loop = B.createFor(Zero, KvTiles, One, {AccInit, MInit, LInit, Zero});
  {
    OpBuilder LB(Ctx);
    LB.setInsertionPointToEnd(&Loop->getBody());
    Value *Acc = Loop->getIterArg(0);
    Value *MI = Loop->getIterArg(1);
    Value *LI = Loop->getIterArg(2);
    Value *OffKv = Loop->getIterArg(3);
    Value *LZero = LB.createConstantInt(0);

    Value *KTile = LB.createTmaLoad(KDesc, {BatchHead, OffKv, LZero}, KvTileTy);
    Value *VTile = LB.createTmaLoad(VDesc, {BatchHead, OffKv, LZero}, KvTileTy);

    // --- T stage: S = Q * K^T (tensor cores).
    Value *SInit = LB.createConstantTensor(0.0, ScoreTy);
    Value *S = LB.createDot(Q, KTile, SInit, /*TransB=*/true);
    S = LB.createBinaryF(OpKind::MulF, S,
                         LB.createConstantTensor(Scale, ScoreTy));

    // --- C stage: online softmax rescaling (CUDA cores).
    if (C.Causal) {
      auto *RowIdxTy = Ctx.getTensorType({C.TileQ, C.TileKv}, I32);
      Value *RowIota = LB.createMakeRange(0, C.TileQ);
      Value *ColIota = LB.createMakeRange(0, C.TileKv);
      Value *RowBase = LB.createSplat(
          OffQ, cast<TensorType>(RowIota->getType()));
      Value *ColBase = LB.createSplat(
          OffKv, cast<TensorType>(ColIota->getType()));
      Value *Rows = LB.createBroadcast(
          LB.createExpandDims(
              LB.createBinaryI(OpKind::AddI, RowIota, RowBase), 1),
          RowIdxTy);
      Value *Cols = LB.createBroadcast(
          LB.createExpandDims(
              LB.createBinaryI(OpKind::AddI, ColIota, ColBase), 0),
          RowIdxTy);
      // Mask out the strict upper triangle (col > row <=> row < col).
      Value *Mask = LB.createCmpSlt(Rows, Cols);
      S = LB.createSelect(Mask, LB.createConstantTensor(-1e30, ScoreTy), S);
    }

    Value *SMax = LB.createReduce(S, "max", 1);
    Value *MNew = LB.createBinaryF(OpKind::MaxF, MI, SMax);
    Value *MNewB = LB.createBroadcast(LB.createExpandDims(MNew, 1), ScoreTy);
    Value *Log2EScore = LB.createConstantTensor(Log2E, ScoreTy);
    Value *P = LB.createExp2(LB.createBinaryF(
        OpKind::MulF, LB.createBinaryF(OpKind::SubF, S, MNewB), Log2EScore));
    Value *Log2ERow = LB.createConstantTensor(Log2E, RowVecTy);
    Value *Alpha = LB.createExp2(LB.createBinaryF(
        OpKind::MulF, LB.createBinaryF(OpKind::SubF, MI, MNew), Log2ERow));
    Value *LNew = LB.createBinaryF(
        OpKind::AddF, LB.createBinaryF(OpKind::MulF, LI, Alpha),
        LB.createReduce(P, "sum", 1));
    Value *AlphaB = LB.createBroadcast(LB.createExpandDims(Alpha, 1), AccTy);
    Value *AccScaled = LB.createBinaryF(OpKind::MulF, Acc, AlphaB);
    Value *PIn = LB.createCast(P, InTy);

    // --- U stage: Acc += P * V (tensor cores).
    Value *AccNew = LB.createDot(PIn, VTile, AccScaled, /*TransB=*/false);

    Value *OffKvNext = LB.createAdd(OffKv, LB.createConstantInt(C.TileKv));
    LB.createYield({AccNew, MNew, LNew, OffKvNext});
  }

  // Normalize and write back.
  Value *AccOut = Loop->getResult(0);
  Value *LOut = Loop->getResult(2);
  Value *LOutB = B.createBroadcast(B.createExpandDims(LOut, 1), AccTy);
  Value *Out = B.createBinaryF(OpKind::DivF, AccOut, LOutB);
  Value *OutF16 = B.createCast(Out, Ctx.getF16Type());
  B.createTmaStore(ODesc, {BatchHead, OffQ, Zero}, OutF16);
  B.createReturn();
  return M;
}
