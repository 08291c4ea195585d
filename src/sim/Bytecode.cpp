//===- Bytecode.cpp - Module -> CompiledProgram lowering ----------------------//
//
// One-time flattening of a pass-pipelined Module into the dense instruction
// format of Bytecode.h. All string-keyed attribute lookups, type walks and
// cost-model evaluations happen here, once; the executor never touches the
// IR again.
//
//===----------------------------------------------------------------------===//

#include "sim/Bytecode.h"

#include "ir/Ir.h"
#include "ir/ValueNumbering.h"
#include "sim/ExecCommon.h"
#include "sim/Peephole.h"
#include "support/Support.h"

#include <algorithm>
#include <cassert>
#include <cstring>

using namespace tawa;
using namespace tawa::sim;
using namespace tawa::sim::bc;

namespace {

class Compiler {
public:
  Compiler(Module &M, const GpuConfig &Config, CompiledProgram &P)
      : M(M), Config(Config), P(P) {}

  void run();

private:
  void collectSlotOffsets(Block &B);
  void compileBlock(Block &B, RegionProgram &RP, bool IsFuncTopLevel);
  void compileOp(Operation *Op, RegionProgram &RP);
  void compileFor(ForOp *Loop, RegionProgram &RP);

  Inst makeInst(BcOp Bc, Operation *Op) {
    Inst I;
    I.Op = Bc;
    if (Op && Op->getNumResults())
      I.Result = VN->lookup(Op->getResult(0));
    if (Op) {
      I.OpBegin = static_cast<int32_t>(P.OperandSlots.size());
      I.NumOps = static_cast<uint8_t>(Op->getNumOperands());
      for (unsigned K = 0, E = Op->getNumOperands(); K != E; ++K)
        P.OperandSlots.push_back(VN->lookup(Op->getOperand(K)));
    }
    return I;
  }

  TensorType *resultTensorType(Operation *Op) {
    return cast<TensorType>(Op->getResult(0)->getType());
  }

  int32_t addMsg(std::string S) {
    P.Messages.push_back(std::move(S));
    return static_cast<int32_t>(P.Messages.size() - 1);
  }

  int32_t addIntVec(std::vector<int64_t> V) {
    P.IntVecs.push_back(std::move(V));
    return static_cast<int32_t>(P.IntVecs.size() - 1);
  }

  int32_t fieldIndexOf(int64_t SlotOffset) const {
    auto It = std::lower_bound(P.SlotOffsets.begin(), P.SlotOffsets.end(),
                               SlotOffset);
    assert(It != P.SlotOffsets.end() && *It == SlotOffset &&
           "slot offset missed by the collection walk");
    return static_cast<int32_t>(It - P.SlotOffsets.begin());
  }

  Module &M;
  const GpuConfig &Config;
  CompiledProgram &P;
  std::unique_ptr<DenseValueNumbering> VN;
};

void Compiler::collectSlotOffsets(Block &B) {
  for (Operation &Op : B) {
    if (Op.getKind() == OpKind::TmaLoadAsync ||
        Op.getKind() == OpKind::SmemRead)
      P.SlotOffsets.push_back(Op.getIntAttr("slot_offset"));
    for (unsigned R = 0, E = Op.getNumRegions(); R != E; ++R)
      if (!Op.getRegion(R).empty())
        collectSlotOffsets(Op.getRegion(R).getBlock());
  }
}

void Compiler::run() {
  P.Config = Config;
  P.SwPipelineDepth = M.getIntAttrOr("sw_pipeline_depth", 0);

  FuncOp *Func = nullptr;
  for (Operation &Op : M.getBody())
    if (auto *F = dyn_cast<FuncOp>(&Op)) {
      Func = static_cast<FuncOp *>(F);
      break;
    }
  if (!Func) {
    P.CompileError = "module has no function";
    return;
  }
  Block &Body = Func->getBody();

  VN = std::make_unique<DenseValueNumbering>(*Func);
  P.NumSlots = VN->size();
  for (unsigned I = 0, E = Body.getNumArguments(); I != E; ++I)
    P.ArgSlots.push_back(VN->lookup(Body.getArgument(I)));

  collectSlotOffsets(Body);
  std::sort(P.SlotOffsets.begin(), P.SlotOffsets.end());
  P.SlotOffsets.erase(
      std::unique(P.SlotOffsets.begin(), P.SlotOffsets.end()),
      P.SlotOffsets.end());

  compileBlock(Body, P.Preamble, /*IsFuncTopLevel=*/true);
  for (Operation &Op : Body)
    if (auto *WG = dyn_cast<WarpGroupOp>(&Op)) {
      auto *Group = static_cast<WarpGroupOp *>(WG);
      AgentInfo Info;
      Info.Replicas = Group->getIntAttrOr("num_replicas", 1);
      Info.Replica = Group->getIntAttrOr("replica", 0);
      Info.Role = Group->getRole();
      P.AgentInfos.push_back(std::move(Info));
      P.Agents.emplace_back();
      compileBlock(Group->getBody(), P.Agents.back(),
                   /*IsFuncTopLevel=*/false);
    }
}

void Compiler::compileBlock(Block &B, RegionProgram &RP,
                            bool IsFuncTopLevel) {
  for (Operation &Op : B) {
    // Warp groups are forked by the executor's run loop. The legacy engine
    // skips them at the top level of both the function body and agent
    // bodies (interpretBlock), and rejects them only inside loop bodies
    // (evalOp) — compileFor therefore routes them to compileOp, which
    // emits the Unsupported diagnostic.
    if (Op.getKind() == OpKind::WarpGroup)
      continue;
    if (Op.getKind() == OpKind::Return && IsFuncTopLevel)
      continue;
    compileOp(&Op, RP);
  }
  Inst H;
  H.Op = BcOp::Halt;
  RP.Code.push_back(H);
}

void Compiler::compileFor(ForOp *Loop, RegionProgram &RP) {
  LoopInfo L;
  L.LbSlot = VN->lookup(Loop->getLowerBound());
  L.UbSlot = VN->lookup(Loop->getUpperBound());
  L.StepSlot = VN->lookup(Loop->getStep());
  L.IvSlot = VN->lookup(Loop->getInductionVar());
  for (unsigned I = 0, E = Loop->getNumIterArgs(); I != E; ++I) {
    L.InitSlots.push_back(VN->lookup(Loop->getInitArg(I)));
    L.IterSlots.push_back(VN->lookup(Loop->getIterArg(I)));
  }
  for (unsigned I = 0, E = Loop->getNumIterArgs(); I != E; ++I)
    L.ResultSlots.push_back(VN->lookup(Loop->getResult(I)));
  for (Operation &Op : Loop->getBody())
    if (Op.getKind() == OpKind::Yield)
      for (unsigned I = 0, E = Op.getNumOperands(); I != E; ++I)
        L.YieldSlots.push_back(VN->lookup(Op.getOperand(I)));

  // Software-pipelined tile loop (Triton baseline)?
  if (P.SwPipelineDepth > 0)
    for (Operation &Op : Loop->getBody())
      if (Op.getKind() == OpKind::TmaLoad)
        L.Pipelined = true;

  int32_t LoopId = static_cast<int32_t>(P.Loops.size());
  P.Loops.push_back(std::move(L));

  Inst Begin;
  Begin.Op = BcOp::LoopBegin;
  Begin.Aux = LoopId;
  RP.Code.push_back(Begin);
  int32_t BodyPc = static_cast<int32_t>(RP.Code.size());

  for (Operation &Op : Loop->getBody()) {
    if (Op.getKind() == OpKind::Yield)
      continue; // Folded into LoopEnd.
    compileOp(&Op, RP);
  }

  Inst End;
  End.Op = BcOp::LoopEnd;
  End.Aux = LoopId;
  RP.Code.push_back(End);
  P.Loops[LoopId].BodyPc = BodyPc;
  P.Loops[LoopId].ExitPc = static_cast<int32_t>(RP.Code.size());
}

void Compiler::compileOp(Operation *Op, RegionProgram &RP) {
  switch (Op->getKind()) {
  //===--- Structure ------------------------------------------------------===//
  case OpKind::For:
    compileFor(static_cast<ForOp *>(Op), RP);
    return;
  case OpKind::Return: {
    RP.Code.push_back(makeInst(BcOp::Nop, nullptr));
    return;
  }
  case OpKind::WarpGroup: {
    Inst I = makeInst(BcOp::Unsupported, nullptr);
    I.MsgId = addMsg("nested warp_group is not executable");
    RP.Code.push_back(I);
    return;
  }

  //===--- Scalars --------------------------------------------------------===//
  case OpKind::ConstantInt: {
    Inst I = makeInst(BcOp::ConstInt, Op);
    I.Imm0 = Op->getIntAttr("value");
    RP.Code.push_back(I);
    return;
  }
  case OpKind::ConstantFloat: {
    Inst I = makeInst(BcOp::ConstFloat, Op);
    I.FImm = Op->getFloatAttr("value");
    RP.Code.push_back(I);
    return;
  }
  case OpKind::ProgramId:
  case OpKind::NumPrograms: {
    Inst I = makeInst(Op->getKind() == OpKind::ProgramId ? BcOp::ProgramId
                                                         : BcOp::NumPrograms,
                      Op);
    I.Imm0 = Op->getIntAttr("axis");
    RP.Code.push_back(I);
    return;
  }
  case OpKind::AddI:
  case OpKind::SubI:
  case OpKind::MulI:
  case OpKind::DivSI:
  case OpKind::RemSI:
  case OpKind::MinSI:
  case OpKind::MaxSI:
  case OpKind::CmpSlt: {
    Inst I = makeInst(BcOp::IntBin, Op);
    I.Imm0 = static_cast<int64_t>(Op->getKind());
    I.Cost = exec::tensorOpCycles(Config, Op);
    // The elementwise path supports only a subset; precompute the exact
    // legacy diagnostic for the rest (emitted only if a tensor reaches it).
    switch (Op->getKind()) {
    case OpKind::AddI:
    case OpKind::SubI:
    case OpKind::MulI:
    case OpKind::CmpSlt:
      break;
    default:
      I.MsgId =
          addMsg("unsupported tensor integer op: " + Op->getOneLineSummary());
      break;
    }
    RP.Code.push_back(I);
    return;
  }

  //===--- Tensor construction & math -------------------------------------===//
  case OpKind::ConstantTensor: {
    Inst I = makeInst(BcOp::ConstTensor, Op);
    I.Cost = exec::tensorOpCycles(Config, Op);
    I.ResultTy = resultTensorType(Op);
    I.FImm = Op->getFloatAttr("value");
    RP.Code.push_back(I);
    return;
  }
  case OpKind::MakeRange: {
    Inst I = makeInst(BcOp::MakeRange, Op);
    I.Cost = exec::tensorOpCycles(Config, Op);
    I.ResultTy = resultTensorType(Op);
    I.Imm0 = Op->getIntAttr("start");
    RP.Code.push_back(I);
    return;
  }
  case OpKind::Splat: {
    Inst I = makeInst(BcOp::Splat, Op);
    I.Cost = exec::tensorOpCycles(Config, Op);
    I.ResultTy = resultTensorType(Op);
    RP.Code.push_back(I);
    return;
  }
  case OpKind::ExpandDims:
  case OpKind::Broadcast: {
    Inst I = makeInst(BcOp::ExpandBroadcast, Op);
    I.Cost = exec::tensorOpCycles(Config, Op);
    auto *OutTy = resultTensorType(Op);
    I.ResultTy = OutTy;
    // Pre-resolve the output-dim -> input-dim mapping and the source dim
    // sizes (the static shapes equal the runtime payload shapes).
    const auto &InShape =
        cast<TensorType>(Op->getOperand(0)->getType())->getShape();
    const auto &OutShape = OutTy->getShape();
    std::vector<int64_t> DimMap(OutShape.size(), -1);
    if (Op->getKind() == OpKind::ExpandDims) {
      int64_t Axis = Op->getIntAttr("axis");
      int64_t Src = 0;
      for (size_t D = 0; D < OutShape.size(); ++D)
        DimMap[D] = (static_cast<int64_t>(D) == Axis) ? -1 : Src++;
    } else {
      for (size_t D = 0; D < OutShape.size(); ++D)
        DimMap[D] = static_cast<int64_t>(D);
    }
    std::vector<int64_t> Packed; // [DimMap..., SrcDims...]
    Packed.reserve(OutShape.size() * 2);
    for (int64_t V : DimMap)
      Packed.push_back(V);
    for (size_t D = 0; D < OutShape.size(); ++D)
      Packed.push_back(DimMap[D] < 0 ? 0 : InShape[DimMap[D]]);
    I.Aux = addIntVec(std::move(Packed));
    RP.Code.push_back(I);
    return;
  }
  case OpKind::Transpose: {
    Inst I = makeInst(BcOp::Transpose2D, Op);
    I.Cost = exec::tensorOpCycles(Config, Op);
    I.ResultTy = resultTensorType(Op);
    RP.Code.push_back(I);
    return;
  }
  case OpKind::AddF:
  case OpKind::SubF:
  case OpKind::MulF:
  case OpKind::DivF:
  case OpKind::MaxF: {
    Inst I = makeInst(BcOp::FloatBin, Op);
    I.Imm0 = static_cast<int64_t>(Op->getKind());
    I.Cost = exec::tensorOpCycles(Config, Op);
    RP.Code.push_back(I);
    return;
  }
  case OpKind::Exp2F: {
    Inst I = makeInst(BcOp::Exp2, Op);
    I.Cost = exec::tensorOpCycles(Config, Op);
    RP.Code.push_back(I);
    return;
  }
  case OpKind::Select: {
    Inst I = makeInst(BcOp::Select, Op);
    I.Cost = exec::tensorOpCycles(Config, Op);
    I.ResultTy = resultTensorType(Op);
    RP.Code.push_back(I);
    return;
  }
  case OpKind::Reduce: {
    Inst I = makeInst(BcOp::Reduce, Op);
    I.Cost = exec::tensorOpCycles(Config, Op);
    I.ResultTy = resultTensorType(Op);
    I.Imm0 = Op->getIntAttr("axis");
    I.Imm1 = Op->getStringAttr("kind") == "max";
    assert(cast<TensorType>(Op->getOperand(0)->getType())->getRank() == 2 &&
           "reduce implemented for 2-D tensors");
    RP.Code.push_back(I);
    return;
  }
  case OpKind::Cast: {
    Inst I = makeInst(BcOp::Cast, Op);
    I.Cost = exec::tensorOpCycles(Config, Op);
    I.ElemTy = resultTensorType(Op)->getElementType();
    RP.Code.push_back(I);
    return;
  }
  case OpKind::AddPtr: {
    Inst I = makeInst(BcOp::AddPtr, Op);
    I.Cost = exec::tensorOpCycles(Config, Op);
    RP.Code.push_back(I);
    return;
  }

  //===--- Tile-dialect memory & compute ----------------------------------===//
  case OpKind::TmaLoad: {
    Inst I = makeInst(BcOp::TmaLoad, Op);
    auto *Ty = resultTensorType(Op);
    I.ResultTy = Ty;
    I.Imm0 = Ty->getNumBytes();
    if (P.SwPipelineDepth > 0) {
      I.Imm2 = static_cast<int64_t>(ActionKind::CopyPipelined);
      I.Imm1 = P.SwPipelineDepth;
      I.FImm = static_cast<double>(Ty->getNumBytes()) /
               Config.CpAsyncIssueBytesPerCycle;
    } else {
      I.Imm2 = static_cast<int64_t>(ActionKind::GLoadSync);
      I.FImm = Config.TmaIssueCycles;
    }
    RP.Code.push_back(I);
    return;
  }
  case OpKind::TmaStore: {
    Inst I = makeInst(BcOp::TmaStore, Op);
    auto *Ty = cast<TensorType>(
        Op->getOperand(Op->getNumOperands() - 1)->getType());
    I.Imm0 = Ty->getNumBytes();
    I.FImm = static_cast<double>(Ty->getNumElements()) / Config.CudaLanes;
    I.ElemTy = Ty->getElementType();
    RP.Code.push_back(I);
    return;
  }
  case OpKind::Store: {
    Inst I = makeInst(BcOp::Store, Op);
    auto *Ty = cast<TensorType>(Op->getOperand(1)->getType());
    I.Imm0 = Ty->getNumBytes();
    I.FImm = static_cast<double>(Ty->getNumElements()) / Config.CudaLanes;
    I.ElemTy = Ty->getElementType();
    RP.Code.push_back(I);
    return;
  }
  case OpKind::Load: {
    Inst I = makeInst(BcOp::Unsupported, nullptr);
    I.MsgId = addMsg("tt.load interpretation not implemented");
    RP.Code.push_back(I);
    return;
  }
  case OpKind::AtomicAdd: {
    Inst I = makeInst(BcOp::AtomicAdd, Op);
    auto *Ty = cast<TensorType>(Op->getOperand(1)->getType());
    // Atomic RMW moves read+write bytes at degraded efficiency; the legacy
    // engine evaluates the identical double expression at execution time.
    I.Imm0 = static_cast<int64_t>(2.0 * Ty->getNumBytes() /
                                  Config.AtomicBwEfficiency);
    I.FImm = static_cast<double>(Ty->getNumElements()) / Config.CudaLanes +
             Config.AtomicAddLatencyCycles;
    I.ElemTy = Ty->getElementType();
    RP.Code.push_back(I);
    return;
  }
  case OpKind::LoadScalar: {
    Inst I = makeInst(BcOp::LoadScalar, Op);
    I.Imm0 = 4; // One i32 element.
    I.FImm = Config.SyncLoadLatencyCycles;
    RP.Code.push_back(I);
    return;
  }
  case OpKind::Dot: {
    Inst I = makeInst(BcOp::Dot, Op);
    I.FImm = exec::wgmmaCyclesBase(Config, Op);
    I.Imm0 = Op->getIntAttrOr("transB", 0);
    I.Imm1 = P.SwPipelineDepth > 0 ? 1 : 0;
    RP.Code.push_back(I);
    return;
  }

  //===--- Lowered dialect -------------------------------------------------===//
  case OpKind::SmemAlloc: {
    Inst I = makeInst(BcOp::SmemAlloc, Op);
    I.Imm0 = Op->getIntAttrOr("channel", -1);
    I.Imm1 = Op->getIntAttr("slot_bytes");
    I.Imm2 = Op->getIntAttr("bytes");
    I.Imm3 = Op->getIntAttrOr("num_slots", 1);
    int64_t Writers = Op->getIntAttrOr("writers_per_slot", 1);
    int64_t Readers = Op->getIntAttrOr("readers_per_slot", 1);
    I.Aux = static_cast<int32_t>((Writers << 16) | Readers);
    RP.Code.push_back(I);
    return;
  }
  case OpKind::MBarrierAlloc: {
    Inst I = makeInst(BcOp::MBarrierAlloc, Op);
    I.Imm0 = Op->getIntAttrOr("expected_arrivals", 1);
    I.Imm1 = Op->getIntAttrOr("channel", -1);
    I.Imm2 = Op->hasAttr("kind") && Op->getStringAttr("kind") == "full";
    I.Imm3 = Op->getIntAttr("num");
    RP.Code.push_back(I);
    return;
  }
  case OpKind::MBarrierExpectTx: {
    Inst I = makeInst(BcOp::MBarrierExpectTx, Op);
    I.Imm0 = Op->getIntAttr("bytes");
    RP.Code.push_back(I);
    return;
  }
  case OpKind::MBarrierArrive: {
    RP.Code.push_back(makeInst(BcOp::MBarrierArrive, Op));
    return;
  }
  case OpKind::MBarrierWait: {
    // Two halves: the issue (action emission) runs once; the blocking half
    // is re-executed on every resume until the phase condition holds, which
    // is what lets the executor suspend an agent by just saving its pc.
    RP.Code.push_back(makeInst(BcOp::MBarrierWait, Op));
    RP.Code.push_back(makeInst(BcOp::MBarrierWaitBlock, Op));
    return;
  }
  case OpKind::TmaLoadAsync: {
    Inst I = makeInst(BcOp::TmaLoadAsync, Op);
    I.Imm0 = Op->getIntAttr("num_offsets");
    I.Imm1 = Op->getIntAttr("bytes");
    I.Imm3 = Op->getIntAttr("slot_offset");
    I.Imm2 = fieldIndexOf(I.Imm3);
    I.Aux = addIntVec(
        std::get<std::vector<int64_t>>(Op->getAttrs().at("shape")));
    RP.Code.push_back(I);
    return;
  }
  case OpKind::SmemRead: {
    Inst I = makeInst(BcOp::SmemRead, Op);
    I.ResultTy = resultTensorType(Op);
    I.Imm3 = Op->getIntAttr("slot_offset");
    I.Imm2 = fieldIndexOf(I.Imm3);
    RP.Code.push_back(I);
    return;
  }
  case OpKind::WgmmaIssue: {
    Inst I = makeInst(BcOp::WgmmaIssue, Op);
    I.FImm = exec::wgmmaCyclesBase(Config, Op);
    I.Imm0 = Op->getIntAttrOr("transB", 0);
    RP.Code.push_back(I);
    return;
  }
  case OpKind::WgmmaWait: {
    Inst I = makeInst(BcOp::WgmmaWait, Op);
    I.Imm0 = Op->getIntAttr("pendings");
    RP.Code.push_back(I);
    return;
  }
  case OpKind::FenceAsyncShared: {
    RP.Code.push_back(makeInst(BcOp::Fence, Op));
    return;
  }

  case OpKind::Yield:
    assert(false && "yield handled by compileFor");
    return;

  default: {
    Inst I = makeInst(BcOp::Unsupported, nullptr);
    I.MsgId =
        addMsg("unsupported op in interpreter: " + Op->getOneLineSummary());
    RP.Code.push_back(I);
    return;
  }
  }
}

} // namespace

std::shared_ptr<const CompiledProgram>
tawa::sim::bc::compileModule(Module &M, const GpuConfig &Config, bool Fuse) {
  auto P = std::make_shared<CompiledProgram>();
  Compiler C(M, Config, *P);
  C.run();
  if (Fuse && P->CompileError.empty())
    fuseProgram(*P);
  return P;
}

//===----------------------------------------------------------------------===//
// Binary serialization
//===----------------------------------------------------------------------===//
//
// Layout: [magic u32]["version" u32][payload][fnv1a64 of payload]. The
// payload is strictly little-endian-of-the-host (cache files are
// host-local build artifacts, not interchange), every variable-length
// count is bounds-checked against the remaining bytes on load, and the
// trailing checksum turns truncation and bit corruption into a clean null
// return — the caller recompiles.

namespace {

constexpr uint32_t SerialMagic = 0x54415742; // "TAWB"

class ByteWriter {
public:
  void raw(const void *P, size_t N) {
    if (N) // An empty vector's data() may be null; append requires valid.
      Buf.append(static_cast<const char *>(P), N);
  }
  void u8(uint8_t V) { raw(&V, sizeof(V)); }
  void u32(uint32_t V) { raw(&V, sizeof(V)); }
  void i32(int32_t V) { raw(&V, sizeof(V)); }
  void i64(int64_t V) { raw(&V, sizeof(V)); }
  void f64(double V) { raw(&V, sizeof(V)); }
  void str(const std::string &S) {
    i64(static_cast<int64_t>(S.size()));
    raw(S.data(), S.size());
  }
  void vecI32(const std::vector<int32_t> &V) {
    i64(static_cast<int64_t>(V.size()));
    raw(V.data(), V.size() * sizeof(int32_t));
  }
  void vecI64(const std::vector<int64_t> &V) {
    i64(static_cast<int64_t>(V.size()));
    raw(V.data(), V.size() * sizeof(int64_t));
  }

  std::string take() { return std::move(Buf); }
  const std::string &buffer() const { return Buf; }

private:
  std::string Buf;
};

/// Failure-latching reader: after any out-of-bounds read every subsequent
/// accessor returns zero values, and ok() is false — the loader checks once
/// at the end instead of threading error returns through every field.
class ByteReader {
public:
  ByteReader(const std::string &Buf, size_t Begin, size_t End)
      : Buf(Buf), Pos(Begin), End(End) {}

  bool raw(void *P, size_t N) {
    if (Fail || N > End - Pos) {
      Fail = true;
      std::memset(P, 0, N);
      return false;
    }
    std::memcpy(P, Buf.data() + Pos, N);
    Pos += N;
    return true;
  }
  uint8_t u8() { return readPod<uint8_t>(); }
  uint32_t u32() { return readPod<uint32_t>(); }
  int32_t i32() { return readPod<int32_t>(); }
  int64_t i64() { return readPod<int64_t>(); }
  double f64() { return readPod<double>(); }
  std::string str() {
    int64_t N = i64();
    if (!checkCount(N, 1))
      return {};
    std::string S(static_cast<size_t>(N), '\0');
    raw(S.data(), static_cast<size_t>(N));
    return S;
  }
  std::vector<int32_t> vecI32() { return readVec<int32_t>(); }
  std::vector<int64_t> vecI64() { return readVec<int64_t>(); }

  /// Validates a parsed element count against the bytes actually left, so a
  /// corrupt count cannot drive a multi-gigabyte allocation.
  bool checkCount(int64_t N, size_t ElemBytes) {
    if (Fail || N < 0 ||
        static_cast<uint64_t>(N) > (End - Pos) / std::max<size_t>(ElemBytes, 1))
      Fail = true;
    return !Fail;
  }

  bool ok() const { return !Fail; }
  bool atEnd() const { return !Fail && Pos == End; }

private:
  template <typename T> T readPod() {
    T V;
    raw(&V, sizeof(T));
    return V;
  }
  template <typename T> std::vector<T> readVec() {
    int64_t N = i64();
    if (!checkCount(N, sizeof(T)))
      return {};
    std::vector<T> V(static_cast<size_t>(N));
    raw(V.data(), static_cast<size_t>(N) * sizeof(T));
    return V;
  }

  const std::string &Buf;
  size_t Pos, End;
  bool Fail = false;
};

/// The machine-config fields baked into precomputed costs, written and read
/// in one fixed order (also the configDigest input).
void writeConfig(ByteWriter &W, const GpuConfig &C) {
  W.i64(C.NumSms);
  W.f64(C.ClockGhz);
  W.f64(C.Fp16TflopsPeak);
  W.f64(C.Fp8TflopsPeak);
  W.f64(C.HbmTBps);
  W.i64(C.SmemBytesPerSm);
  W.i64(C.RegsPerSm);
  W.i64(C.MaxRegsPerThread);
  W.f64(C.KernelLaunchMicros);
  W.f64(C.CtaStartCycles);
  W.f64(C.TmaLatencyCycles);
  W.f64(C.TmaBwEfficiency);
  W.f64(C.CpAsyncLatencyCycles);
  W.f64(C.CpAsyncBwEfficiency);
  W.f64(C.CpAsyncIssueBytesPerCycle);
  W.f64(C.WgmmaEfficiency);
  W.f64(C.WgmmaIssueCycles);
  W.f64(C.BarrierOpCycles);
  W.f64(C.NamedBarrierSyncCycles);
  W.f64(C.TmaIssueCycles);
  W.f64(C.SyncLoadLatencyCycles);
  W.f64(C.AtomicAddLatencyCycles);
  W.f64(C.AtomicBwEfficiency);
  W.f64(C.CudaLanes);
  W.f64(C.SfuLanes);
  W.i64(C.BaseRegsPerThread);
  W.f64(C.PipelineRegFactor);
  W.f64(C.SpillPenalty);
}

void readConfig(ByteReader &R, GpuConfig &C) {
  C.NumSms = static_cast<int>(R.i64());
  C.ClockGhz = R.f64();
  C.Fp16TflopsPeak = R.f64();
  C.Fp8TflopsPeak = R.f64();
  C.HbmTBps = R.f64();
  C.SmemBytesPerSm = R.i64();
  C.RegsPerSm = R.i64();
  C.MaxRegsPerThread = R.i64();
  C.KernelLaunchMicros = R.f64();
  C.CtaStartCycles = R.f64();
  C.TmaLatencyCycles = R.f64();
  C.TmaBwEfficiency = R.f64();
  C.CpAsyncLatencyCycles = R.f64();
  C.CpAsyncBwEfficiency = R.f64();
  C.CpAsyncIssueBytesPerCycle = R.f64();
  C.WgmmaEfficiency = R.f64();
  C.WgmmaIssueCycles = R.f64();
  C.BarrierOpCycles = R.f64();
  C.NamedBarrierSyncCycles = R.f64();
  C.TmaIssueCycles = R.f64();
  C.SyncLoadLatencyCycles = R.f64();
  C.AtomicAddLatencyCycles = R.f64();
  C.AtomicBwEfficiency = R.f64();
  C.CudaLanes = R.f64();
  C.SfuLanes = R.f64();
  C.BaseRegsPerThread = R.i64();
  C.PipelineRegFactor = R.f64();
  C.SpillPenalty = R.f64();
}

/// Pointer-identity tables for the two kinds of type reference an Inst can
/// carry. Serialized structurally (element kind + shape) and re-interned
/// into a private IrContext on load.
struct TypeTables {
  std::vector<TensorType *> Tensors;
  std::vector<Type *> Scalars;

  int32_t tensorIdx(TensorType *Ty) {
    if (!Ty)
      return 0;
    for (size_t I = 0; I < Tensors.size(); ++I)
      if (Tensors[I] == Ty)
        return static_cast<int32_t>(I + 1);
    Tensors.push_back(Ty);
    return static_cast<int32_t>(Tensors.size());
  }
  int32_t scalarIdx(Type *Ty) {
    if (!Ty)
      return 0;
    for (size_t I = 0; I < Scalars.size(); ++I)
      if (Scalars[I] == Ty)
        return static_cast<int32_t>(I + 1);
    Scalars.push_back(Ty);
    return static_cast<int32_t>(Scalars.size());
  }
};

void writeInst(ByteWriter &W, const Inst &I, TypeTables &Tys) {
  W.u8(static_cast<uint8_t>(I.Op));
  W.u8(I.NumOps);
  W.i32(I.Result);
  W.i32(I.OpBegin);
  W.i32(I.Aux);
  W.i32(I.MsgId);
  W.i64(I.Imm0);
  W.i64(I.Imm1);
  W.i64(I.Imm2);
  W.i64(I.Imm3);
  W.f64(I.FImm);
  W.f64(I.Cost);
  W.i32(Tys.tensorIdx(I.ResultTy));
  W.i32(Tys.scalarIdx(I.ElemTy));
  W.i32(Tys.tensorIdx(I.ResultTy2));
}

void writeRegion(ByteWriter &W, const RegionProgram &RP, TypeTables &Tys) {
  W.i64(static_cast<int64_t>(RP.Code.size()));
  for (const Inst &I : RP.Code)
    writeInst(W, I, Tys);
}

void writeLoop(ByteWriter &W, const LoopInfo &L) {
  W.i32(L.LbSlot);
  W.i32(L.UbSlot);
  W.i32(L.StepSlot);
  W.i32(L.IvSlot);
  W.vecI32(L.InitSlots);
  W.vecI32(L.IterSlots);
  W.vecI32(L.YieldSlots);
  W.vecI32(L.ResultSlots);
  W.u8(L.Pipelined ? 1 : 0);
  W.i32(L.BodyPc);
  W.i32(L.ExitPc);
}

void readLoop(ByteReader &R, LoopInfo &L) {
  L.LbSlot = R.i32();
  L.UbSlot = R.i32();
  L.StepSlot = R.i32();
  L.IvSlot = R.i32();
  L.InitSlots = R.vecI32();
  L.IterSlots = R.vecI32();
  L.YieldSlots = R.vecI32();
  L.ResultSlots = R.vecI32();
  L.Pipelined = R.u8() != 0;
  L.BodyPc = R.i32();
  L.ExitPc = R.i32();
}

} // namespace

uint64_t tawa::sim::bc::configDigest(const GpuConfig &Config) {
  ByteWriter W;
  writeConfig(W, Config);
  return fnv1a64(W.buffer().data(), W.buffer().size());
}

std::string tawa::sim::bc::serializeProgram(const CompiledProgram &P) {
  assert(P.CompileError.empty() && "refusing to serialize a failed compile");

  // Collect the type tables first so they can be written before the
  // instruction streams that index into them.
  TypeTables Tys;
  auto CollectRegion = [&](const RegionProgram &RP) {
    for (const Inst &I : RP.Code) {
      Tys.tensorIdx(I.ResultTy);
      Tys.scalarIdx(I.ElemTy);
      Tys.tensorIdx(I.ResultTy2);
    }
  };
  CollectRegion(P.Preamble);
  for (const RegionProgram &RP : P.Agents)
    CollectRegion(RP);

  ByteWriter W;
  W.u32(SerialMagic);
  W.u32(SerialFormatVersion);
  writeConfig(W, P.Config);
  W.u8(P.Fused ? 1 : 0);
  W.i64(P.Fusion.InstsBefore);
  W.i64(P.Fusion.InstsAfter);
  W.i64(P.Fusion.NumIntBinImm);
  W.i64(P.Fusion.NumWaitFused);
  W.i64(P.Fusion.NumWaitRead);
  W.i64(P.Fusion.NumTmaLoadAsyncOff);
  W.i64(P.Fusion.NumLoopEndFast);
  W.i64(P.Fusion.NumConstIntBin);
  W.i64(P.Fusion.NumIntBin2);
  W.i64(P.Fusion.NumFloatBin2);
  W.i64(P.Fusion.NumWgmmaIssueWait);
  W.i64(P.Fusion.NumTmaLoadAsyncTx);
  W.i64(P.Fusion.NumIntBinImm2);
  W.i64(P.Fusion.NumConstIntBin2);
  W.i64(P.Fusion.NumWaitRead2);
  W.i64(P.SwPipelineDepth);
  W.i32(P.NumSlots);
  W.vecI32(P.ArgSlots);
  W.vecI32(P.OperandSlots);
  W.vecI64(P.SlotOffsets);

  W.i64(static_cast<int64_t>(P.IntVecs.size()));
  for (const std::vector<int64_t> &V : P.IntVecs)
    W.vecI64(V);
  W.i64(static_cast<int64_t>(P.Messages.size()));
  for (const std::string &S : P.Messages)
    W.str(S);
  W.i64(static_cast<int64_t>(P.Loops.size()));
  for (const LoopInfo &L : P.Loops)
    writeLoop(W, L);

  W.i64(static_cast<int64_t>(Tys.Scalars.size()));
  for (Type *Ty : Tys.Scalars)
    W.u8(static_cast<uint8_t>(Ty->getKind()));
  W.i64(static_cast<int64_t>(Tys.Tensors.size()));
  for (TensorType *Ty : Tys.Tensors) {
    W.u8(static_cast<uint8_t>(Ty->getElementType()->getKind()));
    W.vecI64(Ty->getShape());
  }

  W.i64(static_cast<int64_t>(P.AgentInfos.size()));
  for (const AgentInfo &A : P.AgentInfos) {
    W.i64(A.Replicas);
    W.i64(A.Replica);
    W.str(A.Role);
  }
  writeRegion(W, P.Preamble, Tys);
  W.i64(static_cast<int64_t>(P.Agents.size()));
  for (const RegionProgram &RP : P.Agents)
    writeRegion(W, RP, Tys);

  uint64_t Sum = fnv1a64(W.buffer().data(), W.buffer().size());
  W.raw(&Sum, sizeof(Sum));
  return W.take();
}

std::shared_ptr<const CompiledProgram>
tawa::sim::bc::deserializeProgram(const std::string &Bytes) {
  if (Bytes.size() < sizeof(uint32_t) * 2 + sizeof(uint64_t))
    return nullptr;
  size_t PayloadEnd = Bytes.size() - sizeof(uint64_t);
  uint64_t Stored;
  std::memcpy(&Stored, Bytes.data() + PayloadEnd, sizeof(Stored));
  if (fnv1a64(Bytes.data(), PayloadEnd) != Stored)
    return nullptr;

  ByteReader R(Bytes, 0, PayloadEnd);
  if (R.u32() != SerialMagic || R.u32() != SerialFormatVersion)
    return nullptr;

  auto P = std::make_shared<CompiledProgram>();
  P->TypeCtx = std::make_shared<IrContext>();
  readConfig(R, P->Config);
  P->Fused = R.u8() != 0;
  P->Fusion.InstsBefore = R.i64();
  P->Fusion.InstsAfter = R.i64();
  P->Fusion.NumIntBinImm = R.i64();
  P->Fusion.NumWaitFused = R.i64();
  P->Fusion.NumWaitRead = R.i64();
  P->Fusion.NumTmaLoadAsyncOff = R.i64();
  P->Fusion.NumLoopEndFast = R.i64();
  P->Fusion.NumConstIntBin = R.i64();
  P->Fusion.NumIntBin2 = R.i64();
  P->Fusion.NumFloatBin2 = R.i64();
  P->Fusion.NumWgmmaIssueWait = R.i64();
  P->Fusion.NumTmaLoadAsyncTx = R.i64();
  P->Fusion.NumIntBinImm2 = R.i64();
  P->Fusion.NumConstIntBin2 = R.i64();
  P->Fusion.NumWaitRead2 = R.i64();
  P->SwPipelineDepth = R.i64();
  P->NumSlots = R.i32();
  P->ArgSlots = R.vecI32();
  P->OperandSlots = R.vecI32();
  P->SlotOffsets = R.vecI64();

  int64_t NumIntVecs = R.i64();
  if (!R.checkCount(NumIntVecs, sizeof(int64_t)))
    return nullptr;
  P->IntVecs.resize(static_cast<size_t>(NumIntVecs));
  for (std::vector<int64_t> &V : P->IntVecs)
    V = R.vecI64();
  int64_t NumMessages = R.i64();
  if (!R.checkCount(NumMessages, sizeof(int64_t)))
    return nullptr;
  P->Messages.resize(static_cast<size_t>(NumMessages));
  for (std::string &S : P->Messages)
    S = R.str();
  int64_t NumLoops = R.i64();
  if (!R.checkCount(NumLoops, sizeof(int32_t)))
    return nullptr;
  P->Loops.resize(static_cast<size_t>(NumLoops));
  for (LoopInfo &L : P->Loops)
    readLoop(R, L);

  auto ValidScalarKind = [](uint8_t K) {
    return K < static_cast<uint8_t>(TypeKind::Tensor);
  };
  std::vector<Type *> Scalars;
  int64_t NumScalars = R.i64();
  if (!R.checkCount(NumScalars, sizeof(uint8_t)))
    return nullptr;
  for (int64_t I = 0; I < NumScalars; ++I) {
    uint8_t K = R.u8();
    if (!R.ok() || !ValidScalarKind(K))
      return nullptr;
    Scalars.push_back(P->TypeCtx->getScalar(static_cast<TypeKind>(K)));
  }
  std::vector<TensorType *> Tensors;
  int64_t NumTensors = R.i64();
  if (!R.checkCount(NumTensors, sizeof(uint8_t)))
    return nullptr;
  for (int64_t I = 0; I < NumTensors; ++I) {
    uint8_t K = R.u8();
    std::vector<int64_t> Shape = R.vecI64();
    if (!R.ok() || !ValidScalarKind(K))
      return nullptr;
    Tensors.push_back(P->TypeCtx->getTensorType(
        std::move(Shape), P->TypeCtx->getScalar(static_cast<TypeKind>(K))));
  }

  int64_t NumAgentInfos = R.i64();
  if (!R.checkCount(NumAgentInfos, sizeof(int64_t)))
    return nullptr;
  P->AgentInfos.resize(static_cast<size_t>(NumAgentInfos));
  for (AgentInfo &A : P->AgentInfos) {
    A.Replicas = R.i64();
    A.Replica = R.i64();
    A.Role = R.str();
  }

  auto ReadRegion = [&](RegionProgram &RP) {
    int64_t N = R.i64();
    if (!R.checkCount(N, 1))
      return false;
    RP.Code.resize(static_cast<size_t>(N));
    for (Inst &I : RP.Code) {
      // Opcodes index the executor's dispatch table directly; an
      // out-of-range byte must fail the load, not reach execution.
      uint8_t OpByte = R.u8();
      if (OpByte >= static_cast<uint8_t>(NumBcOps))
        return false;
      I.Op = static_cast<BcOp>(OpByte);
      I.NumOps = R.u8();
      I.Result = R.i32();
      I.OpBegin = R.i32();
      I.Aux = R.i32();
      I.MsgId = R.i32();
      I.Imm0 = R.i64();
      I.Imm1 = R.i64();
      I.Imm2 = R.i64();
      I.Imm3 = R.i64();
      I.FImm = R.f64();
      I.Cost = R.f64();
      int32_t TensorIdx = R.i32();
      int32_t ScalarIdx = R.i32();
      int32_t TensorIdx2 = R.i32();
      if (TensorIdx < 0 ||
          TensorIdx > static_cast<int32_t>(Tensors.size()) ||
          ScalarIdx < 0 ||
          ScalarIdx > static_cast<int32_t>(Scalars.size()) ||
          TensorIdx2 < 0 ||
          TensorIdx2 > static_cast<int32_t>(Tensors.size()))
        return false;
      I.ResultTy = TensorIdx ? Tensors[TensorIdx - 1] : nullptr;
      I.ElemTy = ScalarIdx ? Scalars[ScalarIdx - 1] : nullptr;
      I.ResultTy2 = TensorIdx2 ? Tensors[TensorIdx2 - 1] : nullptr;
    }
    return true;
  };
  if (!ReadRegion(P->Preamble))
    return nullptr;
  int64_t NumAgents = R.i64();
  if (!R.checkCount(NumAgents, 1))
    return nullptr;
  P->Agents.resize(static_cast<size_t>(NumAgents));
  for (RegionProgram &RP : P->Agents)
    if (!ReadRegion(RP))
      return nullptr;

  // The whole payload must parse and be fully consumed (trailing garbage is
  // as suspect as truncation).
  if (!R.atEnd())
    return nullptr;
  return P;
}
