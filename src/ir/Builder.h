//===- Builder.h - IR construction helper -----------------------*- C++ -*-===//
//
// OpBuilder maintains an insertion point and provides typed `create*`
// helpers for every opcode, mirroring mlir::OpBuilder.
//
//===----------------------------------------------------------------------===//

#ifndef TAWA_IR_BUILDER_H
#define TAWA_IR_BUILDER_H

#include "ir/Ir.h"

namespace tawa {

class OpBuilder {
public:
  explicit OpBuilder(IrContext &Ctx) : Ctx(Ctx) {}

  IrContext &getContext() const { return Ctx; }

  //===--- Insertion point -----------------------------------------------===//

  /// Inserts at the end of \p B.
  void setInsertionPointToEnd(Block *B) {
    InsertBlock = B;
    InsertBefore = nullptr;
  }
  /// Inserts immediately before \p Op.
  void setInsertionPoint(Operation *Op) {
    InsertBlock = Op->getParentBlock();
    InsertBefore = Op;
  }
  /// Inserts immediately after \p Op.
  void setInsertionPointAfter(Operation *Op) {
    InsertBlock = Op->getParentBlock();
    InsertBefore = Op->getNextNode();
  }

  /// Creates an op at the insertion point.
  Operation *create(OpKind Kind, std::vector<Type *> ResultTypes,
                    std::vector<Value *> Operands, unsigned NumRegions = 0);

  //===--- Structural ops --------------------------------------------------//

  /// Creates `tt.func @Name(ArgTypes...)` with an empty entry block whose
  /// arguments are the parameters.
  FuncOp *createFunc(const std::string &Name, std::vector<Type *> ArgTypes);

  /// Creates `scf.for Lb..Ub step Step iter_args(Inits)`; the body block gets
  /// the induction variable plus one argument per init.
  ForOp *createFor(Value *Lb, Value *Ub, Value *Step,
                   std::vector<Value *> Inits);

  Operation *createYield(std::vector<Value *> Values);
  Operation *createReturn();

  /// Creates a `tawa.warp_group` region with the given partition id and role.
  WarpGroupOp *createWarpGroup(int64_t Partition, const std::string &Role);

  //===--- Scalars ---------------------------------------------------------//

  Value *createConstantInt(int64_t V, Type *Ty = nullptr);
  Value *createConstantFloat(double V, Type *Ty);
  Value *createProgramId(int64_t Axis);
  Value *createNumPrograms(int64_t Axis);
  Value *createBinaryI(OpKind Kind, Value *A, Value *B);
  Value *createAdd(Value *A, Value *B) {
    return createBinaryI(OpKind::AddI, A, B);
  }
  Value *createSub(Value *A, Value *B) {
    return createBinaryI(OpKind::SubI, A, B);
  }
  Value *createMul(Value *A, Value *B) {
    return createBinaryI(OpKind::MulI, A, B);
  }
  Value *createDiv(Value *A, Value *B) {
    return createBinaryI(OpKind::DivSI, A, B);
  }
  Value *createRem(Value *A, Value *B) {
    return createBinaryI(OpKind::RemSI, A, B);
  }
  Value *createMin(Value *A, Value *B) {
    return createBinaryI(OpKind::MinSI, A, B);
  }

  //===--- Tensors ---------------------------------------------------------//

  Value *createConstantTensor(double V, TensorType *Ty);
  Value *createMakeRange(int64_t Start, int64_t End);
  Value *createSplat(Value *Scalar, TensorType *Ty);
  Value *createExpandDims(Value *Tensor, int64_t Axis);
  Value *createBroadcast(Value *Tensor, TensorType *Ty);
  Value *createTranspose(Value *Tensor);
  Value *createBinaryF(OpKind Kind, Value *A, Value *B);
  /// Elementwise signed `<` producing i1 (or a tensor of i1).
  Value *createCmpSlt(Value *A, Value *B);
  Value *createExp2(Value *Tensor);
  Value *createSelect(Value *Cond, Value *A, Value *B);
  Value *createReduce(Value *Tensor, const std::string &Kind, int64_t Axis);
  Value *createCast(Value *Tensor, Type *ElementTy);
  Value *createAddPtr(Value *PtrTensor, Value *OffsetTensor);

  //===--- Memory & compute ------------------------------------------------//

  /// `tt.tma_load Desc[Offs...] : tensor<Shape x Elem>`.
  Value *createTmaLoad(Value *Desc, std::vector<Value *> Offsets,
                       TensorType *Ty);
  Operation *createTmaStore(Value *Desc, std::vector<Value *> Offsets,
                            Value *Tensor);
  Value *createLoad(Value *PtrTensor, TensorType *Ty);
  Operation *createStore(Value *PtrTensor, Value *Tensor);
  /// `tt.atomic_add(ptrs, values)`: deferred-deterministic global f32
  /// accumulation (split-K reduction epilogues). Negative linear indices
  /// mask lanes off, exactly like createStore.
  Operation *createAtomicAdd(Value *PtrTensor, Value *Tensor);
  /// `tt.load_scalar(desc, index)`: synchronous i32 read of one element of
  /// a runtime tensor argument (grouped/MoE group-offset tables).
  Value *createLoadScalar(Value *Desc, Value *Index);
  /// `tt.dot(A, B, Acc)`; set `transB` when B arrives K-major (Fig. 2b uses
  /// `b.T`).
  Value *createDot(Value *A, Value *B, Value *Acc, bool TransB = false);

  //===--- Tawa dialect ------------------------------------------------------//

  Value *createAref(Type *Payload, int64_t Depth);
  Operation *createArefPut(Value *Aref, Value *Slot,
                           std::vector<Value *> Payload);
  Operation *createArefGet(Value *Aref, Value *Slot);
  Operation *createArefConsumed(Value *Aref, Value *Slot);

  //===--- Lowered dialect ---------------------------------------------------//

  Value *createSmemAlloc(int64_t Bytes, const std::string &Name);
  Value *createMBarrierAlloc(int64_t Num, const std::string &Name);
  Operation *createMBarrierArrive(Value *MBar, Value *Idx);
  Operation *createMBarrierExpectTx(Value *MBar, Value *Idx, int64_t Bytes);
  Operation *createMBarrierWait(Value *MBar, Value *Idx, Value *Phase);
  Operation *createTmaLoadAsync(Value *Desc, std::vector<Value *> Offsets,
                                Value *Smem, Value *MBar, Value *Idx,
                                int64_t Bytes, int64_t SlotOffset);
  /// Reads one staged tensor out of ring slot \p Slot (offset within the
  /// slot given by the `slot_offset` attribute).
  Value *createSmemRead(Value *Smem, Value *Slot, TensorType *Ty,
                        int64_t SlotOffset);
  Value *createWgmmaIssue(Value *A, Value *B, Value *Acc, bool TransB = false);
  Operation *createWgmmaWait(int64_t Pendings);

private:
  IrContext &Ctx;
  Block *InsertBlock = nullptr;
  Operation *InsertBefore = nullptr;
};

} // namespace tawa

#endif // TAWA_IR_BUILDER_H
