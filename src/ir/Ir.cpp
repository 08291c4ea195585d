//===- Ir.cpp - Core IR data structures ------------------------------------===//

#include "ir/Ir.h"

#include "support/Support.h"

#include <algorithm>

using namespace tawa;

//===----------------------------------------------------------------------===//
// Opcode metadata
//===----------------------------------------------------------------------===//

const char *tawa::getOpName(OpKind Kind) {
  switch (Kind) {
  case OpKind::Func:
    return "tt.func";
  case OpKind::Return:
    return "tt.return";
  case OpKind::For:
    return "scf.for";
  case OpKind::Yield:
    return "scf.yield";
  case OpKind::WarpGroup:
    return "tawa.warp_group";
  case OpKind::ConstantInt:
    return "arith.constant";
  case OpKind::ConstantFloat:
    return "arith.constant_f";
  case OpKind::ProgramId:
    return "tt.program_id";
  case OpKind::NumPrograms:
    return "tt.num_programs";
  case OpKind::AddI:
    return "arith.addi";
  case OpKind::SubI:
    return "arith.subi";
  case OpKind::MulI:
    return "arith.muli";
  case OpKind::DivSI:
    return "arith.divsi";
  case OpKind::RemSI:
    return "arith.remsi";
  case OpKind::MinSI:
    return "arith.minsi";
  case OpKind::MaxSI:
    return "arith.maxsi";
  case OpKind::CmpSlt:
    return "arith.cmpi_slt";
  case OpKind::ConstantTensor:
    return "arith.constant_tensor";
  case OpKind::MakeRange:
    return "tt.make_range";
  case OpKind::Splat:
    return "tt.splat";
  case OpKind::ExpandDims:
    return "tt.expand_dims";
  case OpKind::Broadcast:
    return "tt.broadcast";
  case OpKind::Transpose:
    return "tt.trans";
  case OpKind::AddF:
    return "arith.addf";
  case OpKind::SubF:
    return "arith.subf";
  case OpKind::MulF:
    return "arith.mulf";
  case OpKind::DivF:
    return "arith.divf";
  case OpKind::MaxF:
    return "arith.maxf";
  case OpKind::Exp2F:
    return "math.exp2";
  case OpKind::Select:
    return "arith.select";
  case OpKind::Reduce:
    return "tt.reduce";
  case OpKind::Cast:
    return "tt.fp_to_fp";
  case OpKind::AddPtr:
    return "tt.addptr";
  case OpKind::TmaLoad:
    return "tt.tma_load";
  case OpKind::TmaStore:
    return "tt.tma_store";
  case OpKind::Load:
    return "tt.load";
  case OpKind::Store:
    return "tt.store";
  case OpKind::Dot:
    return "tt.dot";
  case OpKind::CreateAref:
    return "tawa.create_aref";
  case OpKind::ArefPut:
    return "tawa.put";
  case OpKind::ArefGet:
    return "tawa.get";
  case OpKind::ArefConsumed:
    return "tawa.consumed";
  case OpKind::SmemAlloc:
    return "ttg.local_alloc";
  case OpKind::MBarrierAlloc:
    return "ttng.mbarrier_alloc";
  case OpKind::MBarrierArrive:
    return "ttng.mbarrier_arrive";
  case OpKind::MBarrierExpectTx:
    return "ttng.mbarrier_expect_tx";
  case OpKind::MBarrierWait:
    return "ttng.mbarrier_wait";
  case OpKind::TmaLoadAsync:
    return "ttng.async_tma_copy_global_to_local";
  case OpKind::SmemRead:
    return "ttg.local_load";
  case OpKind::WgmmaIssue:
    return "ttng.warp_group_dot";
  case OpKind::WgmmaWait:
    return "ttng.warp_group_dot_wait";
  case OpKind::FenceAsyncShared:
    return "ttng.fence_async_shared";
  case OpKind::AtomicAdd:
    return "tt.atomic_add";
  case OpKind::LoadScalar:
    return "tt.load_scalar";
  }
  return "<unknown>";
}

bool tawa::lookupOpKind(const std::string &Name, OpKind &Out) {
  for (uint16_t K = 0, E = static_cast<uint16_t>(OpKind::LoadScalar); K <= E;
       ++K) {
    if (Name == getOpName(static_cast<OpKind>(K))) {
      Out = static_cast<OpKind>(K);
      return true;
    }
  }
  return false;
}

bool tawa::hasSideEffects(OpKind Kind) {
  switch (Kind) {
  case OpKind::Store:
  case OpKind::TmaStore:
  case OpKind::AtomicAdd:
  case OpKind::Return:
  case OpKind::Yield:
  case OpKind::ArefPut:
  case OpKind::ArefConsumed:
  case OpKind::MBarrierArrive:
  case OpKind::MBarrierExpectTx:
  case OpKind::MBarrierWait:
  case OpKind::TmaLoadAsync:
  case OpKind::WgmmaWait:
  case OpKind::FenceAsyncShared:
    return true;
  default:
    return false;
  }
}

bool tawa::hasRegions(OpKind Kind) {
  return Kind == OpKind::Func || Kind == OpKind::For ||
         Kind == OpKind::WarpGroup;
}

bool tawa::isTerminator(OpKind Kind) {
  return Kind == OpKind::Return || Kind == OpKind::Yield;
}

//===----------------------------------------------------------------------===//
// Value
//===----------------------------------------------------------------------===//

void Value::removeUse(Operation *Op, unsigned Idx) {
  auto It = std::find(Uses.begin(), Uses.end(), Use{Op, Idx});
  assert(It != Uses.end() && "use not found");
  Uses.erase(It);
}

void Value::replaceAllUsesWith(Value *Replacement) {
  assert(Replacement != this && "RAUW with self");
  // setOperand mutates Uses; drain a copy.
  std::vector<Use> Snapshot = Uses;
  for (const Use &U : Snapshot)
    U.Owner->setOperand(U.OperandIndex, Replacement);
}

//===----------------------------------------------------------------------===//
// Operation
//===----------------------------------------------------------------------===//

Operation *Operation::create(IrContext &Ctx, OpKind Kind,
                             std::vector<Type *> ResultTypes,
                             std::vector<Value *> Operands,
                             unsigned NumRegions) {
  auto *Op = new Operation(Ctx, Kind);
  for (Type *Ty : ResultTypes)
    Op->Results.emplace_back(new OpResult(Ty, Op));
  for (Value *V : Operands)
    Op->addOperand(V);
  for (unsigned I = 0; I != NumRegions; ++I)
    Op->Regions.emplace_back(std::make_unique<Region>(Op));
  return Op;
}

Region &Operation::addRegion() {
  Regions.emplace_back(std::make_unique<Region>(this));
  return *Regions.back();
}

void Operation::destroy() {
  assert(!Parent && "destroying an attached operation");
  assert(!hasResultUses() && "destroying an operation with live uses");
  // Drop operand uses.
  for (unsigned I = 0, E = Operands.size(); I != E; ++I)
    if (Operands[I])
      Operands[I]->removeUse(this, I);
  Operands.clear();
  delete this;
}

void Operation::setOperand(unsigned I, Value *V) {
  assert(I < Operands.size() && "operand index out of range");
  if (Operands[I] == V)
    return;
  if (Operands[I])
    Operands[I]->removeUse(this, I);
  Operands[I] = V;
  if (V)
    V->addUse(this, I);
}

void Operation::addOperand(Value *V) {
  assert(V && "null operand");
  Operands.push_back(V);
  V->addUse(this, Operands.size() - 1);
}

bool Operation::hasResultUses() const {
  for (const auto &R : Results)
    if (R->hasUses())
      return true;
  return false;
}

int64_t Operation::getIntAttr(const std::string &Name) const {
  auto It = Attrs.find(Name);
  assert(It != Attrs.end() && "missing integer attribute");
  return std::get<int64_t>(It->second);
}

int64_t Operation::getIntAttrOr(const std::string &Name,
                                int64_t Default) const {
  auto It = Attrs.find(Name);
  if (It == Attrs.end())
    return Default;
  return std::get<int64_t>(It->second);
}

double Operation::getFloatAttr(const std::string &Name) const {
  auto It = Attrs.find(Name);
  assert(It != Attrs.end() && "missing float attribute");
  return std::get<double>(It->second);
}

const std::string &Operation::getStringAttr(const std::string &Name) const {
  auto It = Attrs.find(Name);
  assert(It != Attrs.end() && "missing string attribute");
  return std::get<std::string>(It->second);
}

Operation *Operation::getParentOp() const {
  if (!Parent || !Parent->getParentRegion())
    return nullptr;
  return Parent->getParentRegion()->getParentOp();
}

Operation *Operation::getParentFuncOp() const {
  for (Operation *Op = getParentOp(); Op; Op = Op->getParentOp())
    if (isa<FuncOp>(Op))
      return Op;
  return nullptr;
}

void Operation::removeFromParent() {
  assert(Parent && "operation not attached");
  if (Prev)
    Prev->Next = Next;
  else
    Parent->First = Next;
  if (Next)
    Next->Prev = Prev;
  else
    Parent->Last = Prev;
  Parent = nullptr;
  Prev = Next = nullptr;
}

void Operation::erase() {
  if (Parent)
    removeFromParent();
  destroy();
}

void Operation::moveBefore(Operation *Other) {
  assert(Other->Parent && "moveBefore target not attached");
  if (Parent)
    removeFromParent();
  Other->Parent->insertBefore(Other, this);
}

void Operation::moveToEnd(Block *B) {
  if (Parent)
    removeFromParent();
  B->push_back(this);
}

bool Operation::isAncestorOf(const Operation *Other) const {
  for (const Operation *Op = Other->getParentOp(); Op; Op = Op->getParentOp())
    if (Op == this)
      return true;
  return false;
}

void Operation::walk(const std::function<void(Operation *)> &Fn) {
  Fn(this);
  for (auto &R : Regions) {
    if (R->empty())
      continue;
    for (Operation *Op : R->getBlock().getOps())
      Op->walk(Fn);
  }
}

//===----------------------------------------------------------------------===//
// Block
//===----------------------------------------------------------------------===//

Block::~Block() {
  // Destroy ops back-to-front: a def is only destroyed after every use
  // (which must appear later in the block, or in a later op's region) has
  // already been destroyed and dropped its operand uses.
  while (Last) {
    Operation *Op = Last;
    Op->removeFromParent();
    Op->destroy();
  }
}

BlockArgument *Block::addArgument(Type *Ty) {
  Arguments.emplace_back(
      new BlockArgument(Ty, this, static_cast<unsigned>(Arguments.size())));
  return Arguments.back().get();
}

Operation *Block::getTerminator() const {
  assert(Last && "empty block has no terminator");
  assert(isTerminator(Last->getKind()) && "block is not terminated");
  return Last;
}

void Block::push_back(Operation *Op) {
  assert(!Op->Parent && "operation already attached");
  Op->Parent = this;
  Op->Prev = Last;
  Op->Next = nullptr;
  if (Last)
    Last->Next = Op;
  else
    First = Op;
  Last = Op;
}

void Block::insertBefore(Operation *Before, Operation *Op) {
  assert(Before->Parent == this && "insertion point not in this block");
  assert(!Op->Parent && "operation already attached");
  Op->Parent = this;
  Op->Next = Before;
  Op->Prev = Before->Prev;
  if (Before->Prev)
    Before->Prev->Next = Op;
  else
    First = Op;
  Before->Prev = Op;
}

Operation *Block::getParentOp() const {
  return Parent ? Parent->getParentOp() : nullptr;
}

std::vector<Operation *> Block::getOps() const {
  std::vector<Operation *> Ops;
  for (Operation *Op = First; Op; Op = Op->getNextNode())
    Ops.push_back(Op);
  return Ops;
}

//===----------------------------------------------------------------------===//
// Region
//===----------------------------------------------------------------------===//

Block &Region::emplaceBlock() {
  assert(!TheBlock && "region already has a block");
  TheBlock = std::make_unique<Block>();
  TheBlock->Parent = this;
  return *TheBlock;
}

//===----------------------------------------------------------------------===//
// Module
//===----------------------------------------------------------------------===//

Module::Module(IrContext &Ctx) : Ctx(Ctx), Body(std::make_unique<Block>()) {}
Module::~Module() = default;

Operation *Module::lookupFunc(const std::string &Name) const {
  for (Operation &Op : *Body) {
    auto *F = dyn_cast<FuncOp>(&Op);
    if (F && F->getName() == Name)
      return &Op;
  }
  return nullptr;
}

int64_t Module::getIntAttrOr(const std::string &Name, int64_t Default) const {
  auto It = Attrs.find(Name);
  if (It == Attrs.end())
    return Default;
  return std::get<int64_t>(It->second);
}
