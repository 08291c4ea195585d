//===- Ir.h - Core IR data structures ---------------------------*- C++ -*-===//
//
// A compact MLIR-like SSA IR: Operations with operands/results/attributes and
// nested single-block Regions, organized into Blocks with arguments, inside
// Functions inside a Module. Use-def chains are maintained eagerly so passes
// can RAUW / erase safely.
//
//===----------------------------------------------------------------------===//

#ifndef TAWA_IR_IR_H
#define TAWA_IR_IR_H

#include "ir/Ops.h"
#include "ir/Type.h"
#include "support/Casting.h"

#include <cassert>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

namespace tawa {

class Block;
class Operation;
class Region;
class FuncOp;

//===----------------------------------------------------------------------===//
// Attribute
//===----------------------------------------------------------------------===//

/// A named constant hung off an operation (pipeline depths, axis indices,
/// partition ids, semantic tags, ...).
using Attribute =
    std::variant<int64_t, double, std::string, std::vector<int64_t>>;

//===----------------------------------------------------------------------===//
// Value
//===----------------------------------------------------------------------===//

/// One (operation, operand index) user of a Value.
struct Use {
  Operation *Owner;
  unsigned OperandIndex;

  bool operator==(const Use &O) const {
    return Owner == O.Owner && OperandIndex == O.OperandIndex;
  }
};

/// An SSA value: either an operation result or a block argument.
class Value {
public:
  enum class Kind : uint8_t { OpResult, BlockArgument };

  Kind getValueKind() const { return VKind; }
  Type *getType() const { return Ty; }

  /// All current users. Do not mutate the IR while iterating; copy first.
  const std::vector<Use> &getUses() const { return Uses; }
  bool hasUses() const { return !Uses.empty(); }
  size_t getNumUses() const { return Uses.size(); }

  /// Rewrites every use of this value to use \p Replacement instead.
  void replaceAllUsesWith(Value *Replacement);

  virtual ~Value() = default;

protected:
  Value(Kind VKind, Type *Ty) : VKind(VKind), Ty(Ty) {}

private:
  friend class Operation;
  void addUse(Operation *Op, unsigned Idx) { Uses.push_back({Op, Idx}); }
  void removeUse(Operation *Op, unsigned Idx);

  Kind VKind;
  Type *Ty;
  std::vector<Use> Uses;
};

/// A result produced by an Operation.
class OpResult : public Value {
public:
  Operation *getOwner() const { return Owner; }

  static bool classof(const Value *V) {
    return V->getValueKind() == Kind::OpResult;
  }

private:
  friend class Operation;
  OpResult(Type *Ty, Operation *Owner)
      : Value(Kind::OpResult, Ty), Owner(Owner) {}

  Operation *Owner;
};

/// An argument of a Block (loop induction variables, iter_args, function
/// parameters).
class BlockArgument : public Value {
public:
  Block *getOwner() const { return Owner; }
  unsigned getArgIndex() const { return Index; }

  static bool classof(const Value *V) {
    return V->getValueKind() == Kind::BlockArgument;
  }

private:
  friend class Block;
  BlockArgument(Type *Ty, Block *Owner, unsigned Index)
      : Value(Kind::BlockArgument, Ty), Owner(Owner), Index(Index) {}

  Block *Owner;
  unsigned Index;
};

//===----------------------------------------------------------------------===//
// Operation
//===----------------------------------------------------------------------===//

/// A single IR operation. Owns its results and regions; owned by its parent
/// Block through an intrusive doubly-linked list.
class Operation {
public:
  /// Creates a detached operation. Prefer OpBuilder::create.
  static Operation *create(IrContext &Ctx, OpKind Kind,
                           std::vector<Type *> ResultTypes,
                           std::vector<Value *> Operands,
                           unsigned NumRegions = 0);

  /// Destroys this (detached) operation, dropping operand uses and regions.
  /// Asserts that no result still has uses.
  void destroy();

  OpKind getKind() const { return Kind; }
  IrContext &getContext() const { return Ctx; }

  //===--- Operands ------------------------------------------------------===//
  unsigned getNumOperands() const { return Operands.size(); }
  Value *getOperand(unsigned I) const {
    assert(I < Operands.size() && "operand index out of range");
    return Operands[I];
  }
  void setOperand(unsigned I, Value *V);
  const std::vector<Value *> &getOperands() const { return Operands; }
  /// Appends an operand (used when building variadic ops incrementally).
  void addOperand(Value *V);

  //===--- Results -------------------------------------------------------===//
  unsigned getNumResults() const { return Results.size(); }
  OpResult *getResult(unsigned I = 0) const {
    assert(I < Results.size() && "result index out of range");
    return Results[I].get();
  }
  bool hasResultUses() const;

  //===--- Attributes ----------------------------------------------------===//
  bool hasAttr(const std::string &Name) const { return Attrs.count(Name); }
  void setAttr(const std::string &Name, Attribute A) {
    Attrs[Name] = std::move(A);
  }
  void removeAttr(const std::string &Name) { Attrs.erase(Name); }
  int64_t getIntAttr(const std::string &Name) const;
  double getFloatAttr(const std::string &Name) const;
  const std::string &getStringAttr(const std::string &Name) const;
  /// Returns the integer attribute or \p Default when absent.
  int64_t getIntAttrOr(const std::string &Name, int64_t Default) const;
  const std::map<std::string, Attribute> &getAttrs() const { return Attrs; }

  //===--- Regions -------------------------------------------------------===//
  unsigned getNumRegions() const { return Regions.size(); }
  Region &getRegion(unsigned I = 0) const {
    assert(I < Regions.size() && "region index out of range");
    return *Regions[I];
  }
  /// Appends an empty region (the textual parser discovers region counts
  /// while reading, after the op is created).
  Region &addRegion();

  //===--- Position ------------------------------------------------------===//
  Block *getParentBlock() const { return Parent; }
  /// The operation owning the region this op lives in (null at module level).
  Operation *getParentOp() const;
  /// The enclosing function, or null.
  Operation *getParentFuncOp() const;
  Operation *getNextNode() const { return Next; }

  /// Detaches from the parent block without destroying.
  void removeFromParent();
  /// Detaches and destroys. All result uses must be gone.
  void erase();
  /// Moves this operation immediately before \p Other.
  void moveBefore(Operation *Other);
  /// Moves this operation to the end of \p B (before the terminator if
  /// \p BeforeTerminator).
  void moveToEnd(Block *B);

  /// True if this op is an ancestor (region-wise) of \p Other.
  bool isAncestorOf(const Operation *Other) const;

  /// Walks this op and every nested op in pre-order.
  void walk(const std::function<void(Operation *)> &Fn);

  /// Renders just this operation (no regions) for diagnostics.
  std::string getOneLineSummary() const;

private:
  friend class Block;
  Operation(IrContext &Ctx, OpKind Kind) : Ctx(Ctx), Kind(Kind) {}
  ~Operation() = default;

  IrContext &Ctx;
  OpKind Kind;
  std::vector<Value *> Operands;
  std::vector<std::unique_ptr<OpResult>> Results;
  std::map<std::string, Attribute> Attrs;
  std::vector<std::unique_ptr<Region>> Regions;

  Block *Parent = nullptr;
  Operation *Prev = nullptr;
  Operation *Next = nullptr;
};

//===----------------------------------------------------------------------===//
// Block
//===----------------------------------------------------------------------===//

/// A straight-line list of operations with SSA block arguments. All regions
/// in this IR are single-block (structured control flow only).
class Block {
public:
  Block() = default;
  ~Block();
  Block(const Block &) = delete;
  Block &operator=(const Block &) = delete;

  //===--- Arguments -----------------------------------------------------===//
  BlockArgument *addArgument(Type *Ty);
  unsigned getNumArguments() const { return Arguments.size(); }
  BlockArgument *getArgument(unsigned I) const {
    assert(I < Arguments.size() && "block arg index out of range");
    return Arguments[I].get();
  }

  //===--- Operation list ------------------------------------------------===//
  Operation *front() const { return First; }
  Operation *back() const { return Last; }
  bool empty() const { return !First; }
  /// The terminator (asserts the block is non-empty and terminated).
  Operation *getTerminator() const;

  void push_back(Operation *Op);
  void insertBefore(Operation *Before, Operation *Op);

  Region *getParentRegion() const { return Parent; }
  /// The operation owning the enclosing region (null for module blocks).
  Operation *getParentOp() const;

  /// Iteration support: `for (Operation &Op : Blk)`.
  class iterator {
  public:
    explicit iterator(Operation *Op) : Op(Op) {}
    Operation &operator*() const { return *Op; }
    Operation *operator->() const { return Op; }
    iterator &operator++() {
      Op = Op->getNextNode();
      return *this;
    }
    bool operator!=(const iterator &O) const { return Op != O.Op; }
    bool operator==(const iterator &O) const { return Op == O.Op; }

  private:
    Operation *Op;
  };
  iterator begin() const { return iterator(First); }
  iterator end() const { return iterator(nullptr); }

  /// Collects the operations into a vector (safe to mutate the block while
  /// iterating the copy).
  std::vector<Operation *> getOps() const;

private:
  friend class Operation;
  friend class Region;

  std::vector<std::unique_ptr<BlockArgument>> Arguments;
  Operation *First = nullptr;
  Operation *Last = nullptr;
  Region *Parent = nullptr;
};

//===----------------------------------------------------------------------===//
// Region
//===----------------------------------------------------------------------===//

/// A region owned by an operation; holds exactly zero or one block in this
/// structured IR.
class Region {
public:
  explicit Region(Operation *Owner) : Owner(Owner) {}

  Operation *getParentOp() const { return Owner; }
  bool empty() const { return !TheBlock; }
  Block &emplaceBlock();
  Block &getBlock() const {
    assert(TheBlock && "region has no block");
    return *TheBlock;
  }

private:
  Operation *Owner;
  std::unique_ptr<Block> TheBlock;
};

//===----------------------------------------------------------------------===//
// Module
//===----------------------------------------------------------------------===//

/// Top-level container: a list of functions plus module-wide attributes
/// (e.g. "num-warps" as in Fig. 2c).
class Module {
public:
  explicit Module(IrContext &Ctx);
  ~Module();
  Module(const Module &) = delete;
  Module &operator=(const Module &) = delete;

  IrContext &getContext() const { return Ctx; }

  /// The module body block holding FuncOps.
  Block &getBody() const { return *Body; }

  /// Finds a function by name, or null.
  Operation *lookupFunc(const std::string &Name) const;

  void setAttr(const std::string &Name, Attribute A) {
    Attrs[Name] = std::move(A);
  }
  void removeAttr(const std::string &Name) { Attrs.erase(Name); }
  int64_t getIntAttrOr(const std::string &Name, int64_t Default) const;
  const std::map<std::string, Attribute> &getAttrs() const { return Attrs; }

  /// Renders the whole module in textual IR form.
  std::string print() const;

private:
  IrContext &Ctx;
  std::unique_ptr<Block> Body;
  std::map<std::string, Attribute> Attrs;
};

//===----------------------------------------------------------------------===//
// Op wrappers (LLVM-style classof on OpKind)
//===----------------------------------------------------------------------===//

/// CRTP base for typed views over Operation.
template <typename Derived, OpKind K> class OpWrapperBase {
public:
  static bool classof(const Operation *Op) { return Op->getKind() == K; }
};

/// `tt.func` — name attr "sym_name"; entry block args are parameters.
class FuncOp : public Operation,
               public OpWrapperBase<FuncOp, OpKind::Func> {
public:
  using OpWrapperBase::classof;
  const std::string &getName() const { return getStringAttr("sym_name"); }
  Block &getBody() const { return getRegion(0).getBlock(); }
};

/// `scf.for %iv = lb to ub step s iter_args(...)`.
class ForOp : public Operation, public OpWrapperBase<ForOp, OpKind::For> {
public:
  using OpWrapperBase::classof;
  Value *getLowerBound() const { return getOperand(0); }
  Value *getUpperBound() const { return getOperand(1); }
  Value *getStep() const { return getOperand(2); }
  unsigned getNumIterArgs() const { return getNumOperands() - 3; }
  Value *getInitArg(unsigned I) const { return getOperand(3 + I); }
  Block &getBody() const { return getRegion(0).getBlock(); }
  BlockArgument *getInductionVar() const { return getBody().getArgument(0); }
  BlockArgument *getIterArg(unsigned I) const {
    return getBody().getArgument(1 + I);
  }
  Operation *getYield() const { return getBody().getTerminator(); }
};

/// `tawa.warp_group {...} {partition = N}` — one warp-group role (§III-C2).
class WarpGroupOp : public Operation,
                    public OpWrapperBase<WarpGroupOp, OpKind::WarpGroup> {
public:
  using OpWrapperBase::classof;
  int64_t getPartitionId() const { return getIntAttr("partition"); }
  /// "producer" or "consumer".
  const std::string &getRole() const { return getStringAttr("role"); }
  Block &getBody() const { return getRegion(0).getBlock(); }
};

} // namespace tawa

#endif // TAWA_IR_IR_H
