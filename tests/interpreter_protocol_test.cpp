//===- interpreter_protocol_test.cpp - Online protocol monitoring -------------//
//
// Hand-builds *incorrect* lowered warp-group programs — the kinds of bugs
// §III-B says aref prevents by construction — and checks that each of the
// slot monitor's three checks (sem::SlotMonitor) catches its own bug by
// name: premature get (read before publication), overwrite before
// consumed, and consumed without get (a slot released before anything was
// published, or published and never read); a missing consumed deadlocks.
// Also checks that the correct hand-built program passes cleanly, so the
// monitors are not trivially noisy.
//
//===----------------------------------------------------------------------===//

#include "ir/Builder.h"
#include "ir/Verifier.h"
#include "sim/Interpreter.h"
#include "tests/oracle/TreeWalk.h"

#include <gtest/gtest.h>

using namespace tawa;
using namespace tawa::sim;

namespace {

/// Builds a module with one producer/consumer pair communicating one
/// 16x16xf16 tile per iteration over a D-slot ring, with hooks to inject
/// protocol mistakes.
struct ProtocolHarness {
  enum class Bug {
    None,
    ConsumerSkipsFullWait,  ///< Premature get: reads without waiting.
    ConsumerSkipsRelease,   ///< Never arrives on empty: producer starves.
    ProducerSkipsEmptyWait, ///< Overwrites a slot still in use.
    ConsumerSkipsGet,       ///< Releases slots it never waited for or read.
    ConsumerSkipsRead       ///< Waits for each slot, releases it unread.
  };

  IrContext Ctx;
  std::unique_ptr<Module> M;

  void build(int64_t Depth, int64_t Iters, Bug Inject) {
    M = std::make_unique<Module>(Ctx);
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

    // Producer warp group.
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
      if (Inject != Bug::ProducerSkipsEmptyWait) {
        Value *Parity = L.createRem(L.createAdd(Wrap, One), Two);
        L.createMBarrierWait(Empty, Slot, Parity);
      }
      L.createMBarrierExpectTx(Full, Slot, Bytes);
      Operation *Copy = L.createTmaLoadAsync(InDesc, {Slot, Slot}, Smem,
                                             Full, Slot, Bytes, 0);
      Copy->setAttr("shape", std::vector<int64_t>{16, 16});
      L.createYield({});
      P.setInsertionPointToEnd(&WG0->getBody());
    }

    // Consumer warp group.
    WarpGroupOp *WG1 = B.createWarpGroup(1, "consumer");
    {
      OpBuilder C(Ctx);
      C.setInsertionPointToEnd(&WG1->getBody());
      ForOp *Loop = C.createFor(Zero, N, One, {});
      OpBuilder L(Ctx);
      L.setInsertionPointToEnd(&Loop->getBody());
      Value *K = Loop->getInductionVar();
      Value *Slot = L.createRem(K, DepthC);
      Value *Wrap = L.createDiv(K, DepthC);
      if (Inject != Bug::ConsumerSkipsFullWait &&
          Inject != Bug::ConsumerSkipsGet) {
        Value *Parity = L.createRem(Wrap, Two);
        L.createMBarrierWait(Full, Slot, Parity);
      }
      if (Inject != Bug::ConsumerSkipsGet &&
          Inject != Bug::ConsumerSkipsRead) {
        Value *Tile = L.createSmemRead(Smem, Slot, TileTy, 0);
        L.createTmaStore(OutDesc, {Slot, Slot}, Tile);
      }
      if (Inject != Bug::ConsumerSkipsRelease)
        L.createMBarrierArrive(Empty, Slot);
      L.createYield({});
    }
    B.createReturn();
    ASSERT_EQ(verify(*M), "") << M->print();
  }

  RunOptions options(bool Functional = true) {
    RunOptions Opts;
    Opts.Functional = Functional;
    auto In = std::make_shared<TensorData>(std::vector<int64_t>{64, 64});
    auto Out = std::make_shared<TensorData>(std::vector<int64_t>{64, 64});
    In->fillRandom(3);
    Opts.Args = {RuntimeArg::tensor(In), RuntimeArg::tensor(Out)};
    return Opts;
  }

  /// Runs CTA (0,0) on the bytecode engine.
  std::string run(bool Functional = true) {
    GpuConfig Cfg;
    Interpreter Interp(*M, Cfg);
    CtaTrace T;
    return Interp.runCta(options(Functional), 0, 0, T);
  }

  /// Runs CTA (0,0) on the tree-walking oracle.
  std::string runOracle() {
    GpuConfig Cfg;
    CtaTrace T;
    return runCtaOracle(*M, Cfg, options(), 0, 0, T);
  }
};

TEST(ProtocolMonitors, CorrectHandBuiltProgramIsClean) {
  ProtocolHarness H;
  H.build(/*Depth=*/2, /*Iters=*/6, ProtocolHarness::Bug::None);
  EXPECT_EQ(H.run(), "");
}

TEST(ProtocolMonitors, SingleSlotRingIsCleanToo) {
  ProtocolHarness H;
  H.build(/*Depth=*/1, /*Iters=*/4, ProtocolHarness::Bug::None);
  EXPECT_EQ(H.run(), "");
}

TEST(ProtocolMonitors, PrematureGetIsCaught) {
  // The consumer reads without waiting on the full barrier: once it
  // overtakes the producer it reads a slot nothing was published into.
  // The happens-before tracker flags that read too; the slot monitor must
  // flag it by its own name.
  ProtocolHarness H;
  H.build(2, 6, ProtocolHarness::Bug::ConsumerSkipsFullWait);
  std::string Err = H.run();
  EXPECT_NE(Err.find("protocol violations:"), std::string::npos) << Err;
  EXPECT_NE(Err.find("read while empty (premature get)"), std::string::npos)
      << Err;
}

TEST(ProtocolMonitors, ReadOfADepositedSlotWithoutWaitingIsUnordered) {
  // With no more iterations than slots, the round-robin scheduler runs
  // the producer's deposits first, so every slot the consumer reads
  // without waiting is already Full: the slot monitor passes it. Only the
  // happens-before tracker sees that no get ordered the read after the
  // put. This is the one case that keeps the tracker in the executor.
  // The oracle's preemptive threads may instead let the consumer overtake
  // the producer, so only the bytecode engine is checked here.
  ProtocolHarness H;
  H.build(/*Depth=*/2, /*Iters=*/2,
          ProtocolHarness::Bug::ConsumerSkipsFullWait);
  for (bool Functional : {true, false}) {
    std::string Err = H.run(Functional);
    EXPECT_EQ(Err, "protocol violations:"
                   "\n  unordered read: agent 1 reads channel 0 slot 0 "
                   "without acquiring the producer's publication"
                   "\n  unordered read: agent 1 reads channel 0 slot 1 "
                   "without acquiring the producer's publication")
        << "functional " << Functional;
  }
}

TEST(ProtocolMonitors, MissingReleaseDeadlocks) {
  // The consumer never arrives on the empty barrier: once the ring fills,
  // the producer blocks forever and the consumer exhausts published slots.
  ProtocolHarness H;
  H.build(2, 6, ProtocolHarness::Bug::ConsumerSkipsRelease);
  std::string Err = H.run();
  EXPECT_NE(Err.find("deadlock"), std::string::npos) << Err;
}

TEST(ProtocolMonitors, OverwriteBeforeReleaseIsCaught) {
  // The producer skips the empty wait and reuses slots while the consumer
  // may still be borrowing them.
  ProtocolHarness H;
  H.build(2, 6, ProtocolHarness::Bug::ProducerSkipsEmptyWait);
  std::string Err = H.run();
  EXPECT_NE(Err.find("protocol violations:"), std::string::npos) << Err;
  EXPECT_NE(Err.find("TMA write while full (overwrite before consumed)"),
            std::string::npos)
      << Err;
}

TEST(ProtocolMonitors, ConsumedWithoutGetIsCaught) {
  // The consumer arrives on the empty barrier without waiting for or
  // reading the slot: it hands the producer credits for slots it drained
  // before anything was written. Nothing is read, so only the slot
  // monitor can see it.
  ProtocolHarness H;
  H.build(2, 6, ProtocolHarness::Bug::ConsumerSkipsGet);
  std::string Err = H.run();
  EXPECT_NE(Err.find("protocol violations:"), std::string::npos) << Err;
  EXPECT_NE(Err.find("released while empty (consumed without get)"),
            std::string::npos)
      << Err;
}

TEST(ProtocolMonitors, ReleaseOfAnUnreadSlotIsCaught) {
  // The consumer waits on the full barrier, so every slot it releases was
  // published, but it never reads one: it hands the producer back tiles
  // nothing consumed. Nothing is read, so the happens-before tracker sees
  // nothing; both engines' slot monitors must flag the release from Full.
  ProtocolHarness H;
  H.build(2, 6, ProtocolHarness::Bug::ConsumerSkipsRead);
  for (const std::string &Err : {H.run(), H.runOracle()}) {
    EXPECT_NE(Err.find("protocol violations:"), std::string::npos) << Err;
    EXPECT_NE(Err.find("released while full (consumed without get)"),
              std::string::npos)
        << Err;
  }
}

} // namespace
