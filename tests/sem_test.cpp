//===- sem_test.cpp - aref operational semantics (Fig. 4) tests ---------------//
//
// Transition checks of sem::SlotMonitor, the slot machine both engines
// run: the Fig. 4 handshake, tuple slots (several writers), cooperative
// readers, the outcome of every illegal transition, and property-style
// sweeps: every valid producer/consumer pipeline over a D-slot ring runs
// without a violation, and a producer that overruns the ring is flagged.
// Then the happens-before tracker.
//
//===----------------------------------------------------------------------===//

#include "sem/ArefSemantics.h"
#include "sem/HappensBefore.h"

#include <gtest/gtest.h>

#include <vector>

using namespace tawa::sem;

namespace {

using State = SlotMonitor::State;

TEST(SlotMonitor, Fig4Handshake) {
  SlotMonitor M;
  EXPECT_EQ(M.S, State::Empty);
  EXPECT_EQ(M.letter(), 'E');
  EXPECT_EQ(M.write(/*Writers=*/1, /*Channel=*/7, /*Slot=*/0), ""); // Put.
  EXPECT_EQ(M.S, State::Full);
  EXPECT_EQ(M.letter(), 'F');
  EXPECT_EQ(M.read(7, 0), ""); // Get.
  EXPECT_EQ(M.S, State::Borrowed);
  EXPECT_EQ(M.letter(), 'B');
  EXPECT_EQ(M.release(/*Readers=*/1, 7, 0), ""); // Consumed.
  EXPECT_EQ(M.S, State::Empty);
  EXPECT_EQ(M.Writes, 0);
  EXPECT_EQ(M.Releases, 0);
}

TEST(SlotMonitor, TupleSlotFillsAtWriters) {
  SlotMonitor M;
  EXPECT_EQ(M.write(2, 3, 1), "");
  EXPECT_EQ(M.S, State::Filling);
  EXPECT_EQ(M.letter(), 'W');
  // A read before the last deposit is premature and changes nothing.
  EXPECT_EQ(M.read(3, 1),
            "channel 3 slot 1: read while filling (premature get)");
  EXPECT_EQ(M.S, State::Filling);
  EXPECT_EQ(M.write(2, 3, 1), "");
  EXPECT_EQ(M.S, State::Full);
  EXPECT_EQ(M.read(3, 1), "");
  EXPECT_EQ(M.release(1, 3, 1), "");
  EXPECT_EQ(M.S, State::Empty);
  // The write count reset with the release: the next fill needs two again.
  EXPECT_EQ(M.write(2, 3, 1), "");
  EXPECT_EQ(M.S, State::Filling);
}

TEST(SlotMonitor, CooperativeReadersReleaseAtReaders) {
  SlotMonitor M;
  EXPECT_EQ(M.write(1, 0, 2), "");
  EXPECT_EQ(M.read(0, 2), "");
  EXPECT_EQ(M.read(0, 2), "");
  EXPECT_EQ(M.release(/*Readers=*/2, 0, 2), "");
  // One of two readers has released: the slot is still borrowed.
  EXPECT_EQ(M.S, State::Borrowed);
  EXPECT_EQ(M.Releases, 1);
  EXPECT_EQ(M.write(1, 0, 2),
            "channel 0 slot 2: TMA write while borrowed (overwrite before "
            "consumed)");
  // The overwrite left the slot Full, so this release consumes a tile
  // nobody read.
  EXPECT_EQ(M.release(2, 0, 2),
            "channel 0 slot 2: released while full (consumed without get)");
  EXPECT_EQ(M.S, State::Empty);
  EXPECT_EQ(M.Writes, 0);
  EXPECT_EQ(M.Releases, 0);
  // A second round needs both releases again.
  EXPECT_EQ(M.write(1, 0, 2), "");
  EXPECT_EQ(M.read(0, 2), "");
  EXPECT_EQ(M.read(0, 2), "");
  EXPECT_EQ(M.release(2, 0, 2), "");
  EXPECT_EQ(M.S, State::Borrowed);
  EXPECT_EQ(M.release(2, 0, 2), "");
  EXPECT_EQ(M.S, State::Empty);
}

TEST(SlotMonitor, IllegalWriteStillCounts) {
  SlotMonitor M;
  ASSERT_EQ(M.write(1, 5, 0), "");
  EXPECT_EQ(M.write(1, 5, 0),
            "channel 5 slot 0: TMA write while full (overwrite before "
            "consumed)");
  EXPECT_EQ(M.S, State::Full);
  EXPECT_EQ(M.Writes, 2);
  // Over a borrowed tuple slot, too.
  SlotMonitor T;
  ASSERT_EQ(T.write(3, 5, 1), "");
  ASSERT_EQ(T.write(3, 5, 1), "");
  ASSERT_EQ(T.write(3, 5, 1), "");
  ASSERT_EQ(T.read(5, 1), "");
  EXPECT_NE(T.write(3, 5, 1), "");
  EXPECT_EQ(T.S, State::Full);
  EXPECT_EQ(T.Writes, 4);
}

TEST(SlotMonitor, PrematureReadLeavesTheSlotAlone) {
  SlotMonitor M;
  EXPECT_EQ(M.read(1, 4),
            "channel 1 slot 4: read while empty (premature get)");
  EXPECT_EQ(M.S, State::Empty);
  EXPECT_EQ(M.Writes, 0);
  EXPECT_EQ(M.Releases, 0);
}

TEST(SlotMonitor, ReleaseChecksThatTheSlotWasRead) {
  SlotMonitor Empty;
  EXPECT_EQ(Empty.release(1, 2, 0),
            "channel 2 slot 0: released while empty (consumed without get)");
  EXPECT_EQ(Empty.S, State::Empty);
  SlotMonitor Filling;
  ASSERT_EQ(Filling.write(2, 2, 0), "");
  EXPECT_EQ(Filling.release(1, 2, 0),
            "channel 2 slot 0: released while filling (consumed without "
            "get)");
  // The flagged release still empties the slot and resets its counts.
  EXPECT_EQ(Filling.S, State::Empty);
  EXPECT_EQ(Filling.Writes, 0);
  // From Full (published, never read) the release is flagged too.
  SlotMonitor Full;
  ASSERT_EQ(Full.write(1, 2, 0), "");
  EXPECT_EQ(Full.release(1, 2, 0),
            "channel 2 slot 0: released while full (consumed without get)");
  EXPECT_EQ(Full.S, State::Empty);
}

TEST(SlotMonitor, RingSlotsAreIndependent) {
  std::vector<SlotMonitor> Ring(3);
  EXPECT_EQ(Ring[0].write(1, 0, 0), "");
  EXPECT_EQ(Ring[1].write(1, 0, 1), "");
  EXPECT_EQ(Ring[0].S, State::Full);
  EXPECT_EQ(Ring[1].S, State::Full);
  EXPECT_EQ(Ring[2].S, State::Empty);
  EXPECT_EQ(Ring[0].read(0, 0), "");
  EXPECT_EQ(Ring[0].S, State::Borrowed);
  EXPECT_EQ(Ring[1].S, State::Full);
  EXPECT_EQ(Ring[2].read(0, 2),
            "channel 0 slot 2: read while empty (premature get)");
  EXPECT_EQ(Ring[0].S, State::Borrowed);
}

/// Property: for any ring depth D, any lag 0 <= Lag < D between the
/// producer and the consumer, and any tuple width and cooperative group
/// size, N pipelined iterations run without a violation and every slot
/// ends Empty.
class SlotPipelineProperty
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(SlotPipelineProperty, ValidPipelinesNeverViolate) {
  auto [D, Lag, N] = GetParam();
  if (Lag >= D)
    GTEST_SKIP() << "lag must be < depth";
  for (int Writers : {1, 2, 3})
    for (int Readers : {1, 2}) {
      SCOPED_TRACE(testing::Message() << "writers " << Writers << " readers "
                                      << Readers);
      std::vector<SlotMonitor> Ring(D);
      // The producer runs Lag iterations ahead: iteration K deposits
      // Writers tiles into slot K % D; the consumer, at K - Lag, has each
      // of its Readers warp groups read the slot and then release it.
      for (int K = 0; K < N + Lag; ++K) {
        if (K < N)
          for (int W = 0; W < Writers; ++W)
            ASSERT_EQ(Ring[K % D].write(Writers, 0, K % D), "")
                << "put " << K;
        int C = K - Lag;
        if (C < 0 || C >= N)
          continue;
        for (int R = 0; R < Readers; ++R)
          ASSERT_EQ(Ring[C % D].read(0, C % D), "") << "get " << C;
        for (int R = 0; R < Readers; ++R)
          ASSERT_EQ(Ring[C % D].release(Readers, 0, C % D), "")
              << "consumed " << C;
      }
      for (const SlotMonitor &M : Ring)
        EXPECT_EQ(M.S, State::Empty);
    }
}

INSTANTIATE_TEST_SUITE_P(
    DepthLagSweep, SlotPipelineProperty,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 8),
                       ::testing::Values(0, 1, 2, 3),
                       ::testing::Values(1, 7, 32)));

/// Property: a producer that runs D slots ahead of a consumer that has not
/// released slot 0 overwrites it, and the write is flagged: the bounded
/// ring's guarantee rests on the empty barrier, which the monitor checks.
class SlotOverrunProperty : public ::testing::TestWithParam<int> {};

TEST_P(SlotOverrunProperty, ProducerOverrunIsFlagged) {
  int D = GetParam();
  std::vector<SlotMonitor> Ring(D);
  for (int K = 0; K < D; ++K)
    ASSERT_EQ(Ring[K].write(1, 0, K), "");
  EXPECT_EQ(Ring[0].write(1, 0, 0),
            "channel 0 slot 0: TMA write while full (overwrite before "
            "consumed)");
}

INSTANTIATE_TEST_SUITE_P(Depths, SlotOverrunProperty,
                         ::testing::Values(1, 2, 3, 4, 6, 8));

//===----------------------------------------------------------------------===//
// Happens-before
//===----------------------------------------------------------------------===//

TEST(HappensBefore, ValidHandshakeIsOrdered) {
  HappensBeforeTracker HB(2);
  // Producer (0) writes then publishes; consumer (1) acquires, reads,
  // releases; producer reuses.
  EXPECT_EQ(HB.recordWrite(0, /*Channel=*/7, /*Slot=*/0), "");
  HB.recordPut(0, 7, 0);
  HB.recordGet(1, 7, 0);
  EXPECT_EQ(HB.recordRead(1, 7, 0), "");
  HB.recordConsumed(1, 7, 0);
  HB.recordAcquireEmpty(0, 7, 0);
  EXPECT_EQ(HB.recordWrite(0, 7, 0), "");
}

TEST(HappensBefore, ReadBeforeAnyWriteIsFlagged) {
  HappensBeforeTracker HB(2);
  EXPECT_NE(HB.recordRead(1, 7, 0), "");
}

TEST(HappensBefore, ReadWithoutAcquireIsFlagged) {
  HappensBeforeTracker HB(2);
  EXPECT_EQ(HB.recordWrite(0, 7, 0), "");
  HB.recordPut(0, 7, 0);
  // Consumer never performed get (no acquire) — unordered read.
  EXPECT_NE(HB.recordRead(1, 7, 0), "");
}

TEST(HappensBefore, WriteOverBorrowedIsFlagged) {
  HappensBeforeTracker HB(2);
  EXPECT_EQ(HB.recordWrite(0, 7, 0), "");
  HB.recordPut(0, 7, 0);
  HB.recordGet(1, 7, 0);
  EXPECT_EQ(HB.recordRead(1, 7, 0), "");
  // Producer overwrites before consumed: write-after-read race.
  EXPECT_NE(HB.recordWrite(0, 7, 0), "");
}

TEST(HappensBefore, MultiReaderReleasesAllOrdered) {
  // Cooperative consumers: both read, both release; the producer acquires
  // the joined release clock and may then write.
  HappensBeforeTracker HB(3);
  EXPECT_EQ(HB.recordWrite(0, 7, 0), "");
  HB.recordPut(0, 7, 0);
  HB.recordGet(1, 7, 0);
  HB.recordGet(2, 7, 0);
  EXPECT_EQ(HB.recordRead(1, 7, 0), "");
  EXPECT_EQ(HB.recordRead(2, 7, 0), "");
  HB.recordConsumed(1, 7, 0);
  HB.recordConsumed(2, 7, 0);
  HB.recordAcquireEmpty(0, 7, 0);
  EXPECT_EQ(HB.recordWrite(0, 7, 0), "");
}

TEST(HappensBefore, ChannelsAreIndependent) {
  HappensBeforeTracker HB(2);
  EXPECT_EQ(HB.recordWrite(0, 1, 0), "");
  HB.recordPut(0, 1, 0);
  // A read on a different channel is still unordered/unwritten.
  EXPECT_NE(HB.recordRead(1, 2, 0), "");
}

} // namespace
