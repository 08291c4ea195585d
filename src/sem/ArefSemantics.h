//===- ArefSemantics.h - Fig. 4 operational semantics -----------*- C++ -*-===//
//
// The asynchronous-reference abstract machine of §III-B, executable:
//
//   PUT:       requires E = 1; writes buf;       -> F = 1, E = 0
//   GET:       requires F = 1; reads buf;        -> F = 0, E = 0 (borrowed)
//   CONSUMED:  (from borrowed)                   -> F = 0, E = 1
//
// with initial state E = 1, F = 0. One ArefSlotState models one slot of the
// D-deep ring; ArefMachine models the whole ring plus the release/acquire
// happens-before chain the paper claims (producer writes → consumer reads →
// producer reuse). It is the executable reference sem_test checks and
// examples/aref_protocol.cpp drives. The simulator does not run it: both
// engines monitor lowered mbarrier traffic with exec::SlotMonitor
// (sim/ExecCommon.h), a four-state form of the same machine for tuple slots
// and cooperative readers, so protocol violations (double put, premature
// get, reuse before consumed) still surface as hard errors.
//
//===----------------------------------------------------------------------===//

#ifndef TAWA_SEM_AREFSEMANTICS_H
#define TAWA_SEM_AREFSEMANTICS_H

#include <cstdint>
#include <string>
#include <vector>

namespace tawa {
namespace sem {

/// The three abstract states a slot can be in. Exactly one of E/F holds a
/// credit except in the borrowed state, where neither does.
enum class SlotState : uint8_t {
  Empty,    ///< E = 1, F = 0: producer may put.
  Full,     ///< E = 0, F = 1: consumer may get.
  Borrowed, ///< E = 0, F = 0: value in use; consumed will release.
};

const char *getSlotStateName(SlotState S);

/// Outcome of attempting a transition.
enum class TransitionResult : uint8_t {
  Ok,            ///< Precondition held; state advanced.
  WouldBlock,    ///< Precondition does not hold yet (caller must wait).
  ProtocolError, ///< Transition illegal from this state even after waiting
                 ///< (e.g. consumed on an Empty slot).
};

/// One slot: the Fig. 4 triple <buf, F, E> with a generation counter used to
/// build happens-before edges.
class ArefSlotState {
public:
  SlotState getState() const { return State; }

  /// True when the corresponding abstract flag holds a credit.
  bool emptyCredit() const { return State == SlotState::Empty; }
  bool fullCredit() const { return State == SlotState::Full; }

  /// Producer publication (PUT rule). \p Epoch identifies the producer's
  /// logical time; recorded so readers can validate happens-before.
  TransitionResult put(uint64_t Epoch);

  /// Consumer acquisition (GET rule). On success \p PublishEpochOut receives
  /// the epoch of the put whose value is being read.
  TransitionResult get(uint64_t *PublishEpochOut = nullptr);

  /// Consumer release (CONSUMED rule). Legal only from Borrowed: calling it
  /// on a never-gotten slot is a protocol error the compiler must never emit.
  TransitionResult consumed();

  /// Number of completed put→get→consumed round trips.
  uint64_t getGeneration() const { return Generation; }

private:
  SlotState State = SlotState::Empty;
  uint64_t PublishEpoch = 0;
  uint64_t Generation = 0;
};

/// A protocol violation (or deadlock) diagnosis.
struct ProtocolViolation {
  std::string Message;
  int64_t Slot = -1;
};

/// The whole D-slot ring of §III-B/§III-C2 plus violation accounting: the
/// reference model for the unit and property tests. The simulator's online
/// checking is exec::SlotMonitor, not this class.
class ArefMachine {
public:
  explicit ArefMachine(int64_t Depth, std::string Name = "aref");

  int64_t getDepth() const { return Depth; }
  const std::string &getName() const { return Name; }

  /// Blocking-style transitions: Ok or WouldBlock advance/queue naturally; a
  /// ProtocolError is recorded in the violation list.
  TransitionResult put(int64_t Slot, uint64_t Epoch);
  TransitionResult get(int64_t Slot, uint64_t *PublishEpochOut = nullptr);
  TransitionResult consumed(int64_t Slot);

  SlotState getSlotState(int64_t Slot) const;
  uint64_t getGeneration(int64_t Slot) const;

  bool hasViolations() const { return !Violations.empty(); }
  const std::vector<ProtocolViolation> &getViolations() const {
    return Violations;
  }

private:
  ArefSlotState &slot(int64_t Slot);
  void recordViolation(int64_t Slot, const std::string &What);

  int64_t Depth;
  std::string Name;
  std::vector<ArefSlotState> Slots;
  std::vector<ProtocolViolation> Violations;
};

} // namespace sem
} // namespace tawa

#endif // TAWA_SEM_AREFSEMANTICS_H
