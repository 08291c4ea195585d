//===- ArefSemantics.h - Fig. 4 slot machine --------------------*- C++ -*-===//
//
// The asynchronous-reference machine of §III-B, as the simulator runs it.
// Fig. 4 gives each slot of a D-deep aref ring a buffer and two credits,
// initially E = 1, F = 0:
//
//   PUT:       requires E = 1; writes buf;       -> F = 1, E = 0
//   GET:       requires F = 1; reads buf;        -> F = 0, E = 0 (borrowed)
//   CONSUMED:  (from borrowed)                   -> F = 0, E = 1
//
// Lowered code spreads each rule over several events: Writers TMA deposits
// fill a tuple slot, and each of a cooperative group of Readers warp groups
// reads it and arrives on its empty barrier. So SlotMonitor adds a fourth
// state, Filling (some but not all writers have deposited), and counts:
//
//   write()    TMA deposit (put)               -> Filling, Full at Writers
//   read()     staging read (get)              -> Borrowed
//   release()  empty-barrier arrive (consumed) -> Empty at Readers
//
// The machine monitors; it never blocks. Each transition returns the
// violation the run reports, or "" when it is legal. A write into a Full
// or Borrowed slot (overwrite before consumed) still counts and moves the
// slot on; a read of an Empty or Filling slot (premature get) leaves it
// alone; a release of any slot that is not Borrowed (consumed without get)
// is flagged, Full included: a consumer that waited on the full barrier
// but never read the slot has consumed nothing. The slot empties, and its
// counts reset, only once Readers releases have arrived. The check is per
// reader: read() marks the reading agent, and release() flags an agent
// without a mark, so of a cooperative group a reader that releases
// without reading is caught even after its partner has read.
//
// The bytecode executor (src/sim/Executor.cpp) keeps one SlotMonitor per
// staging slot and calls these transitions; the tree-walking oracle
// (tests/oracle/TreeWalk.cpp) spells them out again over the same state,
// as the independent reference the executor is diffed against.
//
//===----------------------------------------------------------------------===//

#ifndef TAWA_SEM_AREFSEMANTICS_H
#define TAWA_SEM_AREFSEMANTICS_H

#include "support/Support.h"

#include <algorithm>
#include <cstdint>
#include <string>

namespace tawa {
namespace sem {

/// One slot of an aref ring.
struct SlotMonitor {
  enum class State : uint8_t { Empty, Filling, Full, Borrowed };

  State S = State::Empty;
  int Writes = 0;   ///< Deposits since the slot last emptied.
  int Releases = 0; ///< Releases since the slot last emptied.
  /// Agents that read the slot since it last emptied, one bit per agent
  /// id (readerBit).
  uint64_t ReadBy = 0;

  /// Agent \p Agent's bit in ReadBy. Ids past 63 share the top bit, which
  /// can miss a violation but never reports a false one (a CTA has at most
  /// eight warp groups).
  static uint64_t readerBit(int Agent) {
    return uint64_t{1} << std::min(Agent, 63);
  }

  /// One TMA deposit into slot \p Slot of channel \p Channel, a slot that
  /// \p Writers deposits fill.
  std::string write(int Writers, int64_t Channel, int64_t Slot) {
    std::string Err;
    if (S == State::Full || S == State::Borrowed)
      Err = violation(Channel, Slot, "TMA write",
                      "overwrite before consumed");
    S = ++Writes >= Writers ? State::Full : State::Filling;
    return Err;
  }

  /// One staging read of the slot by agent \p Agent.
  std::string read(int Agent, int64_t Channel, int64_t Slot) {
    if (S == State::Empty || S == State::Filling)
      return violation(Channel, Slot, "read", "premature get");
    S = State::Borrowed;
    ReadBy |= readerBit(Agent);
    return "";
  }

  /// One empty-barrier arrive by agent \p Agent on a slot that \p Readers
  /// arrives release.
  std::string release(int Agent, int Readers, int64_t Channel,
                      int64_t Slot) {
    std::string Err;
    if (S != State::Borrowed || !(ReadBy & readerBit(Agent)))
      Err = violation(Channel, Slot, "released", "consumed without get");
    if (++Releases >= Readers) {
      S = State::Empty;
      Writes = 0;
      Releases = 0;
      ReadBy = 0;
    }
    return Err;
  }

  /// The state's name in violation text.
  const char *name() const {
    static const char *const Names[] = {"empty", "filling", "full",
                                        "borrowed"};
    return Names[static_cast<int>(S)];
  }

  /// The slot's letter in diagnostics: E(mpty), W(riting/filling),
  /// F(ull), B(orrowed).
  char letter() const { return "EWFB"[static_cast<int>(S)]; }

private:
  std::string violation(int64_t Channel, int64_t Slot, const char *Event,
                        const char *Why) const {
    return formatString("channel %lld slot %lld: %s while %s (%s)",
                        static_cast<long long>(Channel),
                        static_cast<long long>(Slot), Event, name(), Why);
  }
};

} // namespace sem
} // namespace tawa

#endif // TAWA_SEM_AREFSEMANTICS_H
