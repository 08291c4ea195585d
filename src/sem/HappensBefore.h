//===- HappensBefore.h - Release/acquire ordering checker -------*- C++ -*-===//
//
// Validates the ordering claim of §III-B: every consumer read of an aref
// slot is ordered after the producer write that published it (put → get),
// and every producer reuse of the slot is ordered after the consumer's
// release (consumed → next put). The tracker builds a happens-before DAG
// over per-agent event sequences joined by the aref credits and answers
// reachability queries; tests use it to prove that compiled pipelines never
// exhibit a write-after-read or read-before-write on the staging buffers.
//
//===----------------------------------------------------------------------===//

#ifndef TAWA_SEM_HAPPENSBEFORE_H
#define TAWA_SEM_HAPPENSBEFORE_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace tawa {
namespace sem {

/// Kinds of events we order. Writes are the producer's buffer writes (TMA
/// deposits); reads are the consumer's WGMMA operand fetches.
enum class EventKind : uint8_t { Write, Read, Put, Get, Consumed };

/// One event in some agent's (warp group's) program order.
struct Event {
  EventKind Kind;
  int Agent;        ///< Warp-group id.
  int64_t Channel;  ///< Aref identity.
  int64_t Slot;     ///< Ring slot.
  uint64_t Seq;     ///< Global insertion id (for reporting).
};

/// Vector-clock based happens-before tracker. Agents advance their own clock
/// per event; put/get and consumed/put pairs merge clocks across agents
/// (release/acquire).
class HappensBeforeTracker {
public:
  explicit HappensBeforeTracker(int NumAgents);

  /// Records a producer write into (Channel, Slot). Returns an error string
  /// if the write races with an un-released consumer read (empty otherwise).
  std::string recordWrite(int Agent, int64_t Channel, int64_t Slot);

  /// Records a consumer read of (Channel, Slot). Returns an error string if
  /// the read is not ordered after the latest publishing write.
  std::string recordRead(int Agent, int64_t Channel, int64_t Slot);

  /// Release: producer publishes (put). Transfers the producer's clock into
  /// the channel slot.
  void recordPut(int Agent, int64_t Channel, int64_t Slot);

  /// Acquire: consumer observes the publication (get). Joins the slot clock
  /// into the consumer's clock.
  void recordGet(int Agent, int64_t Channel, int64_t Slot);

  /// Release from consumer side (consumed): transfers the consumer's clock
  /// into the slot's "free" clock, which the producer acquires at the next
  /// blocking put.
  void recordConsumed(int Agent, int64_t Channel, int64_t Slot);

  /// Acquire paired with the empty credit (producer about to reuse a slot).
  void recordAcquireEmpty(int Agent, int64_t Channel, int64_t Slot);

  uint64_t getNumEvents() const { return NextSeq; }

  //===--- Repeated loop periods (sim/LoopPeriod.h) ---------------------===//
  // Bit \p A of \p Live marks agent A as still running: a done agent
  // records nothing again, so its clock is never read.

  /// Appends the tracker's state up to a uniform shift of each agent's
  /// event count: every live clock entry and every stored slot clock entry
  /// relative to its column agent's own count, with a stored entry that
  /// every live agent's clock already covers marked saturated (it can no
  /// longer change a leq or a join), plus the slot keys and flags.
  void fingerprint(std::vector<int64_t> &Key, uint64_t Live) const;

  /// Appends each agent's own event count, then getNumEvents().
  void appendCounts(std::vector<int64_t> &Drift) const;

  /// Moves the tracker on by \p N repeats of the period between two
  /// appendCounts() snapshots \p Before and \p After: every live clock
  /// entry, every unsaturated stored entry and the event count move by N
  /// times their column's (or the count's) change.
  void advance(int64_t N, const int64_t *Before, const int64_t *After,
               uint64_t Live);

private:
  using Clock = std::vector<uint64_t>;

  /// True when clock A is <= clock B pointwise (A happened before or equals
  /// B's knowledge).
  static bool leq(const Clock &A, const Clock &B);
  static void join(Clock &Into, const Clock &From);
  void tick(int Agent) { ++Clocks[Agent][Agent]; }

  struct SlotMeta {
    Clock PublishClock;       ///< Producer clock at last put.
    Clock FreeClock;          ///< Consumer clock at last consumed.
    Clock LastReadClock;      ///< Consumer clock at last read.
    bool HasPublish = false;
    bool HasRead = false;
    bool ReadReleased = true; ///< Set false on read, true on consumed.
  };

  int NumAgents;
  std::vector<Clock> Clocks;
  std::map<std::pair<int64_t, int64_t>, SlotMeta> SlotMetas;
  uint64_t NextSeq = 0;
};

} // namespace sem
} // namespace tawa

#endif // TAWA_SEM_HAPPENSBEFORE_H
