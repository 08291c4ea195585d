//===- HappensBefore.cpp - Release/acquire ordering checker ------------------//

#include "sem/HappensBefore.h"

#include "support/Support.h"

#include <algorithm>

using namespace tawa;
using namespace tawa::sem;

HappensBeforeTracker::HappensBeforeTracker(int NumAgents)
    : NumAgents(NumAgents) {
  assert(NumAgents >= 1 && "need at least one agent");
  Clocks.assign(NumAgents, Clock(NumAgents, 0));
}

bool HappensBeforeTracker::leq(const Clock &A, const Clock &B) {
  for (size_t I = 0, E = A.size(); I != E; ++I)
    if (A[I] > B[I])
      return false;
  return true;
}

void HappensBeforeTracker::join(Clock &Into, const Clock &From) {
  if (From.empty())
    return; // Slot clock never set (e.g. acquiring an initially-empty slot).
  for (size_t I = 0, E = Into.size(); I != E; ++I)
    if (From[I] > Into[I])
      Into[I] = From[I];
}

std::string HappensBeforeTracker::recordWrite(int Agent, int64_t Channel,
                                              int64_t Slot) {
  tick(Agent);
  ++NextSeq;
  SlotMeta &Meta = SlotMetas[{Channel, Slot}];
  // A new write must be ordered after the previous read's release: the
  // writer's clock must dominate the last reader's clock (acquired through
  // the consumed -> put chain). Otherwise we have a write-after-read race.
  if (Meta.HasRead && !Meta.ReadReleased)
    return formatString("write-after-read race: agent %d overwrites channel "
                        "%lld slot %lld while a read is still borrowed",
                        Agent, static_cast<long long>(Channel),
                        static_cast<long long>(Slot));
  if (Meta.HasRead && !leq(Meta.LastReadClock, Clocks[Agent]))
    return formatString("unordered write: agent %d writes channel %lld slot "
                        "%lld without acquiring the consumer's release",
                        Agent, static_cast<long long>(Channel),
                        static_cast<long long>(Slot));
  return "";
}

std::string HappensBeforeTracker::recordRead(int Agent, int64_t Channel,
                                             int64_t Slot) {
  tick(Agent);
  ++NextSeq;
  SlotMeta &Meta = SlotMetas[{Channel, Slot}];
  if (!Meta.HasPublish)
    return formatString("read-before-write: agent %d reads channel %lld slot "
                        "%lld before any publication",
                        Agent, static_cast<long long>(Channel),
                        static_cast<long long>(Slot));
  // The reader must have acquired the publishing clock (through get).
  if (!leq(Meta.PublishClock, Clocks[Agent]))
    return formatString("unordered read: agent %d reads channel %lld slot "
                        "%lld without acquiring the producer's publication",
                        Agent, static_cast<long long>(Channel),
                        static_cast<long long>(Slot));
  Meta.HasRead = true;
  Meta.ReadReleased = false;
  // Join (not assign): cooperative consumer groups read the same slot, and
  // the producer must be ordered after *all* of their releases.
  if (Meta.LastReadClock.empty())
    Meta.LastReadClock = Clocks[Agent];
  else
    join(Meta.LastReadClock, Clocks[Agent]);
  return "";
}

void HappensBeforeTracker::recordPut(int Agent, int64_t Channel,
                                     int64_t Slot) {
  tick(Agent);
  ++NextSeq;
  SlotMeta &Meta = SlotMetas[{Channel, Slot}];
  Meta.PublishClock = Clocks[Agent];
  Meta.HasPublish = true;
}

void HappensBeforeTracker::recordGet(int Agent, int64_t Channel,
                                     int64_t Slot) {
  tick(Agent);
  ++NextSeq;
  SlotMeta &Meta = SlotMetas[{Channel, Slot}];
  if (Meta.HasPublish)
    join(Clocks[Agent], Meta.PublishClock);
}

void HappensBeforeTracker::recordConsumed(int Agent, int64_t Channel,
                                          int64_t Slot) {
  tick(Agent);
  ++NextSeq;
  SlotMeta &Meta = SlotMetas[{Channel, Slot}];
  if (Meta.FreeClock.empty())
    Meta.FreeClock = Clocks[Agent];
  else
    join(Meta.FreeClock, Clocks[Agent]);
  Meta.ReadReleased = true;
}

void HappensBeforeTracker::recordAcquireEmpty(int Agent, int64_t Channel,
                                              int64_t Slot) {
  tick(Agent);
  ++NextSeq;
  SlotMeta &Meta = SlotMetas[{Channel, Slot}];
  join(Clocks[Agent], Meta.FreeClock);
}

namespace {

/// The fingerprint value of a saturated stored clock entry (relative
/// entries are at most 0).
constexpr int64_t Saturated = 1;

bool isLive(uint64_t Live, size_t Agent) { return (Live >> Agent) & 1; }

} // namespace

void HappensBeforeTracker::fingerprint(std::vector<int64_t> &Key,
                                       uint64_t Live) const {
  // Floor[b]: the smallest entry for agent b over the live clocks.
  std::vector<uint64_t> Floor(NumAgents, UINT64_MAX);
  for (int A = 0; A < NumAgents; ++A) {
    if (!isLive(Live, A))
      continue;
    for (int B = 0; B < NumAgents; ++B) {
      Floor[B] = std::min(Floor[B], Clocks[A][B]);
      Key.push_back(static_cast<int64_t>(Clocks[A][B] - Clocks[B][B]));
    }
  }
  auto Stored = [&](const Clock &X) {
    Key.push_back(static_cast<int64_t>(X.size()));
    for (size_t B = 0; B < X.size(); ++B)
      Key.push_back(X[B] <= Floor[B]
                        ? Saturated
                        : static_cast<int64_t>(X[B] - Clocks[B][B]));
  };
  for (const auto &[Where, Meta] : SlotMetas) {
    Key.push_back(Where.first);
    Key.push_back(Where.second);
    Key.push_back(Meta.HasPublish | Meta.HasRead << 1 |
                  Meta.ReadReleased << 2);
    Stored(Meta.PublishClock);
    Stored(Meta.FreeClock);
    Stored(Meta.LastReadClock);
  }
}

void HappensBeforeTracker::appendCounts(std::vector<int64_t> &Drift) const {
  for (int A = 0; A < NumAgents; ++A)
    Drift.push_back(static_cast<int64_t>(Clocks[A][A]));
  Drift.push_back(static_cast<int64_t>(NextSeq));
}

void HappensBeforeTracker::advance(int64_t N, const int64_t *Before,
                                   const int64_t *After, uint64_t Live) {
  std::vector<uint64_t> Move(NumAgents), Floor(NumAgents, UINT64_MAX);
  for (int B = 0; B < NumAgents; ++B)
    Move[B] = static_cast<uint64_t>(N * (After[B] - Before[B]));
  for (int A = 0; A < NumAgents; ++A)
    if (isLive(Live, A))
      for (int B = 0; B < NumAgents; ++B)
        Floor[B] = std::min(Floor[B], Clocks[A][B]);
  auto Shift = [&](Clock &X) {
    for (size_t B = 0; B < X.size(); ++B)
      if (X[B] > Floor[B])
        X[B] += Move[B];
  };
  for (auto &[Where, Meta] : SlotMetas) {
    Shift(Meta.PublishClock);
    Shift(Meta.FreeClock);
    Shift(Meta.LastReadClock);
  }
  for (int A = 0; A < NumAgents; ++A)
    if (isLive(Live, A))
      for (int B = 0; B < NumAgents; ++B)
        Clocks[A][B] += Move[B];
  NextSeq += static_cast<uint64_t>(N * (After[NumAgents] - Before[NumAgents]));
}
