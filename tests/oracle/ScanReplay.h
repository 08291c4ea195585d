//===- ScanReplay.h - Scan-every-action replay (oracle) ---------*- C++ -*-===//
//
// The replay model in its plainest form, kept as the oracle for
// sim::replaySmSchedule: it rescans every agent before each action, keeps
// each agent's in-flight MMAs and iteration starts in std::deques, every
// barrier's full completion history and fresh barrier vectors per CTA, and
// replays every wave of a schedule action by action.
//
//===----------------------------------------------------------------------===//

#ifndef TAWA_ORACLE_SCANREPLAY_H
#define TAWA_ORACLE_SCANREPLAY_H

#include "sim/Replay.h"

#include <string>
#include <vector>

namespace tawa {
namespace sim {

/// Same contract as replaySmSchedule. SimulatedCtas counts every CTA it
/// replays, since it skips none.
ReplayResult replaySmScheduleOracle(const std::vector<const CtaTrace *> &Ctas,
                                    const GpuConfig &Config,
                                    const ReplayParams &Params);

/// "" when \p R matches the reference \p Ref bit for bit in every model
/// output (status, error, cycles, busy cycles, bytes); otherwise the first
/// difference. SimulatedCtas is a cost count and is not compared.
std::string replayDiff(const ReplayResult &Ref, const ReplayResult &R);

} // namespace sim
} // namespace tawa

#endif // TAWA_ORACLE_SCANREPLAY_H
