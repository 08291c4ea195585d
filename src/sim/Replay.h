//===- Replay.h - Timed co-simulation of agent traces -----------*- C++ -*-===//
//
// Replays the per-warp-group action traces produced by the Interpreter
// against shared resources — the SM's tensor core, the global DRAM
// bandwidth server, and transaction mbarriers with phase parity — yielding
// the kernel's cycle count. Agents advance independently; blocking waits
// either fast-forward to an already-known completion time or suspend the
// agent until another agent (or an async TMA completion) flips the barrier
// phase. An all-blocked state is reported as deadlock.
//
// Stepping order. The engine always executes the next action of the
// runnable agent with the smallest ReadyAt, the lowest agent index winning
// ties. It does not rescan the agents before every action: after picking
// an agent it also notes the runner-up, and keeps stepping the pick while
// the pick has neither blocked nor finished, no waiter woke, and its
// ReadyAt is still below the runner-up's (or equal, with the lower index).
// A step changes no other runnable agent's state, so under those
// conditions a full scan would pick the same agent again.
//
// Bit-identity. Every action therefore runs in the same order as under a
// scan before each action, with the same floating-point operations on the
// same operands: ring buffers replace the per-agent deques, each barrier
// keeps only its latest completion time (the only one a waiter reads), and
// one flat barrier array is reused across CTAs. tests/replay_test.cpp
// keeps the scan-every-action engine as an oracle and compares every
// ReplayResult field bit for bit.
//
//===----------------------------------------------------------------------===//

#ifndef TAWA_SIM_REPLAY_H
#define TAWA_SIM_REPLAY_H

#include "sim/Config.h"
#include "sim/Trace.h"

#include <string>
#include <vector>

namespace tawa {
namespace sim {

struct ReplayParams {
  /// Fraction of requested bytes that actually consume DRAM bandwidth
  /// (models L2 reuse across CTAs analytically; 1.0 = no reuse).
  double DramReuseFactor = 1.0;
  /// Number of SMs sharing HBM (per-SM share = total / this).
  double BwShareSms = 132;
  /// Multiplies tensor-core durations (tuning envelope and register-spill /
  /// occupancy penalties).
  double TensorPenalty = 1.0;
  /// Multiplies CUDA-core durations (spills hurt these too; FA3-style
  /// ping-pong scheduling credits them).
  double CudaPenalty = 1.0;
  /// Gap between back-to-back CTAs on the same SM (non-persistent mode).
  double CtaGapCycles = 0;
};

struct ReplayResult {
  bool Deadlock = false;
  std::string Error;
  double Cycles = 0;            ///< Makespan (including DRAM drain).
  double TensorBusyCycles = 0;  ///< Tensor-core occupancy.
  double DramBusyCycles = 0;    ///< DRAM service time consumed.
  int64_t DramBytes = 0;        ///< Effective bytes moved.
};

/// Replays a sequence of CTA traces executed back-to-back on one SM (the
/// wave model: every SM runs the same schedule, so one SM's makespan is the
/// kernel's). For persistent kernels the sequence has a single entry whose
/// trace already spans all tiles. A pointer may repeat: CTAs with equal
/// traces (the Runner's sample classes) share one.
ReplayResult replaySmSchedule(const std::vector<const CtaTrace *> &Ctas,
                              const GpuConfig &Config,
                              const ReplayParams &Params);

} // namespace sim
} // namespace tawa

#endif // TAWA_SIM_REPLAY_H
