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
// compares every ReplayResult field bit for bit with the scan-every-action
// engine kept as an oracle (tests/oracle/ScanReplay.h).
//
// Repeated waves. A schedule often points at one trace wave after wave
// (every non-persistent GEMM, every non-causal attention kernel). If a wave
// starts with TcFree and DramFree at or before its BaseTime, no operation
// reads their earlier values, and each time in the wave is computed from
// the wave's start by x + c (c fixed by the trace, the params and the
// config), max and comparisons. Call [2^e, 2^(e+1)) binade e; every double
// in it is a multiple of u = 2^(e-52). If the wave's start and every value
// it computes, up to the next wave's start, lie in binade e, then moving
// the start by a multiple of u moves every rounded result by exactly as
// much: the next wave replays this one shifted by its duration. The one
// exception is a round-half-even tie, which flips when the shift is an odd
// number of units. x + c can tie only in the binade whose u/2 is c's lowest
// set bit, so a scan of the trace's addends lists the binades in which an
// odd shift is refused. The tensor and DRAM busy-cycle sums follow the same
// argument in their own binades.
//
// After replaying a wave whose trace the next entries repeat, the engine
// skips the largest K of them for which the wave ends with TcFree at or
// before the next start, the K-th skipped wave's values still lie in
// binade e, and the same holds for each busy-cycle sum the wave changed.
// It then moves every running value on by K steps. A run of one trace is
// thus stepped a few times per binade it crosses, and every result is the
// one replaying each wave would give. A server the wave never used moves on
// by K steps too, which is harmless: it stays at or before every later
// start, where replay reads it only through a max.
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
  /// CTAs replayed action by action; the rest of the schedule was skipped
  /// as repeated waves. A cost count, not part of the model's output.
  int64_t SimulatedCtas = 0;
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
