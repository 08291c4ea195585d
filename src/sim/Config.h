//===- Config.h - H100-class machine model ----------------------*- C++ -*-===//
//
// Parameters of the simulated GPU (an H100 SXM5 analogue) and the cost model
// translating lowered operations into cycles and bytes. Peak numbers follow
// the public H100 datasheet; microarchitectural latencies are order-of-
// magnitude estimates — the benchmark harness only relies on the *shapes*
// they induce (who wins, where crossovers fall), not absolute TFLOPs.
//
//===----------------------------------------------------------------------===//

#ifndef TAWA_SIM_CONFIG_H
#define TAWA_SIM_CONFIG_H

#include <cstdint>

namespace tawa {
namespace sim {

struct GpuConfig {
  //===--- Topology --------------------------------------------------------//
  int NumSms = 132;
  double ClockGhz = 1.755;

  //===--- Peak throughput -------------------------------------------------//
  double Fp16TflopsPeak = 989.4;  ///< Dense FP16 tensor-core TFLOP/s.
  double Fp8TflopsPeak = 1978.9;  ///< Dense FP8 tensor-core TFLOP/s.
  double HbmTBps = 3.35;          ///< HBM3 bandwidth, TB/s.

  //===--- Per-SM resources ------------------------------------------------//
  int64_t SmemBytesPerSm = 228 * 1024;
  int64_t RegsPerSm = 65536;      ///< 32-bit registers.
  int64_t MaxRegsPerThread = 255;

  //===--- Latencies & efficiencies ---------------------------------------===//
  double KernelLaunchMicros = 3.5;   ///< Per grid launch.
  double CtaStartCycles = 900;       ///< Per CTA schedule/start cost.
  double TmaLatencyCycles = 750;     ///< GMEM->SMEM round-trip latency.
  double TmaBwEfficiency = 0.93;     ///< Achieved fraction of HBM bandwidth.
  double CpAsyncLatencyCycles = 1000; ///< Ampere-style async copy latency.
  double CpAsyncBwEfficiency = 0.78; ///< cp.async achieves less of HBM.
  double CpAsyncIssueBytesPerCycle = 512; ///< CUDA-core issue cost of copies.
  double WgmmaEfficiency = 0.87;     ///< Sustained fraction of TC peak.
  double WgmmaIssueCycles = 12;      ///< Per async MMA enqueue.
  double BarrierOpCycles = 18;       ///< arrive / expect-tx / wait issue.
  double NamedBarrierSyncCycles = 45; ///< Full-CTA __syncthreads-style sync.
  double TmaIssueCycles = 28;        ///< Producer-side TMA enqueue.
  double SyncLoadLatencyCycles = 1400; ///< Un-prefetched GMEM round trip
                                       ///< (no pipelining to hide it).

  //===--- Cross-CTA reduction surface (split-K epilogues) ------------------//
  double AtomicAddLatencyCycles = 400; ///< red.global.add issue+retire.
  double AtomicBwEfficiency = 0.5;     ///< Atomic RMW traffic reaches less of
                                       ///< HBM peak; each element also moves
                                       ///< read+write bytes (2x) through the
                                       ///< memory system.

  //===--- CUDA-core throughput (per SM, per cycle) ------------------------//
  double CudaLanes = 128;      ///< FP32 FMA lanes.
  double SfuLanes = 32;        ///< Transcendental (exp2) lanes.

  //===--- Register model (§IV-A / Fig. 11) --------------------------------//
  int64_t BaseRegsPerThread = 48;  ///< Addressing/control overhead.
  double PipelineRegFactor = 0.28; ///< Extra live-fragment fraction per
                                   ///< additional MMA pipeline stage.
  double SpillPenalty = 1.45;      ///< Compute slowdown when over budget.

  //===--- Derived rates ----------------------------------------------------//
  double tcFlopsPerCyclePerSm(bool Fp8) const {
    double Peak = Fp8 ? Fp8TflopsPeak : Fp16TflopsPeak;
    return Peak * 1e12 / (NumSms * ClockGhz * 1e9);
  }
  double cyclesToMicros(double Cycles) const {
    return Cycles / (ClockGhz * 1e3);
  }
  double launchCycles() const { return KernelLaunchMicros * ClockGhz * 1e3; }
};

} // namespace sim
} // namespace tawa

#endif // TAWA_SIM_CONFIG_H
