//===- FigureGrids.h - The six paper-figure sweep grids ---------*- C++ -*-===//
//
// The grid declarations of Figs. 8-13, one function per figure, shared by
// the bench/fig*.cpp programs (which print each figure's tables, notes and
// BENCH_fig*.json) and tests/figures_golden_test.cpp (which pins every
// point of all six grids at %.17g). The 263 points run on the default
// GpuConfig.
//
//===----------------------------------------------------------------------===//

#ifndef TAWA_BENCH_FIGUREGRIDS_H
#define TAWA_BENCH_FIGUREGRIDS_H

#include "driver/Sweep.h"

#include <memory>
#include <vector>

namespace tawa {
namespace figures {

/// Fig. 8: FP16/FP8 GEMM, M = N = 8192, K swept from 256 to 16384.
std::unique_ptr<Sweep> fig8Gemm();
/// Fig. 9: batched GEMM (batch 8) and grouped GEMM (G = 2..6).
std::unique_ptr<Sweep> fig9GemmVariants();
/// Fig. 10: MHA in four panels, {FP16, FP8} x {non-causal, causal}.
std::unique_ptr<Sweep> fig10Mha();
/// Fig. 11: aref depth D x MMA depth P, non-persistent and persistent.
std::unique_ptr<Sweep> fig11Hyperparam();
/// Fig. 12: the cumulative GEMM and MHA ablations.
std::unique_ptr<Sweep> fig12Ablation();
/// Fig. 13: split-K and MoE grouped GEMM.
std::unique_ptr<Sweep> fig13Splitk();

/// All six grids, in figure order.
std::vector<std::unique_ptr<Sweep>> allGrids();

} // namespace figures
} // namespace tawa

#endif // TAWA_BENCH_FIGUREGRIDS_H
