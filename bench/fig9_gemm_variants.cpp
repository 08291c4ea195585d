//===- fig9_gemm_variants.cpp - Reproduces Fig. 9: batched & grouped GEMM ----//
//
// Left panel: FP16 batched GEMM, batch 8, square M = N = K from 1K to 16K.
// Right panel: grouped GEMM with G in 2..6 groups of varying M (multiples of
// 512), N and K fixed. Tawa vs Triton vs TileLang (ThunderKittens provides
// no functioning kernels for these patterns, §V-C). Expected shape: Tawa
// consistently ahead of Triton (up to ~7%); ahead of TileLang by up to ~50%
// on batched; TileLang degrades as the group count grows.
//
// Both panels share one Sweep — the "panel" axis separates them, and the
// batched panel's size axis ("MNK") vs the grouped panel's ("G") keep the
// tables apart. Writes BENCH_fig9.json.
//
//===----------------------------------------------------------------------===//

#include "FigureGrids.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace tawa;

int main() {
  std::unique_ptr<Sweep> Grid = figures::fig9GemmVariants();
  Sweep &S = *Grid;

  if (std::string Err = S.prewarm(); !Err.empty())
    std::fprintf(stderr, "prewarm: %s\n", Err.c_str());
  S.run();

  S.printTables("Fig. 9 (left): FP16 batched GEMM TFLOP/s, batch = 8",
                "MNK", "framework");
  std::printf("geomean speedups: Tawa/Triton = %.2fx, Tawa/TileLang = "
              "%.2fx\n",
              S.geomeanSpeedup("framework", "Tawa", "Triton", "panel",
                               "batched"),
              S.geomeanSpeedup("framework", "Tawa", "TileLang", "panel",
                               "batched"));

  S.printTables("Fig. 9 (right): FP16 grouped GEMM TFLOP/s, N = K = 4096, "
                "M_g multiples of 512",
                "G", "framework");
  std::printf("geomean speedups: Tawa/Triton = %.2fx, Tawa/TileLang = "
              "%.2fx\n",
              S.geomeanSpeedup("framework", "Tawa", "Triton", "panel",
                               "grouped"),
              S.geomeanSpeedup("framework", "Tawa", "TileLang", "panel",
                               "grouped"));

  if (!S.writeJson("BENCH_fig9.json")) {
    std::fprintf(stderr, "cannot write BENCH_fig9.json\n");
    return 1;
  }
  std::printf("\nwrote BENCH_fig9.json\n");
  return S.stats().RunCompiles == 0 ? 0 : 1;
}
