//===- fig8_gemm.cpp - Reproduces Fig. 8: GEMM throughput sweep --------------//
//
// FP16 and FP8 GEMM, M = N = 8192, K swept from 256 to 16384, against the
// theoretical peak, cuBLAS, baseline Triton, TileLang, and ThunderKittens.
// Expected shape (paper §V-B): Tawa tracks cuBLAS (cuBLAS ahead at small K),
// beats Triton by ~1.1x on average, larger FP8 gains at small K, and
// TileLang/ThunderKittens lead slightly only at K >= 8192 in FP16.
//
// Declared as one Sweep grid: the K axis is a runtime dimension, so the
// whole sweep compiles each (framework, precision) kernel exactly once
// during prewarm() and then executes pure. Writes BENCH_fig8.json
// (schema tawa-sweep-v1, per-point cache statistics) — the grid
// scripts/check.sh re-runs warm to prove zero compiles.
//
//===----------------------------------------------------------------------===//

#include "FigureGrids.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace tawa;

int main() {
  std::unique_ptr<Sweep> Grid = figures::fig8Gemm();
  Sweep &S = *Grid;

  if (std::string Err = S.prewarm(); !Err.empty())
    std::fprintf(stderr, "prewarm: %s\n", Err.c_str());
  S.run();

  S.printTables("Fig. 8: GEMM TFLOP/s, M = N = 8192", "K", "framework",
                "prec");
  for (const char *Prec : {"FP16", "FP8"})
    std::printf("[%s] geomean speedups: Tawa/cuBLAS = %.2fx, Tawa/Triton = "
                "%.2fx, Tawa/TileLang = %.2fx, Tawa/ThunderKittens = %.2fx\n",
                Prec,
                S.geomeanSpeedup("framework", "Tawa", "cuBLAS", "prec", Prec),
                S.geomeanSpeedup("framework", "Tawa", "Triton", "prec", Prec),
                S.geomeanSpeedup("framework", "Tawa", "TileLang", "prec",
                                 Prec),
                S.geomeanSpeedup("framework", "Tawa", "ThunderKittens",
                                 "prec", Prec));

  const Sweep::Stats &St = S.stats();
  std::printf("\ncache: %zu points, %zu distinct kernels, %zu prewarm "
              "compiles, %zu prewarm hits, %zu run hits, %zu run compiles\n",
              St.Points, St.DistinctKeys, St.PrewarmCompiles, St.PrewarmHits,
              St.RunHits, St.RunCompiles);
  if (!S.writeJson("BENCH_fig8.json")) {
    std::fprintf(stderr, "cannot write BENCH_fig8.json\n");
    return 1;
  }
  std::printf("wrote BENCH_fig8.json\n");
  return St.RunCompiles == 0 ? 0 : 1;
}
