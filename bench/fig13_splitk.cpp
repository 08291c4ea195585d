//===- fig13_splitk.cpp - Split-K & MoE GEMM kernel-family sweep --------------//
//
// Left panel: FP16 split-K GEMM on a skinny problem (small M*N tile count,
// deep K) across split factors 1..8. The split factor is grid axis 1 — a
// pure LAUNCH parameter — so all eight points per framework share ONE
// compile key: the sweep's prewarm compiles each framework's kernel once
// and Stats::DistinctKeys stays at the framework count for the panel. The
// payoff shape: splitting recovers SM occupancy lost to the tiny tile grid
// until the cross-CTA atomic reduction overhead wins.
//
// Right panel: MoE grouped GEMM through the @matmul_grouped kernel (ragged
// per-expert batches, group-offset table, data-dependent CTA list) across
// expert counts 2..8 with heterogeneous per-expert M — including an empty
// expert at E >= 4, which must cost nothing.
//
// Writes BENCH_fig13.json. Exit status enforces the cache tentpole:
// RunCompiles must be 0 after prewarm.
//
//===----------------------------------------------------------------------===//

#include "FigureGrids.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace tawa;

int main() {
  std::unique_ptr<Sweep> Grid = figures::fig13Splitk();
  Sweep &S = *Grid;

  if (std::string Err = S.prewarm(); !Err.empty())
    std::fprintf(stderr, "prewarm: %s\n", Err.c_str());
  S.run();

  S.printTables("Fig. 13 (left): FP16 split-K GEMM TFLOP/s, M = N = 512, "
                "K = 16384",
                "split", "framework");
  std::printf("geomean speedup (splitk): Tawa/Triton = %.2fx\n",
              S.geomeanSpeedup("framework", "Tawa", "Triton", "panel",
                               "splitk"));

  S.printTables("Fig. 13 (right): FP16 MoE grouped GEMM TFLOP/s, "
                "N = K = 4096, ragged experts",
                "E", "framework");
  std::printf("geomean speedup (moe): Tawa/Triton = %.2fx\n",
              S.geomeanSpeedup("framework", "Tawa", "Triton", "panel",
                               "moe"));

  const Sweep::Stats &St = S.stats();
  std::printf("\ncache: %zu points, %zu distinct keys, prewarm %zu "
              "compiles + %zu hits, run %zu hits / %zu compiles\n",
              St.Points, St.DistinctKeys, St.PrewarmCompiles,
              St.PrewarmHits, St.RunHits, St.RunCompiles);

  if (!S.writeJson("BENCH_fig13.json")) {
    std::fprintf(stderr, "cannot write BENCH_fig13.json\n");
    return 1;
  }
  std::printf("wrote BENCH_fig13.json\n");
  return S.stats().RunCompiles == 0 ? 0 : 1;
}
