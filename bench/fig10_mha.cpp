//===- fig10_mha.cpp - Reproduces Fig. 10: multi-head attention --------------//
//
// Four panels: {FP16, FP8} x {non-causal, causal}, batch 4, head dim 128,
// context length 1K..16K, against FA3 (CUTLASS), Triton, TileLang, and
// ThunderKittens. Expected shape (§V-D): Tawa reaches >= 90% of FA3,
// ~1.2x over Triton, gains growing with L; ThunderKittens fails on FP8.
//
// One Sweep grid over panel x L x framework: L is a runtime dimension
// within a panel, so each (framework, precision, causal) kernel compiles
// exactly once during prewarm(). Writes BENCH_fig10.json.
//
//===----------------------------------------------------------------------===//

#include "FigureGrids.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace tawa;

int main() {
  std::unique_ptr<Sweep> Grid = figures::fig10Mha();
  Sweep &S = *Grid;

  if (std::string Err = S.prewarm(); !Err.empty())
    std::fprintf(stderr, "prewarm: %s\n", Err.c_str());
  S.run();

  S.printTables("Fig. 10: MHA TFLOP/s, batch 4, head dim 128", "L",
                "framework", "panel");
  for (Precision Prec : {Precision::FP16, Precision::FP8})
    for (bool Causal : {false, true}) {
      std::string Panel =
          std::string(Prec == Precision::FP16 ? "FP16" : "FP8") +
          (Causal ? ", causal" : ", non-causal");
      std::printf("[%s] geomean: Tawa/FA3 = %.2fx, Tawa/Triton = %.2fx, "
                  "Tawa/TileLang = %.2fx\n",
                  Panel.c_str(),
                  S.geomeanSpeedup("framework", "Tawa", "FA3 (CUTLASS)",
                                   "panel", Panel),
                  S.geomeanSpeedup("framework", "Tawa", "Triton", "panel",
                                   Panel),
                  S.geomeanSpeedup("framework", "Tawa", "TileLang", "panel",
                                   Panel));
    }

  if (!S.writeJson("BENCH_fig10.json")) {
    std::fprintf(stderr, "cannot write BENCH_fig10.json\n");
    return 1;
  }
  std::printf("\nwrote BENCH_fig10.json\n");
  return S.stats().RunCompiles == 0 ? 0 : 1;
}
