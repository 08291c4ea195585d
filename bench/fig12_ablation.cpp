//===- fig12_ablation.cpp - Reproduces Fig. 12: optimization ablation --------//
//
// Cumulative ablation on the largest FP16 kernels (GEMM K = 16384, MHA
// L = 16384): starting from Triton without warp specialization and adding
// Auto WS, cooperative warp groups, larger tiles / coarse pipelining,
// persistence, and a tuned aref size. Expected shape (§V-F): a large jump
// from Auto WS (~3.8x on GEMM), +Cooperative WGs roughly flat until the
// tile grows, +Persistent ~+10%, monotone overall to ~7x; on MHA the big
// jump comes from WS + cooperative groups combined (~2.8x), then pipelining.
//
// Declared as a Sweep over (workload, step) with explicit envelopes — each
// cumulative step is its own compile key. The per-step speedup column is
// computed from the records against each panel's first (baseline) step.
// Writes BENCH_fig12.json.
//
//===----------------------------------------------------------------------===//

#include "FigureGrids.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace tawa;

int main() {
  std::unique_ptr<Sweep> Grid = figures::fig12Ablation();
  Sweep &S = *Grid;

  if (std::string Err = S.prewarm(); !Err.empty())
    std::fprintf(stderr, "prewarm: %s\n", Err.c_str());
  S.run();

  auto PrintPanel = [&](const char *Workload, const char *Title) {
    std::printf("\n%s\n", Title);
    // The panel's first step anchors every ratio, even if it failed (a
    // broken baseline then prints 0.00x rows rather than re-anchoring).
    double Base = 0;
    bool HaveBase = false;
    for (const SweepRecord &Rec : S.records()) {
      const std::string *W = Rec.Point.axis("workload");
      if (!W || *W != Workload)
        continue;
      if (!HaveBase) {
        Base = Rec.Result.TFlops;
        HaveBase = true;
      }
      std::printf("  %-22s %8.0f TFLOP/s   (%5.2fx over baseline)  %s\n",
                  Rec.Point.axis("step")->c_str(), Rec.Result.TFlops,
                  Base > 0 ? Rec.Result.TFlops / Base : 0.0,
                  Rec.Result.Error.c_str());
    }
  };
  PrintPanel("gemm", "Fig. 12 (GEMM, FP16, K = 16384): cumulative ablation");
  PrintPanel("mha", "Fig. 12 (MHA, FP16, L = 16384): cumulative ablation");

  if (!S.writeJson("BENCH_fig12.json")) {
    std::fprintf(stderr, "cannot write BENCH_fig12.json\n");
    return 1;
  }
  std::printf("\nwrote BENCH_fig12.json\n");
  return S.stats().RunCompiles == 0 ? 0 : 1;
}
