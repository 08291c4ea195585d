//===- fig11_hyperparam.cpp - Reproduces Fig. 11: aref size x MMA depth ------//
//
// FP16 GEMM, K = 16384, sweeping the aref ring depth D (1..3) against the
// fine-grained MMA pipeline depth P (1..3), with and without persistent
// kernels. Expected shape (§V-E): only D >= P is feasible (0 otherwise),
// throughput grows with D, P = 3 regresses (register pressure / occupancy),
// and the persistent variant is consistently faster with its peak at
// D = 3, P = 2.
//
// An envelope-grid Sweep: every (persistent, D, P) cell is its own compile
// key, and the infeasible P > D cells never reach the compiler (empty
// compile key, rejected before prewarm). Writes BENCH_fig11.json.
//
//===----------------------------------------------------------------------===//

#include "FigureGrids.h"

#include <cstdio>
#include <string>

using namespace tawa;

int main() {
  std::unique_ptr<Sweep> Grid = figures::fig11Hyperparam();
  Sweep &S = *Grid;

  if (std::string Err = S.prewarm(); !Err.empty())
    std::fprintf(stderr, "prewarm: %s\n", Err.c_str());
  S.run();

  S.printTables("Fig. 11 (GEMM, FP16, K = 16384): TFLOP/s, rows = aref "
                "size D, cols = MMA depth P",
                "D", "P", "persistent");
  std::printf("\n(0 cells: infeasible P > D, or register budget exhausted "
              "at D = 2, P = 3 — matching the empty cells of the paper's "
              "heatmap.)\n");

  if (!S.writeJson("BENCH_fig11.json")) {
    std::fprintf(stderr, "cannot write BENCH_fig11.json\n");
    return 1;
  }
  std::printf("\nwrote BENCH_fig11.json\n");
  return S.stats().RunCompiles == 0 ? 0 : 1;
}
