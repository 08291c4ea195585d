//===- figures_golden_test.cpp - Every paper-figure point, pinned ---------===//
//
// Prewarms and runs the six figure grids (bench/FigureGrids.h, 263 points)
// and compares every record against tests/figures.golden: the point's
// sweep and axes, then Micros, TFlops, MaxRelError, TensorUtilization,
// SmemBytes, RegsPerThread, Supported, Feasible and Error, floating-point
// fields printed at %.17g. A change to the executor, replay or the compile
// pipeline that moves any figure by one bit fails here and names the
// first point that differs.
//
// The golden changes only with a change meant to alter figure results. On
// a mismatch the test writes what it computed to figures.golden.actual in
// its working directory; review the diff, then copy that file over
// tests/figures.golden.
//
//===----------------------------------------------------------------------===//

#include "bench/FigureGrids.h"

#include "support/Support.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace tawa;

namespace {

/// One line per record: "<sweep> | <axis>=<value>... | <fields>".
std::string recordLine(const std::string &SweepName, const SweepRecord &R) {
  std::string Line = SweepName + " |";
  for (const SweepAxis &A : R.Point.Axes)
    Line += " " + A.Name + "=" + A.Value;
  const RunResult &Res = R.Result;
  Line += formatString(
      " | micros=%.17g tflops=%.17g max_rel_error=%.17g "
      "tensor_utilization=%.17g smem_bytes=%lld regs_per_thread=%lld "
      "supported=%d feasible=%d error=",
      Res.Micros, Res.TFlops, Res.MaxRelError, Res.TensorUtilization,
      static_cast<long long>(Res.SmemBytes),
      static_cast<long long>(Res.RegsPerThread), Res.Supported ? 1 : 0,
      Res.Feasible ? 1 : 0);
  for (char C : Res.Error)
    Line += C == '\n' ? std::string("\\n") : std::string(1, C);
  return Line;
}

std::vector<std::string> splitLines(const std::string &Text) {
  std::vector<std::string> Lines;
  std::istringstream In(Text);
  for (std::string L; std::getline(In, L);)
    Lines.push_back(L);
  return Lines;
}

} // namespace

TEST(FiguresGolden, EveryPointMatches) {
  // allGrids() order.
  const char *const Names[] = {"fig8",  "fig9",  "fig10",
                               "fig11", "fig12", "fig13"};
  std::vector<std::unique_ptr<Sweep>> Grids = figures::allGrids();
  ASSERT_EQ(Grids.size(), std::size(Names));
  std::vector<std::string> Actual;
  for (size_t G = 0; G < Grids.size(); ++G) {
    Sweep &S = *Grids[G];
    S.prewarm();
    S.run();
    for (const SweepRecord &R : S.records())
      Actual.push_back(recordLine(Names[G], R));
  }
  EXPECT_EQ(Actual.size(), 263u);

  std::ifstream In(std::string(TAWA_SOURCE_DIR) + "/tests/figures.golden");
  std::stringstream SS;
  SS << In.rdbuf();
  std::vector<std::string> Golden = splitLines(SS.str());

  size_t First = 0;
  while (First < Actual.size() && First < Golden.size() &&
         Actual[First] == Golden[First])
    ++First;
  if (First == Actual.size() && First == Golden.size())
    return;
  std::ofstream Out("figures.golden.actual");
  for (const std::string &L : Actual)
    Out << L << "\n";
  if (First < Actual.size() && First < Golden.size())
    ADD_FAILURE() << "first point that differs (line " << First + 1
                  << "):\n  golden: " << Golden[First]
                  << "\n  actual: " << Actual[First];
  else
    ADD_FAILURE() << "golden has " << Golden.size() << " points, the run "
                  << Actual.size() << "; first unmatched line " << First + 1;
}
