//===- Diff.h - Seven-run differential execution ----------------*- C++ -*-===//
//
// The oracle half of the fuzzing harness: runs one prepared case on the
// tree-walking oracle and on every bytecode engine × worker-count
// combination, and compares every observable the engines promise to keep
// identical — output tensor bytes, per-CTA action traces, happens-before
// event counts, error strings and their ErrorKind classification, deadlock
// diagnostic JSON, and replayed cycle totals. The reference's first CTA
// also replays as 64 identical waves against the scan-every-action replay
// oracle (tests/oracle/ScanReplay.h).
// Returns "" when all combos agree, or a description of the first
// divergence (which doubles as the minimization oracle's signal).
//
//===----------------------------------------------------------------------===//

#ifndef TAWA_TESTS_FUZZ_DIFF_H
#define TAWA_TESTS_FUZZ_DIFF_H

#include "tests/fuzz/Gen.h"

#include <string>

namespace tawa {
namespace fuzz {

/// The serial oracle (combo 0, the reference) plus unfused and fused
/// bytecode × {1, 2, 4} workers. The oracle ignores the worker count, so
/// it runs once.
constexpr int NumDiffCombos = 7;

struct DiffOptions {
  /// Fault-injection hook for exercising the minimizer end-to-end: XOR a
  /// byte of the last combo's output tensor so the differ reports a
  /// divergence on otherwise-clean cases. Never set outside tests/demos.
  bool CorruptFusedOutput = false;
};

/// Runs \p P on all seven combos (honoring P.Launch.FaultSpec for each run)
/// plus a serial timing-mode leg, compares all observables against combo 0,
/// and returns "" or a one-line divergence description.
std::string diffCase(const PreparedCase &P, const DiffOptions &Opts = {});

} // namespace fuzz
} // namespace tawa

#endif // TAWA_TESTS_FUZZ_DIFF_H
