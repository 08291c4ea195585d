//===- Diag.h - Execution-abort diagnostic snapshot -------------*- C++ -*-===//
//
// ExecDiagnostic is the machine-readable post-mortem both execution
// engines fill when a CTA aborts on a deadlock or a watchdog trip
// (RunOptions::Diag opts in; see docs/robustness.md). It snapshots the
// per-agent scheduler state (steps executed, the mbarrier wait each
// blocked agent is parked on), every barrier array's completion/arrival
// counters, and the staging-channel slot monitors — everything needed to
// see WHY the machine wedged without re-running it.
//
// The snapshot is deliberately engine-independent: it contains only state
// both the bytecode executor and the legacy tree-walking oracle maintain
// identically (the differential tests pin that), so renderText() and
// renderJson() are byte-identical across legacy/unfused/fused engines and
// across NumWorkers — golden-testable.
//
//===----------------------------------------------------------------------===//

#ifndef TAWA_SIM_DIAG_H
#define TAWA_SIM_DIAG_H

#include <cstdint>
#include <string>
#include <vector>

namespace tawa {
namespace sim {

struct ExecDiagnostic {
  /// Stable taxonomy name (support/Status.h errorKindName).
  std::string Kind;
  /// The full deterministic error message the run returned.
  std::string Error;
  int64_t PidX = 0;
  int64_t PidY = 0;
  /// The configured per-agent step budget (0 = watchdog off).
  int64_t StepBudget = 0;

  struct Agent {
    int64_t Id = 0;
    std::string Name;  ///< Trace name ("preamble", "cta(x,y)/wg0(load)").
    std::string State; ///< "done" | "blocked" | "failed".
    int64_t Steps = 0; ///< Watchdog step counter (loop back-edges + waits).
    std::string Error; ///< Set for "failed" agents only.
    bool HasWait = false; ///< Blocked agents: the wait they are parked on.
    std::string WaitKind; ///< "full" | "empty".
    int64_t WaitIndex = 0;
    int64_t WaitChannel = -1;
    int64_t WaitParity = 0;
    int64_t WaitCompletions = 0;
  };
  std::vector<Agent> Agents;

  struct Barrier {
    int64_t Channel = -1;
    std::string Kind; ///< "full" | "empty".
    int64_t Expected = 1;
    std::vector<int64_t> Completions; ///< Per barrier in the array.
    std::vector<int64_t> Arrivals;    ///< Pending arrivals per barrier.
  };
  std::vector<Barrier> Barriers;

  struct Channel {
    int64_t Id = -1;
    /// One letter per staging slot (sem::SlotMonitor::letter): E(mpty),
    /// W(riting/filling), F(ull), B(orrowed).
    std::string Slots;
  };
  std::vector<Channel> Channels;

  bool empty() const { return Kind.empty(); }
  void clear() { *this = ExecDiagnostic(); }

  /// Deterministic human-readable dump (multi-line, trailing newline).
  std::string renderText() const;
  /// The "tawa-diag-v1" JSON document (support/Json formatting).
  std::string renderJson() const;
};

} // namespace sim
} // namespace tawa

#endif // TAWA_SIM_DIAG_H
