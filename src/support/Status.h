//===- Status.h - Structured failure taxonomy -------------------*- C++ -*-===//
//
// The execution layer reports failures as deterministic strings (the
// three-way differential test pins them bit-identical across engines), so
// the structured taxonomy is derived FROM the strings rather than threaded
// through every return path: classifyError maps the stable message
// prefixes both engines emit onto a small ErrorKind enum, and
// RunResult::Kind carries the classification to harness code (daemon
// callers, differential fuzzers) that must branch on failure class without
// substring matching.
//
// The mapping is total: any non-empty message that matches no known prefix
// is Internal — an unclassified failure is itself a bug worth surfacing.
// See docs/robustness.md for the taxonomy and which layer produces each
// kind.
//
//===----------------------------------------------------------------------===//

#ifndef TAWA_SUPPORT_STATUS_H
#define TAWA_SUPPORT_STATUS_H

#include <string>

namespace tawa {

enum class ErrorKind {
  None,              ///< Empty message: success.
  Deadlock,          ///< Every warp group blocked on an mbarrier wait.
  StepBudget,        ///< Execution watchdog: per-CTA step budget exceeded.
  WallClock,         ///< Execution watchdog: per-CTA wall-clock guard fired.
  ProtocolViolation, ///< Slot-monitor / happens-before protocol violation.
  WorkerCrash,       ///< Exception contained in a CTA execution task.
  CompileError,      ///< Lowering / pass-pipeline failure.
  Unsupported,       ///< Framework or engine rejected the configuration.
  Infeasible,        ///< Resource model rejection (regs/smem budget).
  SandboxCrash,      ///< Out-of-process sandbox died (signal / bad exit).
  SandboxTimeout,    ///< Sandbox heartbeat lost or deadline exceeded.
  Internal,          ///< Anything else — an unclassified failure.
};

/// Stable lower-case name ("deadlock", "step-budget", ...) used in the
/// tawa-diag-v1 JSON schema and log output.
const char *errorKindName(ErrorKind K);

/// Classifies an execution/compile error message by its deterministic
/// prefix. A "cta (x,y): " coordinate prefix (Interpreter::runGrid /
/// runCtaBatch formatting) is skipped first. Empty -> None; unknown ->
/// Internal.
ErrorKind classifyError(const std::string &Error);

/// Inverse of errorKindName: decodes a wire-carried kind name (the
/// sandbox supervisor reads `error_kind` back out of a child process's
/// tawa-serve-resp-v1 line). Returns false on unknown names.
bool errorKindFromName(const std::string &Name, ErrorKind &Out);

} // namespace tawa

#endif // TAWA_SUPPORT_STATUS_H
