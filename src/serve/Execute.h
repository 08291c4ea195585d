//===- Execute.h - One serve-request execution attempt ----------*- C++ -*-===//
//
// The transport- and policy-free execution core shared by the in-process
// service (serve/Server) and the out-of-process sandbox runner
// (tools/tawa_sandbox.cpp): given a parsed ServeRequest and the attempt
// parameters the policy layer decided (ladder level, remaining deadline
// budget, defaults), run it once through Runner / Interpreter and fill the
// response's result fields. No retries, no ladder bookkeeping, no breaker —
// exactly one attempt, so the parent and the sandbox execute requests
// identically and the differential serve tests hold across the process
// boundary.
//
//===----------------------------------------------------------------------===//

#ifndef TAWA_SERVE_EXECUTE_H
#define TAWA_SERVE_EXECUTE_H

#include "serve/Protocol.h"
#include "support/Status.h"

#include <cstdint>
#include <string>

namespace tawa {
namespace serve {

/// Attempt parameters decided by the policy layer (Service) or the
/// sandbox frame (tawa-sandbox).
struct ExecEnv {
  /// Degradation-ladder level: 0 fused, 1 unfused, >= 2 serial grid.
  /// (Level 3 "sandbox" never reaches this layer — the supervisor routes
  /// it out of process, where the child runs at level 0.)
  int Level = 0;
  /// Remaining deadline budget in ms; arms Runner/RunOptions::MaxWallMs.
  int64_t RemainingMs = 0;
  /// Step budget applied when the request names none.
  int64_t DefaultMaxSteps = 1000000;
  /// Workers per simulation; 0 = hardware.
  int64_t ExecWorkers = 0;
};

/// Executes \p Req once. Returns "" with \p Resp's result fields filled,
/// or the deterministic error string with \p KindOut its classification
/// (ErrorKind::None means: classify the string). Honors the request's
/// sleep_ms test hook (synthetic latency happens *inside* the attempt, so
/// a sandboxed sleeper is killable mid-request). An exception escaping the
/// attempt becomes a "worker crash: ..." error (ErrorKind::WorkerCrash).
std::string executeRequest(const ServeRequest &Req, const ExecEnv &Env,
                           ServeResponse &Resp, ErrorKind &KindOut);

} // namespace serve
} // namespace tawa

#endif // TAWA_SERVE_EXECUTE_H
