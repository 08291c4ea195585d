//===- Protocol.h - tawa-serve wire protocol --------------------*- C++ -*-===//
//
// Request / response schemas for the tawa-serve daemon (docs/serving.md).
// Messages are newline-delimited single-line JSON documents over a unix
// socket: requests parse through the strict support/Json reader
// (tawa-serve-req-v1), responses render through a deterministic compact
// emitter (tawa-serve-resp-v1) with a stable field order, so a response
// built from identical result fields is identical byte-for-byte — the
// serve tests replay the fuzz corpus through the socket and diff against
// responses rendered from a direct Interpreter run.
//
// This layer is pure data <-> text: no sockets, no execution, no policy.
// Admission, retries and degradation live in serve/Server.
//
//===----------------------------------------------------------------------===//

#ifndef TAWA_SERVE_PROTOCOL_H
#define TAWA_SERVE_PROTOCOL_H

#include "models/Frameworks.h"

#include <cstdint>
#include <string>
#include <vector>

namespace tawa {
namespace serve {

/// A decoded tawa-serve-req-v1 request. Parsing is strict: unknown
/// `kind`/`framework`/`precision` strings, wrongly-typed fields, and
/// out-of-range shapes are rejected up front (status "rejected", reason
/// "bad-request") rather than executed with silent defaults.
struct ServeRequest {
  enum class Kind { Ping, Gemm, Attention, Ir };

  std::string Id; ///< Echoed back verbatim; may be empty.
  Kind K = Kind::Ping;

  // kind = gemm | attention.
  Framework F = Framework::Tawa;
  GemmWorkload Gemm;
  AttentionWorkload Mha;
  bool Functional = false;

  // kind = ir: a textual module carrying fuzz.grid / fuzz.args launch
  // attributes — the fuzz-corpus format. A module that also carries
  // fuzz.faults is refused at execution (serve/Execute.h).
  std::string IrText;

  /// Per-request deadline in wall milliseconds, 0 = server default. Covers
  /// queue wait + every retry attempt; the remaining budget maps onto the
  /// execution watchdog (RunOptions::MaxWallMs) so a trip yields the
  /// structured tawa-diag-v1 post-mortem.
  int64_t DeadlineMs = 0;
  /// Per-CTA step budget, 0 = server default (deterministic guardrail).
  int64_t MaxSteps = 0;

  /// Synthetic execution latency in milliseconds (load generator and the
  /// deterministic overload tests; capped at 60000).
  int64_t SleepMs = 0;
  /// Test hook: the request blocks on the service gate (Service::closeGate)
  /// before executing, making accept/reject sequences deterministic.
  bool WaitGate = false;
  /// Opt into out-of-process execution: the request runs in a warm
  /// tawa-sandbox child under the supervisor (docs/serving.md). The
  /// degradation ladder can also escalate a crashing compile key here.
  bool Sandbox = false;
};

/// Parses and validates one request line. Returns "" on success or a
/// deterministic reason string ("byte N: ..." for malformed JSON, a
/// field-specific message otherwise). On JSON-level failure \p Out.Id is
/// best-effort empty; on field-level failure the id has already been
/// captured so the rejection can be correlated.
std::string parseRequest(const std::string &Text, ServeRequest &Out);

/// A tawa-serve-resp-v1 response. Field semantics by status:
///  * "ok":       result fields valid; Attempts/Degrade tell the cost.
///  * "rejected": Reason is "overloaded" | "shutting-down" | "bad-request";
///                the request was never executed (bad-request also carries
///                Error with the parse/validation message).
///  * "failed":   executed but failed; Error/ErrorKind carry the
///                classified taxonomy (support/Status.h), DiagJson the
///                post-mortem when a guardrail tripped.
struct ServeResponse {
  enum class Status { Ok, Rejected, Failed };

  std::string Id;
  Status St = Status::Ok;
  std::string Reason;
  std::string Error;
  std::string ErrorKind; ///< errorKindName; "" when not a failure.
  /// Execution attempts consumed (0 for rejections; >1 means retries).
  int64_t Attempts = 0;
  /// Degradation-ladder rung the final attempt ran at: "fused" (in
  /// process) | "sandbox" (out of process).
  std::string Degrade = "fused";

  // kind = gemm | attention results.
  bool HasRun = false;
  double Micros = 0;
  double TFlops = 0;
  double MaxRelError = -1;
  int64_t SmemBytes = 0;
  int64_t RegsPerThread = 0;

  // kind = ir results: fnv1a64 of each output tensor's raw bytes (launch
  // args with FillSeed == 0, in argument order), plus the replayed SM
  // schedule's cycle count.
  bool HasIr = false;
  std::vector<std::string> Outputs;
  double Cycles = -1;

  /// Pretty tawa-diag-v1 document (sim/Diag renderJson), "" when no
  /// diagnostic; embedded compactly under "diag".
  std::string DiagJson;

  /// One-line compact JSON, no trailing newline (the transport adds '\n').
  std::string render() const;
};

/// Parses a tawa-serve-resp-v1 line back into a ServeResponse — the
/// inverse of render(), used by the sandbox supervisor to decode a child
/// process's answer. Returns "" on success or a deterministic reason
/// string. parse(render(R)) reproduces R's wire-visible fields, so
/// re-rendering in the parent is byte-identical (the sandbox differential
/// tests pin this).
std::string parseResponse(const std::string &Text, ServeResponse &Out);

/// Short machine names used on the wire ("tawa", "cublas", "triton",
/// "triton-nopipe", "tilelang", "thunderkittens", "fa3", "peak").
const char *frameworkWireName(Framework F);
/// Inverse of frameworkWireName; returns false on unknown names.
bool frameworkFromWireName(const std::string &Name, Framework &Out);

} // namespace serve
} // namespace tawa

#endif // TAWA_SERVE_PROTOCOL_H
