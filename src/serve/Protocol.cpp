//===- Protocol.cpp - tawa-serve wire protocol ---------------------------------//

#include "serve/Protocol.h"

#include "sim/Launch.h"
#include "support/Json.h"
#include "support/Support.h"

#include <cinttypes>
#include <initializer_list>
#include <limits>

using namespace tawa;
using namespace tawa::serve;

//===----------------------------------------------------------------------===//
// Framework wire names
//===----------------------------------------------------------------------===//

const char *tawa::serve::frameworkWireName(Framework F) {
  switch (F) {
  case Framework::Peak:
    return "peak";
  case Framework::CuBlas:
    return "cublas";
  case Framework::Tawa:
    return "tawa";
  case Framework::Triton:
    return "triton";
  case Framework::TritonNoPipe:
    return "triton-nopipe";
  case Framework::TileLang:
    return "tilelang";
  case Framework::ThunderKittens:
    return "thunderkittens";
  case Framework::FA3:
    return "fa3";
  }
  return "<unknown>";
}

bool tawa::serve::frameworkFromWireName(const std::string &Name,
                                        Framework &Out) {
  for (Framework F :
       {Framework::Peak, Framework::CuBlas, Framework::Tawa,
        Framework::Triton, Framework::TritonNoPipe, Framework::TileLang,
        Framework::ThunderKittens, Framework::FA3}) {
    if (Name == frameworkWireName(F)) {
      Out = F;
      return true;
    }
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Request parsing
//===----------------------------------------------------------------------===//

namespace {

/// Shape guards: a poisoned request must not be able to ask for an
/// absurd allocation before the deadline machinery even starts.
constexpr int64_t MaxDim = 1 << 16;       ///< M/N/K, SeqLen, HeadDim.
constexpr int64_t MaxCount = 4096;        ///< Batch, Heads.
constexpr int64_t MaxDeadlineMs = 600000; ///< 10 minutes.
constexpr int64_t MaxSleepMs = 60000;
/// Bounds on products of fields, which can be out of reach while every
/// field is in range. The CTA grid of any request: GEMM batch*m*n output
/// elements, attention batch*heads*seq_len query rows (the largest figure
/// points have 2^31 and 2^21). Functional requests also keep each host
/// tensor within sim::MaxLaunchElems, like an `ir` launch.
constexpr int64_t MaxGemmGridElems = int64_t(1) << 32;
constexpr int64_t MaxAttentionGridRows = int64_t(1) << 22;

/// Reads an integer field with a [1, Cap] range check. Returns "" or the
/// rejection reason.
std::string intField(const JsonValue &V, const char *Key, int64_t Cap,
                     int64_t &Out) {
  std::string TypeErr;
  int64_t N = V.getInt(Key, Out, &TypeErr);
  if (!TypeErr.empty())
    return std::string("field '") + Key + "' must be an integer";
  if (N < 1 || N > Cap)
    return formatString("field '%s' out of range [1, %lld]", Key,
                        static_cast<long long>(Cap));
  Out = N;
  return "";
}

/// Non-negative variant for budgets (0 = server default).
std::string budgetField(const JsonValue &V, const char *Key, int64_t Cap,
                        int64_t &Out) {
  std::string TypeErr;
  int64_t N = V.getInt(Key, Out, &TypeErr);
  if (!TypeErr.empty())
    return std::string("field '") + Key + "' must be an integer";
  if (N < 0 || N > Cap)
    return formatString("field '%s' out of range [0, %lld]", Key,
                        static_cast<long long>(Cap));
  Out = N;
  return "";
}

/// Rejects a product of request fields, named \p What, over \p Cap. No
/// product of in-range fields overflows: at most 2^12 * 2^12 * 2^16 * 2^16.
std::string productField(const char *What,
                         std::initializer_list<int64_t> Factors,
                         int64_t Cap) {
  int64_t N = 1;
  for (int64_t F : Factors)
    N *= F;
  if (N <= Cap)
    return "";
  return formatString("'%s' = %lld exceeds %lld", What,
                      static_cast<long long>(N), static_cast<long long>(Cap));
}

} // namespace

std::string tawa::serve::parseRequest(const std::string &Text,
                                      ServeRequest &Out) {
  Out = ServeRequest();
  JsonValue V;
  std::string Err;
  if (!parseJson(Text, V, Err))
    return Err;
  if (!V.isObject())
    return "request must be a JSON object";

  std::string TypeErr;
  Out.Id = V.getString("id", "", &TypeErr);
  if (!TypeErr.empty())
    return "field 'id' must be a string";

  std::string Schema = V.getString("schema", "", &TypeErr);
  if (!TypeErr.empty() || Schema != "tawa-serve-req-v1")
    return "field 'schema' must be \"tawa-serve-req-v1\"";

  std::string Kind = V.getString("kind", "", &TypeErr);
  if (!TypeErr.empty())
    return "field 'kind' must be a string";
  if (Kind == "ping")
    Out.K = ServeRequest::Kind::Ping;
  else if (Kind == "gemm")
    Out.K = ServeRequest::Kind::Gemm;
  else if (Kind == "attention")
    Out.K = ServeRequest::Kind::Attention;
  else if (Kind == "ir")
    Out.K = ServeRequest::Kind::Ir;
  else
    return "field 'kind' must be one of ping|gemm|attention|ir";

  if (std::string E = budgetField(V, "deadline_ms", MaxDeadlineMs,
                                  Out.DeadlineMs);
      !E.empty())
    return E;
  {
    int64_t Steps = 0;
    std::string E = budgetField(V, "max_steps",
                                std::numeric_limits<int64_t>::max(), Steps);
    if (!E.empty())
      return E;
    Out.MaxSteps = Steps;
  }
  if (std::string E = budgetField(V, "sleep_ms", MaxSleepMs, Out.SleepMs);
      !E.empty())
    return E;
  Out.WaitGate = V.getBool("wait_gate", false, &TypeErr);
  if (!TypeErr.empty())
    return "field 'wait_gate' must be a boolean";
  Out.Sandbox = V.getBool("sandbox", false, &TypeErr);
  if (!TypeErr.empty())
    return "field 'sandbox' must be a boolean";
  Out.Functional = V.getBool("functional", false, &TypeErr);
  if (!TypeErr.empty())
    return "field 'functional' must be a boolean";

  if (Out.K == ServeRequest::Kind::Ping)
    return "";

  if (Out.K == ServeRequest::Kind::Ir) {
    Out.IrText = V.getString("ir", "", &TypeErr);
    if (!TypeErr.empty())
      return "field 'ir' must be a string";
    if (Out.IrText.empty())
      return "kind 'ir' requires a non-empty 'ir' field";
    return "";
  }

  std::string Fw = V.getString("framework", "tawa", &TypeErr);
  if (!TypeErr.empty())
    return "field 'framework' must be a string";
  if (!frameworkFromWireName(Fw, Out.F))
    return "unknown framework '" + Fw + "'";

  std::string Prec = V.getString("precision", "fp16", &TypeErr);
  if (!TypeErr.empty())
    return "field 'precision' must be a string";
  Precision P;
  if (Prec == "fp16")
    P = Precision::FP16;
  else if (Prec == "fp8")
    P = Precision::FP8;
  else
    return "field 'precision' must be fp16|fp8";

  if (Out.K == ServeRequest::Kind::Gemm) {
    // Service-sized defaults, not benchmark-sized: an unconstrained
    // request should not default to an 8192^3 functional run.
    Out.Gemm.M = Out.Gemm.N = 512;
    Out.Gemm.K = 256;
    Out.Gemm.Batch = 1;
    Out.Gemm.Prec = P;
    if (std::string E = intField(V, "m", MaxDim, Out.Gemm.M); !E.empty())
      return E;
    if (std::string E = intField(V, "n", MaxDim, Out.Gemm.N); !E.empty())
      return E;
    if (std::string E = intField(V, "k", MaxDim, Out.Gemm.K); !E.empty())
      return E;
    if (std::string E = intField(V, "batch", MaxCount, Out.Gemm.Batch);
        !E.empty())
      return E;
    const GemmWorkload &G = Out.Gemm;
    if (std::string E = productField("batch*m*n", {G.Batch, G.M, G.N},
                                     MaxGemmGridElems);
        !E.empty())
      return E;
    if (!Out.Functional)
      return "";
    // The host tensors A, B and C.
    if (std::string E = productField("batch*m*k", {G.Batch, G.M, G.K},
                                     sim::MaxLaunchElems);
        !E.empty())
      return E;
    if (std::string E = productField("batch*n*k", {G.Batch, G.N, G.K},
                                     sim::MaxLaunchElems);
        !E.empty())
      return E;
    return productField("batch*m*n", {G.Batch, G.M, G.N},
                        sim::MaxLaunchElems);
  }

  Out.Mha.SeqLen = 512;
  Out.Mha.Batch = 1;
  Out.Mha.Heads = 1;
  Out.Mha.HeadDim = 128;
  Out.Mha.Prec = P;
  if (std::string E = intField(V, "seq_len", MaxDim, Out.Mha.SeqLen);
      !E.empty())
    return E;
  if (std::string E = intField(V, "batch", MaxCount, Out.Mha.Batch);
      !E.empty())
    return E;
  if (std::string E = intField(V, "heads", MaxCount, Out.Mha.Heads);
      !E.empty())
    return E;
  if (std::string E = intField(V, "head_dim", MaxDim, Out.Mha.HeadDim);
      !E.empty())
    return E;
  Out.Mha.Causal = V.getBool("causal", false, &TypeErr);
  if (!TypeErr.empty())
    return "field 'causal' must be a boolean";
  const AttentionWorkload &A = Out.Mha;
  if (std::string E =
          productField("batch*heads*seq_len", {A.Batch, A.Heads, A.SeqLen},
                       MaxAttentionGridRows);
      !E.empty())
    return E;
  if (!Out.Functional)
    return "";
  // The host tensors Q, K, V and O share one shape.
  return productField("batch*heads*seq_len*head_dim",
                      {A.Batch, A.Heads, A.SeqLen, A.HeadDim},
                      sim::MaxLaunchElems);
}

//===----------------------------------------------------------------------===//
// Response rendering
//===----------------------------------------------------------------------===//

namespace {

void appendCompact(std::string &Out, const JsonValue &V) {
  switch (V.kind()) {
  case JsonValue::Kind::Null:
    Out += "null";
    return;
  case JsonValue::Kind::Bool:
    Out += V.asBool() ? "true" : "false";
    return;
  case JsonValue::Kind::Int:
    Out += formatString("%lld", static_cast<long long>(V.asInt64()));
    return;
  case JsonValue::Kind::Double:
    Out += formatString("%.6f", V.asDouble());
    return;
  case JsonValue::Kind::String:
    Out += '"';
    Out += JsonWriter::escape(V.asString());
    Out += '"';
    return;
  case JsonValue::Kind::Array: {
    Out += '[';
    bool First = true;
    for (const JsonValue &E : V.elements()) {
      if (!First)
        Out += ',';
      First = false;
      appendCompact(Out, E);
    }
    Out += ']';
    return;
  }
  case JsonValue::Kind::Object: {
    Out += '{';
    bool First = true;
    for (const JsonValue::Member &M : V.members()) {
      if (!First)
        Out += ',';
      First = false;
      Out += '"';
      Out += JsonWriter::escape(M.first);
      Out += "\":";
      appendCompact(Out, M.second);
    }
    Out += '}';
    return;
  }
  }
}

void strField(std::string &Out, const char *Key, const std::string &V,
              bool &First) {
  if (!First)
    Out += ',';
  First = false;
  Out += '"';
  Out += Key;
  Out += "\":\"";
  Out += JsonWriter::escape(V);
  Out += '"';
}

void intFieldOut(std::string &Out, const char *Key, int64_t V, bool &First) {
  if (!First)
    Out += ',';
  First = false;
  Out += formatString("\"%s\":%lld", Key, static_cast<long long>(V));
}

void dblField(std::string &Out, const char *Key, double V, int Decimals,
              bool &First) {
  if (!First)
    Out += ',';
  First = false;
  Out += formatString("\"%s\":%.*f", Key, Decimals, V);
}

} // namespace

std::string ServeResponse::render() const {
  std::string Out = "{";
  bool First = true;
  strField(Out, "schema", "tawa-serve-resp-v1", First);
  strField(Out, "id", Id, First);
  const char *StName = St == Status::Ok         ? "ok"
                       : St == Status::Rejected ? "rejected"
                                                : "failed";
  strField(Out, "status", StName, First);
  if (!Reason.empty())
    strField(Out, "reason", Reason, First);
  if (!Error.empty())
    strField(Out, "error", Error, First);
  if (!ErrorKind.empty())
    strField(Out, "error_kind", ErrorKind, First);
  intFieldOut(Out, "attempts", Attempts, First);
  strField(Out, "degrade", Degrade, First);
  if (HasRun) {
    dblField(Out, "micros", Micros, 3, First);
    dblField(Out, "tflops", TFlops, 3, First);
    dblField(Out, "max_rel_error", MaxRelError, 6, First);
    intFieldOut(Out, "smem_bytes", SmemBytes, First);
    intFieldOut(Out, "regs_per_thread", RegsPerThread, First);
  }
  if (HasIr) {
    if (!First)
      Out += ',';
    First = false;
    Out += "\"outputs\":[";
    for (size_t I = 0; I < Outputs.size(); ++I) {
      if (I)
        Out += ',';
      Out += '"';
      Out += JsonWriter::escape(Outputs[I]);
      Out += '"';
    }
    Out += ']';
    if (Cycles >= 0)
      dblField(Out, "cycles", Cycles, 3, First);
  }
  if (!DiagJson.empty()) {
    // Re-emit the pretty tawa-diag-v1 document compactly; the parse
    // cannot fail on writer output, but a defensive fallback embeds
    // nothing rather than corrupting the frame.
    JsonValue D;
    std::string Err;
    if (parseJson(DiagJson, D, Err)) {
      if (!First)
        Out += ',';
      First = false;
      Out += "\"diag\":";
      appendCompact(Out, D);
    }
  }
  Out += '}';
  return Out;
}

//===----------------------------------------------------------------------===//
// Response parsing (sandbox supervisor side)
//===----------------------------------------------------------------------===//

std::string tawa::serve::parseResponse(const std::string &Text,
                                       ServeResponse &Out) {
  Out = ServeResponse();
  JsonValue V;
  std::string Err;
  if (!parseJson(Text, V, Err))
    return Err;
  if (!V.isObject())
    return "response must be a JSON object";

  std::string TypeErr;
  std::string Schema = V.getString("schema", "", &TypeErr);
  if (!TypeErr.empty() || Schema != "tawa-serve-resp-v1")
    return "field 'schema' must be \"tawa-serve-resp-v1\"";
  Out.Id = V.getString("id", "", &TypeErr);
  if (!TypeErr.empty())
    return "field 'id' must be a string";

  std::string St = V.getString("status", "", &TypeErr);
  if (St == "ok")
    Out.St = ServeResponse::Status::Ok;
  else if (St == "rejected")
    Out.St = ServeResponse::Status::Rejected;
  else if (St == "failed")
    Out.St = ServeResponse::Status::Failed;
  else
    return "field 'status' must be ok|rejected|failed";

  Out.Reason = V.getString("reason", "", &TypeErr);
  Out.Error = V.getString("error", "", &TypeErr);
  Out.ErrorKind = V.getString("error_kind", "", &TypeErr);
  Out.Attempts = V.getInt("attempts", 0, &TypeErr);
  Out.Degrade = V.getString("degrade", "fused", &TypeErr);
  if (!TypeErr.empty())
    return "field '" + TypeErr + "' has the wrong type";

  if (const JsonValue *M = V.find("micros"); M && M->isNumber()) {
    Out.HasRun = true;
    Out.Micros = M->asDouble();
    if (const JsonValue *F = V.find("tflops"); F && F->isNumber())
      Out.TFlops = F->asDouble();
    if (const JsonValue *E = V.find("max_rel_error"); E && E->isNumber())
      Out.MaxRelError = E->asDouble();
    Out.SmemBytes = V.getInt("smem_bytes", 0, nullptr);
    Out.RegsPerThread = V.getInt("regs_per_thread", 0, nullptr);
  }
  if (const JsonValue *O = V.find("outputs"); O && O->isArray()) {
    Out.HasIr = true;
    for (const JsonValue &E : O->elements()) {
      if (!E.isString())
        return "field 'outputs' must be an array of strings";
      Out.Outputs.push_back(E.asString());
    }
    if (const JsonValue *Cy = V.find("cycles"); Cy && Cy->isNumber())
      Out.Cycles = Cy->asDouble();
  }
  if (const JsonValue *D = V.find("diag"); D && D->isObject()) {
    std::string Compact;
    appendCompact(Compact, *D);
    Out.DiagJson = Compact;
  }
  return "";
}
