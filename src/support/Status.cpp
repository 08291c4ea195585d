//===- Status.cpp - Structured failure taxonomy ---------------------------===//

#include "support/Status.h"

#include <cctype>

using namespace tawa;

const char *tawa::errorKindName(ErrorKind K) {
  switch (K) {
  case ErrorKind::None:
    return "none";
  case ErrorKind::Deadlock:
    return "deadlock";
  case ErrorKind::StepBudget:
    return "step-budget";
  case ErrorKind::WallClock:
    return "wall-clock";
  case ErrorKind::ProtocolViolation:
    return "protocol-violation";
  case ErrorKind::WorkerCrash:
    return "worker-crash";
  case ErrorKind::CompileError:
    return "compile-error";
  case ErrorKind::Unsupported:
    return "unsupported";
  case ErrorKind::Infeasible:
    return "infeasible";
  case ErrorKind::SandboxCrash:
    return "sandbox-crash";
  case ErrorKind::SandboxTimeout:
    return "sandbox-timeout";
  case ErrorKind::Internal:
    return "internal";
  }
  return "internal";
}

bool tawa::errorKindFromName(const std::string &Name, ErrorKind &Out) {
  for (int I = 0; I <= static_cast<int>(ErrorKind::Internal); ++I) {
    ErrorKind K = static_cast<ErrorKind>(I);
    if (Name == errorKindName(K)) {
      Out = K;
      return true;
    }
  }
  return false;
}

namespace {

bool startsWith(const std::string &S, size_t At, const char *Prefix) {
  return S.compare(At, std::char_traits<char>::length(Prefix), Prefix) == 0;
}

/// Skips one "cta (x,y): " coordinate prefix (the runGrid/runCtaBatch
/// formatting) so per-CTA errors classify by their underlying message.
size_t skipCtaPrefix(const std::string &S) {
  if (!startsWith(S, 0, "cta ("))
    return 0;
  size_t I = 5;
  auto skipInt = [&] {
    size_t Begin = I;
    if (I < S.size() && S[I] == '-')
      ++I;
    while (I < S.size() && std::isdigit(static_cast<unsigned char>(S[I])))
      ++I;
    return I > Begin;
  };
  if (!skipInt() || I >= S.size() || S[I] != ',')
    return 0;
  ++I;
  if (!skipInt() || !startsWith(S, I, "): "))
    return 0;
  return I + 3;
}

} // namespace

ErrorKind tawa::classifyError(const std::string &Error) {
  if (Error.empty())
    return ErrorKind::None;
  size_t At = skipCtaPrefix(Error);
  if (startsWith(Error, At, "deadlock:"))
    return ErrorKind::Deadlock;
  if (startsWith(Error, At, "step budget"))
    return ErrorKind::StepBudget;
  if (startsWith(Error, At, "wall clock"))
    return ErrorKind::WallClock;
  if (startsWith(Error, At, "protocol violation"))
    return ErrorKind::ProtocolViolation;
  if (startsWith(Error, At, "worker crash:"))
    return ErrorKind::WorkerCrash;
  if (startsWith(Error, At, "compile: "))
    return ErrorKind::CompileError;
  if (startsWith(Error, At, "unsupported launch:"))
    return ErrorKind::Unsupported;
  if (startsWith(Error, At, "sandbox crash:") ||
      startsWith(Error, At, "sandbox spawn:"))
    return ErrorKind::SandboxCrash;
  if (startsWith(Error, At, "sandbox timeout"))
    return ErrorKind::SandboxTimeout;
  return ErrorKind::Internal;
}
