//===- Diag.cpp - Execution-abort diagnostic rendering --------------------===//

#include "sim/Diag.h"

#include "support/Json.h"
#include "support/Support.h"

using namespace tawa;
using namespace tawa::sim;

std::string ExecDiagnostic::renderText() const {
  std::string S = "tawa execution diagnostic\n";
  S += formatString("  kind: %s\n", Kind.c_str());
  S += formatString("  cta: (%lld,%lld)\n", static_cast<long long>(PidX),
                    static_cast<long long>(PidY));
  if (StepBudget > 0)
    S += formatString("  step budget: %lld\n",
                      static_cast<long long>(StepBudget));
  S += "  error: " + Error + "\n";
  S += "  agents:\n";
  for (const Agent &A : Agents) {
    S += formatString("    agent %lld \"%s\": %s after %lld steps",
                      static_cast<long long>(A.Id), A.Name.c_str(),
                      A.State.c_str(), static_cast<long long>(A.Steps));
    if (A.HasWait)
      S += formatString(", waits %s[%lld] (channel %lld) parity %lld, "
                        "completions %lld",
                        A.WaitKind.c_str(),
                        static_cast<long long>(A.WaitIndex),
                        static_cast<long long>(A.WaitChannel),
                        static_cast<long long>(A.WaitParity),
                        static_cast<long long>(A.WaitCompletions));
    S += "\n";
    if (!A.Error.empty())
      S += "      error: " + A.Error + "\n";
  }
  if (!Barriers.empty()) {
    S += "  barriers:\n";
    for (size_t I = 0; I != Barriers.size(); ++I) {
      const Barrier &B = Barriers[I];
      S += formatString("    barrier %lld: %s (channel %lld) expected %lld,"
                        " completions [",
                        static_cast<long long>(I), B.Kind.c_str(),
                        static_cast<long long>(B.Channel),
                        static_cast<long long>(B.Expected));
      for (size_t J = 0; J != B.Completions.size(); ++J)
        S += formatString(J ? " %lld" : "%lld",
                          static_cast<long long>(B.Completions[J]));
      S += "], arrivals [";
      for (size_t J = 0; J != B.Arrivals.size(); ++J)
        S += formatString(J ? " %lld" : "%lld",
                          static_cast<long long>(B.Arrivals[J]));
      S += "]\n";
    }
  }
  if (!Channels.empty()) {
    S += "  channels:\n";
    for (const Channel &C : Channels)
      S += formatString("    channel %lld: slots %s\n",
                        static_cast<long long>(C.Id), C.Slots.c_str());
  }
  return S;
}

std::string ExecDiagnostic::renderJson() const {
  JsonWriter W;
  W.beginObject();
  W.field("schema", "tawa-diag-v1");
  W.field("kind", Kind);
  W.key("cta").beginObject().field("x", PidX).field("y", PidY).endObject();
  if (StepBudget > 0)
    W.field("step_budget", StepBudget);
  W.field("error", Error);
  W.key("agents").beginArray();
  for (const Agent &A : Agents) {
    W.beginObject();
    W.field("id", A.Id);
    W.field("name", A.Name);
    W.field("state", A.State);
    W.field("steps", A.Steps);
    if (!A.Error.empty())
      W.field("error", A.Error);
    if (A.HasWait) {
      W.key("wait").beginObject();
      W.field("kind", A.WaitKind);
      W.field("index", A.WaitIndex);
      W.field("channel", A.WaitChannel);
      W.field("parity", A.WaitParity);
      W.field("completions", A.WaitCompletions);
      W.endObject();
    }
    W.endObject();
  }
  W.endArray();
  W.key("barriers").beginArray();
  for (const Barrier &B : Barriers) {
    W.beginObject();
    W.field("channel", B.Channel);
    W.field("kind", B.Kind);
    W.field("expected", B.Expected);
    W.key("completions").beginArray();
    for (int64_t V : B.Completions)
      W.value(V);
    W.endArray();
    W.key("arrivals").beginArray();
    for (int64_t V : B.Arrivals)
      W.value(V);
    W.endArray();
    W.endObject();
  }
  W.endArray();
  W.key("channels").beginArray();
  for (const Channel &C : Channels) {
    W.beginObject();
    W.field("channel", C.Id);
    W.field("slots", C.Slots);
    W.endObject();
  }
  W.endArray();
  W.endObject();
  return W.str();
}
