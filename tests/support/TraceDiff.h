//===- TraceDiff.h - Field-by-field CTA trace comparison --------*- C++ -*-===//
//
// The one trace comparison of the differential and determinism tests and of
// the fuzz harness: two runs of a CTA must produce the same trace, field
// for field, whatever the engine, worker count or program-cache path.
//
//===----------------------------------------------------------------------===//

#ifndef TAWA_TESTS_SUPPORT_TRACEDIFF_H
#define TAWA_TESTS_SUPPORT_TRACEDIFF_H

#include "sim/Trace.h"
#include "support/Support.h"

#include <cstring>
#include <string>

namespace tawa {
namespace sim {

/// "" when \p A and \p B match: agent names (skipped when \p SameCta is
/// false, since they carry the CTA coordinates), replica counts, every
/// Action field, barrier arrays, shared memory, happens-before
/// event counts and the atomic contributions in recording order. Otherwise
/// a description of the first difference.
inline std::string traceDiff(const CtaTrace &A, const CtaTrace &B,
                             bool SameCta = true) {
  if (A.Agents.size() != B.Agents.size())
    return formatString("agent count %zu vs %zu", A.Agents.size(),
                        B.Agents.size());
  for (size_t I = 0; I < A.Agents.size(); ++I) {
    const AgentTrace &X = A.Agents[I];
    const AgentTrace &Y = B.Agents[I];
    if (SameCta && X.Name != Y.Name)
      return formatString("agent %zu name '%s' vs '%s'", I, X.Name.c_str(),
                          Y.Name.c_str());
    if (X.Replicas != Y.Replicas)
      return formatString("agent %s replicas", X.Name.c_str());
    if (X.Actions.size() != Y.Actions.size())
      return formatString("agent %s action count %zu vs %zu",
                          X.Name.c_str(), X.Actions.size(),
                          Y.Actions.size());
    for (size_t J = 0; J < X.Actions.size(); ++J) {
      const Action &P = X.Actions[J];
      const Action &Q = Y.Actions[J];
      if (P.Kind != Q.Kind || P.Cycles != Q.Cycles || P.Bytes != Q.Bytes ||
          P.Bar != Q.Bar || P.Idx != Q.Idx || P.Parity != Q.Parity ||
          P.Pendings != Q.Pendings) // Shared with Lookahead.
        return formatString("agent %s action %zu differs", X.Name.c_str(),
                            J);
    }
  }
  if (A.NumBarrierArrays != B.NumBarrierArrays)
    return "barrier array count";
  if (A.BarrierArrivals != B.BarrierArrivals)
    return "barrier arrivals";
  if (A.BarrierSizes != B.BarrierSizes)
    return "barrier sizes";
  if (A.SmemBytes != B.SmemBytes)
    return "smem bytes";
  if (A.HbEvents != B.HbEvents)
    return formatString("happens-before events %llu vs %llu",
                        static_cast<unsigned long long>(A.HbEvents),
                        static_cast<unsigned long long>(B.HbEvents));
  // Deferred atomic contributions (split-K epilogue): the facade applies
  // them in trace order, so recording order and payloads count.
  if (A.Atomics.size() != B.Atomics.size())
    return formatString("atomic contrib count %zu vs %zu", A.Atomics.size(),
                        B.Atomics.size());
  for (size_t I = 0; I < A.Atomics.size(); ++I) {
    const AtomicContrib &P = A.Atomics[I];
    const AtomicContrib &Q = B.Atomics[I];
    if (P.Arg != Q.Arg || P.Index != Q.Index ||
        P.Value.size() != Q.Value.size() ||
        std::memcmp(P.Value.data(), Q.Value.data(),
                    P.Value.size() * sizeof(float)) != 0)
      return formatString("atomic contrib %zu differs", I);
  }
  return "";
}

} // namespace sim
} // namespace tawa

#endif // TAWA_TESTS_SUPPORT_TRACEDIFF_H
