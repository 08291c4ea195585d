//===- Trace.cpp - The process-wide action-vector store ----------------------//
//
// Recycles the storage of finished traces (Trace.h). A persistent GEMM's
// CTA emits ~82k actions (~2.6 MB); built in fresh vectors at every point,
// it paid ~1,200 minor page faults and regrowth copies, about half of the
// point's run time. The store hands out vectors by capacity, not by agent or
// trace slot, so one- and two-agent points between two persistent points
// pass the large vectors on instead of dropping them.
//
//===----------------------------------------------------------------------===//

#include "sim/Trace.h"

#include <algorithm>
#include <mutex>

using namespace tawa;
using namespace tawa::sim;

namespace {

/// Vectors below 4,096 actions (128 KiB, glibc's default mmap threshold)
/// are not kept: the heap serves them from memory it already holds.
constexpr size_t MinRecycledActions = 4096;

/// At most this many vectors are kept, the largest first: what a
/// long-lived process (tawa-serve) keeps pinned after its largest request.
/// Measured peak RSS of a figures pass (perfbench, 4-core Xeon): 16.9-17.3
/// MB keeping 8, 16.8-17.0 MB keeping 4 and 17.3-17.7 MB keeping 64
/// (25-29 MB before the store and the 32-byte Action), so eight keep every
/// persistent CTA's agent traces for the next point at no measurable cost.
constexpr size_t MaxRecycledVectors = 8;

struct ActionStore {
  std::mutex Mu;
  /// Cleared vectors in ascending capacity order.
  std::vector<std::vector<Action>> Free;
};

ActionStore &store() {
  static ActionStore S;
  return S;
}

} // namespace

std::vector<Action> tawa::sim::takeActionVector() {
  ActionStore &S = store();
  std::lock_guard<std::mutex> Lock(S.Mu);
  if (S.Free.empty())
    return {};
  std::vector<Action> V = std::move(S.Free.back());
  S.Free.pop_back();
  return V;
}

void tawa::sim::recycleActions(CtaTrace &T) {
  ActionStore &S = store();
  std::lock_guard<std::mutex> Lock(S.Mu);
  for (AgentTrace &A : T.Agents) {
    std::vector<Action> &V = A.Actions;
    if (V.capacity() < MinRecycledActions)
      continue;
    V.clear();
    auto At = std::upper_bound(S.Free.begin(), S.Free.end(), V.capacity(),
                               [](size_t Cap, const std::vector<Action> &F) {
                                 return Cap < F.capacity();
                               });
    S.Free.insert(At, std::move(V));
    if (S.Free.size() > MaxRecycledVectors)
      S.Free.erase(S.Free.begin()); // Drop the smallest.
  }
  T.Agents.clear();
}
