//===- Passes.h - The Tawa compilation pipeline -----------------*- C++ -*-===//
//
// Entry points for every transformation of §III-§IV plus the Triton-style
// software-pipelining baseline, and a small PassManager that verifies the
// module between passes.
//
//===----------------------------------------------------------------------===//

#ifndef TAWA_PASSES_PASSES_H
#define TAWA_PASSES_PASSES_H

#include <functional>
#include <string>
#include <vector>

namespace tawa {

class Module;

/// Compile-time knobs of the Tawa flow (§V-A: "the size of the aref and the
/// depth of the MMA pipeline are selected manually").
struct TawaOptions {
  /// Master switch — the `enable_warp_specialization=True` of §III-A.
  bool EnableWarpSpecialization = true;
  /// Aref ring depth D (Fig. 11 rows).
  int64_t ArefDepth = 2;
  /// Fine-grained MMA pipeline depth P (Fig. 11 columns); 0 disables the
  /// fine-grained pass (synchronous dots).
  int64_t MmaPipelineDepth = 1;
  /// Number of cooperative consumer warp groups (§IV-A); 1 = plain WS.
  int64_t NumConsumerGroups = 1;
  /// Persistent-kernel transformation (§IV-B).
  bool Persistent = false;
  /// Coarse-grained T/C/U pipelining (§III-D2); applies to kernels with the
  /// two-dot structure (attention).
  bool CoarsePipeline = false;

  /// Returns a diagnostic for infeasible combinations (the empty cells of
  /// Fig. 11: P > D would require more borrowed slots than the ring holds),
  /// or "" when feasible.
  std::string validate() const;
};

//===----------------------------------------------------------------------===//
// Individual passes. Each returns "" on success or a diagnostic.
//===----------------------------------------------------------------------===//

/// §III-C1: tags every op `tawa.tag = "iter" | "tile" | "load"` by walking
/// backward from side-effecting sinks.
std::string runSemanticTagging(Module &M);

/// §IV-B: converts the grid-parallel kernel into a persistent kernel whose
/// resident CTAs loop over a tile work queue. Must run before partitioning.
std::string runPersistentKernel(Module &M);

/// §III-C2: partitions the tagged program into producer/consumer warp
/// groups, creates arefs (ring depth \p ArefDepth) per cross-partition edge
/// (grouping tensors that feed the same dot into tuple payloads), duplicates
/// shared iteration statements, and distributes loops.
std::string runWarpSpecialize(Module &M, int64_t ArefDepth);

/// §IV-A: clones the consumer warp group into \p NumGroups cooperative
/// replicas sharing each tile.
std::string runCooperativeWarpGroups(Module &M, int64_t NumGroups);

/// §III-D1: bounded MMA pipeline of depth \p P inside consumer warp groups:
/// dots become async issues, waits keep at most P in flight, and consumed
/// ops lag by P iterations (with a drain epilogue).
std::string runFineGrainedPipeline(Module &M, int64_t P);

/// §III-D2 (Algorithm 1): rotates T -> C -> U loops so the CUDA-core stage
/// C_{j-1} overlaps the tensor-core stage T_j.
std::string runCoarseGrainedPipeline(Module &M);

/// §III-E: lowers create_aref/put/get/consumed to shared-memory buffers,
/// transaction mbarriers with the two-phase parity scheme, and async TMA
/// copies; converts remaining synchronous dots to issue+wait(0) pairs.
std::string runArefLowering(Module &M);

/// Baseline: Ampere-style `cp.async` software pipelining inside a single
/// warp role (what Triton emits without warp specialization, §II-B).
std::string runSoftwarePipeline(Module &M, int64_t Depth);

/// Cleanup: dead-code elimination.
std::string runCanonicalize(Module &M);

//===----------------------------------------------------------------------===//
// PassManager
//===----------------------------------------------------------------------===//

/// Runs a sequence of named passes, verifying the module after each one and
/// optionally collecting IR dumps.
class PassManager {
public:
  using PassFn = std::function<std::string(Module &)>;

  void addPass(std::string Name, PassFn Fn) {
    Passes.push_back({std::move(Name), std::move(Fn)});
  }

  /// Set to capture the IR after each pass (for -print-ir-after-all style
  /// debugging and the pass unit tests).
  bool DumpAfterEach = false;

  /// Runs all passes; returns "" or "<pass>: <diagnostic>".
  std::string run(Module &M);

  /// IR dumps collected when DumpAfterEach is set, one per pass.
  const std::vector<std::pair<std::string, std::string>> &getDumps() const {
    return Dumps;
  }

private:
  std::vector<std::pair<std::string, PassFn>> Passes;
  std::vector<std::pair<std::string, std::string>> Dumps;
};

/// Builds the full Tawa pipeline for \p Options into \p PM (the §III-A flow:
/// persistent? -> tagging -> warp specialization -> cooperative groups ->
/// pipelining -> aref lowering -> cleanup).
void buildTawaPipeline(PassManager &PM, const TawaOptions &Options);

} // namespace tawa

#endif // TAWA_PASSES_PASSES_H
