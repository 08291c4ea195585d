//===- PassManager.cpp - Pipeline orchestration --------------------------------//

#include "passes/Passes.h"

#include "ir/Ir.h"
#include "ir/Verifier.h"
#include "support/Support.h"

using namespace tawa;

std::string TawaOptions::validate() const {
  if (ArefDepth < 1)
    return "aref depth D must be >= 1";
  if (MmaPipelineDepth < 0)
    return "MMA pipeline depth P must be >= 0";
  if (MmaPipelineDepth > ArefDepth)
    return formatString("infeasible configuration: MMA pipeline depth P=%lld "
                        "exceeds aref depth D=%lld (the consumer would need "
                        "more borrowed slots than the ring holds)",
                        static_cast<long long>(MmaPipelineDepth),
                        static_cast<long long>(ArefDepth));
  if (CoarsePipeline && ArefDepth < 2)
    return "infeasible configuration: the coarse-grained T/C/U pipeline "
           "borrows the downstream-stage slot across two iterations, so it "
           "requires aref depth D >= 2";
  if (NumConsumerGroups < 1 || NumConsumerGroups > 2)
    return "cooperative consumer groups must be 1 or 2 on Hopper";
  return "";
}

std::string PassManager::run(Module &M) {
  Dumps.clear();
  for (auto &[Name, Fn] : Passes) {
    std::string Err = Fn(M);
    if (!Err.empty())
      return Name + ": " + Err;
    if (std::string VerifyErr = verify(M); !VerifyErr.empty())
      return Name + ": verification failed after pass: " + VerifyErr;
    if (DumpAfterEach)
      Dumps.emplace_back(Name, M.print());
  }
  return "";
}

void tawa::buildTawaPipeline(PassManager &PM, const TawaOptions &Options) {
  if (!Options.EnableWarpSpecialization) {
    // The plain Triton path: no transformation at all (the interpreter runs
    // the tile dialect synchronously); callers wanting the software-pipelined
    // Triton baseline add runSoftwarePipeline themselves.
    return;
  }
  if (Options.Persistent)
    PM.addPass("persistent-kernel", runPersistentKernel);
  PM.addPass("semantic-tagging", runSemanticTagging);
  PM.addPass("warp-specialize", [D = Options.ArefDepth](Module &M) {
    return runWarpSpecialize(M, D);
  });
  if (Options.NumConsumerGroups > 1)
    PM.addPass("cooperative-warp-groups",
               [N = Options.NumConsumerGroups](Module &M) {
                 return runCooperativeWarpGroups(M, N);
               });
  if (Options.CoarsePipeline)
    PM.addPass("coarse-grained-pipeline", runCoarseGrainedPipeline);
  else if (Options.MmaPipelineDepth > 0)
    PM.addPass("fine-grained-pipeline",
               [P = Options.MmaPipelineDepth](Module &M) {
                 return runFineGrainedPipeline(M, P);
               });
  PM.addPass("aref-lowering", runArefLowering);
  PM.addPass("canonicalize", runCanonicalize);
}
