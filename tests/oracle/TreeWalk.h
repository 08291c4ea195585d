//===- TreeWalk.h - Tree-walking interpreter (oracle) -----------*- C++ -*-===//
//
// The original per-op tree-walking execution engine, preserved verbatim as
// the differential-testing oracle for the bytecode executor.
//
//===----------------------------------------------------------------------===//

#ifndef TAWA_ORACLE_TREEWALK_H
#define TAWA_ORACLE_TREEWALK_H

#include "sim/Interpreter.h"

#include <string>

namespace tawa {

class Module;

namespace sim {

/// Interprets CTA (PidX, PidY) by walking the IR of \p M. Same contract as
/// Interpreter::runCta.
std::string runCtaOracle(Module &M, const GpuConfig &Config,
                         const RunOptions &Opts, int64_t PidX, int64_t PidY,
                         CtaTrace &Out);

/// Serial grid loop; same contract as Interpreter::runGrid.
std::string runGridOracle(Module &M, const GpuConfig &Config,
                          const RunOptions &Opts,
                          std::vector<CtaTrace> *AllTraces = nullptr);

} // namespace sim
} // namespace tawa

#endif // TAWA_ORACLE_TREEWALK_H
