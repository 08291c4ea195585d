//===- ProgramCache.h - Process-wide compiled-program cache -----*- C++ -*-===//
//
// The promotion of the historical per-Runner getOrCompile map into one
// process-wide cache of compiled kernels, bounded by an entry-count and
// byte LRU and optionally persisted to disk:
//
//   * every Runner in the process shares entries, so a bench harness that
//     constructs a Runner per sweep point still compiles each distinct
//     kernel once per process;
//   * with a persist directory configured (the TAWA_CACHE_DIR environment
//     variable, or setPersistDir), a miss first tries to load the
//     serialized CompiledProgram from disk (Bytecode.h's versioned binary
//     format), so repeated process launches skip lowering and the pass
//     pipeline entirely; any defect — truncation, corruption, a format or
//     machine-config mismatch — silently falls back to recompilation;
//   * entries are immutable once inserted and handed out as shared_ptrs,
//     so eviction never invalidates a live user.
//
// Keys are caller-provided strings covering every compile-time knob
// (kernel family, tile shape, precision, pipeline options); the cache
// appends a digest of the machine config, so two GpuConfigs never alias.
// See docs/program-cache.md for the key schema and on-disk format.
//
//===----------------------------------------------------------------------===//

#ifndef TAWA_SUPPORT_PROGRAMCACHE_H
#define TAWA_SUPPORT_PROGRAMCACHE_H

#include <cstddef>
#include <functional>
#include <memory>
#include <string>

namespace tawa {

class IrContext;
class Module;

namespace sim {
struct GpuConfig;
namespace bc {
struct CompiledProgram;
}
} // namespace sim

class ProgramCache {
public:
  /// One cached kernel. Ctx/M are null for disk-loaded entries (the
  /// CompiledProgram is self-contained). Entries are IMMUTABLE once
  /// inserted: other threads read them without the cache lock.
  struct Entry {
    Entry();
    ~Entry();
    std::shared_ptr<IrContext> Ctx; ///< Destroyed after M (declared first).
    std::shared_ptr<Module> M;
    std::shared_ptr<const sim::bc::CompiledProgram> Prog;
  };
  using EntryRef = std::shared_ptr<Entry>;

  /// How a getOrCompile request was satisfied (drives the Runner's
  /// hit/miss accounting and the bench counters).
  enum class Outcome { MemoryHit, DiskHit, Compiled, Failed };

  struct Stats {
    size_t MemoryHits = 0;
    size_t DiskHits = 0;  ///< Deserialized from the persist dir.
    size_t Compiles = 0;  ///< Full lowering + pass pipeline runs.
    size_t Evictions = 0; ///< LRU evictions (entry or byte bound).
    size_t Entries = 0;   ///< Current resident entries.
    size_t Bytes = 0;     ///< Current resident program bytes (estimate).
    /// Cache files that existed but could not be used (IO error,
    /// truncation, corruption, version/config mismatch). Each one silently
    /// degraded to a recompile (a disk failure never surfaces as a run
    /// failure, by design); the counter is how tests and harnesses observe
    /// that the failure path actually ran.
    size_t DiskReadFailures = 0;
    /// Entries that failed to land on disk (write/close/rename failure);
    /// a later process recompiles instead of disk-hitting.
    size_t DiskWriteFailures = 0;
  };

  /// The process-wide cache. Created on first use; reads TAWA_CACHE_DIR
  /// once at creation.
  static ProgramCache &shared();

  /// Returns the cached entry for \p Key (+ the config digest), trying in
  /// order: the in-memory map, the persist directory, and finally
  /// \p Compile. \p Compile returns a fresh entry or null with \p Err set;
  /// failed compiles are never cached. Callers fold every compile-time knob
  /// (the fusion flag included) into \p Key.
  ///
  /// Thread-safe; \p Compile runs outside the cache lock (two threads
  /// racing the same key may both compile — last one wins, both get valid
  /// entries).
  EntryRef getOrCompile(const std::string &Key,
                        const sim::GpuConfig &Config,
                        const std::function<EntryRef(std::string &Err)>
                            &Compile,
                        std::string &Err, Outcome *Out = nullptr);

  /// The previous signature, kept only because perfbench/src/Traced.cpp
  /// calls it; the three flags are ignored. Delete it in the next change
  /// to the benchmark.
  EntryRef getOrCompile(const std::string &Key, const sim::GpuConfig &Config,
                        bool, bool, bool,
                        const std::function<EntryRef(std::string &Err)>
                            &Compile,
                        std::string &Err, Outcome *Out = nullptr) {
    return getOrCompile(Key, Config, Compile, Err, Out);
  }

  /// Drops every in-memory entry (live EntryRefs stay valid). The persist
  /// directory is untouched — this is exactly a simulated process restart,
  /// which is how the bench measures cross-process warm starts.
  void clear();

  /// LRU bounds. Exceeding either evicts least-recently-used entries
  /// (never the one just inserted). Defaults: 256 entries, 256 MiB.
  void setMaxEntries(size_t N);
  void setMaxBytes(size_t N);

  /// Overrides the persist directory ("" disables persistence). Created on
  /// first write if missing.
  void setPersistDir(std::string Dir);

  Stats getStats() const;
  void resetStats();

  ProgramCache(const ProgramCache &) = delete;
  ProgramCache &operator=(const ProgramCache &) = delete;

private:
  ProgramCache();
  ~ProgramCache();

  struct Impl;
  std::unique_ptr<Impl> Pimpl;
};

} // namespace tawa

#endif // TAWA_SUPPORT_PROGRAMCACHE_H
