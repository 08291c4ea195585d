//===- ProgramCache.cpp - Process-wide compiled-program cache -----------------//

#include "support/ProgramCache.h"

#include "ir/Ir.h"
#include "sim/Bytecode.h"
#include "support/Env.h"
#include "support/FaultInject.h"
#include "support/Support.h"

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <list>
#include <mutex>
#include <unordered_map>

#include <unistd.h>

using namespace tawa;
using namespace tawa::sim;

ProgramCache::Entry::Entry() = default;
ProgramCache::Entry::~Entry() = default;

namespace {

/// Resident-size estimate of one compiled program: the instruction streams
/// and pools dominate; the fixed struct overhead is folded into a constant.
/// Entries that also pin an IR module get a flat surcharge — the IR is a
/// small multiple of the instruction count and not worth walking exactly.
size_t programBytes(const bc::CompiledProgram *P, bool HasModule) {
  size_t N = 4096 + (HasModule ? 64 * 1024 : 0);
  if (!P)
    return N;
  auto Region = [](const bc::RegionProgram &RP) {
    return RP.Code.size() * sizeof(bc::Inst);
  };
  N += Region(P->Preamble);
  for (const bc::RegionProgram &RP : P->Agents)
    N += Region(RP);
  N += P->OperandSlots.size() * sizeof(int32_t);
  N += P->SlotOffsets.size() * sizeof(int64_t);
  N += P->Loops.size() * sizeof(bc::LoopInfo);
  for (const std::vector<int64_t> &V : P->IntVecs)
    N += V.size() * sizeof(int64_t);
  for (const std::string &S : P->Messages)
    N += S.size();
  return N;
}

} // namespace

struct ProgramCache::Impl {
  struct Resident {
    EntryRef E;
    size_t Bytes = 0;
    std::list<std::string>::iterator LruIt; ///< Position in Lru.
  };

  mutable std::mutex Mu;
  std::unordered_map<std::string, Resident> Map;
  std::list<std::string> Lru; ///< Front = most recently used.
  size_t MaxEntries = 256;
  size_t MaxBytes = 256ull << 20;
  size_t CurBytes = 0;
  std::string PersistDir;
  Stats St;

  /// Full map key: the caller key plus the machine-config digest.
  static std::string fullKey(const std::string &Key,
                             const GpuConfig &Config) {
    return Key + formatString("|cfg%016llx",
                              static_cast<unsigned long long>(
                                  bc::configDigest(Config)));
  }

  /// Cache-file path for a key (the file name hashes the full key and
  /// carries the format version, so version bumps and config changes
  /// never read stale bytes).
  static std::string filePath(const std::string &Dir,
                              const std::string &FullKey) {
    return Dir +
           formatString("/tawa-%016llx-v%u.tbc",
                        static_cast<unsigned long long>(fnv1a64(FullKey)),
                        bc::SerialFormatVersion);
  }

  void touch(Resident &R, const std::string &FullKey) {
    Lru.erase(R.LruIt);
    Lru.push_front(FullKey);
    R.LruIt = Lru.begin();
  }

  /// Inserts (or replaces) and evicts LRU entries beyond the bounds —
  /// never the entry just inserted; live EntryRefs keep evicted entries
  /// alive on the caller side.
  void insert(const std::string &FullKey, EntryRef E) {
    if (auto It = Map.find(FullKey); It != Map.end()) {
      CurBytes -= It->second.Bytes;
      Lru.erase(It->second.LruIt);
      Map.erase(It);
    }
    Resident R;
    R.Bytes = programBytes(E->Prog.get(), E->M != nullptr);
    R.E = std::move(E);
    Lru.push_front(FullKey);
    R.LruIt = Lru.begin();
    CurBytes += R.Bytes;
    Map.emplace(FullKey, std::move(R));
    while (Map.size() > 1 &&
           (Map.size() > MaxEntries || CurBytes > MaxBytes)) {
      const std::string &Victim = Lru.back();
      auto It = Map.find(Victim);
      CurBytes -= It->second.Bytes;
      Map.erase(It);
      Lru.pop_back();
      ++St.Evictions;
    }
  }

  /// Best-effort disk load; any defect returns null and the caller
  /// recompiles. \p Failed is set when a cache file EXISTED but could not
  /// be used (IO error, truncation, corruption, version/config mismatch) —
  /// a plain miss leaves it false. \p Dir is a snapshot taken under the
  /// lock (setPersistDir may race the slow path otherwise).
  static std::shared_ptr<const bc::CompiledProgram>
  loadFromDisk(const std::string &Dir, const std::string &FullKey,
               bool &Failed) {
    Failed = false;
    if (Dir.empty())
      return nullptr;
    std::ifstream In(filePath(Dir, FullKey), std::ios::binary);
    if (!In)
      return nullptr;
    // Fault site: a read-IO failure on an existing cache file.
    if (faults::enabled() &&
        faults::shouldFailNext(faults::Site::CacheRead)) {
      Failed = true;
      return nullptr;
    }
    std::string Bytes((std::istreambuf_iterator<char>(In)),
                      std::istreambuf_iterator<char>());
    if (!In.good() && !In.eof()) {
      Failed = true;
      return nullptr;
    }
    // Fault site: flip a byte so the serializer's real checksum-reject
    // path (not a simulated one) turns corruption into a recompile.
    if (faults::enabled() && !Bytes.empty() &&
        faults::shouldFailNext(faults::Site::Deserialize))
      Bytes[Bytes.size() / 2] ^= 0x5a;
    auto Prog = bc::deserializeProgram(Bytes);
    if (!Prog)
      Failed = true;
    return Prog;
  }

  /// Best-effort atomic disk write (tmp + rename): concurrent processes
  /// never observe a partial file, and IO failures are silently dropped —
  /// the cache is an accelerator, not a dependency. Returns false when the
  /// entry did not land on disk (the caller counts it; a later process
  /// simply recompiles). Write AND close results are checked before the
  /// rename — a partially flushed tmp must never be promoted to a cache
  /// file, even though the deserializer would reject it.
  static bool saveToDisk(const std::string &Dir, const std::string &FullKey,
                         const bc::CompiledProgram &P) {
    if (Dir.empty())
      return true;
    std::error_code Ec;
    std::filesystem::create_directories(Dir, Ec);
    std::string Path = filePath(Dir, FullKey);
    std::string Tmp =
        Path + formatString(".tmp.%lld",
                            static_cast<long long>(::getpid()));
    {
      std::ofstream Out(Tmp, std::ios::binary | std::ios::trunc);
      if (!Out)
        return false;
      std::string Bytes = bc::serializeProgram(P);
      Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
      // Fault site: a write-IO failure (ENOSPC-style) detected at close.
      if (faults::enabled() &&
          faults::shouldFailNext(faults::Site::CacheWrite))
        Out.setstate(std::ios::badbit);
      Out.close();
      if (Out.fail()) {
        std::filesystem::remove(Tmp, Ec);
        return false;
      }
    }
    std::filesystem::rename(Tmp, Path, Ec);
    if (Ec) {
      std::filesystem::remove(Tmp, Ec);
      return false;
    }
    return true;
  }

  /// Removes stale "tawa-*.tmp.*" files left behind by crashed writers.
  /// Only files older than an hour are swept — a live writer's tmp file is
  /// seconds old. Best-effort: every filesystem call tolerates errors
  /// (concurrent sweeps may race each other for the same file).
  static void sweepStaleTmpFiles(const std::string &Dir) {
    if (Dir.empty())
      return;
    std::error_code Ec;
    auto Now = std::filesystem::file_time_type::clock::now();
    std::filesystem::directory_iterator It(Dir, Ec), End;
    for (; !Ec && It != End; It.increment(Ec)) {
      std::string Name = It->path().filename().string();
      if (Name.rfind("tawa-", 0) != 0 ||
          Name.find(".tmp.") == std::string::npos)
        continue;
      std::error_code FileEc;
      auto Mtime = std::filesystem::last_write_time(It->path(), FileEc);
      if (FileEc || Now - Mtime < std::chrono::hours(1))
        continue;
      std::filesystem::remove(It->path(), FileEc);
    }
  }
};

ProgramCache::ProgramCache() : Pimpl(std::make_unique<Impl>()) {
  Pimpl->PersistDir = envString("TAWA_CACHE_DIR");
  // Cache open: reclaim tmp files a crashed writer left behind.
  Impl::sweepStaleTmpFiles(Pimpl->PersistDir);
}

ProgramCache::~ProgramCache() = default;

ProgramCache &ProgramCache::shared() {
  static ProgramCache Cache;
  return Cache;
}

ProgramCache::EntryRef ProgramCache::getOrCompile(
    const std::string &Key, const GpuConfig &Config,
    const std::function<EntryRef(std::string &Err)> &Compile,
    std::string &Err, Outcome *Out) {
  Impl &I = *Pimpl;
  std::string FullKey = Impl::fullKey(Key, Config);
  auto Report = [&](Outcome O) {
    if (Out)
      *Out = O;
  };

  std::string Dir;
  {
    std::lock_guard<std::mutex> L(I.Mu);
    Dir = I.PersistDir;
    auto It = I.Map.find(FullKey);
    if (It != I.Map.end()) {
      I.touch(It->second, FullKey);
      ++I.St.MemoryHits;
      Report(Outcome::MemoryHit);
      return It->second.E;
    }
  }

  // Disk, then compile — both outside the lock (slow).
  bool ReadFailed = false;
  if (auto Prog = Impl::loadFromDisk(Dir, FullKey, ReadFailed)) {
    auto E = std::make_shared<Entry>();
    E->Prog = std::move(Prog);
    std::lock_guard<std::mutex> L(I.Mu);
    ++I.St.DiskHits;
    I.insert(FullKey, E);
    Report(Outcome::DiskHit);
    return E;
  }
  if (ReadFailed) {
    // A cache file existed but was unusable (IO error / corruption): count
    // it and fall through to a silent recompile — any defect in the disk
    // layer degrades to a compile, never to a failure.
    std::lock_guard<std::mutex> L(I.Mu);
    ++I.St.DiskReadFailures;
  }

  EntryRef E = Compile(Err);
  if (!E) {
    Report(Outcome::Failed);
    return nullptr;
  }
  bool Saved = true;
  if (E->Prog && E->Prog->CompileError.empty())
    Saved = Impl::saveToDisk(Dir, FullKey, *E->Prog);
  std::lock_guard<std::mutex> L(I.Mu);
  if (!Saved)
    ++I.St.DiskWriteFailures;
  ++I.St.Compiles;
  I.insert(FullKey, E);
  Report(Outcome::Compiled);
  return E;
}

void ProgramCache::clear() {
  std::lock_guard<std::mutex> L(Pimpl->Mu);
  Pimpl->Map.clear();
  Pimpl->Lru.clear();
  Pimpl->CurBytes = 0;
}

void ProgramCache::setMaxEntries(size_t N) {
  std::lock_guard<std::mutex> L(Pimpl->Mu);
  Pimpl->MaxEntries = N;
}

void ProgramCache::setMaxBytes(size_t N) {
  std::lock_guard<std::mutex> L(Pimpl->Mu);
  Pimpl->MaxBytes = N;
}

void ProgramCache::setPersistDir(std::string Dir) {
  {
    std::lock_guard<std::mutex> L(Pimpl->Mu);
    Pimpl->PersistDir = Dir;
  }
  Impl::sweepStaleTmpFiles(Dir);
}

ProgramCache::Stats ProgramCache::getStats() const {
  std::lock_guard<std::mutex> L(Pimpl->Mu);
  Stats S = Pimpl->St;
  S.Entries = Pimpl->Map.size();
  S.Bytes = Pimpl->CurBytes;
  return S;
}

void ProgramCache::resetStats() {
  std::lock_guard<std::mutex> L(Pimpl->Mu);
  Pimpl->St = Stats();
}
