//===- program_cache_test.cpp - Serializer + process-wide cache ---------------//
//
// Robustness contract of the program-cache subsystem:
//   * the versioned binary serializer round-trips a CompiledProgram into an
//     observably identical executable (traces, smem, HB counts);
//   * truncated, corrupted, trailing-garbage and other-version blobs are
//     rejected (deserializeProgram returns null) rather than executed;
//   * the process-wide cache evicts in LRU order under its entry bound;
//   * a persist directory turns a simulated process restart (clear()) into
//     disk hits — zero compiles — with bit-identical results, and a
//     damaged cache file silently falls back to recompilation.
//
//===----------------------------------------------------------------------===//

#include "driver/Runner.h"
#include "frontend/Kernels.h"
#include "ir/Ir.h"
#include "passes/Passes.h"
#include "sim/Bytecode.h"
#include "sim/Interpreter.h"
#include "support/Env.h"
#include "support/ProgramCache.h"
#include "support/Support.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>

#include <unistd.h>

using namespace tawa;
using namespace tawa::sim;

namespace {

/// Restores the process-wide cache to its default, env-independent state
/// around every test in this file (the singleton outlives each test).
class CacheGuard {
public:
  CacheGuard() { reset(); }
  ~CacheGuard() { reset(); }

private:
  static void reset() {
    auto &C = ProgramCache::shared();
    C.clear();
    C.setPersistDir("");
    C.setMaxEntries(256);
    C.setMaxBytes(256ull << 20);
    C.resetStats();
  }
};

/// A fresh private directory under the system temp dir.
std::filesystem::path makeTempDir(const char *Tag) {
  static int Counter = 0;
  auto Dir = std::filesystem::temp_directory_path() /
             (std::string("tawa-") + Tag + "-" +
              std::to_string(::getpid()) + "-" + std::to_string(Counter++));
  std::filesystem::create_directories(Dir);
  return Dir;
}

/// Compiles the warp-specialized GEMM kernel into a CompiledProgram.
std::shared_ptr<const bc::CompiledProgram>
compileGemm(IrContext &Ctx, std::unique_ptr<Module> &MOut) {
  GemmKernelConfig Kernel;
  MOut = buildGemmModule(Ctx, Kernel);
  TawaOptions Options;
  Options.ArefDepth = 3;
  Options.MmaPipelineDepth = 2;
  PassManager PM;
  buildTawaPipeline(PM, Options);
  EXPECT_EQ(PM.run(*MOut), "");
  return bc::compileModule(*MOut, GpuConfig());
}

RunOptions gemmTimingLaunch() {
  RunOptions Launch;
  Launch.GridX = 64;
  Launch.Functional = false;
  Launch.Args = {RuntimeArg::tensor(nullptr), RuntimeArg::tensor(nullptr),
                 RuntimeArg::tensor(nullptr), RuntimeArg::scalar(1024),
                 RuntimeArg::scalar(1024),    RuntimeArg::scalar(1024)};
  return Launch;
}

void expectTracesIdentical(const CtaTrace &L, const CtaTrace &B) {
  ASSERT_EQ(L.Agents.size(), B.Agents.size());
  for (size_t G = 0; G < L.Agents.size(); ++G) {
    const AgentTrace &La = L.Agents[G], &Ba = B.Agents[G];
    EXPECT_EQ(La.Name, Ba.Name);
    ASSERT_EQ(La.Actions.size(), Ba.Actions.size());
    for (size_t I = 0; I < La.Actions.size(); ++I) {
      const Action &X = La.Actions[I], &Y = Ba.Actions[I];
      ASSERT_EQ(static_cast<int>(X.Kind), static_cast<int>(Y.Kind));
      EXPECT_EQ(X.Cycles, Y.Cycles);
      EXPECT_EQ(X.Bytes, Y.Bytes);
      EXPECT_EQ(X.Bar, Y.Bar);
      EXPECT_EQ(X.Idx, Y.Idx);
    }
  }
  EXPECT_EQ(L.SmemBytes, B.SmemBytes);
  EXPECT_EQ(L.HbEvents, B.HbEvents);
}

/// Rewrites the trailing checksum (the serializer's fnv1a64 from
/// support/Support.h) so byte patches test the field checks underneath,
/// not just the checksum.
void fixChecksum(std::string &Bytes) {
  size_t PayloadEnd = Bytes.size() - sizeof(uint64_t);
  uint64_t Sum = fnv1a64(Bytes.data(), PayloadEnd);
  std::memcpy(&Bytes[PayloadEnd], &Sum, sizeof(Sum));
}

//===----------------------------------------------------------------------===//
// Serializer
//===----------------------------------------------------------------------===//

TEST(Serializer, RoundTripExecutesIdentically) {
  IrContext Ctx;
  std::unique_ptr<Module> M;
  auto Prog = compileGemm(Ctx, M);
  ASSERT_TRUE(Prog && Prog->CompileError.empty());

  std::string Bytes = bc::serializeProgram(*Prog);
  auto Loaded = bc::deserializeProgram(Bytes);
  ASSERT_TRUE(Loaded);
  EXPECT_TRUE(Loaded->CompileError.empty());
  EXPECT_EQ(Loaded->NumSlots, Prog->NumSlots);
  EXPECT_EQ(Loaded->Agents.size(), Prog->Agents.size());

  // The v2 header fields round-trip: the fusion flag and every rewrite
  // counter (compileGemm compiles with fusion on by default).
  EXPECT_TRUE(Prog->Fused);
  EXPECT_EQ(Loaded->Fused, Prog->Fused);
  EXPECT_EQ(Loaded->Fusion.InstsBefore, Prog->Fusion.InstsBefore);
  EXPECT_EQ(Loaded->Fusion.InstsAfter, Prog->Fusion.InstsAfter);
  EXPECT_EQ(Loaded->Fusion.NumIntBinImm, Prog->Fusion.NumIntBinImm);
  EXPECT_EQ(Loaded->Fusion.NumWaitRead, Prog->Fusion.NumWaitRead);
  EXPECT_EQ(Loaded->Fusion.NumWaitRead2, Prog->Fusion.NumWaitRead2);
  EXPECT_EQ(Loaded->Fusion.NumLoopEndFast, Prog->Fusion.NumLoopEndFast);
  EXPECT_GT(Loaded->Fusion.coverage(), 0.0);

  // The loaded program executes without any IR module, observably
  // identically to the original.
  RunOptions Launch = gemmTimingLaunch();
  GpuConfig Cfg;
  CtaTrace A, B;
  Interpreter Orig(M.get(), Cfg, Prog);
  ASSERT_EQ(Orig.runCta(Launch, 3, 0, A), "");
  Interpreter FromDisk(nullptr, Cfg, Loaded);
  ASSERT_EQ(FromDisk.runCta(Launch, 3, 0, B), "");
  expectTracesIdentical(A, B);

  // Serialization is deterministic (stable cache files).
  EXPECT_EQ(Bytes, bc::serializeProgram(*Loaded));
}

TEST(Serializer, RejectsTruncationCorruptionAndTrailingGarbage) {
  IrContext Ctx;
  std::unique_ptr<Module> M;
  auto Prog = compileGemm(Ctx, M);
  std::string Bytes = bc::serializeProgram(*Prog);
  ASSERT_GT(Bytes.size(), 64u);

  EXPECT_EQ(bc::deserializeProgram(std::string()), nullptr);
  for (size_t Cut : {size_t(1), size_t(7), Bytes.size() / 2,
                     Bytes.size() - 1})
    EXPECT_EQ(bc::deserializeProgram(Bytes.substr(0, Cut)), nullptr)
        << "truncated at " << Cut;

  for (size_t Off : {size_t(0), size_t(9), Bytes.size() / 3,
                     Bytes.size() / 2, Bytes.size() - 9}) {
    std::string Bad = Bytes;
    Bad[Off] = static_cast<char>(Bad[Off] ^ 0x5a);
    EXPECT_EQ(bc::deserializeProgram(Bad), nullptr)
        << "corrupted at " << Off;
  }

  EXPECT_EQ(bc::deserializeProgram(Bytes + "x"), nullptr);
}

TEST(Serializer, RejectsOtherFormatVersion) {
  IrContext Ctx;
  std::unique_ptr<Module> M;
  auto Prog = compileGemm(Ctx, M);
  std::string Bytes = bc::serializeProgram(*Prog);

  // Bump the version field (offset 4) and re-sign the payload, so the
  // version check itself — not the checksum — must reject the blob.
  std::string Bumped = Bytes;
  uint32_t V = bc::SerialFormatVersion + 1;
  std::memcpy(&Bumped[4], &V, sizeof(V));
  fixChecksum(Bumped);
  EXPECT_EQ(bc::deserializeProgram(Bumped), nullptr);

  // Methodology check: restoring the version the same way loads fine.
  V = bc::SerialFormatVersion;
  std::memcpy(&Bumped[4], &V, sizeof(V));
  fixChecksum(Bumped);
  EXPECT_NE(bc::deserializeProgram(Bumped), nullptr);
}

//===----------------------------------------------------------------------===//
// Process-wide cache: LRU
//===----------------------------------------------------------------------===//

TEST(ProgramCacheLru, EvictsLeastRecentlyUsedFirst) {
  CacheGuard Guard;
  auto &C = ProgramCache::shared();
  C.setMaxEntries(2);
  GpuConfig Cfg;
  auto Compile = [](std::string &) {
    return std::make_shared<ProgramCache::Entry>();
  };
  std::string Err;
  ProgramCache::Outcome Out;
  auto Get = [&](const char *Key) {
    C.getOrCompile(Key, Cfg, Compile, Err, &Out);
    return Out;
  };

  EXPECT_EQ(Get("lru-A"), ProgramCache::Outcome::Compiled);
  EXPECT_EQ(Get("lru-B"), ProgramCache::Outcome::Compiled);
  EXPECT_EQ(Get("lru-A"), ProgramCache::Outcome::MemoryHit); // A now MRU.
  EXPECT_EQ(Get("lru-C"), ProgramCache::Outcome::Compiled);  // Evicts B.
  EXPECT_EQ(Get("lru-A"), ProgramCache::Outcome::MemoryHit);
  EXPECT_EQ(Get("lru-B"), ProgramCache::Outcome::Compiled);  // B was evicted.
  EXPECT_GE(C.getStats().Evictions, 2u); // B once, then C or A above.
  EXPECT_LE(C.getStats().Entries, 2u);
}

TEST(ProgramCacheLru, ByteBoundEvicts) {
  CacheGuard Guard;
  auto &C = ProgramCache::shared();
  // Each empty entry is accounted a fixed ~4 KiB; a 6 KiB bound keeps
  // exactly one.
  C.setMaxBytes(6 * 1024);
  GpuConfig Cfg;
  auto Compile = [](std::string &) {
    return std::make_shared<ProgramCache::Entry>();
  };
  std::string Err;
  ProgramCache::Outcome Out;
  C.getOrCompile("bytes-A", Cfg, Compile, Err, &Out);
  C.getOrCompile("bytes-B", Cfg, Compile, Err, &Out);
  EXPECT_EQ(C.getStats().Entries, 1u);
  C.getOrCompile("bytes-A", Cfg, Compile, Err, &Out);
  EXPECT_EQ(Out, ProgramCache::Outcome::Compiled); // A was evicted by B.
}

//===----------------------------------------------------------------------===//
// Process-wide cache: disk persistence
//===----------------------------------------------------------------------===//

TEST(ProgramCacheDisk, WarmRestartSkipsAllCompiles) {
  CacheGuard Guard;
  auto Dir = makeTempDir("cache-warm");
  auto &C = ProgramCache::shared();
  C.setPersistDir(Dir.string());

  GemmWorkload W;
  RunResult Cold, Warm;
  size_t ColdMisses;
  {
    Runner R;
    Cold = R.runGemm(Framework::Tawa, W);
    ASSERT_TRUE(Cold.ok()) << Cold.Error;
    ColdMisses = R.cacheStats().Misses;
    EXPECT_EQ(ColdMisses, 1u);
  }

  C.clear(); // Simulated process restart: memory gone, disk populated.
  {
    Runner R;
    Warm = R.runGemm(Framework::Tawa, W);
    ASSERT_TRUE(Warm.ok()) << Warm.Error;
    EXPECT_EQ(R.cacheStats().Misses, 0u) << "warm start compiled";
    EXPECT_EQ(R.cacheStats().Hits, 1u);
  }
  EXPECT_GE(C.getStats().DiskHits, 1u);

  // The disk-loaded program must reproduce the timing report exactly.
  EXPECT_EQ(Warm.Micros, Cold.Micros);
  EXPECT_EQ(Warm.TFlops, Cold.TFlops);
  EXPECT_EQ(Warm.SmemBytes, Cold.SmemBytes);

  std::error_code Ec;
  std::filesystem::remove_all(Dir, Ec);
}

TEST(ProgramCacheDisk, DamagedCacheFileFallsBackToRecompile) {
  CacheGuard Guard;
  auto Dir = makeTempDir("cache-damaged");
  auto &C = ProgramCache::shared();
  C.setPersistDir(Dir.string());

  GemmWorkload W;
  RunResult Cold;
  {
    Runner R;
    Cold = R.runGemm(Framework::Tawa, W);
    ASSERT_TRUE(Cold.ok()) << Cold.Error;
  }

  // Truncate every cache file to half its size.
  size_t Damaged = 0;
  for (const auto &E : std::filesystem::directory_iterator(Dir)) {
    auto Size = std::filesystem::file_size(E.path());
    std::filesystem::resize_file(E.path(), Size / 2);
    ++Damaged;
  }
  ASSERT_GE(Damaged, 1u);

  C.clear();
  {
    Runner R;
    RunResult Res = R.runGemm(Framework::Tawa, W);
    ASSERT_TRUE(Res.ok()) << Res.Error;
    EXPECT_EQ(R.cacheStats().Misses, 1u) << "should have recompiled";
    EXPECT_EQ(Res.Micros, Cold.Micros);
  }

  std::error_code Ec;
  std::filesystem::remove_all(Dir, Ec);
}

TEST(ProgramCacheDisk, OldFormatVersionIsSilentlyRecompiled) {
  // Version skew: a disk entry whose header claims SerialFormatVersion 1
  // (with a valid checksum, so only the version check can reject it) must
  // be silently recompiled by the current reader — never executed.
  CacheGuard Guard;
  auto Dir = makeTempDir("cache-skew");
  auto &C = ProgramCache::shared();
  C.setPersistDir(Dir.string());

  GemmWorkload W;
  RunResult Cold;
  {
    Runner R;
    Cold = R.runGemm(Framework::Tawa, W);
    ASSERT_TRUE(Cold.ok()) << Cold.Error;
  }

  // Rewrite every cache file in place: patch the version field (offset 4)
  // to 1 and re-sign the payload. The file keeps its current-version name,
  // so the loader will read it and must reject on the version field.
  size_t Patched = 0;
  for (const auto &E : std::filesystem::directory_iterator(Dir)) {
    std::ifstream In(E.path(), std::ios::binary);
    std::string Bytes((std::istreambuf_iterator<char>(In)),
                      std::istreambuf_iterator<char>());
    In.close();
    ASSERT_GT(Bytes.size(), 16u);
    uint32_t V = 1;
    std::memcpy(&Bytes[4], &V, sizeof(V));
    fixChecksum(Bytes);
    // Methodology: the patched blob is exactly a version-1-labeled file.
    ASSERT_EQ(bc::deserializeProgram(Bytes), nullptr);
    std::ofstream Out(E.path(), std::ios::binary | std::ios::trunc);
    Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
    ++Patched;
  }
  ASSERT_GE(Patched, 1u);

  C.clear(); // Simulated restart against the stale-version disk cache.
  {
    Runner R;
    RunResult Res = R.runGemm(Framework::Tawa, W);
    ASSERT_TRUE(Res.ok()) << Res.Error;
    EXPECT_EQ(R.cacheStats().Misses, 1u)
        << "stale-version entry was not recompiled";
    EXPECT_EQ(Res.Micros, Cold.Micros);
  }
  EXPECT_EQ(C.getStats().DiskHits, 0u);

  std::error_code Ec;
  std::filesystem::remove_all(Dir, Ec);
}

TEST(ProgramCacheKeys, FusedAndUnfusedNeverCollide) {
  // The fusion flag is part of the compile key: a fused and an unfused
  // Runner compiling the same kernel must produce two distinct in-memory
  // entries (two compiles), and their reports must still match exactly —
  // fusion is observably identical.
  if (tawa::envFlag("TAWA_NO_FUSE"))
    GTEST_SKIP() << "fusion disabled process-wide: both Runners are "
                    "legitimately unfused and share a key";
  CacheGuard Guard;
  GemmWorkload W;
  FrameworkEnvelope E = getGemmEnvelope(Framework::Tawa, W);

  Runner Fused;
  Runner Unfused;
  Unfused.FuseBytecode = false;
  std::string KeyFused = Fused.compileKey(W, E);
  std::string KeyUnfused = Unfused.compileKey(W, E);
  ASSERT_FALSE(KeyFused.empty());
  ASSERT_FALSE(KeyUnfused.empty());
  EXPECT_NE(KeyFused, KeyUnfused);

  auto &C = ProgramCache::shared();
  size_t Entries0 = C.getStats().Entries;
  RunResult RF = Fused.runGemm(Framework::Tawa, W);
  RunResult RU = Unfused.runGemm(Framework::Tawa, W);
  ASSERT_TRUE(RF.ok()) << RF.Error;
  ASSERT_TRUE(RU.ok()) << RU.Error;
  EXPECT_EQ(Fused.cacheStats().Misses, 1u);
  EXPECT_EQ(Unfused.cacheStats().Misses, 1u)
      << "unfused run hit the fused entry";
  EXPECT_EQ(C.getStats().Entries, Entries0 + 2);

  // Same kernel, same timing model — superinstructions change nothing
  // observable.
  EXPECT_EQ(RF.Micros, RU.Micros);
  EXPECT_EQ(RF.TFlops, RU.TFlops);
  EXPECT_EQ(RF.SmemBytes, RU.SmemBytes);

  // Re-running each Runner hits its own entry.
  ASSERT_TRUE(Fused.runGemm(Framework::Tawa, W).ok());
  ASSERT_TRUE(Unfused.runGemm(Framework::Tawa, W).ok());
  EXPECT_EQ(Fused.cacheStats().Hits, 1u);
  EXPECT_EQ(Unfused.cacheStats().Hits, 1u);
}

TEST(ProgramCacheKeys, GroupedKeySeparatesOnlyNDivisibility) {
  // N is a runtime argument, but a grouped kernel whose N is not a multiple
  // of TileN needs the column-masked epilogue: one key per divisibility
  // class, shared by every N inside it.
  Runner R;
  auto KeyFor = [&](int64_t N) {
    GemmWorkload W;
    W.N = N;
    W.K = 128;
    W.MoE = true;
    W.GroupMs = {96, 0, 200};
    return R.compileKey(W, getGemmEnvelope(Framework::Tawa, W));
  };
  int64_t TileN = getGemmEnvelope(Framework::Tawa, GemmWorkload()).TileN;
  ASSERT_FALSE(KeyFor(TileN).empty());
  EXPECT_EQ(KeyFor(TileN), KeyFor(4 * TileN));
  EXPECT_EQ(KeyFor(TileN / 2), KeyFor(TileN + 8));
  EXPECT_NE(KeyFor(TileN), KeyFor(TileN / 2));
}

} // namespace
