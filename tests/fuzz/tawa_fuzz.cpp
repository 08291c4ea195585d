//===- tawa_fuzz.cpp - Differential fuzzing driver ----------------------------//
//
// Command-line driver for the differential fuzzing harness (docs/fuzzing.md):
// generates seeded kernel configurations (Gen.h), runs each on the
// tree-walking oracle and on every bytecode engine × worker combination
// (Diff.h, seven grid runs), and reports any divergence. A
// failing case is greedily minimized and written as a self-contained
// `.tawa` regression file (textual IR + fuzz.* launch attributes) that
// reproduces via --replay.
//
// Usage:
//   tawa-fuzz [--seed N] [--configs N] [--budget-ms N] [--corpus DIR] [-v]
//   tawa-fuzz --minimize-demo [--corpus DIR]
//   tawa-fuzz --emit-corpus DIR
//   tawa-fuzz --replay FILE.tawa
//
//===----------------------------------------------------------------------===//

#include "tests/fuzz/Diff.h"
#include "tests/fuzz/Gen.h"

#include "support/Support.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

using namespace tawa;
using namespace tawa::fuzz;

namespace {

double elapsedMs(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - Start)
      .count();
}

bool writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  if (!Out)
    return false;
  Out << Text;
  return static_cast<bool>(Out);
}

std::string readFile(const std::string &Path, std::string &Err) {
  std::ifstream In(Path, std::ios::binary);
  if (!In) {
    Err = "cannot open " + Path;
    return "";
  }
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// Prepares a case and stamps its one-line description as a module comment
/// attribute so the committed file documents its own provenance.
std::string renderCase(const FuzzCase &C, std::string &Err) {
  PreparedCase P;
  Err = prepareCase(C, P);
  if (!Err.empty())
    return "";
  return P.Mod->print();
}

//===--------------------------------------------------------------------===//
// Main fuzz loop
//===--------------------------------------------------------------------===//

int runFuzz(uint64_t BaseSeed, int64_t Configs, int64_t BudgetMs,
            const std::string &CorpusDir, bool Verbose) {
  auto Start = std::chrono::steady_clock::now();
  int64_t Ran = 0, Divergences = 0, PrepareErrors = 0;
  for (int64_t I = 0; I < Configs; ++I) {
    if (BudgetMs > 0 && elapsedMs(Start) > static_cast<double>(BudgetMs)) {
      std::printf("tawa-fuzz: time budget (%lld ms) reached after %lld "
                  "configs\n",
                  static_cast<long long>(BudgetMs),
                  static_cast<long long>(Ran));
      break;
    }
    uint64_t Seed = BaseSeed + static_cast<uint64_t>(I);
    FuzzCase C = generateCase(Seed);
    if (Verbose)
      std::printf("tawa-fuzz: [%lld/%lld] %s\n", static_cast<long long>(I),
                  static_cast<long long>(Configs), C.describe().c_str());
    PreparedCase P;
    if (std::string Err = prepareCase(C, P); !Err.empty()) {
      ++PrepareErrors;
      std::fprintf(stderr, "tawa-fuzz: PREPARE FAILED %s: %s\n",
                   C.describe().c_str(), Err.c_str());
      continue;
    }
    ++Ran;
    std::string Div = diffCase(P);
    if (Div.empty())
      continue;
    ++Divergences;
    std::fprintf(stderr, "tawa-fuzz: DIVERGENCE %s\n  %s\n",
                 C.describe().c_str(), Div.c_str());
    // Shrink while the divergence persists, then write the reproducer.
    auto Oracle = [](const FuzzCase &Cand) -> std::string {
      PreparedCase CP;
      if (!prepareCase(Cand, CP).empty())
        return "";
      return diffCase(CP);
    };
    int Steps = 0;
    FuzzCase Min = minimizeCase(C, Oracle, &Steps);
    std::fprintf(stderr, "tawa-fuzz: minimized in %d steps: %s\n", Steps,
                 Min.describe().c_str());
    if (!CorpusDir.empty()) {
      std::string Err;
      std::string Text = renderCase(Min, Err);
      std::string Path = CorpusDir + "/" +
                         formatString("divergence_seed%llu.tawa",
                                      static_cast<unsigned long long>(Seed));
      if (!Err.empty() || !writeFile(Path, Text))
        std::fprintf(stderr, "tawa-fuzz: failed to write %s\n",
                     Path.c_str());
      else
        std::fprintf(stderr, "tawa-fuzz: wrote %s\n", Path.c_str());
    }
  }
  std::printf("tawa-fuzz: %lld configs run (%d grid runs each), %lld "
              "divergences, %lld prepare errors (seed base %llu, %.0f ms)\n",
              static_cast<long long>(Ran), NumDiffCombos,
              static_cast<long long>(Divergences),
              static_cast<long long>(PrepareErrors),
              static_cast<unsigned long long>(BaseSeed), elapsedMs(Start));
  return (Divergences > 0 || PrepareErrors > 0) ? 1 : 0;
}

//===--------------------------------------------------------------------===//
// Minimizer demonstration
//===--------------------------------------------------------------------===//

/// End-to-end proof that the minimizer works: arm an artificial engine bug
/// (DiffOptions::CorruptFusedOutput — the last combo's first output gets one
/// bit flipped), find a large diverging case, shrink it to a fixed point,
/// write the `.tawa` reproducer, re-load it, and check that it still
/// diverges with the bug armed and runs clean with the bug disarmed.
int runMinimizeDemo(const std::string &CorpusDir) {
  DiffOptions Armed;
  Armed.CorruptFusedOutput = true;

  // A deliberately non-minimal starting point.
  FuzzCase C;
  C.Seed = 0;
  C.Kind = Family::Gemm;
  C.Gemm.TileM = C.Gemm.TileN = 64;
  C.Gemm.TileK = 32;
  C.Gemm.Batched = true;
  C.Batch = 2;
  C.M = 256;
  C.N = 256;
  C.K = 96;
  C.Options.EnableWarpSpecialization = true;
  C.Options.ArefDepth = 4;
  C.Options.MmaPipelineDepth = 2;
  C.Options.NumConsumerGroups = 2;
  C.Options.Persistent = true;

  auto Oracle = [&Armed](const FuzzCase &Cand) -> std::string {
    PreparedCase CP;
    if (!prepareCase(Cand, CP).empty())
      return "";
    return diffCase(CP, Armed);
  };

  std::string Initial = Oracle(C);
  if (Initial.empty()) {
    std::fprintf(stderr, "minimize-demo: seed case did not diverge under "
                         "the armed corruption\n");
    return 1;
  }
  std::printf("minimize-demo: start   %s\n  divergence: %s\n",
              C.describe().c_str(), Initial.c_str());

  int Steps = 0;
  FuzzCase Min = minimizeCase(C, Oracle, &Steps);
  std::printf("minimize-demo: %d shrink steps\nminimize-demo: minimal %s\n",
              Steps, Min.describe().c_str());
  if (Steps == 0) {
    std::fprintf(stderr, "minimize-demo: expected at least one shrink\n");
    return 1;
  }

  std::string Err;
  std::string Text = renderCase(Min, Err);
  if (!Err.empty()) {
    std::fprintf(stderr, "minimize-demo: prepare: %s\n", Err.c_str());
    return 1;
  }
  std::string Path =
      (CorpusDir.empty() ? std::string(".") : CorpusDir) +
      "/minimized_divergence.tawa";
  if (!writeFile(Path, Text)) {
    std::fprintf(stderr, "minimize-demo: cannot write %s\n", Path.c_str());
    return 1;
  }
  std::printf("minimize-demo: wrote %s\n", Path.c_str());

  // The committed file must reproduce on its own: parse it back and diff.
  PreparedCase Loaded;
  if (std::string LErr = loadCase(Text, Loaded); !LErr.empty()) {
    std::fprintf(stderr, "minimize-demo: reload: %s\n", LErr.c_str());
    return 1;
  }
  if (diffCase(Loaded, Armed).empty()) {
    std::fprintf(stderr, "minimize-demo: reloaded case no longer diverges "
                         "with the bug armed\n");
    return 1;
  }
  if (std::string Clean = diffCase(Loaded); !Clean.empty()) {
    std::fprintf(stderr, "minimize-demo: reloaded case diverges without "
                         "the bug: %s\n",
                 Clean.c_str());
    return 1;
  }
  std::printf("minimize-demo: reloaded file reproduces armed, clean "
              "disarmed — OK\n");
  return 0;
}

//===--------------------------------------------------------------------===//
// Pinned corpus generation
//===--------------------------------------------------------------------===//

int emitCorpus(const std::string &Dir) {
  struct Entry {
    const char *Name;
    FuzzCase C;
    /// Replaces the rendered fuzz.args (launches no generated case makes).
    const char *Args = nullptr;
  };
  std::vector<Entry> Entries;

  {
    FuzzCase C; // Warp-specialized GEMM, the paper's flagship path.
    C.Kind = Family::Gemm;
    C.Gemm.TileM = C.Gemm.TileN = 64;
    C.Gemm.TileK = 32;
    C.M = 128;
    C.N = 128;
    C.K = 64;
    C.Options.EnableWarpSpecialization = true;
    C.Options.ArefDepth = 3;
    C.Options.MmaPipelineDepth = 2;
    Entries.push_back({"gemm_ws", C});
  }
  {
    FuzzCase C; // Non-WS GEMM with software pipelining + pointer epilogue.
    C.Kind = Family::Gemm;
    C.Gemm.TileM = C.Gemm.TileN = 32;
    C.Gemm.TileK = 16;
    C.Gemm.PointerEpilogue = true;
    C.M = 64;
    C.N = 64;
    C.K = 32;
    C.Options.EnableWarpSpecialization = false;
    C.SwPipelineDepth = 2;
    Entries.push_back({"gemm_swp_ptr_epilogue", C});
  }
  {
    FuzzCase C; // Persistent batched FP8 GEMM.
    C.Kind = Family::Gemm;
    C.Gemm.TileM = C.Gemm.TileN = 64;
    C.Gemm.TileK = 32;
    C.Gemm.InPrecision = Precision::FP8;
    C.Gemm.Batched = true;
    C.Batch = 2;
    C.M = 128;
    C.N = 128;
    C.K = 64;
    C.Options.EnableWarpSpecialization = true;
    C.Options.ArefDepth = 2;
    C.Options.MmaPipelineDepth = 1;
    C.Options.Persistent = true;
    Entries.push_back({"gemm_ws_persistent_fp8_batched", C});
  }
  {
    FuzzCase C; // Causal attention through the coarse (two-dot) pipeline.
    C.Kind = Family::Attention;
    C.Mha.TileQ = C.Mha.TileKv = 32;
    C.Mha.HeadDim = 32;
    C.Mha.Causal = true;
    C.SeqLen = 128;
    C.Heads = 2;
    C.Options.EnableWarpSpecialization = true;
    C.Options.ArefDepth = 2;
    C.Options.MmaPipelineDepth = 1;
    C.Options.CoarsePipeline = true;
    Entries.push_back({"attention_causal_coarse", C});
  }
  {
    FuzzCase C; // Hand-built aref protocol ring (lowered dialect ops).
    C.Kind = Family::ProtocolRing;
    C.RingDepth = 2;
    C.RingIters = 6;
    Entries.push_back({"protocol_ring", C});
  }
  {
    FuzzCase C; // The classic lost-release deadlock, as a regression file.
    C.Kind = Family::ProtocolRing;
    C.RingDepth = 1;
    C.RingIters = 2;
    C.RingSkipRelease = true;
    Entries.push_back({"protocol_ring_deadlock", C});
  }
  {
    FuzzCase C; // Fault injection on the worker-task site.
    C.Kind = Family::Gemm;
    C.Gemm.TileM = C.Gemm.TileN = 32;
    C.Gemm.TileK = 16;
    C.M = 128;
    C.N = 128;
    C.K = 32;
    C.Options.EnableWarpSpecialization = true;
    C.Options.ArefDepth = 2;
    C.Options.MmaPipelineDepth = 1;
    C.Faults = true;
    C.FaultRatePct = 50;
    C.FaultSeed = 7;
    Entries.push_back({"gemm_ws_worker_faults", C});
  }
  {
    FuzzCase C; // Split-K with two cooperative consumer replicas: the
                // replica-0 atomic-recording gate as a regression file.
    C.Kind = Family::SplitK;
    C.Gemm.SplitK = true;
    C.Gemm.TileM = C.Gemm.TileN = 32;
    C.Gemm.TileK = 16;
    C.M = 32;
    C.N = 32;
    C.K = 64;
    C.SplitKFactor = 2;
    C.Options.EnableWarpSpecialization = true;
    C.Options.ArefDepth = 2;
    C.Options.MmaPipelineDepth = 1;
    C.Options.NumConsumerGroups = 2;
    Entries.push_back({"splitk_ws_cooperative", C});
  }
  {
    FuzzCase C; // Software-pipelined split-K where the split does not
                // divide the K-tile count (one split sees 0 iterations).
    C.Kind = Family::SplitK;
    C.Gemm.SplitK = true;
    C.Gemm.TileM = C.Gemm.TileN = 32;
    C.Gemm.TileK = 16;
    C.M = 32;
    C.N = 32;
    C.K = 32;
    C.SplitKFactor = 3;
    C.Options.EnableWarpSpecialization = false;
    C.SwPipelineDepth = 2;
    Entries.push_back({"splitk_swp_uneven", C});
  }
  {
    FuzzCase C; // Grouped/MoE with an empty expert and ragged partial
                // tiles through the warp-specialized path.
    C.Kind = Family::Grouped;
    C.Gemm.Grouped = true;
    C.Gemm.TileM = C.Gemm.TileN = 32;
    C.Gemm.TileK = 16;
    C.N = 32;
    C.K = 32;
    C.GroupMs = {40, 0, 17};
    C.Options.EnableWarpSpecialization = true;
    C.Options.ArefDepth = 2;
    C.Options.MmaPipelineDepth = 1;
    Entries.push_back({"grouped_ws_empty_expert", C});
  }
  {
    FuzzCase C; // Single sub-tile expert, plain lowering: the offset-table
                // dispatch and store masking with everything else minimal.
    C.Kind = Family::Grouped;
    C.Gemm.Grouped = true;
    C.Gemm.TileM = C.Gemm.TileN = 32;
    C.Gemm.TileK = 16;
    C.N = 32;
    C.K = 16;
    C.GroupMs = {9};
    C.Options.EnableWarpSpecialization = false;
    Entries.push_back({"grouped_plain_partial_tile", C});
  }
  {
    // gemm_ws with A's tensor argument at rank 3 and at rank 1 against the
    // kernel's two TMA offsets: every engine must fail alike, as a bad
    // launch. Last: the coarse pipeliner orders loop-carried values by
    // address, so compiling a case ahead of the others can reorder them in
    // the attention file.
    FuzzCase C = Entries.front().C;
    Entries.push_back({"gemm_ws_rank3_arg", C,
                       "t1:2x128x64;t2:128x64;t0:128x128;s128;s128;s64"});
    Entries.push_back({"gemm_ws_rank1_arg", C,
                       "t1:8192;t2:128x64;t0:128x128;s128;s128;s64"});
  }

  std::string Manifest =
      "# Pinned textual-IR corpus: every file must parse (src/ir/Parser)\n"
      "# and reprint byte-identically (tests/ir_parser_test.cpp\n"
      "# ParserRoundTrip.GoldenCorpus). Regenerate with\n"
      "# `tawa-fuzz --emit-corpus tests/corpus`.\n";
  for (const Entry &E : Entries) {
    std::string Err;
    std::string Text = renderCase(E.C, Err);
    if (!Err.empty()) {
      std::fprintf(stderr, "emit-corpus: %s: %s\n", E.Name, Err.c_str());
      return 1;
    }
    if (E.Args) {
      const std::string Key = "fuzz.args = \"";
      size_t Begin = Text.find(Key) + Key.size();
      Text.replace(Begin, Text.find('"', Begin) - Begin, E.Args);
    }
    std::string Path = Dir + "/" + E.Name + ".tawa";
    if (!writeFile(Path, Text)) {
      std::fprintf(stderr, "emit-corpus: cannot write %s\n", Path.c_str());
      return 1;
    }
    Manifest += std::string(E.Name) + ".tawa\n";
    std::printf("emit-corpus: wrote %s\n", Path.c_str());
  }
  if (!writeFile(Dir + "/MANIFEST", Manifest)) {
    std::fprintf(stderr, "emit-corpus: cannot write MANIFEST\n");
    return 1;
  }
  std::printf("emit-corpus: wrote %s/MANIFEST (%zu files)\n", Dir.c_str(),
              Entries.size());
  return 0;
}

//===--------------------------------------------------------------------===//
// Replay a committed .tawa file
//===--------------------------------------------------------------------===//

int runReplayAll(const std::string &Dir);

int runReplay(const std::string &Path) {
  std::string Err;
  std::string Text = readFile(Path, Err);
  if (!Err.empty()) {
    std::fprintf(stderr, "tawa-fuzz: %s\n", Err.c_str());
    return 1;
  }
  PreparedCase P;
  if (std::string LErr = loadCase(Text, P); !LErr.empty()) {
    std::fprintf(stderr, "tawa-fuzz: %s: %s\n", Path.c_str(),
                 LErr.c_str());
    return 1;
  }
  std::string Div = diffCase(P);
  if (Div.empty()) {
    std::printf("tawa-fuzz: %s: all %d combos agree\n", Path.c_str(),
                NumDiffCombos);
    return 0;
  }
  std::fprintf(stderr, "tawa-fuzz: %s: DIVERGENCE\n  %s\n", Path.c_str(),
               Div.c_str());
  return 1;
}

/// Replays every corpus file listed in DIR/MANIFEST — the ctest entry that
/// soaks the committed regression kernels under the sanitizer legs.
int runReplayAll(const std::string &Dir) {
  std::string Err;
  std::string Manifest = readFile(Dir + "/MANIFEST", Err);
  if (!Err.empty()) {
    std::fprintf(stderr, "tawa-fuzz: %s\n", Err.c_str());
    return 1;
  }
  int Failures = 0, Files = 0;
  std::istringstream Lines(Manifest);
  std::string Line;
  while (std::getline(Lines, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    ++Files;
    Failures += runReplay(Dir + "/" + Line) != 0;
  }
  if (Files == 0) {
    std::fprintf(stderr, "tawa-fuzz: %s/MANIFEST lists no files\n",
                 Dir.c_str());
    return 1;
  }
  std::printf("tawa-fuzz: replayed %d corpus files, %d failures\n", Files,
              Failures);
  return Failures ? 1 : 0;
}

void usage() {
  std::fprintf(
      stderr,
      "usage: tawa-fuzz [--seed N] [--configs N] [--budget-ms N]\n"
      "                 [--corpus DIR] [-v]\n"
      "       tawa-fuzz --minimize-demo [--corpus DIR]\n"
      "       tawa-fuzz --emit-corpus DIR\n"
      "       tawa-fuzz --replay FILE.tawa\n"
      "       tawa-fuzz --replay-all CORPUS_DIR   (reads DIR/MANIFEST)\n");
}

} // namespace

int main(int argc, char **argv) {
  uint64_t Seed = 0;
  int64_t Configs = 200;
  int64_t BudgetMs = 0;
  std::string CorpusDir;
  std::string EmitDir;
  std::string ReplayPath;
  std::string ReplayAllDir;
  bool MinimizeDemo = false;
  bool Verbose = false;

  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    auto NextVal = [&](const char *Flag) -> const char * {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "tawa-fuzz: %s requires a value\n", Flag);
        std::exit(2);
      }
      return argv[++I];
    };
    if (A == "--seed")
      Seed = std::strtoull(NextVal("--seed"), nullptr, 10);
    else if (A == "--configs")
      Configs = std::strtoll(NextVal("--configs"), nullptr, 10);
    else if (A == "--budget-ms")
      BudgetMs = std::strtoll(NextVal("--budget-ms"), nullptr, 10);
    else if (A == "--corpus")
      CorpusDir = NextVal("--corpus");
    else if (A == "--emit-corpus")
      EmitDir = NextVal("--emit-corpus");
    else if (A == "--replay")
      ReplayPath = NextVal("--replay");
    else if (A == "--replay-all")
      ReplayAllDir = NextVal("--replay-all");
    else if (A == "--minimize-demo")
      MinimizeDemo = true;
    else if (A == "-v" || A == "--verbose")
      Verbose = true;
    else if (A == "-h" || A == "--help") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "tawa-fuzz: unknown option '%s'\n", A.c_str());
      usage();
      return 2;
    }
  }

  if (!EmitDir.empty())
    return emitCorpus(EmitDir);
  if (!ReplayPath.empty())
    return runReplay(ReplayPath);
  if (!ReplayAllDir.empty())
    return runReplayAll(ReplayAllDir);
  if (MinimizeDemo)
    return runMinimizeDemo(CorpusDir);
  return runFuzz(Seed, Configs, BudgetMs, CorpusDir, Verbose);
}
