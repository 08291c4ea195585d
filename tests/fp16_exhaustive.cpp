//===- fp16_exhaustive.cpp - Every fp16 span variant on all 2^32 inputs ---===//
//
// Compares roundToFp16's span, in every variant the host runs
// (sim/TileKernels.h), with the scalar form on every 32-bit input pattern,
// bit for bit, and exits non-zero on any mismatch. The sweep is split into
// 2^16-input chunks over the worker pool. scripts/check.sh runs it after
// ctest; it is not a ctest entry, so the sanitizer legs skip it.
//
//   ./fp16_exhaustive
//
//===----------------------------------------------------------------------===//

#include "sim/Numerics.h"
#include "sim/TileKernels.h"
#include "support/WorkerPool.h"

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <vector>

using namespace tawa;
using namespace tawa::sim;

namespace {

uint32_t bitsOf(float X) {
  uint32_t B;
  std::memcpy(&B, &X, sizeof(B));
  return B;
}

} // namespace

int main() {
  constexpr int64_t Chunk = int64_t(1) << 16;
  constexpr int64_t Chunks = (int64_t(1) << 32) / Chunk;
  std::vector<TileIsa> Isas;
  for (TileIsa Isa : AllTileIsas) {
    if (hostRuns(Isa))
      Isas.push_back(Isa);
    else
      std::printf("fp16_exhaustive: %s skipped: host lacks AVX2 and F16C\n",
                  tileIsaName(Isa));
  }
  int64_t Workers = WorkerPool::hardwareWorkers();
  // Per worker: a chunk's inputs, the scalar results, a variant's results.
  struct Buffers {
    std::vector<float> In, Want, Got;
  };
  std::vector<Buffers> Buf(static_cast<size_t>(Workers));
  for (Buffers &B : Buf) {
    B.In.resize(Chunk);
    B.Want.resize(Chunk);
    B.Got.resize(Chunk);
  }
  // Per variant and chunk, written only by the worker that ran the chunk:
  // the mismatch count, and the first mismatching input (-1 when none) with
  // the variant's result for it.
  size_t Cells = Isas.size() * Chunks;
  std::vector<int64_t> Count(Cells, 0), First(Cells, -1);
  std::vector<uint32_t> FirstGot(Cells, 0);

  auto Start = std::chrono::steady_clock::now();
  WorkerPool::shared().parallelFor(Chunks, Workers, [&](int64_t C,
                                                        int64_t W) {
    Buffers &B = Buf[static_cast<size_t>(W)];
    for (int64_t I = 0; I < Chunk; ++I) {
      uint32_t Bits = static_cast<uint32_t>(C * Chunk + I);
      std::memcpy(&B.In[I], &Bits, sizeof(Bits));
      B.Want[I] = roundToFp16(B.In[I]);
    }
    for (size_t V = 0; V < Isas.size(); ++V) {
      B.Got = B.In;
      roundToFp16(Isas[V], B.Got.data(), Chunk);
      size_t Cell = V * Chunks + static_cast<size_t>(C);
      for (int64_t I = 0; I < Chunk; ++I)
        if (bitsOf(B.Got[I]) != bitsOf(B.Want[I])) {
          if (Count[Cell]++ == 0) {
            First[Cell] = C * Chunk + I;
            FirstGot[Cell] = bitsOf(B.Got[I]);
          }
        }
    }
  });
  double Seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - Start)
                       .count();

  bool Failed = false;
  for (size_t V = 0; V < Isas.size(); ++V) {
    int64_t Total = 0;
    size_t Lowest = Cells;
    for (int64_t C = 0; C < Chunks; ++C) {
      size_t Cell = V * Chunks + static_cast<size_t>(C);
      Total += Count[Cell];
      if (Lowest == Cells && Count[Cell] > 0)
        Lowest = Cell;
    }
    std::printf("fp16_exhaustive: %s: %" PRId64 " mismatches in 2^32 inputs\n",
                tileIsaName(Isas[V]), Total);
    if (Total == 0)
      continue;
    Failed = true;
    uint32_t Bits = static_cast<uint32_t>(First[Lowest]);
    float X;
    std::memcpy(&X, &Bits, sizeof(X));
    std::printf("  first: input 0x%08" PRIx32 " gave 0x%08" PRIx32
                ", scalar 0x%08" PRIx32 "\n",
                Bits, FirstGot[Lowest], bitsOf(roundToFp16(X)));
  }
  std::printf("fp16_exhaustive: %.1f s on %" PRId64 " workers\n", Seconds,
              Workers);
  return Failed ? 1 : 0;
}
