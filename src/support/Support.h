//===- Support.h - Small shared utilities -----------------------*- C++ -*-===//
//
// Formatting, fatal-error reporting, and tiny ADT helpers used across the
// Tawa reproduction. Kept deliberately small; prefer the standard library.
//
//===----------------------------------------------------------------------===//

#ifndef TAWA_SUPPORT_SUPPORT_H
#define TAWA_SUPPORT_SUPPORT_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace tawa {

/// Reports an unrecoverable internal error and aborts. Used for invariant
/// violations that must be visible even in release builds.
[[noreturn]] void reportFatalError(const std::string &Message);

/// printf-style formatting into a std::string.
std::string formatString(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Integer ceiling division; the tile-count helper used everywhere the paper
/// writes `tl.cdiv`.
inline int64_t ceilDiv(int64_t A, int64_t B) {
  assert(B > 0 && "ceilDiv by non-positive divisor");
  return (A + B - 1) / B;
}

/// FNV-1a 64-bit hash — the one hash used for program-cache keys, cache
/// file names, and serialized-blob checksums (sim/Bytecode.cpp,
/// support/ProgramCache.cpp); keep a single definition so file naming and
/// checksumming can never diverge.
inline uint64_t fnv1a64(const void *Data, size_t N,
                        uint64_t H = 1469598103934665603ull) {
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  for (size_t I = 0; I < N; ++I) {
    H ^= P[I];
    H *= 1099511628211ull;
  }
  return H;
}
inline uint64_t fnv1a64(const std::string &S) {
  return fnv1a64(S.data(), S.size());
}

} // namespace tawa

#endif // TAWA_SUPPORT_SUPPORT_H
