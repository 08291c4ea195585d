//===- Env.h - TAWA_* environment-knob parsing ------------------*- C++ -*-===//
//
// One home for the getenv parsing of the tree's environment knobs
// (TAWA_NO_FUSE, TAWA_CACHE_DIR, TAWA_FAULTS and the serve knobs that
// serve::ServeConfig::fromEnv reads). Two properties every knob shares:
//
//   * uniform flag semantics: "0" / "false" / "off" / "no" / "" mean OFF,
//     "1" / "true" / "on" / "yes" mean ON (historically a knob was "on"
//     merely by being set, so TAWA_NO_FUSE=0 silently disabled fusion);
//   * malformed values WARN once to stderr instead of being silently
//     ignored — a mistyped TAWA_SERVE_QUEUE_DEPTH=1k falls back to the
//     default with a warning, not without a trace.
//
// Warnings are once-per-(variable, value) for the process, so a caller
// may re-read a knob without log spam.
//
//===----------------------------------------------------------------------===//

#ifndef TAWA_SUPPORT_ENV_H
#define TAWA_SUPPORT_ENV_H

#include <cstdint>
#include <string>

namespace tawa {

/// Boolean knob. Unset -> \p Default. Recognized values (case-insensitive):
/// "1"/"true"/"on"/"yes" -> true, "0"/"false"/"off"/"no"/"" -> false.
/// Anything else warns once and counts as true (the variable was
/// deliberately set).
bool envFlag(const char *Name, bool Default = false);

/// Integer knob. Unset -> \p Default; a value that does not parse as a
/// full signed decimal integer warns once and returns \p Default.
int64_t envInt64(const char *Name, int64_t Default);

/// String knob. Unset -> \p Default (no validation to do).
std::string envString(const char *Name, const std::string &Default = "");

/// Emits "tawa: warning: ..." to stderr at most once per \p Key for the
/// process. Exposed for parsers of structured knobs (TAWA_FAULTS) that do
/// their own validation but want the same warn-once discipline.
void envWarnOnce(const std::string &Key, const std::string &Message);

} // namespace tawa

#endif // TAWA_SUPPORT_ENV_H
