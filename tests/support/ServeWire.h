//===- ServeWire.h - Client side of the serve wire for tests ----*- C++ -*-===//
//
// The helpers the serve and sandbox suites share to build requests, read
// response fields and talk to a SocketServer over a unix socket: one
// newline-delimited tawa-serve-req-v1 line out, one tawa-serve-resp-v1
// line back.
//
//===----------------------------------------------------------------------===//

#ifndef TAWA_TESTS_SUPPORT_SERVEWIRE_H
#define TAWA_TESTS_SUPPORT_SERVEWIRE_H

#include "support/Json.h"
#include "support/Support.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace tawa {
namespace serve {

inline std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << Path;
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// A committed regression file under tests/corpus.
inline std::string corpusPath(const std::string &Name) {
  return std::string(TAWA_SOURCE_DIR) + "/tests/corpus/" + Name;
}

/// Field \p Key of a response line, integers rendered in decimal ("" when
/// absent).
inline std::string respField(const std::string &Line, const std::string &Key) {
  JsonValue V;
  std::string Err;
  EXPECT_TRUE(parseJson(Line, V, Err)) << Err << "\n" << Line;
  const JsonValue *F = V.find(Key);
  if (!F)
    return "";
  if (F->isString())
    return F->asString();
  return std::to_string(F->asInt64());
}

/// A small functional `gemm` request, optionally sandboxed, slowed by the
/// sleep_ms test hook or given its own deadline.
inline std::string gemmReq(const std::string &Id, bool Sandbox = false,
                           int64_t SleepMs = 0, int64_t DeadlineMs = 0) {
  std::string Extra;
  if (Sandbox)
    Extra += ",\"sandbox\":true";
  if (SleepMs > 0)
    Extra += formatString(",\"sleep_ms\":%lld", (long long)SleepMs);
  if (DeadlineMs > 0)
    Extra += formatString(",\"deadline_ms\":%lld", (long long)DeadlineMs);
  return formatString(
      "{\"schema\":\"tawa-serve-req-v1\",\"id\":\"%s\",\"kind\":\"gemm\","
      "\"framework\":\"tawa\",\"m\":256,\"n\":256,\"k\":128,"
      "\"functional\":true%s}",
      Id.c_str(), Extra.c_str());
}

/// An `ir` request for the textual module \p IrText.
inline std::string irReq(const std::string &Id, const std::string &IrText,
                         bool Sandbox = false) {
  return "{\"schema\":\"tawa-serve-req-v1\",\"id\":\"" + Id +
         "\",\"kind\":\"ir\",\"ir\":\"" + JsonWriter::escape(IrText) + "\"" +
         (Sandbox ? ",\"sandbox\":true}" : "}");
}

/// A connected stream socket to \p Path, or -1.
inline int connectUnix(const std::string &Path) {
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path))
    return -1;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) <
      0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

inline bool sendLine(int Fd, const std::string &Line) {
  std::string Out = Line + "\n";
  size_t Off = 0;
  while (Off < Out.size()) {
    ssize_t N = ::send(Fd, Out.data() + Off, Out.size() - Off, MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Off += static_cast<size_t>(N);
  }
  return true;
}

/// Reads one line into \p Line, carrying any bytes past it in \p Buf.
/// False on EOF or error.
inline bool recvLine(int Fd, std::string &Buf, std::string &Line) {
  for (;;) {
    size_t NL = Buf.find('\n');
    if (NL != std::string::npos) {
      Line = Buf.substr(0, NL);
      Buf.erase(0, NL + 1);
      return true;
    }
    char Tmp[4096];
    ssize_t N = ::recv(Fd, Tmp, sizeof(Tmp), 0);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    Buf.append(Tmp, static_cast<size_t>(N));
  }
}

} // namespace serve
} // namespace tawa

#endif // TAWA_TESTS_SUPPORT_SERVEWIRE_H
