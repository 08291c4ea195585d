//===- Launch.cpp - Kernel launches carried as module attributes --------------//

#include "sim/Launch.h"

#include "ir/Ir.h"
#include "support/Support.h"

#include <algorithm>
#include <charconv>
#include <string_view>
#include <variant>

using namespace tawa;
using namespace tawa::sim;

namespace {

/// Splits \p S at every \p Sep; empty pieces are kept (and rejected by the
/// number parser).
std::vector<std::string_view> split(std::string_view S, char Sep) {
  std::vector<std::string_view> Out;
  while (true) {
    size_t At = S.find(Sep);
    Out.push_back(S.substr(0, At));
    if (At == std::string_view::npos)
      return Out;
    S.remove_prefix(At + 1);
  }
}

/// Parses all of \p S as a base-10 number: no sign for unsigned types, no
/// whitespace, no trailing characters, no overflow.
template <typename T> bool parseNumber(std::string_view S, T &V) {
  auto [End, Ec] = std::from_chars(S.data(), S.data() + S.size(), V);
  return Ec == std::errc() && End == S.data() + S.size();
}

/// Parses "<d0>x<d1>..." into \p Shape, enforcing the rank, dimension and
/// element-count limits.
std::string parseShape(std::string_view S, std::vector<int64_t> &Shape) {
  std::vector<std::string_view> Dims = split(S, 'x');
  if (Dims.size() > static_cast<size_t>(ShapeVec::MaxRank))
    return formatString("rank %zu exceeds %lld", Dims.size(),
                        static_cast<long long>(ShapeVec::MaxRank));
  int64_t Elems = 1;
  for (std::string_view D : Dims) {
    int64_t V = 0;
    if (!parseNumber(D, V))
      return "bad dimension '" + std::string(D) + "'";
    if (V < 1 || V > MaxLaunchDim)
      return formatString("dimension %lld outside [1, %lld]",
                          static_cast<long long>(V),
                          static_cast<long long>(MaxLaunchDim));
    Elems *= V; // <= MaxLaunchElems * MaxLaunchDim: cannot overflow.
    if (Elems > MaxLaunchElems)
      return formatString("more than %lld elements",
                          static_cast<long long>(MaxLaunchElems));
    Shape.push_back(V);
  }
  return "";
}

/// Decodes one fuzz.args entry.
std::string parseArg(std::string_view Tok, LaunchSpec::Arg &A) {
  if (Tok.empty())
    return "empty entry";
  char Kind = Tok[0];
  Tok.remove_prefix(1);
  if (Kind == 's') {
    A.IsScalar = true;
    return parseNumber(Tok, A.Scalar) ? "" : "bad scalar";
  }
  if (Kind != 't' && Kind != 'd')
    return "unknown entry kind";
  size_t Colon = Tok.find(':');
  if (Colon == std::string_view::npos)
    return "missing ':'";
  std::string_view Head = Tok.substr(0, Colon), Tail = Tok.substr(Colon + 1);
  if (Kind == 't') {
    if (!parseNumber(Head, A.FillSeed))
      return "bad fill seed";
    return parseShape(Tail, A.Shape);
  }
  if (std::string Err = parseShape(Head, A.Shape); !Err.empty())
    return Err;
  for (std::string_view V : split(Tail, ',')) {
    int64_t X = 0;
    if (!parseNumber(V, X))
      return "bad data value '" + std::string(V) + "'";
    A.Data.push_back(X);
  }
  int64_t Elems = 1;
  for (int64_t D : A.Shape)
    Elems *= D;
  if (Elems != static_cast<int64_t>(A.Data.size()))
    return "shape/value count mismatch";
  return "";
}

void appendShape(std::string &Out, const std::vector<int64_t> &Shape) {
  for (size_t I = 0; I < Shape.size(); ++I) {
    if (I)
      Out += "x";
    Out += std::to_string(Shape[I]);
  }
}

} // namespace

void tawa::sim::encodeLaunchSpec(Module &M, const LaunchSpec &L) {
  M.setAttr("fuzz.grid", std::vector<int64_t>{L.GridX, L.GridY});
  std::string Args;
  for (const LaunchSpec::Arg &A : L.Args) {
    if (!Args.empty())
      Args += ";";
    if (A.IsScalar) {
      Args += "s" + std::to_string(A.Scalar);
    } else if (!A.Data.empty()) {
      Args += "d";
      appendShape(Args, A.Shape);
      Args += ":";
      for (size_t I = 0; I < A.Data.size(); ++I) {
        if (I)
          Args += ",";
        Args += std::to_string(A.Data[I]);
      }
    } else {
      Args += "t" + std::to_string(A.FillSeed) + ":";
      appendShape(Args, A.Shape);
    }
  }
  M.setAttr("fuzz.args", Args);
  if (!L.FaultSpec.empty())
    M.setAttr("fuzz.faults", L.FaultSpec);
  else
    M.removeAttr("fuzz.faults");
}

std::string tawa::sim::decodeLaunchSpec(const Module &M, LaunchSpec &L) {
  L = LaunchSpec();
  const auto &Attrs = M.getAttrs();
  auto GridIt = Attrs.find("fuzz.grid");
  if (GridIt == Attrs.end())
    return "missing fuzz.grid module attribute";
  const auto *Grid = std::get_if<std::vector<int64_t>>(&GridIt->second);
  if (!Grid || Grid->size() != 2)
    return "fuzz.grid must be [gridX, gridY]";
  L.GridX = (*Grid)[0];
  L.GridY = (*Grid)[1];
  if (L.GridX < 1 || L.GridY < 1 || L.GridX > MaxLaunchCtas ||
      L.GridY > MaxLaunchCtas || L.GridX * L.GridY > MaxLaunchCtas)
    return formatString("fuzz.grid must have axes >= 1 and at most %lld "
                        "CTAs",
                        static_cast<long long>(MaxLaunchCtas));

  auto ArgsIt = Attrs.find("fuzz.args");
  if (ArgsIt == Attrs.end())
    return "missing fuzz.args module attribute";
  const auto *Spec = std::get_if<std::string>(&ArgsIt->second);
  if (!Spec)
    return "fuzz.args must be a string";
  if (!Spec->empty())
    for (std::string_view Tok : split(*Spec, ';')) {
      LaunchSpec::Arg A;
      if (std::string Err = parseArg(Tok, A); !Err.empty())
        return "fuzz.args entry '" + std::string(Tok) + "': " + Err;
      L.Args.push_back(std::move(A));
    }

  auto FaultsIt = Attrs.find("fuzz.faults");
  if (FaultsIt != Attrs.end()) {
    const auto *F = std::get_if<std::string>(&FaultsIt->second);
    if (!F)
      return "fuzz.faults must be a string";
    L.FaultSpec = *F;
  }
  return "";
}

std::vector<TensorRef> tawa::sim::materializeLaunch(const LaunchSpec &L,
                                                    RunOptions &Opts) {
  Opts.GridX = L.GridX;
  Opts.GridY = L.GridY;
  std::vector<TensorRef> Outputs;
  for (const LaunchSpec::Arg &A : L.Args) {
    if (A.IsScalar) {
      Opts.Args.push_back(RuntimeArg::scalar(A.Scalar));
      continue;
    }
    auto T = std::make_shared<TensorData>(A.Shape);
    if (!A.Data.empty()) {
      int64_t E = std::min<int64_t>(T->getNumElements(),
                                    static_cast<int64_t>(A.Data.size()));
      for (int64_t I = 0; I < E; ++I)
        T->at(I) = static_cast<float>(A.Data[I]);
    } else if (A.FillSeed != 0) {
      T->fillRandom(A.FillSeed, 1.0f);
    } else {
      Outputs.push_back(T);
    }
    Opts.Args.push_back(RuntimeArg::tensor(T));
  }
  return Outputs;
}
