//===- support/Format.cpp -------------------------------------------------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//

#include "support/Format.h"

#include <cassert>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>

using namespace gprof;

std::string gprof::formatV(const char *Fmt, va_list Args) {
  // Most output fits the stack buffer, so one vsnprintf pass suffices;
  // only longer output pays for a second, sized pass.
  char Buf[256];
  va_list Copy;
  va_copy(Copy, Args);
  int Needed = std::vsnprintf(Buf, sizeof(Buf), Fmt, Copy);
  va_end(Copy);
  if (Needed < 0)
    return std::string();
  if (static_cast<size_t>(Needed) < sizeof(Buf))
    return std::string(Buf, static_cast<size_t>(Needed));
  std::string Result(static_cast<size_t>(Needed), '\0');
  std::vsnprintf(Result.data(), Result.size() + 1, Fmt, Args);
  return Result;
}

std::string gprof::format(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  std::string Result = formatV(Fmt, Args);
  va_end(Args);
  return Result;
}

void gprof::appendFixed(std::string &Out, double Value, unsigned Width,
                        unsigned Precision) {
  // Room for DBL_MAX's 309 integer digits, a sign, the point and the
  // fraction.
  char Buf[384];
  assert(Precision <= 64 && "precision exceeds the field buffer");
  auto Result = std::to_chars(Buf, Buf + sizeof(Buf), Value,
                              std::chars_format::fixed,
                              static_cast<int>(Precision));
  appendPadLeft(Out, std::string_view(Buf, Result.ptr - Buf), Width);
}

void gprof::appendUnsigned(std::string &Out, uint64_t Value, unsigned Width) {
  char Buf[20];
  auto Result = std::to_chars(Buf, Buf + sizeof(Buf), Value);
  appendPadLeft(Out, std::string_view(Buf, Result.ptr - Buf), Width);
}

void gprof::appendPadLeft(std::string &Out, std::string_view S,
                          unsigned Width) {
  if (S.size() < Width)
    Out.append(Width - S.size(), ' ');
  Out += S;
}

std::string gprof::padLeft(std::string_view S, unsigned Width) {
  std::string Out;
  appendPadLeft(Out, S, Width);
  return Out;
}

std::string gprof::padRight(std::string_view S, unsigned Width) {
  if (S.size() >= Width)
    return std::string(S);
  return std::string(S) + std::string(Width - S.size(), ' ');
}

std::string gprof::formatFixed(double Value, unsigned Decimals) {
  return format("%.*f", static_cast<int>(Decimals), Value);
}

std::string gprof::formatPercent(double Numerator, double Denominator) {
  if (Denominator == 0.0)
    return "0.0";
  return formatFixed(100.0 * Numerator / Denominator, 1);
}

std::vector<std::string> gprof::splitString(std::string_view S, char Sep) {
  std::vector<std::string> Parts;
  size_t Start = 0;
  while (true) {
    size_t Pos = S.find(Sep, Start);
    if (Pos == std::string_view::npos) {
      Parts.emplace_back(S.substr(Start));
      return Parts;
    }
    Parts.emplace_back(S.substr(Start, Pos - Start));
    Start = Pos + 1;
  }
}

std::string_view gprof::trim(std::string_view S) {
  size_t Begin = 0;
  while (Begin < S.size() && std::isspace(static_cast<unsigned char>(S[Begin])))
    ++Begin;
  size_t End = S.size();
  while (End > Begin && std::isspace(static_cast<unsigned char>(S[End - 1])))
    --End;
  return S.substr(Begin, End - Begin);
}

bool gprof::parseInt64(std::string_view S, long long &Out) {
  std::string Buf(trim(S));
  if (Buf.empty())
    return false;
  errno = 0;
  char *End = nullptr;
  long long Value = std::strtoll(Buf.c_str(), &End, 10);
  if (errno != 0 || End != Buf.c_str() + Buf.size())
    return false;
  Out = Value;
  return true;
}

bool gprof::parseUInt64(std::string_view S, unsigned long long &Out) {
  std::string Buf(trim(S));
  if (Buf.empty() || Buf[0] == '-')
    return false;
  errno = 0;
  char *End = nullptr;
  unsigned long long Value = std::strtoull(Buf.c_str(), &End, 10);
  if (errno != 0 || End != Buf.c_str() + Buf.size())
    return false;
  Out = Value;
  return true;
}
