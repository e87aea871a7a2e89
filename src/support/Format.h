//===- support/Format.h - String formatting helpers ----------------------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// printf-style formatting into std::string plus the small set of numeric
/// and alignment helpers the profile listings need.  The gprof output format
/// is fixed-width character tables (paper §5), so precise padding matters.
///
//===----------------------------------------------------------------------===//

#ifndef GPROF_SUPPORT_FORMAT_H
#define GPROF_SUPPORT_FORMAT_H

#include <cstdarg>
#include <string>
#include <string_view>
#include <vector>

namespace gprof {

/// printf-style formatting into a std::string.
std::string format(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// vprintf-style formatting into a std::string.
std::string formatV(const char *Fmt, va_list Args);

/// printf-style formatting appended to \p Out (no temporary string).
void appendFormat(std::string &Out, const char *Fmt, ...)
    __attribute__((format(printf, 2, 3)));

/// vprintf-style formatting appended to \p Out.
void appendFormatV(std::string &Out, const char *Fmt, va_list Args);

/// Right-aligns \p S in a field of \p Width characters (never truncates).
std::string padLeft(std::string_view S, unsigned Width);

/// Left-aligns \p S in a field of \p Width characters (never truncates).
std::string padRight(std::string_view S, unsigned Width);

/// Formats \p Value with \p Decimals digits after the point.
std::string formatFixed(double Value, unsigned Decimals);

/// Formats \p Numerator/\p Denominator as a percentage with one decimal,
/// e.g. "41.5".  Returns "0.0" when the denominator is zero.
std::string formatPercent(double Numerator, double Denominator);

/// Splits \p S on \p Sep, keeping empty fields.
std::vector<std::string> splitString(std::string_view S, char Sep);

/// Removes leading and trailing whitespace.
std::string_view trim(std::string_view S);

/// Parses a signed 64-bit decimal integer; returns false on any malformed
/// or out-of-range input.
bool parseInt64(std::string_view S, long long &Out);

/// Parses an unsigned 64-bit decimal integer.
bool parseUInt64(std::string_view S, unsigned long long &Out);

} // namespace gprof

#endif // GPROF_SUPPORT_FORMAT_H
