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
/// The append* helpers write a field with std::to_chars, byte for byte as
/// the printf conversion each one names, without parsing a format string.
///
//===----------------------------------------------------------------------===//

#ifndef GPROF_SUPPORT_FORMAT_H
#define GPROF_SUPPORT_FORMAT_H

#include <cstdarg>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace gprof {

/// printf-style formatting into a std::string.
std::string format(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// vprintf-style formatting into a std::string.
std::string formatV(const char *Fmt, va_list Args);

/// Appends \p Value with \p Precision digits after the point, right-aligned
/// in \p Width columns: printf's "%*.*f".
void appendFixed(std::string &Out, double Value, unsigned Width,
                 unsigned Precision);

/// Appends \p Value in decimal, right-aligned in \p Width columns:
/// printf's "%*llu".
void appendUnsigned(std::string &Out, uint64_t Value, unsigned Width = 0);

/// Appends \p S right-aligned in \p Width columns (never truncates):
/// printf's "%*s".
void appendPadLeft(std::string &Out, std::string_view S, unsigned Width);

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
