//===- tests/support_test.cpp - Unit tests for the support library --------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//

#include "support/BinaryStream.h"
#include "support/CommandLine.h"
#include "support/Error.h"
#include "support/FileUtils.h"
#include "support/Format.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>

using namespace gprof;

//===----------------------------------------------------------------------===//
// Error / Expected
//===----------------------------------------------------------------------===//

TEST(ErrorTest, SuccessIsFalse) {
  Error E = Error::success();
  EXPECT_FALSE(static_cast<bool>(E));
}

TEST(ErrorTest, FailureCarriesMessage) {
  Error E = Error::failure("broke");
  EXPECT_TRUE(static_cast<bool>(E));
  EXPECT_EQ(E.message(), "broke");
}

TEST(ErrorTest, MoveTransfersState) {
  Error E = Error::failure("original");
  Error F = std::move(E);
  EXPECT_TRUE(static_cast<bool>(F));
  EXPECT_EQ(F.message(), "original");
}

TEST(ExpectedTest, HoldsValue) {
  Expected<int> E(42);
  ASSERT_TRUE(static_cast<bool>(E));
  EXPECT_EQ(*E, 42);
}

TEST(ExpectedTest, HoldsError) {
  Expected<int> E(Error::failure("nope"));
  ASSERT_FALSE(static_cast<bool>(E));
  EXPECT_EQ(E.message(), "nope");
  Error Err = E.takeError();
  EXPECT_TRUE(static_cast<bool>(Err));
}

TEST(ExpectedTest, TakeValueMoves) {
  Expected<std::string> E(std::string("payload"));
  ASSERT_TRUE(static_cast<bool>(E));
  std::string S = E.takeValue();
  EXPECT_EQ(S, "payload");
}

TEST(ExpectedTest, CantFailUnwraps) {
  EXPECT_EQ(cantFail(Expected<int>(7)), 7);
  cantFail(Error::success());
}

//===----------------------------------------------------------------------===//
// Format
//===----------------------------------------------------------------------===//

TEST(FormatTest, BasicPrintf) {
  EXPECT_EQ(format("%d-%s", 5, "x"), "5-x");
  EXPECT_EQ(format("empty"), "empty");
}

TEST(FormatTest, LongOutput) {
  std::string Long(5000, 'a');
  EXPECT_EQ(format("%s", Long.c_str()).size(), 5000u);
}

namespace {

/// The sizing-pass-then-write formatter, as a reference for the
/// stack-buffer fast path.
std::string twoPassFormat(const char *Fmt, ...) {
  va_list Args, Copy;
  va_start(Args, Fmt);
  va_copy(Copy, Args);
  int Needed = std::vsnprintf(nullptr, 0, Fmt, Copy);
  va_end(Copy);
  std::string Result(static_cast<size_t>(Needed), '\0');
  std::vsnprintf(Result.data(), Result.size() + 1, Fmt, Args);
  va_end(Args);
  return Result;
}

/// A variadic wrapper forwarding its va_list, as callers of formatV do.
std::string forwardingFormat(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  std::string Result = formatV(Fmt, Args);
  va_end(Args);
  return Result;
}

} // namespace

TEST(FormatTest, StackBufferBoundary) {
  // The fast path formats into a 256-byte stack buffer: 255 bytes fit
  // with the terminator, 256 and up take the second pass.
  for (int Width : {0, 1, 254, 255, 256, 257, 5000}) {
    std::string Expected = twoPassFormat("%*d|", Width, 42);
    EXPECT_EQ(format("%*d|", Width, 42), Expected) << Width;
    EXPECT_EQ(forwardingFormat("%*d|", Width, 42), Expected) << Width;
  }
  for (size_t Len : {255u, 256u, 257u, 5000u}) {
    std::string Text(Len, 'x');
    for (size_t I = 0; I != Len; ++I)
      Text[I] = static_cast<char>('a' + I % 26);
    EXPECT_EQ(format("%s", Text.c_str()), twoPassFormat("%s", Text.c_str()));
    // A %s argument longer than the buffer, with fields after it.
    EXPECT_EQ(forwardingFormat("[%s] %d %.2f", Text.c_str(), 7, 1.5),
              twoPassFormat("[%s] %d %.2f", Text.c_str(), 7, 1.5));
  }
}

namespace {

/// snprintf of one conversion, the reference for the field appenders.
std::string printfField(const char *Fmt, ...) {
  char Buf[512];
  va_list Args;
  va_start(Args, Fmt);
  int N = std::vsnprintf(Buf, sizeof(Buf), Fmt, Args);
  va_end(Args);
  return std::string(Buf, static_cast<size_t>(N));
}

std::string fixedField(double Value, unsigned Width, unsigned Precision) {
  std::string Out = "|";
  appendFixed(Out, Value, Width, Precision);
  return Out;
}

/// The (width, precision) pairs of the flat and call-graph listings:
/// %5.1f, %8.2f, %9.2f, %10.2f and %11.2f.
constexpr std::pair<unsigned, unsigned> ListingFixedFields[] = {
    {5, 1}, {8, 2}, {9, 2}, {10, 2}, {11, 2}};

void expectFixedMatchesPrintf(double Value) {
  for (auto [Width, Precision] : ListingFixedFields)
    ASSERT_EQ(fixedField(Value, Width, Precision),
              printfField("|%*.*f", Width, Precision, Value))
        << "value " << Value << " as %" << Width << "." << Precision
        << "f";
}

} // namespace

TEST(FormatTest, FixedFieldEdgeValuesMatchPrintf) {
  const double Edges[] = {0.0,
                          -0.0,
                          0.125, // Exact binary halfway cases.
                          0.375,
                          2.5,
                          -0.125,
                          0.05, // Decimal halfway values, inexact in binary.
                          2.675,
                          1.005,
                          1.015,
                          99.995,
                          -2.675,
                          0.004999999,
                          -0.001, // Rounds to -0.00.
                          std::nan(""),
                          std::copysign(std::nan(""), -1.0),
                          HUGE_VAL,
                          -HUGE_VAL,
                          1e300, // Wider than every field.
                          -1e300,
                          1.7976931348623157e308,
                          4.9e-324,
                          123456789.125,
                          99999.95};
  for (double V : Edges)
    expectFixedMatchesPrintf(V);
  // Every hundredth-and-a-half from 0 to 100: x.xx5, the ties of %.2f.
  for (int I = 0; I != 20000; ++I)
    expectFixedMatchesPrintf(I / 200.0 + 0.005);
  // Every multiple of 1/32 up to 64: exact ties for both precisions.
  for (int I = -2048; I != 2048; ++I)
    expectFixedMatchesPrintf(I / 32.0);
}

TEST(FormatTest, FixedFieldSeededSweepMatchesPrintf) {
  SplitMix64 Rng(20261017);
  for (int I = 0; I != 20000; ++I) {
    // Listing-sized values: a random mantissa at a random decade.
    double Decade = std::pow(10.0, static_cast<int>(Rng.nextBelow(19)) - 6);
    double Value = Rng.nextDouble() * Decade;
    expectFixedMatchesPrintf(Rng.nextBool(0.1) ? -Value : Value);
    // Any bit pattern, NaNs and infinities included.
    uint64_t Bits = Rng.next();
    double Raw;
    std::memcpy(&Raw, &Bits, sizeof(Raw));
    expectFixedMatchesPrintf(Raw);
  }
}

TEST(FormatTest, UnsignedAndTextFieldsMatchPrintf) {
  SplitMix64 Rng(7);
  std::vector<uint64_t> Values = {0, 1, 9, 10, 99999999, 100000000,
                                  123456789012ull, UINT64_MAX};
  for (int I = 0; I != 2000; ++I)
    Values.push_back(Rng.next() >> Rng.nextBelow(64));
  for (uint64_t V : Values) {
    for (unsigned Width : {0u, 8u, 13u}) {
      std::string Out = "|";
      appendUnsigned(Out, V, Width);
      ASSERT_EQ(Out, printfField("|%*llu", Width,
                                 static_cast<unsigned long long>(V)));
    }
  }
  // The listings' text fields, %8s, %13s and %-6s, with names shorter
  // than, as long as and longer than the field.
  for (const char *Text : {"", "a", "[12]", "123456", "12345678",
                           "123/4567", "18446744073709551615+1",
                           "a_routine_name_longer_than_any_field"}) {
    for (unsigned Width : {8u, 13u}) {
      std::string Out = "|";
      appendPadLeft(Out, Text, Width);
      EXPECT_EQ(Out, printfField("|%*s", Width, Text));
    }
    EXPECT_EQ("|" + padRight(Text, 6), printfField("|%-6s", Text));
  }
}

TEST(FormatTest, Padding) {
  EXPECT_EQ(padLeft("ab", 5), "   ab");
  EXPECT_EQ(padRight("ab", 5), "ab   ");
  EXPECT_EQ(padLeft("abcdef", 3), "abcdef");
}

TEST(FormatTest, FixedAndPercent) {
  EXPECT_EQ(formatFixed(1.2345, 2), "1.23");
  EXPECT_EQ(formatPercent(41.5, 100.0), "41.5");
  EXPECT_EQ(formatPercent(1.0, 0.0), "0.0");
}

TEST(FormatTest, SplitKeepsEmptyFields) {
  auto Parts = splitString("a/b//c", '/');
  ASSERT_EQ(Parts.size(), 4u);
  EXPECT_EQ(Parts[0], "a");
  EXPECT_EQ(Parts[2], "");
  EXPECT_EQ(Parts[3], "c");
}

TEST(FormatTest, Trim) {
  EXPECT_EQ(trim("  x y  "), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(FormatTest, ParseIntegers) {
  long long S;
  unsigned long long U;
  EXPECT_TRUE(parseInt64("-42", S));
  EXPECT_EQ(S, -42);
  EXPECT_TRUE(parseUInt64(" 99 ", U));
  EXPECT_EQ(U, 99u);
  EXPECT_FALSE(parseInt64("4x", S));
  EXPECT_FALSE(parseUInt64("-1", U));
  EXPECT_FALSE(parseInt64("", S));
  EXPECT_FALSE(parseUInt64("99999999999999999999999", U));
}

//===----------------------------------------------------------------------===//
// BinaryStream
//===----------------------------------------------------------------------===//

TEST(BinaryStreamTest, RoundTripScalars) {
  BinaryWriter W;
  W.writeU8(0xAB);
  W.writeU16(0x1234);
  W.writeU32(0xDEADBEEF);
  W.writeU64(0x0123456789ABCDEFULL);
  W.writeI64(-77);
  W.writeF64(3.25);
  W.writeString("hello");

  BinaryReader R(W.bytes());
  EXPECT_EQ(cantFail(R.readU8()), 0xAB);
  EXPECT_EQ(cantFail(R.readU16()), 0x1234);
  EXPECT_EQ(cantFail(R.readU32()), 0xDEADBEEFu);
  EXPECT_EQ(cantFail(R.readU64()), 0x0123456789ABCDEFULL);
  EXPECT_EQ(cantFail(R.readI64()), -77);
  EXPECT_DOUBLE_EQ(cantFail(R.readF64()), 3.25);
  EXPECT_EQ(cantFail(R.readString()), "hello");
  EXPECT_TRUE(R.atEnd());
}

TEST(BinaryStreamTest, LittleEndianLayout) {
  BinaryWriter W;
  W.writeU32(0x01020304);
  ASSERT_EQ(W.size(), 4u);
  EXPECT_EQ(W.bytes()[0], 0x04);
  EXPECT_EQ(W.bytes()[3], 0x01);
}

TEST(BinaryStreamTest, TruncatedReadsFail) {
  BinaryWriter W;
  W.writeU16(7);
  BinaryReader R(W.bytes());
  auto V = R.readU64();
  EXPECT_FALSE(static_cast<bool>(V));
  (void)V.takeError();
}

TEST(BinaryStreamTest, TruncatedStringFails) {
  BinaryWriter W;
  W.writeU32(100); // Claims 100 bytes; provides none.
  BinaryReader R(W.bytes());
  auto S = R.readString();
  EXPECT_FALSE(static_cast<bool>(S));
  (void)S.takeError();
}

//===----------------------------------------------------------------------===//
// FileUtils
//===----------------------------------------------------------------------===//

TEST(FileUtilsTest, RoundTrip) {
  std::string Path = testing::TempDir() + "/gprof_fileutils_test.bin";
  std::vector<uint8_t> Bytes = {0, 1, 2, 255, 7};
  cantFail(writeFileBytes(Path, Bytes));
  EXPECT_EQ(cantFail(readFileBytes(Path)), Bytes);
  std::remove(Path.c_str());
}

TEST(FileUtilsTest, MissingFileFails) {
  auto R = readFileBytes("/nonexistent/definitely/not/here");
  EXPECT_FALSE(static_cast<bool>(R));
  (void)R.takeError();
}

//===----------------------------------------------------------------------===//
// Random
//===----------------------------------------------------------------------===//

TEST(RandomTest, Deterministic) {
  SplitMix64 A(123), B(123);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RandomTest, BoundsRespected) {
  SplitMix64 Rng(7);
  for (int I = 0; I != 1000; ++I) {
    EXPECT_LT(Rng.nextBelow(10), 10u);
    uint64_t V = Rng.nextInRange(5, 9);
    EXPECT_GE(V, 5u);
    EXPECT_LE(V, 9u);
    double D = Rng.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(RandomTest, RoughUniformity) {
  SplitMix64 Rng(99);
  int Counts[4] = {0, 0, 0, 0};
  for (int I = 0; I != 40000; ++I)
    ++Counts[Rng.nextBelow(4)];
  for (int C : Counts) {
    EXPECT_GT(C, 9000);
    EXPECT_LT(C, 11000);
  }
}

//===----------------------------------------------------------------------===//
// CommandLine
//===----------------------------------------------------------------------===//

namespace {

Error parseArgs(OptionParser &P, std::vector<const char *> Args) {
  Args.insert(Args.begin(), "tool");
  return P.parse(static_cast<int>(Args.size()), Args.data());
}

} // namespace

TEST(CommandLineTest, FlagsAndValues) {
  OptionParser P("t", "test");
  P.addFlag("brief", 'b', "brief");
  P.addOption("out", 'o', "FILE", "output");
  cantFail(parseArgs(P, {"-b", "--out", "x.txt", "pos1", "pos2"}));
  EXPECT_TRUE(P.hasFlag("brief"));
  EXPECT_EQ(P.getValue("out").value(), "x.txt");
  ASSERT_EQ(P.positional().size(), 2u);
  EXPECT_EQ(P.positional()[0], "pos1");
}

TEST(CommandLineTest, EqualsAndAttachedForms) {
  OptionParser P("t", "test");
  P.addOption("out", 'o', "FILE", "output");
  cantFail(parseArgs(P, {"--out=a", "-ob"}));
  auto Vals = P.getValues("out");
  ASSERT_EQ(Vals.size(), 2u);
  EXPECT_EQ(Vals[0], "a");
  EXPECT_EQ(Vals[1], "b");
  EXPECT_EQ(P.getValue("out").value(), "b");
}

TEST(CommandLineTest, RepeatableValues) {
  OptionParser P("t", "test");
  P.addOption("k", 'k', "ARC", "arc");
  cantFail(parseArgs(P, {"-k", "a/b", "-k", "c/d"}));
  EXPECT_EQ(P.getValues("k").size(), 2u);
}

TEST(CommandLineTest, UnknownOptionFails) {
  OptionParser P("t", "test");
  Error E = parseArgs(P, {"--bogus"});
  EXPECT_TRUE(static_cast<bool>(E));
}

TEST(CommandLineTest, MissingValueFails) {
  OptionParser P("t", "test");
  P.addOption("out", 'o', "FILE", "output");
  Error E = parseArgs(P, {"--out"});
  EXPECT_TRUE(static_cast<bool>(E));
}

TEST(CommandLineTest, DoubleDashEndsOptions) {
  OptionParser P("t", "test");
  P.addFlag("brief", 'b', "brief");
  cantFail(parseArgs(P, {"--", "-b"}));
  EXPECT_FALSE(P.hasFlag("brief"));
  ASSERT_EQ(P.positional().size(), 1u);
  EXPECT_EQ(P.positional()[0], "-b");
}

TEST(CommandLineTest, HelpTextMentionsOptions) {
  OptionParser P("mytool", "does things");
  P.addOption("out", 'o', "FILE", "write output to FILE");
  std::string Help = P.helpText();
  EXPECT_NE(Help.find("mytool"), std::string::npos);
  EXPECT_NE(Help.find("--out"), std::string::npos);
  EXPECT_NE(Help.find("write output to FILE"), std::string::npos);
}
