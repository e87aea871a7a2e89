//===- tests/support/JsonValidator.cpp - Strict JSON checks ---------------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//

#include "tests/support/Oracles.h"

#include "support/Format.h"

namespace gprof {

namespace {

/// Minimal recursive-descent JSON parser.  It does not build a document
/// tree; it validates syntax and invokes a couple of shape callbacks the
/// trace checker needs.  Nesting depth is bounded to keep the recursion
/// safe on hostile input.
class JsonParser {
public:
  explicit JsonParser(const std::string &Text) : Text(Text) {}

  /// Parses one complete document; fails on trailing garbage.
  Error parseDocument() {
    skipWs();
    if (Error E = parseValue(0))
      return E;
    skipWs();
    if (Pos != Text.size())
      return fail("trailing garbage after JSON value");
    return Error::success();
  }

  size_t consumed() const { return Pos; }

private:
  Error fail(const std::string &Why) const {
    return Error::failure(
        format("invalid JSON at byte %zu: %s", Pos, Why.c_str()));
  }

  void skipWs() {
    while (Pos < Text.size() &&
           (Text[Pos] == ' ' || Text[Pos] == '\t' || Text[Pos] == '\n' ||
            Text[Pos] == '\r'))
      ++Pos;
  }

  bool eat(char C) {
    if (Pos < Text.size() && Text[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }

  Error parseValue(unsigned Depth) {
    if (Depth > 64)
      return fail("nesting too deep");
    if (Pos >= Text.size())
      return fail("unexpected end of input");
    char C = Text[Pos];
    if (C == '{')
      return parseObject(Depth);
    if (C == '[')
      return parseArray(Depth);
    if (C == '"') {
      std::string Ignored;
      return parseString(Ignored);
    }
    if (C == '-' || (C >= '0' && C <= '9'))
      return parseNumber();
    if (Text.compare(Pos, 4, "true") == 0) {
      Pos += 4;
      return Error::success();
    }
    if (Text.compare(Pos, 5, "false") == 0) {
      Pos += 5;
      return Error::success();
    }
    if (Text.compare(Pos, 4, "null") == 0) {
      Pos += 4;
      return Error::success();
    }
    return fail(format("unexpected character '%c'", C));
  }

  Error parseObject(unsigned Depth) {
    eat('{');
    skipWs();
    if (eat('}'))
      return Error::success();
    while (true) {
      skipWs();
      std::string Key;
      if (Pos >= Text.size() || Text[Pos] != '"')
        return fail("expected object key string");
      if (Error E = parseString(Key))
        return E;
      skipWs();
      if (!eat(':'))
        return fail("expected ':' after object key");
      skipWs();
      if (Error E = parseValue(Depth + 1))
        return E;
      skipWs();
      if (eat('}'))
        return Error::success();
      if (!eat(','))
        return fail("expected ',' or '}' in object");
    }
  }

  Error parseArray(unsigned Depth) {
    eat('[');
    skipWs();
    if (eat(']'))
      return Error::success();
    while (true) {
      skipWs();
      if (Error E = parseValue(Depth + 1))
        return E;
      skipWs();
      if (eat(']'))
        return Error::success();
      if (!eat(','))
        return fail("expected ',' or ']' in array");
    }
  }

  Error parseString(std::string &Out) {
    eat('"');
    while (true) {
      if (Pos >= Text.size())
        return fail("unterminated string");
      char C = Text[Pos++];
      if (C == '"')
        return Error::success();
      if (static_cast<unsigned char>(C) < 0x20)
        return fail("raw control character in string");
      if (C != '\\') {
        Out += C;
        continue;
      }
      if (Pos >= Text.size())
        return fail("unterminated escape");
      char E = Text[Pos++];
      switch (E) {
      case '"':
      case '\\':
      case '/':
        Out += E;
        break;
      case 'b':
        Out += '\b';
        break;
      case 'f':
        Out += '\f';
        break;
      case 'n':
        Out += '\n';
        break;
      case 'r':
        Out += '\r';
        break;
      case 't':
        Out += '\t';
        break;
      case 'u': {
        if (Pos + 4 > Text.size())
          return fail("truncated \\u escape");
        unsigned V = 0;
        for (int I = 0; I != 4; ++I) {
          char H = Text[Pos++];
          V <<= 4;
          if (H >= '0' && H <= '9')
            V |= static_cast<unsigned>(H - '0');
          else if (H >= 'a' && H <= 'f')
            V |= static_cast<unsigned>(H - 'a' + 10);
          else if (H >= 'A' && H <= 'F')
            V |= static_cast<unsigned>(H - 'A' + 10);
          else
            return fail("bad hex digit in \\u escape");
        }
        // The validator only needs well-formedness; fold non-ASCII code
        // points to '?' rather than implementing UTF-8 encoding.
        Out += V < 0x80 ? static_cast<char>(V) : '?';
        break;
      }
      default:
        return fail(format("bad escape '\\%c'", E));
      }
    }
  }

  Error parseNumber() {
    size_t Start = Pos;
    eat('-');
    if (Pos >= Text.size() || Text[Pos] < '0' || Text[Pos] > '9')
      return fail("malformed number");
    if (Text[Pos] == '0')
      ++Pos;
    else
      while (Pos < Text.size() && Text[Pos] >= '0' && Text[Pos] <= '9')
        ++Pos;
    if (Pos < Text.size() && Text[Pos] == '.') {
      ++Pos;
      if (Pos >= Text.size() || Text[Pos] < '0' || Text[Pos] > '9')
        return fail("malformed number fraction");
      while (Pos < Text.size() && Text[Pos] >= '0' && Text[Pos] <= '9')
        ++Pos;
    }
    if (Pos < Text.size() && (Text[Pos] == 'e' || Text[Pos] == 'E')) {
      ++Pos;
      if (Pos < Text.size() && (Text[Pos] == '+' || Text[Pos] == '-'))
        ++Pos;
      if (Pos >= Text.size() || Text[Pos] < '0' || Text[Pos] > '9')
        return fail("malformed number exponent");
      while (Pos < Text.size() && Text[Pos] >= '0' && Text[Pos] <= '9')
        ++Pos;
    }
    (void)Start;
    return Error::success();
  }

  const std::string &Text;
  size_t Pos = 0;
};

} // namespace

Expected<size_t> validateJson(const std::string &Json) {
  JsonParser P(Json);
  if (Error E = P.parseDocument())
    return E;
  return P.consumed();
}

Expected<TraceStats> validateTraceJson(const std::string &Json) {
  if (Expected<size_t> Ok = validateJson(Json); !Ok)
    return Ok.takeError();

  // The document is syntactically valid; a focused second scan locates
  // "traceEvents" and splits its elements.  The syntax pass above
  // guarantees these steps cannot run off the rails.
  size_t Key = Json.find("\"traceEvents\"");
  if (Key == std::string::npos)
    return Error::failure("trace JSON has no \"traceEvents\" member");
  size_t Open = Json.find('[', Key);
  if (Open == std::string::npos)
    return Error::failure("\"traceEvents\" is not an array");

  TraceStats Stats;
  size_t Pos = Open + 1;
  while (true) {
    while (Pos < Json.size() &&
           (Json[Pos] == ' ' || Json[Pos] == '\t' || Json[Pos] == '\n' ||
            Json[Pos] == '\r' || Json[Pos] == ','))
      ++Pos;
    if (Pos >= Json.size())
      return Error::failure("unterminated \"traceEvents\" array");
    if (Json[Pos] == ']')
      break;
    if (Json[Pos] != '{')
      return Error::failure("\"traceEvents\" element is not an object");

    // Scan one balanced object, tracking strings so braces inside string
    // values do not miscount.
    size_t Start = Pos;
    int Depth = 0;
    bool InString = false;
    for (; Pos < Json.size(); ++Pos) {
      char C = Json[Pos];
      if (InString) {
        if (C == '\\')
          ++Pos;
        else if (C == '"')
          InString = false;
        continue;
      }
      if (C == '"')
        InString = true;
      else if (C == '{')
        ++Depth;
      else if (C == '}' && --Depth == 0) {
        ++Pos;
        break;
      }
    }
    std::string Obj = Json.substr(Start, Pos - Start);

    auto stringMember = [&Obj](const char *Name) -> std::string {
      std::string Needle = std::string("\"") + Name + "\"";
      size_t K = Obj.find(Needle);
      if (K == std::string::npos)
        return std::string();
      size_t Colon = Obj.find(':', K + Needle.size());
      if (Colon == std::string::npos)
        return std::string();
      size_t Q = Obj.find('"', Colon);
      if (Q == std::string::npos)
        return std::string();
      size_t End = Q + 1;
      while (End < Obj.size() && Obj[End] != '"') {
        if (Obj[End] == '\\')
          ++End;
        ++End;
      }
      return Obj.substr(Q + 1, End - Q - 1);
    };

    std::string Ph = stringMember("ph");
    std::string Name = stringMember("name");
    if (Ph.empty())
      return Error::failure("trace event missing string \"ph\"");
    if (Name.empty())
      return Error::failure("trace event missing string \"name\"");
    ++Stats.Events;
    if (Ph == "X")
      ++Stats.CompleteEvents;
    else if (Ph == "M")
      ++Stats.MetaEvents;
    ++Stats.NameCounts[Name];

    size_t TidKey = Obj.find("\"tid\"");
    if (TidKey != std::string::npos) {
      size_t Colon = Obj.find(':', TidKey);
      if (Colon != std::string::npos) {
        uint64_t Tid = 0;
        size_t D = Colon + 1;
        while (D < Obj.size() && (Obj[D] == ' '))
          ++D;
        bool Any = false;
        while (D < Obj.size() && Obj[D] >= '0' && Obj[D] <= '9') {
          Tid = Tid * 10 + static_cast<uint64_t>(Obj[D] - '0');
          ++D;
          Any = true;
        }
        if (Any)
          Stats.Tids.insert(Tid);
      }
    }
  }
  return Stats;
}

} // namespace gprof
