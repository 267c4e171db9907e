//===- support/Json.cpp - Minimal JSON writer and parser ------------------===//

#include "support/Json.h"

#include <cctype>
#include <cstdio>
#include <cstring>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <sstream>

using namespace jitvs;

void json::writeString(std::ostream &OS, const std::string &S) {
  OS << '"';
  for (char Ch : S) {
    unsigned char C = static_cast<unsigned char>(Ch);
    switch (C) {
    case '"':
      OS << "\\\"";
      break;
    case '\\':
      OS << "\\\\";
      break;
    case '\n':
      OS << "\\n";
      break;
    case '\t':
      OS << "\\t";
      break;
    case '\r':
      OS << "\\r";
      break;
    default:
      if (C < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        OS << Buf;
      } else {
        OS << static_cast<char>(C);
      }
    }
  }
  OS << '"';
}

bool json::writeFile(const std::string &Path, const char *Who,
                     const std::function<void(std::ostream &)> &Fn) {
  std::ofstream OS(Path);
  if (!OS) {
    std::fprintf(stderr, "%s: cannot open '%s' for writing\n", Who,
                 Path.c_str());
    return false;
  }
  Fn(OS);
  OS.flush();
  return static_cast<bool>(OS);
}

namespace {

/// Recursive-descent parser over a string. Tracks the offset for
/// diagnostics; depth-limited so malformed deeply-nested input cannot
/// smash the C++ stack.
class Parser {
public:
  Parser(const std::string &Text, std::string *ErrorOut)
      : Text(Text), ErrorOut(ErrorOut) {}

  std::unique_ptr<json::Value> run() {
    auto V = std::make_unique<json::Value>();
    if (!parseValue(*V, 0))
      return nullptr;
    skipWs();
    if (Pos != Text.size()) {
      fail("trailing content after document");
      return nullptr;
    }
    return V;
  }

private:
  static constexpr int MaxDepth = 64;

  bool fail(const std::string &Msg) {
    if (ErrorOut && ErrorOut->empty())
      *ErrorOut = Msg + " at offset " + std::to_string(Pos);
    return false;
  }

  void skipWs() {
    while (Pos < Text.size() && std::isspace(
                                    static_cast<unsigned char>(Text[Pos])))
      ++Pos;
  }

  bool literal(const char *Word) {
    size_t N = std::strlen(Word);
    if (Text.compare(Pos, N, Word) != 0)
      return fail(std::string("expected '") + Word + "'");
    Pos += N;
    return true;
  }

  bool parseString(std::string &Out) {
    if (Pos >= Text.size() || Text[Pos] != '"')
      return fail("expected string");
    ++Pos;
    Out.clear();
    while (Pos < Text.size()) {
      char C = Text[Pos++];
      if (C == '"')
        return true;
      if (C != '\\') {
        Out += C;
        continue;
      }
      if (Pos >= Text.size())
        break;
      char E = Text[Pos++];
      switch (E) {
      case '"':
      case '\\':
      case '/':
        Out += E;
        break;
      case 'n':
        Out += '\n';
        break;
      case 't':
        Out += '\t';
        break;
      case 'r':
        Out += '\r';
        break;
      case 'b':
        Out += '\b';
        break;
      case 'f':
        Out += '\f';
        break;
      case 'u': {
        if (Pos + 4 > Text.size())
          return fail("truncated \\u escape");
        unsigned Code = 0;
        for (int I = 0; I != 4; ++I) {
          char H = Text[Pos++];
          Code <<= 4;
          if (H >= '0' && H <= '9')
            Code |= static_cast<unsigned>(H - '0');
          else if (H >= 'a' && H <= 'f')
            Code |= static_cast<unsigned>(H - 'a' + 10);
          else if (H >= 'A' && H <= 'F')
            Code |= static_cast<unsigned>(H - 'A' + 10);
          else
            return fail("bad \\u escape digit");
        }
        // Basic-plane only; encode as UTF-8.
        if (Code < 0x80) {
          Out += static_cast<char>(Code);
        } else if (Code < 0x800) {
          Out += static_cast<char>(0xC0 | (Code >> 6));
          Out += static_cast<char>(0x80 | (Code & 0x3F));
        } else {
          Out += static_cast<char>(0xE0 | (Code >> 12));
          Out += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
          Out += static_cast<char>(0x80 | (Code & 0x3F));
        }
        break;
      }
      default:
        return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  bool parseValue(json::Value &V, int Depth) {
    if (Depth > MaxDepth)
      return fail("nesting too deep");
    skipWs();
    if (Pos >= Text.size())
      return fail("unexpected end of input");
    char C = Text[Pos];
    if (C == '{') {
      ++Pos;
      V.K = json::Value::Object;
      skipWs();
      if (Pos < Text.size() && Text[Pos] == '}') {
        ++Pos;
        return true;
      }
      while (true) {
        skipWs();
        std::string Key;
        if (!parseString(Key))
          return false;
        skipWs();
        if (Pos >= Text.size() || Text[Pos] != ':')
          return fail("expected ':'");
        ++Pos;
        if (!parseValue(V.Obj[Key], Depth + 1))
          return false;
        skipWs();
        if (Pos < Text.size() && Text[Pos] == ',') {
          ++Pos;
          continue;
        }
        if (Pos < Text.size() && Text[Pos] == '}') {
          ++Pos;
          return true;
        }
        return fail("expected ',' or '}'");
      }
    }
    if (C == '[') {
      ++Pos;
      V.K = json::Value::Array;
      skipWs();
      if (Pos < Text.size() && Text[Pos] == ']') {
        ++Pos;
        return true;
      }
      while (true) {
        V.Arr.emplace_back();
        if (!parseValue(V.Arr.back(), Depth + 1))
          return false;
        skipWs();
        if (Pos < Text.size() && Text[Pos] == ',') {
          ++Pos;
          continue;
        }
        if (Pos < Text.size() && Text[Pos] == ']') {
          ++Pos;
          return true;
        }
        return fail("expected ',' or ']'");
      }
    }
    if (C == '"') {
      V.K = json::Value::String;
      return parseString(V.Str);
    }
    if (C == 't') {
      V.K = json::Value::Bool;
      V.B = true;
      return literal("true");
    }
    if (C == 'f') {
      V.K = json::Value::Bool;
      V.B = false;
      return literal("false");
    }
    if (C == 'n') {
      V.K = json::Value::Null;
      return literal("null");
    }
    // Number.
    size_t Start = Pos;
    if (Pos < Text.size() && Text[Pos] == '-')
      ++Pos;
    while (Pos < Text.size() &&
           (std::isdigit(static_cast<unsigned char>(Text[Pos])) ||
            Text[Pos] == '.' || Text[Pos] == 'e' || Text[Pos] == 'E' ||
            Text[Pos] == '+' || Text[Pos] == '-'))
      ++Pos;
    if (Pos == Start)
      return fail("expected value");
    char *End = nullptr;
    std::string Num = Text.substr(Start, Pos - Start);
    V.K = json::Value::Number;
    V.Num = std::strtod(Num.c_str(), &End);
    if (!End || *End != '\0')
      return fail("malformed number");
    return true;
  }

  const std::string &Text;
  std::string *ErrorOut;
  size_t Pos = 0;
};

} // namespace

std::unique_ptr<json::Value> json::parse(const std::string &Text,
                                         std::string *ErrorOut) {
  return Parser(Text, ErrorOut).run();
}

std::unique_ptr<json::Value> json::parseFile(const std::string &Path,
                                             std::string *ErrorOut) {
  std::ifstream In(Path);
  if (!In) {
    if (ErrorOut)
      *ErrorOut = "cannot open " + Path;
    return nullptr;
  }
  std::ostringstream SS;
  SS << In.rdbuf();
  return parse(SS.str(), ErrorOut);
}
