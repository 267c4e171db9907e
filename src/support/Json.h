//===- support/Json.h - Minimal JSON writing and parsing --------*- C++ -*-===//
///
/// \file
/// Just enough JSON for the observability layer: an escaping writer and
/// a file writer shared by the exporters, and a small recursive-descent
/// DOM parser used by the tests (BENCH_*.json schema validation, metrics
/// snapshot round-trips) and the profiling CLI. Not a general-purpose library:
/// no comments, no trailing commas, numbers parsed as double.
///
//===----------------------------------------------------------------------===//

#ifndef JITVS_SUPPORT_JSON_H
#define JITVS_SUPPORT_JSON_H

#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace jitvs::json {

/// Writes \p S as a JSON string literal (quotes, escapes applied).
void writeString(std::ostream &OS, const std::string &S);

/// Opens \p Path and writes it with \p Fn. \returns false, after a
/// "<Who>: cannot open" line on stderr, when the file cannot be opened,
/// and false when a write failed.
bool writeFile(const std::string &Path, const char *Who,
               const std::function<void(std::ostream &)> &Fn);

/// A parsed JSON document node.
struct Value {
  enum Kind { Null, Bool, Number, String, Array, Object } K = Null;
  bool B = false;
  double Num = 0.0;
  std::string Str;
  std::vector<Value> Arr;
  std::map<std::string, Value> Obj;

  bool isNull() const { return K == Null; }
  bool isBool() const { return K == Bool; }
  bool isNumber() const { return K == Number; }
  bool isString() const { return K == String; }
  bool isArray() const { return K == Array; }
  bool isObject() const { return K == Object; }

  /// Object member access; \returns nullptr when absent or not an object.
  const Value *get(const std::string &Key) const {
    if (K != Object)
      return nullptr;
    auto It = Obj.find(Key);
    return It == Obj.end() ? nullptr : &It->second;
  }
};

/// Parses \p Text. On failure returns nullptr and, when \p ErrorOut is
/// non-null, stores a one-line diagnostic with the byte offset.
std::unique_ptr<Value> parse(const std::string &Text,
                             std::string *ErrorOut = nullptr);

/// Convenience: reads and parses a whole file (nullptr on I/O failure).
std::unique_ptr<Value> parseFile(const std::string &Path,
                                 std::string *ErrorOut = nullptr);

} // namespace jitvs::json

#endif // JITVS_SUPPORT_JSON_H
