// Minimal JSON reader and writer helpers for the benchmark harness. It
// reads three documents: STATS replies (nested objects of numbers),
// BENCHMARK.json (the metric contract) and BENCH_e2e.json (compare mode).
#ifndef SGQ_E2EBENCH_JSON_H_
#define SGQ_E2EBENCH_JSON_H_

#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace e2e {

struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<Json> array;
  std::map<std::string, Json> object;

  // Member lookup; a shared null value when absent or not an object.
  const Json& operator[](const std::string& key) const;
  // Number at `key`, or `fallback` when absent or not a number.
  double Num(const std::string& key, double fallback = 0) const;
  bool IsObject() const { return type == Type::kObject; }
};

// Parses a complete document. False + *error on malformed input.
bool ParseJson(std::string_view text, Json* out, std::string* error);

// Reads and parses a file.
bool ReadJsonFile(const std::string& path, Json* out, std::string* error);

// JSON string literal (quoted, escaped).
std::string Quote(std::string_view s);

// A finite number with all its significant digits (%.17g); JSON has no
// NaN/inf, so those print as 0.
std::string Number(double value);

}  // namespace e2e

#endif  // SGQ_E2EBENCH_JSON_H_
