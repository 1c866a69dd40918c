//===- bench/BenchUtil.h - Shared bench plumbing ----------------*- C++ -*-===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Environment-configurable knobs shared by the table/figure benches.
/// The paper's setup is a 2x AMD EPYC server with 300-second timeouts and
/// tens of thousands of constraints; this reproduction defaults to
/// laptop-scale settings (documented in EXPERIMENTS.md):
///
///   STAUB_BENCH_TIMEOUT  per-constraint timeout in seconds (default 1.0;
///                        the paper uses 300)
///   STAUB_BENCH_COUNT    instances per logic suite (default 24; the
///                        paper's suites have 1.7k-25k)
///   STAUB_BENCH_SEED     generator seed (default 42)
///   STAUB_BENCH_JOBS     suite-evaluation worker threads (default 1);
///                        the `--jobs N` command-line flag overrides it,
///                        and `--jobs 0` means one per hardware thread
///
/// The timeout takes what `--timeout` takes (parseTimeoutSeconds; below
/// 0.05 s it is raised to 0.05 s), the others whole numbers (a count at
/// least 1). A bench given anything else exits 2 naming the setting.
///
//===----------------------------------------------------------------------===//

#ifndef STAUB_BENCH_BENCHUTIL_H
#define STAUB_BENCH_BENCHUTIL_H

#include "benchgen/Generators.h"
#include "solver/Solver.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

namespace staub {

/// Exits 2, naming the setting \p Name and what it takes, when its text
/// \p Text is not a valid value.
[[noreturn]] inline void rejectBenchSetting(const char *Name,
                                            const char *Text,
                                            const char *Expected) {
  std::fprintf(stderr, "error: %s '%s': expected %s\n", Name, Text, Expected);
  std::exit(2);
}

/// The whole of \p Text as a whole number of at least \p Min (and at most
/// \p Max); exits 2 naming \p Name otherwise.
inline uint64_t parseBenchNumber(const char *Name, const char *Text,
                                 uint64_t Min, uint64_t Max = UINT_MAX) {
  char *End = nullptr;
  errno = 0;
  uint64_t Value = std::strtoull(Text, &End, 10);
  if (!std::isdigit(static_cast<unsigned char>(Text[0])) || *End != '\0' ||
      errno == ERANGE || Value < Min || Value > Max)
    rejectBenchSetting(Name, Text,
                       Min ? "a whole number above 0" : "a whole number");
  return Value;
}

inline double benchTimeoutSeconds() {
  const char *Env = std::getenv("STAUB_BENCH_TIMEOUT");
  if (!Env)
    return 1.0;
  std::optional<double> Seconds = parseTimeoutSeconds(Env);
  if (!Seconds)
    rejectBenchSetting("STAUB_BENCH_TIMEOUT", Env,
                       "a finite number of seconds above 0");
  return std::max(0.05, *Seconds);
}

inline unsigned benchCount() {
  if (const char *Env = std::getenv("STAUB_BENCH_COUNT"))
    return static_cast<unsigned>(
        parseBenchNumber("STAUB_BENCH_COUNT", Env, 1));
  return 24;
}

inline uint64_t benchSeed() {
  if (const char *Env = std::getenv("STAUB_BENCH_SEED"))
    return parseBenchNumber("STAUB_BENCH_SEED", Env, 0, UINT64_MAX);
  return 42;
}

inline BenchConfig benchConfig() {
  BenchConfig Config;
  Config.Seed = benchSeed();
  Config.Count = benchCount();
  return Config;
}

/// Worker-thread count for parallel suite evaluation: `--jobs N` /
/// `--jobs=N` on the command line, else STAUB_BENCH_JOBS, else 1
/// (sequential). 0 resolves to one job per hardware thread inside the
/// harness. Parallelism changes suite wall-clock only, never the
/// per-constraint measurements (see EXPERIMENTS.md).
inline unsigned benchJobs(int Argc = 0, char **Argv = nullptr) {
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--jobs") == 0 && I + 1 < Argc)
      return static_cast<unsigned>(parseBenchNumber("--jobs", Argv[I + 1], 0));
    if (std::strncmp(Argv[I], "--jobs=", 7) == 0)
      return static_cast<unsigned>(parseBenchNumber("--jobs", Argv[I] + 7, 0));
  }
  if (const char *Env = std::getenv("STAUB_BENCH_JOBS"))
    return static_cast<unsigned>(parseBenchNumber("STAUB_BENCH_JOBS", Env, 0));
  return 1;
}

/// Machine-readable trajectory output: `--json <file>` / `--json=<file>`
/// makes a bench mirror its headline numbers into a JSON file (CI uploads
/// these as artifacts so runs can be compared over time). Empty when the
/// flag is absent.
inline std::string benchJsonPath(int Argc, char **Argv) {
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--json") == 0 && I + 1 < Argc)
      return Argv[I + 1];
    if (std::strncmp(Argv[I], "--json=", 7) == 0)
      return Argv[I] + 7;
  }
  return {};
}

/// Minimal JSON object builder for the trajectory files: flat keys with
/// number / string / raw (pre-serialized) values. Not a general
/// serializer — strings are escaped for backslash and quote only, which
/// covers everything the benches emit.
class JsonObject {
public:
  template <typename T,
            typename = std::enable_if_t<std::is_integral_v<T>>>
  JsonObject &add(std::string_view Key, T Value) {
    if constexpr (std::is_same_v<T, bool>)
      return addRaw(Key, Value ? "true" : "false");
    else
      return addRaw(Key, std::to_string(Value));
  }

  JsonObject &add(std::string_view Key, double Value) {
    char Buffer[32];
    std::snprintf(Buffer, sizeof(Buffer), "%.6g", Value);
    return addRaw(Key, Buffer);
  }

  JsonObject &add(std::string_view Key, std::string_view Value) {
    std::string Quoted = "\"";
    for (char C : Value) {
      if (C == '"' || C == '\\')
        Quoted += '\\';
      Quoted += C;
    }
    Quoted += '"';
    return addRaw(Key, Quoted);
  }

  /// \p Raw must already be valid JSON (a nested object or array).
  JsonObject &addRaw(std::string_view Key, std::string_view Raw) {
    if (!Body.empty())
      Body += ", ";
    Body += '"';
    Body += Key;
    Body += "\": ";
    Body += Raw;
    return *this;
  }

  std::string str() const { return "{" + Body + "}"; }

private:
  std::string Body;
};

/// Serializes already-rendered JSON values into an array.
inline std::string jsonArray(const std::vector<std::string> &Elements) {
  std::string Out = "[";
  for (size_t I = 0; I < Elements.size(); ++I) {
    if (I)
      Out += ", ";
    Out += Elements[I];
  }
  Out += "]";
  return Out;
}

/// Writes \p Json (plus a trailing newline) to \p Path; returns false and
/// warns on stderr when the file cannot be opened.
inline bool writeJsonFile(const std::string &Path, const std::string &Json) {
  std::FILE *File = std::fopen(Path.c_str(), "w");
  if (!File) {
    std::fprintf(stderr, "warning: cannot write JSON to %s\n", Path.c_str());
    return false;
  }
  std::fprintf(File, "%s\n", Json.c_str());
  std::fclose(File);
  return true;
}

} // namespace staub

#endif // STAUB_BENCH_BENCHUTIL_H
