// Strict command-line values, shared by the examples and the benches: an
// option has its value and a number is in its stated range, or the run
// stops with exit 2.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <system_error>

namespace pbecc::util {

// The value after the option at argv[i], advancing i past it. An option
// that is the last word prints "missing value for <option>" and exits 2.
inline const char* option_value(int argc, char** argv, int& i) {
  if (i + 1 >= argc) {
    std::fprintf(stderr, "missing value for %s\n", argv[i]);
    std::exit(2);
  }
  return argv[++i];
}

// `text` as an integer in [lo, hi]. Anything else — empty, a sign or
// digits followed by other characters, out of range — prints
// "<flag> needs a whole number in lo..hi (got '<text>')" and exits 2.
inline long long whole_number_arg(const char* flag, const char* text,
                                  long long lo, long long hi) {
  const char* end = text + std::strlen(text);
  long long v = 0;
  const auto [ptr, ec] = std::from_chars(text, end, v);
  if (ec != std::errc{} || ptr != end || v < lo || v > hi) {
    std::fprintf(stderr, "%s needs a whole number in %lld..%lld (got '%s')\n",
                 flag, lo, hi, text);
    std::exit(2);
  }
  return v;
}

// `text` as a finite decimal ("0.05", "-85", "1e-3") in [lo, hi].
// Anything else — trailing characters, inf or nan, out of range — prints
// "<flag> needs a number in lo..hi (got '<text>')" and exits 2.
inline double decimal_arg(const char* flag, const char* text, double lo,
                          double hi) {
  const char* end = text + std::strlen(text);
  double v = 0;
  const auto [ptr, ec] = std::from_chars(text, end, v);
  if (ec != std::errc{} || ptr != end || !std::isfinite(v) || v < lo ||
      v > hi) {
    std::fprintf(stderr, "%s needs a number in %g..%g (got '%s')\n", flag, lo,
                 hi, text);
    std::exit(2);
  }
  return v;
}

}  // namespace pbecc::util
