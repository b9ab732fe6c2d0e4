// Strict numeric command-line values, shared by run_experiment and the
// benches: a value is a whole number in a stated range or the run stops.
#pragma once

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <system_error>

namespace pbecc::util {

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

}  // namespace pbecc::util
